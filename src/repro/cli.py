"""``rfprotect`` command-line interface.

Usage::

    rfprotect list                 # show the available experiments
    rfprotect run fig7             # full run of one experiment
    rfprotect run fig11 --fast     # quick (seconds-scale) run
    rfprotect run all --fast       # every experiment, quick settings,
                                   # one worker process per usable CPU
    rfprotect run all --fast --workers 1   # the same, in one process
    rfprotect scenarios            # list the registered scenario specs
    rfprotect run fig9 --fast --scenario home   # run against a scenario
    rfprotect lint src tests       # rflint static-analysis suite
    rfprotect serve --requests 32  # micro-batching sensing service demo
    rfprotect audit report runs/   # signed privacy audit report
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.errors import ReproError
from repro.experiments.runner import EXPERIMENTS, run_experiments

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfprotect",
        description="RF-Protect (SIGCOMM 2022) reproduction harness",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    subparsers.add_parser("scenarios",
                          help="list the registered scenario specs")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument(
        "experiment",
        help="experiment id (fig7 ... fig14, table1) or 'all'",
    )
    run_parser.add_argument(
        "--fast", action="store_true",
        help="use quick-run settings (seconds instead of minutes)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="override the experiment's random seed",
    )
    run_parser.add_argument(
        "--scenario", default=None,
        help="run against a registered scenario's environment (see "
             "'rfprotect scenarios'; default: each experiment's own)",
    )
    run_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for multi-experiment runs (default: "
             "usable CPUs, at most one per experiment)",
    )
    run_parser.add_argument(
        "--record-dir", default=None,
        help="write a per-experiment timing/result JSON record here",
    )

    lint_parser = subparsers.add_parser(
        "lint", add_help=False,
        help="run the rflint static-analysis suite (see 'rfprotect lint -h')",
    )
    lint_parser.add_argument("lint_args", nargs=argparse.REMAINDER)

    serve_parser = subparsers.add_parser(
        "serve", add_help=False,
        help="run the micro-batching sensing service on a demo workload "
             "(see 'rfprotect serve -h')",
    )
    serve_parser.add_argument("serve_args", nargs=argparse.REMAINDER)

    audit_parser = subparsers.add_parser(
        "audit", add_help=False,
        help="hash-chained, signed privacy audit trail "
             "(see 'rfprotect audit -h')",
    )
    audit_parser.add_argument("audit_args", nargs=argparse.REMAINDER)
    return parser


def _run_all(experiment_ids: list[str], *, fast: bool, seed: int | None,
             scenario: str | None, workers: int | None,
             record_dir: str | None) -> None:
    options: dict[str, object] = {} if seed is None else {"seed": seed}
    if scenario:
        options["scenario"] = scenario
    runs = run_experiments(experiment_ids, fast=fast, workers=workers,
                           record_dir=record_dir, **options)
    for run in runs:
        print(run.result.format_table())
        print(f"[{run.experiment_id} finished in {run.elapsed_s:.1f}s]")
        print()


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A reader that closes stdout early (``rfprotect run all | head -1``)
    ends the command with exit code 1 and no traceback.
    """
    try:
        code = _main(list(sys.argv[1:] if argv is None else argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's shutdown flush
        # cannot raise a second time (the Python docs' SIGPIPE recipe).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _main(arguments: list[str]) -> int:
    if arguments[:1] == ["lint"]:
        # Forwarded verbatim (before argparse) so lint's own options like
        # --list-rules and --format reach its parser untouched.
        from repro.devtools.lint import main as lint_main

        return lint_main(arguments[1:])
    if arguments[:1] == ["serve"]:
        # Same forwarding pattern: serve owns its option surface.
        from repro.serve.app import main as serve_main

        return serve_main(arguments[1:])
    if arguments[:1] == ["audit"]:
        # Same forwarding pattern: audit owns its subcommand surface.
        from repro.audit.app import main as audit_main

        return audit_main(arguments[1:])
    args = _build_parser().parse_args(arguments)

    if args.command == "list":
        width = max(len(eid) for eid in EXPERIMENTS)
        for experiment_id in sorted(EXPERIMENTS):
            spec = EXPERIMENTS[experiment_id]
            print(f"{experiment_id:<{width}}  {spec.description}")
        return 0

    if args.command == "scenarios":
        from repro.scenarios import get_scenario, scenario_names

        names = scenario_names()
        width = max(len(name) for name in names)
        for name in names:
            print(f"{name:<{width}}  {get_scenario(name).description}")
        return 0

    targets = (sorted(EXPERIMENTS) if args.experiment == "all"
               else [args.experiment])
    try:
        _run_all(targets, fast=args.fast, seed=args.seed,
                 scenario=args.scenario, workers=args.workers,
                 record_dir=args.record_dir)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
