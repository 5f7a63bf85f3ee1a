"""One op of the ``figures`` workload: a cold ``rfprotect run all --fast``.

Run as ``python perfbench/figures_child.py --report PATH [--trace]`` with
``PYTHONPATH`` pointing at ``src``. It times ``import repro.cli``, runs
the CLI's ``run all --fast`` exactly as the ``rfprotect`` entry point
would (tables go to stdout), and writes a JSON
report: import time, the stage/nn/synthesis counter growth of the pass,
and, with ``--trace``, one span per ``run_experiment`` call plus the nn
probes of :class:`common.NnProbes`. With ``--import-only`` it stops after
the import, which is the workload's set-up.
"""

import time

T_PROCESS = time.perf_counter()

import repro.cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from typing import Any  # noqa: E402

from common import NnProbes, counter_delta, layer_counters  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()
    if args.import_only:
        return 0

    experiments: list[tuple[str, float, float]] = []
    probes = NnProbes()
    if args.trace:
        from repro.experiments import runner

        run_experiment = runner.run_experiment

        def spanned(experiment_id: str, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return run_experiment(experiment_id, **kwargs)
            finally:
                experiments.append((experiment_id, started,
                                    time.perf_counter()))

        runner.run_experiment = spanned
        probes.install()

    before = layer_counters()
    code = repro.cli.main(["run", "all", "--fast"])
    sys.stdout.flush()
    report = {
        "exit": code,
        "import": [T_PROCESS, T_IMPORTED],
        "experiments": experiments,
        "counters": counter_delta(before, layer_counters()),
        "probes": probes.snapshot(),
    }
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
