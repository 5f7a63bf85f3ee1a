"""``rfprotect lint`` / ``python -m repro.devtools.lint`` entry point.

Usage::

    rfprotect lint                        # lint src and tests
    rfprotect lint src tests              # explicit paths
    rfprotect lint --list-rules

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.devtools.engine import lint_paths
from repro.devtools.rules import RULES

__all__ = ["main"]

_DEFAULT_PATHS = ("src", "tests")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfprotect lint",
        description="rflint: per-file AST invariant checks for the "
                    "RF-Protect reproduction",
    )
    parser.add_argument(
        "paths", nargs="*", default=list(_DEFAULT_PATHS),
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the rules and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_cls in RULES:
            print(f"{rule_cls.rule_id}  {rule_cls.title}")
        return 0
    try:
        result = lint_paths(args.paths)
    except FileNotFoundError as error:
        print(f"rflint: error: {error}", file=sys.stderr)
        return 2
    for finding in result.findings:
        print(finding.format_human())
    noun = "file" if result.files_checked == 1 else "files"
    status = "clean" if result.ok else f"{len(result.findings)} finding(s)"
    print(f"rflint: {result.files_checked} {noun} checked, {status}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
