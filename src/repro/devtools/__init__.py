"""``repro.devtools`` — static-analysis tooling for the reproduction.

The centerpiece is **rflint**, an AST-based invariant checker that machine-
checks, file by file, the properties the test suite can only spot-check:
explicit RNG threading, determinism of result paths, dtype discipline in
the numeric hot paths, single-point-of-truth env-var dispatch, and scene
construction through the scenario registry.

Entry points:

* ``rfprotect lint [paths...]`` — CLI subcommand,
* ``python -m repro.devtools.lint`` — module form,
* :func:`repro.devtools.engine.lint_paths` — library API.

The rules and their :data:`~repro.devtools.rules.RULES` tuple live in
:mod:`repro.devtools.rules`; parsing, per-path scoping, suppression
handling and the driver live in :mod:`repro.devtools.engine`.
"""

from __future__ import annotations

from repro.devtools.engine import (
    Finding,
    LintResult,
    Rule,
    lint_paths,
    lint_source,
)

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "lint_paths",
    "lint_source",
]
