"""rflint engine: parsed sources, path scoping, suppression, the driver.

A :class:`Rule` inspects one parsed :class:`SourceFile` and yields
:class:`Finding` objects. Each file is parsed once and its import aliases
are computed once (:attr:`SourceFile.aliases`); every rule in
:data:`repro.devtools.rules.RULES` whose *path scope* matches then runs
over it. A scope is a pair of fnmatch glob tuples (``Rule.include`` /
``Rule.exclude``) — e.g. the dtype-discipline rule only runs under the
numeric packages. Directory walks skip :data:`DEFAULT_EXCLUDES`, which
holds the fixture corpus.

Suppression is per *logical line*: a trailing ``# rflint: disable=RFP001``
(comma-separated ids, or ``all``) silences matching findings anywhere on
the statement's physical line span — so a disable comment at the end of a
parenthesized continuation or a multi-line ``def`` header covers the whole
statement, not just the physical line the comment sits on.
"""

from __future__ import annotations

import ast
import dataclasses
import fnmatch
import io
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import ClassVar

__all__ = [
    "DEFAULT_EXCLUDES",
    "Finding",
    "LintResult",
    "PARSE_ERROR_ID",
    "Rule",
    "SourceFile",
    "build_aliases",
    "lint_paths",
    "lint_source",
    "resolve",
]

#: Pseudo-rule id attached to unparseable or unreadable files. Not
#: suppressible.
PARSE_ERROR_ID = "RFP000"

#: Directory-walk excludes. The lint fixture corpus intentionally violates
#: every rule, so it must never count against the tree; explicitly named
#: files bypass these.
DEFAULT_EXCLUDES: tuple[str, ...] = (
    "*tests/fixtures/*",
    "*/__pycache__/*",
    "*/.git/*",
    "*.egg-info/*",
    "*/build/*",
)

_SUPPRESS_RE = re.compile(r"#\s*rflint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format_human(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


_NON_CONTENT_TOKENS = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)


def _collect_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids disabled on that line.

    Comments are found with :mod:`tokenize` so a ``# rflint:`` sequence
    inside a string literal never counts. A disable comment trailing any
    physical line of a *logical* line (a statement spanning parenthesized
    continuations, a multi-line ``def`` header) suppresses the whole span
    — findings anchor at the statement's first line, the comment often
    sits on its last. On tokenization failure (the file will be reported
    as a parse error anyway) no suppressions apply.
    """
    suppressions: dict[int, frozenset[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions

    def add(line: int, ids: frozenset[str]) -> None:
        suppressions[line] = suppressions.get(line, frozenset()) | ids

    pending: frozenset[str] = frozenset()
    span_start: int | None = None
    span_end: int | None = None
    saw_content = False
    for token in tokens:
        if token.type == tokenize.COMMENT:
            match = _SUPPRESS_RE.search(token.string)
            if match is not None:
                ids = frozenset(
                    part.strip().upper()
                    for part in match.group(1).split(",")
                    if part.strip()
                )
                if ids and saw_content:
                    # Trailing comment: covers the whole logical line.
                    pending |= ids
                elif ids:
                    # Standalone comment line: covers only itself.
                    add(token.start[0], ids)
            continue
        if token.type == tokenize.NEWLINE:
            if pending and span_start is not None and span_end is not None:
                for line in range(span_start, span_end + 1):
                    add(line, pending)
            pending = frozenset()
            span_start = span_end = None
            saw_content = False
        elif token.type not in _NON_CONTENT_TOKENS:
            saw_content = True
            if span_start is None:
                span_start = token.start[0]
            span_end = max(span_end or 0, token.end[0])
    return suppressions


def build_aliases(tree: ast.Module) -> dict[str, str]:
    """Map names bound by imports to the dotted path they denote.

    ``import numpy as np`` -> ``{"np": "numpy"}``; ``from numpy import
    random as npr`` -> ``{"npr": "numpy.random"}``. Relative imports are
    skipped (their absolute target is unknowable statically).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                aliases[bound] = f"{node.module}.{alias.name}"
    return aliases


def resolve(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """The full dotted path ``node`` refers to, or ``None``.

    Only resolves chains rooted at an imported name, so local variables
    that happen to share a module's name never match.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = aliases.get(current.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


@dataclasses.dataclass
class SourceFile:
    """One parsed Python file presented to the rules."""

    display_path: str
    text: str
    tree: ast.Module
    suppressions: dict[int, frozenset[str]]
    #: Import aliases (:func:`build_aliases`), computed once per file.
    aliases: dict[str, str]

    @classmethod
    def from_source(cls, text: str, display_path: str) -> "SourceFile":
        """Parse ``text``; raises ``SyntaxError`` on unparseable input."""
        tree = ast.parse(text, filename=display_path)
        return cls(
            display_path=display_path,
            text=text,
            tree=tree,
            suppressions=_collect_suppressions(text),
            aliases=build_aliases(tree),
        )

    def is_suppressed(self, finding: Finding) -> bool:
        disabled = self.suppressions.get(finding.line)
        if disabled is None:
            return False
        return finding.rule_id in disabled or "ALL" in disabled


class Rule:
    """Base class for rflint rules.

    Subclasses set the class attributes and implement :meth:`check`;
    listing them in :data:`repro.devtools.rules.RULES` makes them run.
    """

    rule_id: ClassVar[str]
    title: ClassVar[str]
    #: Path scope (fnmatch globs over posix-style paths). ``*`` matches
    #: across ``/``, so ``*repro/radar/*`` hits any depth.
    include: ClassVar[tuple[str, ...]] = ("*",)
    exclude: ClassVar[tuple[str, ...]] = ()

    def check(self, source: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, source: SourceFile, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            path=source.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


@dataclasses.dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run."""

    findings: tuple[Finding, ...]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings


def _matches(path_posix: str, patterns: Iterable[str]) -> bool:
    return any(
        fnmatch.fnmatch(path_posix, pattern)
        or fnmatch.fnmatch(path_posix, pattern.rstrip("/") + "/*")
        for pattern in patterns
    )


def _rule_applies(rule_cls: type[Rule], display_path: str) -> bool:
    return (_matches(display_path, rule_cls.include)
            and not _matches(display_path, rule_cls.exclude))


def _display_path(path: Path) -> str:
    # Normalized posix form so glob scopes behave identically everywhere.
    return Path(str(path)).as_posix().removeprefix("./")


def iter_source_paths(paths: Sequence[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list.

    :data:`DEFAULT_EXCLUDES` apply only during directory traversal: a file
    named explicitly on the command line is always linted (that is how the
    fixture corpus exercises itself).
    """
    seen: set[str] = set()
    collected: list[Path] = []

    def add(path: Path) -> None:
        key = _display_path(path)
        if key not in seen:
            seen.add(key)
            collected.append(path)

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _matches(_display_path(candidate), DEFAULT_EXCLUDES):
                    add(candidate)
        elif path.is_file():
            add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return collected


def lint_source(text: str, display_path: str) -> list[Finding]:
    """Lint one in-memory source blob under ``display_path``'s scopes."""
    # rules.py subclasses Rule from this module, so it is imported late.
    from repro.devtools.rules import RULES

    try:
        source = SourceFile.from_source(text, display_path)
    except SyntaxError as error:
        return [Finding(path=display_path, line=error.lineno or 1,
                        col=(error.offset or 0) + 1, rule_id=PARSE_ERROR_ID,
                        message=f"syntax error: {error.msg}")]
    findings = [
        finding
        for rule_cls in RULES
        if _rule_applies(rule_cls, display_path)
        for finding in rule_cls().check(source)
        if not source.is_suppressed(finding)
    ]
    return sorted(findings)


def lint_paths(paths: Sequence[Path | str]) -> LintResult:
    """Lint files and directories; the core entry point behind the CLI."""
    files = iter_source_paths(paths)
    findings: list[Finding] = []
    for path in files:
        display = _display_path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            findings.append(
                Finding(path=display, line=1, col=1, rule_id=PARSE_ERROR_ID,
                        message=f"unreadable file: {error}")
            )
            continue
        findings.extend(lint_source(text, display))
    return LintResult(findings=tuple(sorted(findings)),
                      files_checked=len(files))
