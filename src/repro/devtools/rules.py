"""The rflint rule set: repo-specific invariants, machine-checked.

Each rule guards a property the reproduction's scientific validity rests
on — explicit RNG threading (bit-for-bit determinism under any worker
count), no wall-clock/uuid nondeterminism in result paths, centralized
``RF_PROTECT_*`` dispatch, dtype discipline in the beat-signal hot path,
scene construction through the scenario registry, and hygiene classics
(mutable defaults, swallowed exceptions, unseeded test RNGs).

Rule ids are stable: ``RFP001``–``RFP008``, ``RFP015`` and ``RFP016``,
listed in :data:`RULES`. Retired ids (``RFP009``–``RFP014``) are not
reused.
Suppress a deliberate violation with a trailing ``# rflint:
disable=RFP00x`` comment (it covers the statement's whole line span).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.engine import Finding, Rule, SourceFile, resolve

__all__ = [
    "RULES",
    "GlobalRandomState",
    "NondeterminismHazard",
    "EnvRegistryOnly",
    "DtypeDiscipline",
    "MutableDefaultArgument",
    "SwallowedException",
    "TestHygiene",
    "AsyncBlockingCall",
    "CanonicalSerializationDiscipline",
    "SceneConstructionOutsideBuilders",
]


_NUMPY_GLOBAL_RNG = frozenset(
    "numpy.random." + name
    for name in (
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "random_integers", "uniform", "normal",
        "standard_normal", "exponential", "poisson", "choice", "shuffle",
        "permutation", "bytes", "get_state", "set_state", "RandomState",
    )
)

_STDLIB_GLOBAL_RNG = frozenset(
    "random." + name
    for name in (
        "seed", "random", "randint", "randrange", "uniform", "choice",
        "choices", "shuffle", "sample", "gauss", "normalvariate",
        "betavariate", "expovariate", "triangular", "vonmisesvariate",
        "getrandbits", "getstate", "setstate",
    )
)


class GlobalRandomState(Rule):
    """RFP001 — no global RNG state; thread explicit ``np.random.Generator``s.

    PR 1's worker-count-independent seeding only holds if every random
    draw flows from an explicitly passed ``Generator``. Legacy
    ``np.random.*`` module functions and stdlib ``random.*`` functions
    mutate hidden process-global state that differs across worker layouts.
    """

    rule_id = "RFP001"
    title = "global RNG state"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = source.aliases
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                target = resolve(node.func, aliases)
                if target in _NUMPY_GLOBAL_RNG or target in _STDLIB_GLOBAL_RNG:
                    yield self.finding(
                        source, node,
                        f"{target}() uses hidden global RNG state; pass an "
                        f"explicit np.random.Generator instead",
                    )
            elif isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    target = f"{node.module}.{alias.name}"
                    if target in _NUMPY_GLOBAL_RNG or target in _STDLIB_GLOBAL_RNG:
                        yield self.finding(
                            source, node,
                            f"importing {target} binds a global-state RNG "
                            f"function; use np.random.default_rng(seed)",
                        )


_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
    }
)


class NondeterminismHazard(Rule):
    """RFP002 — wall-clock, uuid, and unordered-set nondeterminism.

    A result that embeds ``time.time()``/``uuid4()`` or depends on set
    iteration order cannot reproduce bit-for-bit. Monotonic timers
    (``time.perf_counter``) are fine: they measure, they don't leak into
    scientific outputs.
    """

    rule_id = "RFP002"
    title = "nondeterminism hazard"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = source.aliases
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                target = resolve(node.func, aliases)
                if target in _WALL_CLOCK_CALLS:
                    yield self.finding(
                        source, node,
                        f"{target}() is nondeterministic; derive run "
                        f"identity from seeds/options, time with "
                        f"time.perf_counter()",
                    )
            elif isinstance(node, ast.For):
                iterator = node.iter
                is_set = isinstance(iterator, (ast.Set, ast.SetComp)) or (
                    isinstance(iterator, ast.Call)
                    and isinstance(iterator.func, ast.Name)
                    and iterator.func.id in ("set", "frozenset")
                )
                if is_set:
                    yield self.finding(
                        source, node.iter,
                        "iterating an unordered set; wrap in sorted(...) so "
                        "downstream results are order-stable",
                    )


class EnvRegistryOnly(Rule):
    """RFP003 — ``RF_PROTECT_*`` env vars only via ``repro.config``.

    Direct ``os.environ`` reads scatter defaults and validation across the
    tree; the typed registry in :mod:`repro.config` is the single point of
    truth (and the only file this rule exempts).
    """

    rule_id = "RFP003"
    title = "env var read outside repro.config"
    exclude = ("*repro/config.py",)

    _PREFIX = "RF_PROTECT"

    def _literal_key(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith(self._PREFIX):
                return node.value
        return None

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = source.aliases
        for node in ast.walk(source.tree):
            key: str | None = None
            if isinstance(node, ast.Call) and node.args:
                target = resolve(node.func, aliases)
                if target in ("os.getenv", "os.environ.get"):
                    key = self._literal_key(node.args[0])
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                if resolve(node.value, aliases) == "os.environ":
                    key = self._literal_key(node.slice)
            if key is not None:
                yield self.finding(
                    source, node,
                    f"read of {key} bypasses the typed registry; use the "
                    f"repro.config accessor (e.g. get_nn_dtype())",
                )


_NUMPY_CONSTRUCTORS = {
    "numpy.zeros": 2,  # positional index (1-based arg count) where dtype sits
    "numpy.ones": 2,
    "numpy.empty": 2,
    "numpy.full": 3,
}

_COMPLEX_DTYPE_NAMES = frozenset(
    {"complex", "complex64", "complex128", "cdouble", "csingle"}
)


def _is_complex_dtype(node: ast.AST, aliases: dict[str, str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "complex"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in _COMPLEX_DTYPE_NAMES
    if isinstance(node, ast.Attribute):
        target = resolve(node, aliases)
        return target is not None and (
            target.rsplit(".", 1)[-1] in _COMPLEX_DTYPE_NAMES
        )
    return False


class DtypeDiscipline(Rule):
    """RFP004 — explicit dtypes in the radar/signal hot path.

    The beat-signal pipeline mixes complex tones, real windows, and power
    maps; an array constructor without ``dtype=`` inherits numpy's default
    and silently flips precision when a refactor moves it. Also flags
    storing ``np.abs(...)``/``.real`` slices into a complex-dtype buffer —
    the classic complex-vs-magnitude confusion.
    """

    rule_id = "RFP004"
    title = "dtype discipline"
    include = ("*repro/radar/*", "*repro/signal/*", "*repro/nn/*",
               "*repro/gan/*")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = source.aliases
        yield from self._check_constructors(source, aliases)
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_complex_downcasts(source, node, aliases)

    def _check_constructors(
        self, source: SourceFile, aliases: dict[str, str]
    ) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve(node.func, aliases)
            dtype_position = _NUMPY_CONSTRUCTORS.get(target or "")
            if dtype_position is None:
                continue
            has_kwarg = any(kw.arg == "dtype" for kw in node.keywords)
            has_positional = len(node.args) >= dtype_position
            if not (has_kwarg or has_positional):
                yield self.finding(
                    source, node,
                    f"{target}() without an explicit dtype=; the hot path "
                    f"must pin complex128/float64 precision",
                )

    def _check_complex_downcasts(
        self,
        source: SourceFile,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        aliases: dict[str, str],
    ) -> Iterator[Finding]:
        complex_buffers: set[str] = set()
        for node in ast.walk(function):
            if not isinstance(node, ast.Assign):
                continue
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                value = node.value
                if (
                    isinstance(value, ast.Call)
                    and resolve(value.func, aliases) in _NUMPY_CONSTRUCTORS
                ):
                    for keyword in value.keywords:
                        if keyword.arg == "dtype" and _is_complex_dtype(
                            keyword.value, aliases
                        ):
                            complex_buffers.add(node.targets[0].id)
        if not complex_buffers:
            return
        for node in ast.walk(function):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in complex_buffers
                ):
                    continue
                value = node.value
                magnitude = (
                    isinstance(value, ast.Call)
                    and resolve(value.func, aliases)
                    in ("numpy.abs", "numpy.absolute")
                )
                real_part = isinstance(value, ast.Attribute) and value.attr in (
                    "real",
                    "imag",
                )
                if magnitude or real_part:
                    yield self.finding(
                        source, node,
                        f"storing a real magnitude into complex buffer "
                        f"{target.value.id!r}; use a real-dtype array or "
                        f"keep the complex samples",
                    )


_MUTABLE_CALLS = frozenset(
    {
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.deque",
        "collections.Counter",
        "numpy.array",
        "numpy.zeros",
        "numpy.ones",
        "numpy.empty",
    }
)


class MutableDefaultArgument(Rule):
    """RFP005 — mutable default arguments.

    A ``def f(x=[])`` default is created once and shared by every call —
    state leaks across experiments and across pytest runs.
    """

    rule_id = "RFP005"
    title = "mutable default argument"

    def _is_mutable(self, node: ast.AST, aliases: dict[str, str]) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
                   ast.DictComp)
        ):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "list", "dict", "set", "bytearray",
            ):
                return True
            return resolve(node.func, aliases) in _MUTABLE_CALLS
        return False

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = source.aliases
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = node.args.defaults + [
                default for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default, aliases):
                    yield self.finding(
                        source, default,
                        f"mutable default argument in {node.name}(); default "
                        f"to None and construct inside the function",
                    )


class SwallowedException(Rule):
    """RFP006 — silently swallowed exceptions.

    A bare ``except:`` or a handler whose whole body is ``pass`` hides the
    very failures (shape mismatches, bad configs) the error hierarchy in
    :mod:`repro.errors` exists to surface.
    """

    rule_id = "RFP006"
    title = "silently swallowed exception"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    source, node,
                    "bare except: catches SystemExit/KeyboardInterrupt too; "
                    "catch a ReproError subclass (or at least Exception)",
                )
                continue
            if all(self._is_noop(stmt) for stmt in node.body):
                yield self.finding(
                    source, node,
                    "exception handler silently discards the error; handle "
                    "it, log it, or let it propagate",
                )

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            return True
        return isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ) and stmt.value.value is Ellipsis


class TestHygiene(Rule):
    """RFP007 — deterministic, isolated tests.

    Tests must construct RNGs from fixed seeds (an unseeded
    ``default_rng()`` makes failures unreproducible) and must not assign
    into imported modules/objects outside a fixture or ``monkeypatch`` —
    such state leaks across the suite and breaks ``pytest -p xdist``-style
    parallelism.
    """

    rule_id = "RFP007"
    title = "test hygiene"
    include = ("*tests/*", "test_*.py", "*conftest.py")

    _UNSEEDED = ("numpy.random.default_rng", "random.Random",
                 "random.SystemRandom")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = source.aliases
        imported_names = set(aliases)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                target = resolve(node.func, aliases)
                if target in self._UNSEEDED and not node.args:
                    yield self.finding(
                        source, node,
                        f"{target}() without a seed makes the test "
                        f"unreproducible; pass a fixed seed",
                    )
        yield from self._check_state_mutation(source, imported_names)

    def _check_state_mutation(
        self, source: SourceFile, imported_names: set[str]
    ) -> Iterator[Finding]:
        exempt_functions: set[ast.AST] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = {
                    arg.arg
                    for arg in (node.args.posonlyargs + node.args.args
                                + node.args.kwonlyargs)
                }
                fixture = any(
                    self._is_fixture_decorator(decorator)
                    for decorator in node.decorator_list
                )
                if "monkeypatch" in params or fixture:
                    exempt_functions.add(node)

        def walk_skipping_exempt(node: ast.AST) -> Iterator[ast.AST]:
            for child in ast.iter_child_nodes(node):
                if child in exempt_functions:
                    continue
                yield child
                yield from walk_skipping_exempt(child)

        for node in walk_skipping_exempt(source.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in imported_names
                ):
                    yield self.finding(
                        source, node,
                        f"assignment into imported {target.value.id!r} "
                        f"mutates shared module state; use monkeypatch or a "
                        f"fixture that restores it",
                    )

    @staticmethod
    def _is_fixture_decorator(decorator: ast.AST) -> bool:
        node = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(node, ast.Attribute) and node.attr == "fixture":
            return True
        return isinstance(node, ast.Name) and node.id == "fixture"


_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "io.open",
        "os.system",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
    }
)

_BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)


class AsyncBlockingCall(Rule):
    """RFP008 — no blocking calls inside ``async def`` in the serving stack.

    One ``time.sleep`` or synchronous file read inside a coroutine stalls
    the whole event loop: every queued request's latency absorbs it, the
    flusher misses its batch windows, and deadlines fire for work that was
    never behind. Blocking work belongs on the executor
    (``loop.run_in_executor``); coroutines must use ``asyncio.sleep`` and
    keep I/O out of the loop thread. Nested synchronous ``def``s are
    exempt — they are precisely what gets shipped to the executor.
    """

    rule_id = "RFP008"
    title = "blocking call in async function"
    include = ("*repro/serve/*",)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = source.aliases
        for node in ast.walk(source.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(source, node, aliases)

    def _check_coroutine(
        self, source: SourceFile, coroutine: ast.AsyncFunctionDef,
        aliases: dict[str, str],
    ) -> Iterator[Finding]:
        def walk_coroutine_body(node: ast.AST) -> Iterator[ast.AST]:
            # Nested defs are separate execution contexts: a sync def is
            # executor-bound (allowed to block), a nested async def is
            # visited as its own AsyncFunctionDef by check().
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                yield child
                yield from walk_coroutine_body(child)

        for node in walk_coroutine_body(coroutine):
            if not isinstance(node, ast.Call):
                continue
            target = resolve(node.func, aliases)
            if target in _BLOCKING_CALLS:
                hint = ("await asyncio.sleep(...)" if target == "time.sleep"
                        else "loop.run_in_executor(...)")
                yield self.finding(
                    source, node,
                    f"{target}() blocks the event loop inside async "
                    f"{coroutine.name}(); use {hint}",
                )
            elif isinstance(node.func, ast.Name) and node.func.id == "open":
                yield self.finding(
                    source, node,
                    f"open() blocks the event loop inside async "
                    f"{coroutine.name}(); do file I/O via "
                    f"loop.run_in_executor(...)",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_METHODS
            ):
                yield self.finding(
                    source, node,
                    f".{node.func.attr}() is synchronous file I/O inside "
                    f"async {coroutine.name}(); do it via "
                    f"loop.run_in_executor(...)",
                )


_JSON_SERIALIZERS = frozenset({"json.dumps", "json.dump"})


class CanonicalSerializationDiscipline(Rule):
    """RFP015 — audit-package JSON must serialize with sorted keys.

    Every hash and signature in :mod:`repro.audit` is computed over JSON
    bytes, so two serializations of the same record must be the same
    bytes. Python dicts preserve insertion order, which means a
    ``json.dumps`` without ``sort_keys=True`` bakes call-site history
    into the hash: reorder two assignments and every chain link and
    signature silently changes. Inside ``repro/audit/`` any
    ``json.dumps``/``json.dump`` call must pass a literal
    ``sort_keys=True`` (or go through
    :func:`repro.audit.canonical.canonical_json`, which does).
    """

    rule_id = "RFP015"
    title = "json serialization without sort_keys in the audit package"
    include = ("*repro/audit/*",)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = source.aliases
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve(node.func, aliases)
            if target not in _JSON_SERIALIZERS:
                continue
            sort_keys = next(
                (kw.value for kw in node.keywords
                 if kw.arg == "sort_keys"),
                None,
            )
            if (isinstance(sort_keys, ast.Constant)
                    and sort_keys.value is True):
                continue
            if sort_keys is None:
                detail = "without sort_keys"
            elif isinstance(sort_keys, ast.Constant):
                detail = f"with sort_keys={sort_keys.value!r}"
            else:
                detail = "with a non-literal sort_keys"
            yield self.finding(
                source, node,
                f"{target}() {detail} in the audit package makes "
                f"hashes depend on dict insertion order; pass "
                f"sort_keys=True or use "
                f"repro.audit.canonical.canonical_json()",
            )


_SCENE_CONSTRUCTORS = frozenset(
    {
        "repro.radar.Scene",
        "repro.radar.scene.Scene",
        "repro.scenarios.Environment",
        "repro.scenarios.builders.Environment",
        "repro.experiments.environments.Environment",
    }
)


class SceneConstructionOutsideBuilders(Rule):
    """RFP016 — scenes and environments only through ``repro.scenarios``.

    A hand-built ``Scene(...)``/``Environment(...)`` in experiment or
    serve code bypasses the scenario registry: its geometry never gets a
    golden digest, ``--scenario`` can't reach it, and the serve traffic
    mix can't draw it. The scenario builders
    (:mod:`repro.scenarios.builders`) are the single place specs become
    scenes — the same registry-only discipline RFP003 applies to
    ``RF_PROTECT_*`` reads. Construct through
    ``repro.scenarios.build(...)`` (or the
    ``Environment.make_scene`` helpers it returns) instead.
    """

    rule_id = "RFP016"
    title = "scene construction outside the scenario builders"
    include = ("*repro/experiments/*", "*repro/serve/*")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = source.aliases
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve(node.func, aliases)
            if target in _SCENE_CONSTRUCTORS:
                cls = target.rsplit(".", 1)[-1]
                yield self.finding(
                    source, node,
                    f"direct {cls}(...) construction bypasses the scenario "
                    f"registry; resolve deployments via "
                    f"repro.scenarios.build(...) so every scene is a "
                    f"registered, digest-covered spec",
                )


#: Every rule the linter runs, in rule-id order.
RULES: tuple[type[Rule], ...] = (
    GlobalRandomState,
    NondeterminismHazard,
    EnvRegistryOnly,
    DtypeDiscipline,
    MutableDefaultArgument,
    SwallowedException,
    TestHygiene,
    AsyncBlockingCall,
    CanonicalSerializationDiscipline,
    SceneConstructionOutsideBuilders,
)
