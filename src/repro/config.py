"""Central typed registry for ``RF_PROTECT_*`` environment variables.

Every environment variable the reproduction responds to is declared here as
an :class:`EnvVar` with a name, a default, a parser, and a docstring, and is
read exclusively through this module. That single point of truth is what
keeps runtime dispatch auditable: one place lists every knob, every knob
validates its raw value the same way, and the ``rflint`` rule **RFP003**
(:mod:`repro.devtools.rules`) rejects any ``os.environ`` /``os.getenv`` read
of an ``RF_PROTECT_*`` name anywhere else in the tree.

Typical use::

    from repro.config import get_serve_max_batch

    max_batch = get_serve_max_batch()

Adding a knob means adding one ``EnvVar`` declaration plus a typed accessor
function; nothing else in the tree should touch the environment.
"""

from __future__ import annotations

import dataclasses
import math
import os
from collections.abc import Callable, Mapping
from typing import Generic, TypeVar

from repro.errors import ConfigurationError

__all__ = [
    "AUDIT_KEY_FILE_VAR",
    "AUDIT_LEDGER_NAME_VAR",
    "AUDIT_PROFILE_VAR",
    "ENV_ACCESSORS",
    "ENV_REGISTRY",
    "EnvVar",
    "LINT_CACHE_VAR",
    "NN_DTYPES",
    "NN_DTYPE_VAR",
    "SCENARIO_SEED_VAR",
    "SCENARIO_VAR",
    "SERVE_BATCH_WINDOW_MS_VAR",
    "SERVE_DEADLINE_S_VAR",
    "SERVE_MAX_BATCH_VAR",
    "SERVE_QUEUE_DEPTH_VAR",
    "SERVE_WORKERS_VAR",
    "SESSION_IDLE_S_VAR",
    "SESSION_MAX_LIVE_VAR",
    "SESSION_MAX_SESSIONS_VAR",
    "SESSION_SWEEP_S_VAR",
    "get_audit_key_file",
    "get_audit_ledger_name",
    "get_audit_profile",
    "get_lint_cache_dir",
    "get_nn_dtype",
    "get_scenario_name",
    "get_scenario_seed",
    "get_serve_batch_window_ms",
    "get_serve_deadline_s",
    "get_serve_max_batch",
    "get_serve_queue_depth",
    "get_serve_workers",
    "get_session_idle_s",
    "get_session_max_live",
    "get_session_max_sessions",
    "get_session_sweep_s",
]

T = TypeVar("T")

#: Recognized autograd default dtypes (see ``repro.nn.tensor``).
NN_DTYPES: tuple[str, ...] = ("float32", "float64")


@dataclasses.dataclass(frozen=True)
class EnvVar(Generic[T]):
    """One declared environment variable: name, default, parser, docs.

    Attributes:
        name: full environment-variable name (``RF_PROTECT_*``).
        default: value used when the variable is unset.
        parse: raw-string -> value parser; raise :class:`ConfigurationError`
            (or ``ValueError``, which is wrapped) on invalid input.
        description: one-line summary for docs and error messages.
    """

    name: str
    default: T
    parse: Callable[[str], T]
    description: str = ""

    def read(self, environ: Mapping[str, str] | None = None) -> T:
        """The variable's parsed value from ``environ`` (default: process env)."""
        env: Mapping[str, str] = os.environ if environ is None else environ
        raw = env.get(self.name)
        if raw is None:
            return self.default
        try:
            return self.parse(raw)
        except ConfigurationError:
            raise
        except ValueError as error:
            raise ConfigurationError(
                f"{self.name}={raw!r} is invalid: {error}"
            ) from error


#: Every environment variable the library reads, keyed by variable name.
ENV_REGISTRY: dict[str, EnvVar[str]] = {}


def _register(var: EnvVar[T]) -> EnvVar[T]:
    if var.name in ENV_REGISTRY:
        raise ConfigurationError(f"duplicate env var registration: {var.name}")
    if not var.name.startswith("RF_PROTECT_"):
        raise ConfigurationError(
            f"env vars must be namespaced RF_PROTECT_*, got {var.name!r}"
        )
    ENV_REGISTRY[var.name] = var  # type: ignore[assignment]
    return var


def _choice_parser(var_name: str,
                   choices: tuple[str, ...]) -> Callable[[str], str]:
    """A parser accepting exactly ``choices`` (case-insensitively)."""
    def parse(raw: str) -> str:
        choice = raw.strip().lower()
        if choice not in choices:
            raise ConfigurationError(
                f"{var_name} must be one of {choices}, got {choice!r}"
            )
        return choice
    return parse


NN_DTYPE_VAR: EnvVar[str] = _register(
    EnvVar(
        name="RF_PROTECT_NN_DTYPE",
        default="float64",
        parse=_choice_parser("RF_PROTECT_NN_DTYPE", NN_DTYPES),
        description="default dtype for autograd leaf tensors and nn "
                    "parameters: 'float64' (reference precision) or "
                    "'float32' (faster GEMMs at paper-scale GAN training)",
    )
)


def _nonempty_str_parser(var_name: str) -> Callable[[str], str]:
    """A parser accepting any non-empty (post-strip) string."""
    def parse(raw: str) -> str:
        value = raw.strip()
        if not value:
            raise ConfigurationError(f"{var_name} must not be empty")
        return value
    return parse


def _positive_int_parser(var_name: str) -> Callable[[str], int]:
    """A parser accepting strictly positive integers."""
    def parse(raw: str) -> int:
        value = int(raw.strip())
        if value <= 0:
            raise ConfigurationError(
                f"{var_name} must be a positive integer, got {value}"
            )
        return value
    return parse


def _positive_float_parser(var_name: str, *,
                           allow_zero: bool = False) -> Callable[[str], float]:
    """A parser accepting positive (optionally zero) finite floats."""
    def parse(raw: str) -> float:
        value = float(raw.strip())
        if not math.isfinite(value):
            raise ConfigurationError(f"{var_name} must be finite, got {value}")
        if value < 0 or (value == 0 and not allow_zero):
            bound = ">= 0" if allow_zero else "> 0"
            raise ConfigurationError(
                f"{var_name} must be {bound}, got {value}"
            )
        return value
    return parse


SERVE_BATCH_WINDOW_MS_VAR: EnvVar[float] = _register(
    EnvVar(
        name="RF_PROTECT_SERVE_BATCH_WINDOW_MS",
        default=2.0,
        parse=_positive_float_parser("RF_PROTECT_SERVE_BATCH_WINDOW_MS",
                                     allow_zero=True),
        description="micro-batching window in milliseconds: how long the "
                    "sensing service holds an open batch for more compatible "
                    "requests before flushing it (0 flushes immediately)",
    )
)


SERVE_MAX_BATCH_VAR: EnvVar[int] = _register(
    EnvVar(
        name="RF_PROTECT_SERVE_MAX_BATCH",
        default=32,
        parse=_positive_int_parser("RF_PROTECT_SERVE_MAX_BATCH"),
        description="largest number of sense requests the service coalesces "
                    "into one vectorized batch",
    )
)


SERVE_QUEUE_DEPTH_VAR: EnvVar[int] = _register(
    EnvVar(
        name="RF_PROTECT_SERVE_QUEUE_DEPTH",
        default=256,
        parse=_positive_int_parser("RF_PROTECT_SERVE_QUEUE_DEPTH"),
        description="admission-control bound: requests pending inside the "
                    "service before new submissions are rejected",
    )
)


SERVE_DEADLINE_S_VAR: EnvVar[float] = _register(
    EnvVar(
        name="RF_PROTECT_SERVE_DEADLINE_S",
        default=30.0,
        parse=_positive_float_parser("RF_PROTECT_SERVE_DEADLINE_S"),
        description="default per-request deadline in seconds: queued work "
                    "whose deadline expires is cancelled, never executed",
    )
)


SERVE_WORKERS_VAR: EnvVar[int] = _register(
    EnvVar(
        name="RF_PROTECT_SERVE_WORKERS",
        default=2,
        parse=_positive_int_parser("RF_PROTECT_SERVE_WORKERS"),
        description="bounded worker pool size executing flushed batches",
    )
)


SESSION_MAX_LIVE_VAR: EnvVar[int] = _register(
    EnvVar(
        name="RF_PROTECT_SESSION_MAX_LIVE",
        default=64,
        parse=_positive_int_parser("RF_PROTECT_SESSION_MAX_LIVE"),
        description="tracking sessions kept live (full tracker state in "
                    "memory) before the least-recently-used ones are parked "
                    "to compact checkpoints",
    )
)


SESSION_MAX_SESSIONS_VAR: EnvVar[int] = _register(
    EnvVar(
        name="RF_PROTECT_SESSION_MAX_SESSIONS",
        default=1024,
        parse=_positive_int_parser("RF_PROTECT_SESSION_MAX_SESSIONS"),
        description="total tracking sessions (live + parked checkpoints) "
                    "the session store retains before dropping the "
                    "least-recently-used ones entirely",
    )
)


SESSION_IDLE_S_VAR: EnvVar[float] = _register(
    EnvVar(
        name="RF_PROTECT_SESSION_IDLE_S",
        default=60.0,
        parse=_positive_float_parser("RF_PROTECT_SESSION_IDLE_S"),
        description="seconds a tracking session may sit without ingesting a "
                    "frame before the eviction sweep parks its tracker "
                    "state to a checkpoint",
    )
)


SESSION_SWEEP_S_VAR: EnvVar[float] = _register(
    EnvVar(
        name="RF_PROTECT_SESSION_SWEEP_S",
        default=5.0,
        parse=_positive_float_parser("RF_PROTECT_SESSION_SWEEP_S"),
        description="cadence in seconds of the service's idle-session "
                    "eviction sweep",
    )
)


AUDIT_LEDGER_NAME_VAR: EnvVar[str] = _register(
    EnvVar(
        name="RF_PROTECT_AUDIT_LEDGER",
        default="ledger.jsonl",
        parse=_nonempty_str_parser("RF_PROTECT_AUDIT_LEDGER"),
        description="filename of the hash-chained artifact ledger inside a "
                    "record directory (experiments runner and 'rfprotect "
                    "audit' must agree on it)",
    )
)


AUDIT_KEY_FILE_VAR: EnvVar[str] = _register(
    EnvVar(
        name="RF_PROTECT_AUDIT_KEY",
        default="",
        parse=lambda raw: raw.strip(),
        description="path to an Ed25519 signing-key file (from 'rfprotect "
                    "audit keygen'); empty (the default) leaves ledgers and "
                    "reports unsigned, CLI --key-file overrides",
    )
)


AUDIT_PROFILE_VAR: EnvVar[str] = _register(
    EnvVar(
        name="RF_PROTECT_AUDIT_PROFILE",
        default="",
        parse=lambda raw: raw.strip(),
        description="path to a privacy-SLO profile JSON for 'rfprotect "
                    "audit report'; empty (the default) evaluates the "
                    "built-in rf-protect-default profile",
    )
)


LINT_CACHE_VAR: EnvVar[str] = _register(
    EnvVar(
        name="RF_PROTECT_LINT_CACHE",
        default="",
        parse=lambda raw: raw.strip(),
        description="directory for rflint's incremental analysis cache; "
                    "empty (the default) disables caching, the CLI flags "
                    "--cache-dir/--no-cache override in either direction",
    )
)


def _non_negative_int_parser(var_name: str) -> Callable[[str], int]:
    """A parser accepting integers >= 0."""
    def parse(raw: str) -> int:
        value = int(raw.strip())
        if value < 0:
            raise ConfigurationError(
                f"{var_name} must be >= 0, got {value}"
            )
        return value
    return parse


SCENARIO_VAR: EnvVar[str] = _register(
    EnvVar(
        name="RF_PROTECT_SCENARIO",
        default="",
        parse=lambda raw: raw.strip(),
        description="default scenario name resolved through the scenario "
                    "registry (repro.scenarios) by the experiments runner "
                    "and 'rfprotect serve'; empty (the default) keeps each "
                    "consumer's built-in default, CLI --scenario overrides",
    )
)


SCENARIO_SEED_VAR: EnvVar[int] = _register(
    EnvVar(
        name="RF_PROTECT_SCENARIO_SEED",
        default=0,
        parse=_non_negative_int_parser("RF_PROTECT_SCENARIO_SEED"),
        description="base seed for scenario content streams (per-human "
                    "trajectories, reflector strategy) when a scenario is "
                    "built without an explicit seed",
    )
)


def get_audit_ledger_name(environ: Mapping[str, str] | None = None) -> str:
    """Ledger filename inside a record dir, from ``RF_PROTECT_AUDIT_LEDGER``."""
    return AUDIT_LEDGER_NAME_VAR.read(environ)


def get_audit_key_file(environ: Mapping[str, str] | None = None) -> str:
    """Signing-key file path ('' = unsigned), from ``RF_PROTECT_AUDIT_KEY``."""
    return AUDIT_KEY_FILE_VAR.read(environ)


def get_audit_profile(environ: Mapping[str, str] | None = None) -> str:
    """SLO profile path ('' = built-in), from ``RF_PROTECT_AUDIT_PROFILE``."""
    return AUDIT_PROFILE_VAR.read(environ)


def get_lint_cache_dir(environ: Mapping[str, str] | None = None) -> str:
    """rflint cache directory ('' = off), from ``RF_PROTECT_LINT_CACHE``."""
    return LINT_CACHE_VAR.read(environ)


def get_scenario_name(environ: Mapping[str, str] | None = None) -> str:
    """Default scenario name ('' = consumer default), from ``RF_PROTECT_SCENARIO``.

    Validation against the registry happens at resolution time
    (:func:`repro.scenarios.get_scenario`), not here — the config layer
    stays import-independent of the catalog.
    """
    return SCENARIO_VAR.read(environ)


def get_scenario_seed(environ: Mapping[str, str] | None = None) -> int:
    """Scenario base seed, from ``RF_PROTECT_SCENARIO_SEED``."""
    return SCENARIO_SEED_VAR.read(environ)


def get_nn_dtype(environ: Mapping[str, str] | None = None) -> str:
    """The autograd default dtype name, from ``RF_PROTECT_NN_DTYPE``."""
    return NN_DTYPE_VAR.read(environ)


def get_serve_batch_window_ms(environ: Mapping[str, str] | None = None) -> float:
    """Micro-batching window (ms), from ``RF_PROTECT_SERVE_BATCH_WINDOW_MS``."""
    return SERVE_BATCH_WINDOW_MS_VAR.read(environ)


def get_serve_max_batch(environ: Mapping[str, str] | None = None) -> int:
    """Largest coalesced batch size, from ``RF_PROTECT_SERVE_MAX_BATCH``."""
    return SERVE_MAX_BATCH_VAR.read(environ)


def get_serve_queue_depth(environ: Mapping[str, str] | None = None) -> int:
    """Admission-control queue bound, from ``RF_PROTECT_SERVE_QUEUE_DEPTH``."""
    return SERVE_QUEUE_DEPTH_VAR.read(environ)


def get_serve_deadline_s(environ: Mapping[str, str] | None = None) -> float:
    """Default request deadline (s), from ``RF_PROTECT_SERVE_DEADLINE_S``."""
    return SERVE_DEADLINE_S_VAR.read(environ)


def get_serve_workers(environ: Mapping[str, str] | None = None) -> int:
    """Batch-executing worker count, from ``RF_PROTECT_SERVE_WORKERS``."""
    return SERVE_WORKERS_VAR.read(environ)


def get_session_max_live(environ: Mapping[str, str] | None = None) -> int:
    """Live tracking-session bound, from ``RF_PROTECT_SESSION_MAX_LIVE``."""
    return SESSION_MAX_LIVE_VAR.read(environ)


def get_session_max_sessions(environ: Mapping[str, str] | None = None) -> int:
    """Total session retention bound, from ``RF_PROTECT_SESSION_MAX_SESSIONS``."""
    return SESSION_MAX_SESSIONS_VAR.read(environ)


def get_session_idle_s(environ: Mapping[str, str] | None = None) -> float:
    """Idle-session parking threshold (s), from ``RF_PROTECT_SESSION_IDLE_S``."""
    return SESSION_IDLE_S_VAR.read(environ)


def get_session_sweep_s(environ: Mapping[str, str] | None = None) -> float:
    """Eviction-sweep cadence (s), from ``RF_PROTECT_SESSION_SWEEP_S``."""
    return SESSION_SWEEP_S_VAR.read(environ)


#: Accessor for every declared variable, keyed by variable name. Tests use
#: this to prove the registry is complete: a knob declared without a typed
#: accessor (or vice versa) fails ``tests/test_config_registry.py``.
ENV_ACCESSORS: dict[str, Callable[[Mapping[str, str] | None], object]] = {
    "RF_PROTECT_AUDIT_LEDGER": get_audit_ledger_name,
    "RF_PROTECT_AUDIT_KEY": get_audit_key_file,
    "RF_PROTECT_AUDIT_PROFILE": get_audit_profile,
    "RF_PROTECT_LINT_CACHE": get_lint_cache_dir,
    "RF_PROTECT_SCENARIO": get_scenario_name,
    "RF_PROTECT_SCENARIO_SEED": get_scenario_seed,
    "RF_PROTECT_NN_DTYPE": get_nn_dtype,
    "RF_PROTECT_SERVE_BATCH_WINDOW_MS": get_serve_batch_window_ms,
    "RF_PROTECT_SERVE_MAX_BATCH": get_serve_max_batch,
    "RF_PROTECT_SERVE_QUEUE_DEPTH": get_serve_queue_depth,
    "RF_PROTECT_SERVE_DEADLINE_S": get_serve_deadline_s,
    "RF_PROTECT_SERVE_WORKERS": get_serve_workers,
    "RF_PROTECT_SESSION_MAX_LIVE": get_session_max_live,
    "RF_PROTECT_SESSION_MAX_SESSIONS": get_session_max_sessions,
    "RF_PROTECT_SESSION_IDLE_S": get_session_idle_s,
    "RF_PROTECT_SESSION_SWEEP_S": get_session_sweep_s,
}
