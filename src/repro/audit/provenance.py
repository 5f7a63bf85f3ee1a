"""Run provenance: what code and configuration produced an artifact.

A ledger record is only evidence if it says *what* ran: the package
version, and the resolved value of every declared ``RF_PROTECT_*`` knob
(the dtype selection changes numeric results; serve knobs change latency
artifacts). The snapshot is taken through the typed registry's
accessor table (:data:`repro.config.ENV_ACCESSORS`) so a knob added to
the registry shows up in provenance automatically, and its canonical
hash gives reports a one-line configuration fingerprint.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from typing import Any

from repro._version import __version__
from repro.audit.canonical import digest
from repro.config import ENV_ACCESSORS

__all__ = ["config_snapshot", "provenance"]


def config_snapshot(
    environ: Mapping[str, str] | None = None,
) -> dict[str, Any]:
    """Resolved value of every declared knob (defaults where unset)."""
    return {name: accessor(environ)
            for name, accessor in sorted(ENV_ACCESSORS.items())}


def provenance(environ: Mapping[str, str] | None = None) -> dict[str, Any]:
    """The self-describing header attached to ledger payloads."""
    config = config_snapshot(environ)
    return {
        "package_version": __version__,
        "python_version": "{}.{}.{}".format(*sys.version_info[:3]),
        "config": config,
        "config_hash": digest(config),
    }
