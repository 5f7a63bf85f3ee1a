"""Run provenance: what code and configuration produced an artifact.

A ledger record is only evidence if it says *what* ran: the package
version, and the resolved value of every environment variable the
library reads (:data:`repro.config.ENV_ACCESSORS`; today only
``RF_PROTECT_NN_DTYPE``, whose dtype selection changes numeric results).
The snapshot's canonical hash gives reports a one-line configuration
fingerprint.
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
    """Resolved value of every environment variable (defaults where unset)."""
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
