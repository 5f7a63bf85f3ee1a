"""The one ``RF_PROTECT_*`` environment variable, read only here.

``RF_PROTECT_NN_DTYPE`` picks the default dtype of autograd leaf tensors
and nn parameters (:func:`repro.nn.default_dtype`); every other setting
has a single surface, a constructor field or a CLI flag. The ``rflint``
rule **RFP003** (:mod:`repro.devtools.rules`) rejects any ``os.environ``
/ ``os.getenv`` read of an ``RF_PROTECT_*`` name outside this module, and
run provenance (:mod:`repro.audit.provenance`) records the resolved value
of every entry of :data:`ENV_ACCESSORS`.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping

from repro.errors import ConfigurationError

__all__ = ["ENV_ACCESSORS", "NN_DTYPES", "get_nn_dtype"]

#: Recognized autograd default dtypes (see ``repro.nn.tensor``).
NN_DTYPES: tuple[str, ...] = ("float32", "float64")


def get_nn_dtype(environ: Mapping[str, str] | None = None) -> str:
    """The autograd default dtype name, from ``RF_PROTECT_NN_DTYPE``.

    ``float64`` (reference precision) when unset; ``float32`` gives faster
    GEMMs at paper-scale GAN training. Case and surrounding blanks are
    ignored; any other value raises :class:`ConfigurationError`.
    """
    env: Mapping[str, str] = os.environ if environ is None else environ
    choice = env.get("RF_PROTECT_NN_DTYPE", "float64").strip().lower()
    if choice not in NN_DTYPES:
        raise ConfigurationError(
            f"RF_PROTECT_NN_DTYPE must be one of {NN_DTYPES}, got {choice!r}"
        )
    return choice


#: Accessor of every environment variable the library reads, keyed by
#: variable name (what provenance snapshots).
ENV_ACCESSORS: dict[str, Callable[[Mapping[str, str] | None], object]] = {
    "RF_PROTECT_NN_DTYPE": get_nn_dtype,
}
