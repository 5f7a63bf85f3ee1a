"""Bad fixture for RFP003: RF_PROTECT_* read outside repro.config."""

import os
from os import environ, getenv


def dtype() -> str:
    direct = os.environ.get("RF_PROTECT_NN_DTYPE", "float64")
    via_getenv = getenv("RF_PROTECT_NN_DTYPE")
    subscripted = environ["RF_PROTECT_NN_DTYPE"]
    return via_getenv or subscripted or direct
