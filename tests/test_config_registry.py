"""Tests for the one ``RF_PROTECT_*`` environment variable (`repro.config`).

Pins two properties: the autograd dtype knob accepts only the dtypes
``repro.nn`` supports, and no source file or document names an
``RF_PROTECT_*`` variable the library does not read, so a deleted knob
cannot linger in the docs.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.config import ENV_ACCESSORS, get_nn_dtype
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Where a knob's name could be read or documented: the sources, the two
#: design documents and the repo's verification recipes.
KNOB_TEXTS = (
    *sorted((REPO_ROOT / "src").rglob("*.py")),
    REPO_ROOT / "README.md",
    REPO_ROOT / "DESIGN.md",
    *sorted(REPO_ROOT.glob(".*/skills/*/SKILL.md")),
)


class TestNnDtypeKnob:
    def test_default_and_explicit(self):
        assert get_nn_dtype({}) == "float64"
        assert get_nn_dtype({"RF_PROTECT_NN_DTYPE": " Float32 "}) == "float32"

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigurationError, match="RF_PROTECT_NN_DTYPE"):
            get_nn_dtype({"RF_PROTECT_NN_DTYPE": "float16"})


class TestKnobNames:
    def test_only_read_variables_are_named(self):
        stale = sorted(
            (path.relative_to(REPO_ROOT).as_posix(), name)
            for path in KNOB_TEXTS
            for name in set(re.findall(r"RF_PROTECT_[A-Z0-9_]*",
                                       path.read_text(encoding="utf-8")))
            # The bare prefix, as in ``RF_PROTECT_*``, names no variable.
            if name != "RF_PROTECT_" and name not in ENV_ACCESSORS
        )
        assert stale == []
