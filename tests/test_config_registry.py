"""Tests for the typed ``RF_PROTECT_*`` environment registry (`repro.config`).

Pins four properties: every serve knob parses/validates/defaults exactly
as declared, the registry and its accessor table stay complete mirrors of
each other (a knob added without a typed accessor — or vice versa — fails
here), ``ServiceConfig.from_env`` actually reads the registry, and the
autograd dtype knob accepts only the dtypes ``repro.nn`` supports.
"""

from __future__ import annotations

import pytest

from repro.config import (
    ENV_ACCESSORS,
    ENV_REGISTRY,
    get_nn_dtype,
    get_serve_batch_window_ms,
    get_serve_deadline_s,
    get_serve_max_batch,
    get_serve_queue_depth,
    get_serve_workers,
)
from repro.errors import ConfigurationError
from repro.serve.service import ServiceConfig

SERVE_VARS = {
    "RF_PROTECT_SERVE_BATCH_WINDOW_MS",
    "RF_PROTECT_SERVE_MAX_BATCH",
    "RF_PROTECT_SERVE_QUEUE_DEPTH",
    "RF_PROTECT_SERVE_DEADLINE_S",
    "RF_PROTECT_SERVE_WORKERS",
}


class TestRegistryCompleteness:
    def test_serve_knobs_declared(self):
        assert SERVE_VARS <= set(ENV_REGISTRY)

    def test_every_declared_var_has_an_accessor(self):
        assert sorted(ENV_ACCESSORS) == sorted(ENV_REGISTRY)

    def test_accessor_empty_env_returns_declared_default(self):
        for name, accessor in ENV_ACCESSORS.items():
            assert accessor({}) == ENV_REGISTRY[name].default

    def test_all_vars_namespaced_and_documented(self):
        for name, var in ENV_REGISTRY.items():
            assert name == var.name
            assert name.startswith("RF_PROTECT_")
            assert var.description


class TestServeKnobDefaults:
    def test_defaults(self):
        assert get_serve_batch_window_ms({}) == 2.0
        assert get_serve_max_batch({}) == 32
        assert get_serve_queue_depth({}) == 256
        assert get_serve_deadline_s({}) == 30.0
        assert get_serve_workers({}) == 2


class TestServeKnobParsing:
    def test_int_knobs_parse_and_strip(self):
        assert get_serve_max_batch(
            {"RF_PROTECT_SERVE_MAX_BATCH": " 8 "}) == 8
        assert get_serve_queue_depth(
            {"RF_PROTECT_SERVE_QUEUE_DEPTH": "17"}) == 17
        assert get_serve_workers({"RF_PROTECT_SERVE_WORKERS": "4"}) == 4

    def test_float_knobs_parse(self):
        assert get_serve_batch_window_ms(
            {"RF_PROTECT_SERVE_BATCH_WINDOW_MS": "0.5"}) == 0.5
        assert get_serve_deadline_s(
            {"RF_PROTECT_SERVE_DEADLINE_S": "1.25"}) == 1.25

    def test_window_zero_allowed(self):
        assert get_serve_batch_window_ms(
            {"RF_PROTECT_SERVE_BATCH_WINDOW_MS": "0"}) == 0.0

    @pytest.mark.parametrize("name, accessor, raw", [
        ("RF_PROTECT_SERVE_MAX_BATCH", get_serve_max_batch, "0"),
        ("RF_PROTECT_SERVE_MAX_BATCH", get_serve_max_batch, "-3"),
        ("RF_PROTECT_SERVE_MAX_BATCH", get_serve_max_batch, "four"),
        ("RF_PROTECT_SERVE_QUEUE_DEPTH", get_serve_queue_depth, "0"),
        ("RF_PROTECT_SERVE_WORKERS", get_serve_workers, "0"),
        ("RF_PROTECT_SERVE_WORKERS", get_serve_workers, "1.5"),
        ("RF_PROTECT_SERVE_BATCH_WINDOW_MS", get_serve_batch_window_ms, "-1"),
        ("RF_PROTECT_SERVE_BATCH_WINDOW_MS", get_serve_batch_window_ms, "nan"),
        ("RF_PROTECT_SERVE_BATCH_WINDOW_MS", get_serve_batch_window_ms, "inf"),
        ("RF_PROTECT_SERVE_BATCH_WINDOW_MS", get_serve_batch_window_ms, "soon"),
        ("RF_PROTECT_SERVE_DEADLINE_S", get_serve_deadline_s, "0"),
        ("RF_PROTECT_SERVE_DEADLINE_S", get_serve_deadline_s, "-2"),
    ])
    def test_invalid_values_raise_configuration_error(self, name, accessor,
                                                      raw):
        with pytest.raises(ConfigurationError, match=name):
            accessor({name: raw})


class TestServiceConfigFromEnv:
    def test_reads_registry_knobs(self, monkeypatch):
        monkeypatch.setenv("RF_PROTECT_SERVE_MAX_BATCH", "8")
        monkeypatch.setenv("RF_PROTECT_SERVE_BATCH_WINDOW_MS", "7.5")
        monkeypatch.setenv("RF_PROTECT_SERVE_QUEUE_DEPTH", "11")
        monkeypatch.setenv("RF_PROTECT_SERVE_DEADLINE_S", "3.0")
        monkeypatch.setenv("RF_PROTECT_SERVE_WORKERS", "3")
        config = ServiceConfig.from_env()
        assert config.max_batch_size == 8
        assert config.batch_window_ms == 7.5
        assert config.queue_depth == 11
        assert config.default_deadline_s == 3.0
        assert config.workers == 3
        assert config.batch_window_s == pytest.approx(0.0075)

    def test_invalid_direct_construction_rejected(self):
        with pytest.raises(ConfigurationError, match="max_batch_size"):
            ServiceConfig(max_batch_size=0)
        with pytest.raises(ConfigurationError, match="batch_window_ms"):
            ServiceConfig(batch_window_ms=-1.0)
        with pytest.raises(ConfigurationError, match="queue_depth"):
            ServiceConfig(queue_depth=0)
        with pytest.raises(ConfigurationError, match="default_deadline_s"):
            ServiceConfig(default_deadline_s=0.0)
        with pytest.raises(ConfigurationError, match="workers"):
            ServiceConfig(workers=0)


class TestNnDtypeKnob:
    def test_default_and_explicit(self):
        assert get_nn_dtype({}) == "float64"
        assert get_nn_dtype({"RF_PROTECT_NN_DTYPE": " Float32 "}) == "float32"

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigurationError, match="RF_PROTECT_NN_DTYPE"):
            get_nn_dtype({"RF_PROTECT_NN_DTYPE": "float16"})
