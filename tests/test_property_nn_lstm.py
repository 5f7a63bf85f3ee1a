"""Property suite pinning the fused LSTM sequence kernel to the naive path.

The fused :func:`repro.nn.functional.lstm_sequence` op is only allowed to
exist because it is indistinguishable from the per-step reference
(:mod:`tests.lstm_oracle`, swapped in with ``naive_scan``): for any
shape, dtype, initial state, and loss, forward outputs and every gradient
(inputs, weights, bias, initial state) must agree within dtype-matched
tolerances. Hypothesis sweeps T×B×H (and layer counts through the `LSTM`
wrapper); finite differences pin the fused backward to calculus itself on
small float64 shapes.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import LSTM, Tensor, dtype_scope, nn_metrics
from repro.nn.functional import flip_sequence, lstm_sequence, repeat_sequence
from repro.nn.recurrent import LSTMCell
from tests.lstm_oracle import naive_scan
from tests.test_nn_tensor import numerical_gradient

#: Forward/backward agreement tolerance per dtype. float64 disagreement is
#: pure summation-order noise; float32 adds rounding of every intermediate.
TOLERANCES = {"float64": 1e-9, "float32": 3e-4}


def _lstm_case(seed: int, seq_len: int, batch: int, hidden: int,
               in_dim: int, num_layers: int, dtype: str):
    """Build an LSTM + input pair deterministically for one dtype."""
    with dtype_scope(dtype):
        lstm = LSTM(in_dim, hidden, np.random.default_rng(seed),
                    num_layers=num_layers)
        data = np.random.default_rng(seed + 1).standard_normal(
            (seq_len, batch, in_dim))
        inputs = Tensor(data, requires_grad=True)
    return lstm, inputs


def _scan(backend: str):
    """The per-step oracle scan for ``"naive"``, production otherwise."""
    return naive_scan() if backend == "naive" else contextlib.nullcontext()


def _run(lstm: LSTM, inputs: Tensor, backend: str):
    """One forward+backward; returns (output, input grad, param grads)."""
    lstm.zero_grad()
    inputs.zero_grad()
    with _scan(backend):
        out = lstm.forward_sequence(inputs)
    # A non-uniform loss so every timestep's gradient path is distinct.
    weights = Tensor(
        np.linspace(0.5, 1.5, out.size).reshape(out.shape),
        dtype=out.dtype,
    )
    (out * weights).mean().backward()
    grads = [p.grad.copy() for p in lstm.parameters()]
    assert inputs.grad is not None
    return out.data.copy(), inputs.grad.copy(), grads


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    seq_len=st.integers(1, 8),
    batch=st.integers(1, 4),
    hidden=st.integers(1, 6),
    in_dim=st.integers(1, 5),
    num_layers=st.integers(1, 2),
    dtype=st.sampled_from(["float64", "float32"]),
)
def test_fused_matches_naive_forward_and_backward(
        seed, seq_len, batch, hidden, in_dim, num_layers, dtype):
    tol = TOLERANCES[dtype]
    lstm, inputs = _lstm_case(seed, seq_len, batch, hidden, in_dim,
                              num_layers, dtype)
    out_n, gx_n, gp_n = _run(lstm, inputs, "naive")
    out_f, gx_f, gp_f = _run(lstm, inputs, "fused")
    assert out_f.dtype == out_n.dtype == np.dtype(dtype)
    np.testing.assert_allclose(out_f, out_n, atol=tol, rtol=tol)
    np.testing.assert_allclose(gx_f, gx_n, atol=tol, rtol=tol)
    for grad_f, grad_n in zip(gp_f, gp_n):
        np.testing.assert_allclose(grad_f, grad_n, atol=tol, rtol=tol)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    seq_len=st.integers(2, 6),
    batch=st.integers(1, 3),
    hidden=st.integers(1, 4),
)
def test_fused_matches_naive_with_nonzero_initial_state(
        seed, seq_len, batch, hidden):
    rng = np.random.default_rng(seed)
    lstm = LSTM(3, hidden, rng, num_layers=1)
    inputs = Tensor(rng.standard_normal((seq_len, batch, 3)),
                    requires_grad=True)
    results = {}
    for backend in ("naive", "fused"):
        lstm.zero_grad()
        inputs.zero_grad()
        h0 = Tensor(np.random.default_rng(seed + 2).standard_normal(
            (batch, hidden)), requires_grad=True)
        c0 = Tensor(np.random.default_rng(seed + 3).standard_normal(
            (batch, hidden)), requires_grad=True)
        with _scan(backend):
            out = lstm.forward_sequence(inputs, [(h0, c0)])
        out.pow(2.0).mean().backward()
        assert h0.grad is not None and c0.grad is not None
        results[backend] = (out.data.copy(), h0.grad.copy(), c0.grad.copy())
    for a, b in zip(results["naive"], results["fused"]):
        np.testing.assert_allclose(b, a, atol=1e-9, rtol=1e-9)


def test_lstm_sequence_gradients_match_finite_differences():
    """Pin every parent's fused BPTT gradient to central differences."""
    rng = np.random.default_rng(0)
    seq_len, batch, in_dim, hidden = 4, 2, 3, 3
    arrays = {
        "inputs": rng.standard_normal((seq_len, batch, in_dim)),
        "w_ih": rng.standard_normal((in_dim, 4 * hidden)) * 0.4,
        "w_hh": rng.standard_normal((hidden, 4 * hidden)) * 0.4,
        "bias": rng.standard_normal(4 * hidden) * 0.2,
        "h0": rng.standard_normal((batch, hidden)) * 0.5,
        "c0": rng.standard_normal((batch, hidden)) * 0.5,
    }

    def loss_value() -> float:
        inputs, *layer = (Tensor(arrays[k]) for k in
                          ("inputs", "w_ih", "w_hh", "bias", "h0", "c0"))
        out = lstm_sequence(inputs, [tuple(layer)])
        return float(out.pow(2.0).mean().data)

    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    out = lstm_sequence(tensors["inputs"], [(
        tensors["w_ih"], tensors["w_hh"], tensors["bias"], tensors["h0"],
        tensors["c0"])])
    out.pow(2.0).mean().backward()
    for name, array in arrays.items():
        numeric = numerical_gradient(loss_value, array)
        assert tensors[name].grad == pytest.approx(numeric, abs=1e-7), (
            f"fused gradient mismatch for {name}"
        )


@pytest.mark.parametrize("requiring", [("inputs",),
                                       ("w_ih", "w_hh", "bias"),
                                       ("inputs", "h0", "c0")])
def test_guarded_backward_matches_unguarded(requiring):
    """Parents that take no gradient skip only their own GEMMs."""
    rng = np.random.default_rng(4)
    seq_len, batch, in_dim, hidden = 5, 3, 4, 6
    arrays = {
        "inputs": rng.standard_normal((seq_len, batch, in_dim)),
        "w_ih": rng.standard_normal((in_dim, 4 * hidden)) * 0.4,
        "w_hh": rng.standard_normal((hidden, 4 * hidden)) * 0.4,
        "bias": rng.standard_normal(4 * hidden) * 0.2,
        "h0": rng.standard_normal((batch, hidden)) * 0.5,
        "c0": rng.standard_normal((batch, hidden)) * 0.5,
    }

    def grads(names):
        tensors = {k: Tensor(v, requires_grad=k in names)
                   for k, v in arrays.items()}
        inputs, *layer = tensors.values()
        out = lstm_sequence(inputs, [tuple(layer)])
        out.pow(2.0).mean().backward()
        return {k: t.grad for k, t in tensors.items()}

    full = grads(tuple(arrays))
    guarded = grads(requiring)
    for name in arrays:
        if name in requiring:
            assert np.array_equal(guarded[name], full[name]), name
        else:
            assert guarded[name] is None, name


def test_layers_under_every_gradient_run_no_bptt():
    """A stack backpropagates only from the lowest layer that needs it.

    Frozen weights and a constant input leave only the top layer's
    initial state taking a gradient: that layer runs its BPTT, the one
    below runs none, and the state's gradient matches the oracle's.
    """
    rng = np.random.default_rng(6)
    lstm = LSTM(3, 4, rng, num_layers=2)
    inputs = Tensor(rng.standard_normal((5, 2, 3)))
    bottom = (Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))))
    h1, c1 = rng.standard_normal((2, 2, 4))
    grads = {}
    for backend in ("naive", "fused"):
        top = (Tensor(h1, requires_grad=True), Tensor(c1, requires_grad=True))
        scans = nn_metrics().snapshot()["histograms"].get(
            "nn.lstm_sequence_backward.wall_s", {"count": 0})["count"]
        with lstm.frozen(), _scan(backend):
            lstm.forward_sequence(inputs, [bottom, top]).pow(2.0).sum(
            ).backward()
        grads[backend] = (top[0].grad, top[1].grad)
        ran = nn_metrics().snapshot()["histograms"].get(
            "nn.lstm_sequence_backward.wall_s", {"count": 0})["count"] - scans
        assert ran == (1 if backend == "fused" else 0)
    for fused, naive in zip(grads["fused"], grads["naive"]):
        np.testing.assert_allclose(fused, naive, atol=1e-9, rtol=1e-9)


def test_repeat_sequence_matches_stack_and_sums_gradient():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    out = repeat_sequence(x, 5)
    assert out.shape == (5, 3, 4)
    np.testing.assert_array_equal(out.data[2], x.data)
    weights = np.arange(out.size, dtype=np.float64).reshape(out.shape)
    (out * Tensor(weights)).sum().backward()
    np.testing.assert_allclose(x.grad, weights.sum(axis=0))


def test_flip_sequence_reverses_time_and_gradient():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((4, 2, 3)), requires_grad=True)
    out = flip_sequence(x)
    np.testing.assert_array_equal(out.data, x.data[::-1])
    weights = np.arange(out.size, dtype=np.float64).reshape(out.shape)
    (out * Tensor(weights)).sum().backward()
    np.testing.assert_allclose(x.grad, weights[::-1])


def test_float32_run_stays_float32_end_to_end():
    """No silent widening anywhere in the fused float32 scan."""
    with dtype_scope("float32"):
        lstm = LSTM(4, 5, np.random.default_rng(0), num_layers=2)
        x = Tensor(np.random.default_rng(1).standard_normal((3, 2, 4)),
                   requires_grad=True)
        out = lstm.forward_sequence(x)
        out.mean().backward()
        assert out.dtype == np.float32
        assert x.grad is not None and x.grad.dtype == np.float32
        for p in lstm.parameters():
            assert p.data.dtype == np.float32
            assert p.grad is not None and p.grad.dtype == np.float32


def test_cell_initial_state_follows_parameter_dtype():
    with dtype_scope("float32"):
        cell = LSTMCell(3, 4, np.random.default_rng(0))
    h, c = cell.initial_state(2)
    assert h.dtype == np.float32
    assert c.dtype == np.float32
