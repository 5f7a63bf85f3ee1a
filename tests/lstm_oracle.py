"""Per-step LSTM oracle: the cell graph the fused sequence op replaced.

Production runs every LSTM stack as one
:func:`repro.nn.functional.lstm_sequence` node with a hand-written BPTT
backward. This module keeps the scan it replaced — one fused
:func:`lstm_cell` graph node per timestep, fed by ``x @ W_ih + h @ W_hh +
b`` — plus the composed-op cell that pins :func:`lstm_cell` itself.
:func:`lstm_sequence` takes the production op's signature and does the
historical Tensor ops in the historical order, layer after layer with a
dropout op between layers, so a model scanned through it
(:func:`naive_scan`) reproduces the per-step path bit for bit and records
no fused scan (``nn.lstm_sequence.wall_s``): the GAN
digests' ``naive.*`` entries, the fused-vs-naive property suite and the
``benchmarks/test_bench_nn.py`` ratio guards all run on it.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator, Sequence
from unittest import mock

import numpy as np

from repro.errors import GradientError
from repro.nn import recurrent
from repro.nn.functional import LstmLayer, _stable_sigmoid, dropout, stack
from repro.nn.recurrent import LSTMCell
from repro.nn.tensor import Tensor, as_tensor


def lstm_cell(gates: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """Fused LSTM cell activations: ``(gates, c_prev) -> (h, c)``.

    ``gates`` is the pre-activation ``(B, 4H)`` block ``[i, f, g, o]``
    (already containing ``x W_ih + h W_hh + b``); this op applies the gate
    nonlinearities and the state update in one graph node with a
    hand-derived backward. Functionally identical to composing sigmoid/tanh
    ops (the test suite checks this), but an order of magnitude fewer graph
    nodes — which dominates runtime for 50-step sequences on small batches.
    """
    gates = as_tensor(gates)
    c_prev = as_tensor(c_prev)
    if gates.ndim != 2 or gates.shape[1] % 4 != 0:
        raise GradientError(f"gates must be (B, 4H), got {gates.shape}")
    hidden = gates.shape[1] // 4
    if c_prev.shape != (gates.shape[0], hidden):
        raise GradientError(
            f"c_prev must be ({gates.shape[0]}, {hidden}), got {c_prev.shape}"
        )

    a = gates.data
    i = _stable_sigmoid(a[:, 0 * hidden: 1 * hidden])
    f = _stable_sigmoid(a[:, 1 * hidden: 2 * hidden])
    g = np.tanh(a[:, 2 * hidden: 3 * hidden])
    o = _stable_sigmoid(a[:, 3 * hidden: 4 * hidden])
    c = f * c_prev.data + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c

    hc = Tensor._result(np.concatenate([h, c], axis=1), (gates, c_prev), "lstm_cell")

    def backward(grad: np.ndarray) -> None:
        grad_h = grad[:, :hidden]
        grad_c_out = grad[:, hidden:]
        grad_c = grad_c_out + grad_h * o * (1.0 - tanh_c ** 2)
        grad_gates = np.concatenate(
            [
                grad_c * g * i * (1.0 - i),
                grad_c * c_prev.data * f * (1.0 - f),
                grad_c * i * (1.0 - g ** 2),
                grad_h * tanh_c * o * (1.0 - o),
            ],
            axis=1,
        )
        gates._accumulate(grad_gates)
        c_prev._accumulate(grad_c * f)

    hc._backward = backward
    return hc[:, :hidden], hc[:, hidden:]


def _gates(cell: LSTMCell, x: Tensor, h_prev: Tensor) -> Tensor:
    return x @ cell.weight_ih + h_prev @ cell.weight_hh + cell.bias


def cell_step(cell: LSTMCell, x: Tensor,
              state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """One step: ``x`` is ``(B, input_size)``; returns ``(h, c)``."""
    h_prev, c_prev = state
    return lstm_cell(_gates(cell, x, h_prev), c_prev)


def cell_step_composed(cell: LSTMCell, x: Tensor,
                       state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """:func:`cell_step` from elementary ops (pins :func:`lstm_cell`)."""
    h_prev, c_prev = state
    gates = _gates(cell, x, h_prev)
    H = cell.hidden_size
    i = gates[:, 0 * H: 1 * H].sigmoid()
    f = gates[:, 1 * H: 2 * H].sigmoid()
    g = gates[:, 2 * H: 3 * H].tanh()
    o = gates[:, 3 * H: 4 * H].sigmoid()
    c = f * c_prev + i * g
    h = o * c.tanh()
    return h, c


def lstm_sequence(inputs: Tensor, layers: Sequence[LstmLayer], *,
                  dropout_probability: float = 0.0,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Reference stack: one :func:`lstm_cell` graph node per timestep.

    Layer after layer, with the historical :func:`dropout` op between
    layers, so the generator draws each mask after the layer below it.
    """
    sequence = inputs
    for index, (w_ih, w_hh, bias, h0, c0) in enumerate(layers):
        if index and dropout_probability > 0:
            assert rng is not None
            sequence = dropout(sequence, dropout_probability, rng)
        h, c = h0, c0
        outputs: list[Tensor] = []
        for t in range(sequence.shape[0]):
            h, c = lstm_cell(sequence[t] @ w_ih + h @ w_hh + bias, c)
            outputs.append(h)
        sequence = stack(outputs, axis=0)
    return sequence


@contextlib.contextmanager
def naive_scan() -> Iterator[None]:
    """Scan every layer of every LSTM through :func:`lstm_sequence`."""
    with mock.patch.object(recurrent, "lstm_sequence", lstm_sequence):
        yield
