"""Recurrent layers: LSTM cell, stacked LSTM, and bidirectional LSTM.

The paper's generator uses a two-layer LSTM and the discriminator a
bidirectional LSTM, both with hidden size 512 and dropout 0.5 (Sec. 6).
These implementations follow the standard gate equations (Hochreiter &
Schmidhuber) with a forget-gate bias of 1 for stable early training.

Each layer of a sequence runs as one
:func:`~repro.nn.functional.lstm_sequence` op: the whole ``(T, B, D)`` scan
in a single graph node with a hand-written BPTT backward. The per-timestep
cell graph it replaced is a test oracle (``tests/lstm_oracle.py``) that the
property suite and the ``naive.*`` GAN digests hold this op to. Each
per-layer scan reports wall time into :mod:`repro.nn.metrics`. A large
:class:`BiLSTM` pass scans its two directions at the same time, one on the
helper thread of :mod:`repro.nn.overlap`.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from concurrent.futures import Future

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import init, overlap
from repro.nn.functional import (
    concat,
    dropout,
    flip_sequence,
    lstm_sequence,
    stack,
)
from repro.nn.layers import Module
from repro.nn.metrics import observe_op
from repro.nn.tensor import Tensor, as_tensor

__all__ = ["BiLSTM", "LSTM", "LSTMCell"]


class LSTMCell(Module):
    """One LSTM layer's parameters: gates ``i, f, g, o``.

    Weights are stored input-major (``(input_size, 4H)`` / ``(H, 4H)``),
    the layout :func:`~repro.nn.functional.lstm_sequence` scans with; the
    bias starts at zero except the forget gate's.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        if input_size < 1 or hidden_size < 1:
            raise ConfigurationError("LSTM sizes must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        gates = 4 * hidden_size
        self.weight_ih = Tensor(init.xavier_uniform((input_size, gates), rng),
                                requires_grad=True)
        self.weight_hh = Tensor(
            np.hstack([init.orthogonal((hidden_size, hidden_size), rng)
                       for _ in range(4)]),
            requires_grad=True,
        )
        bias = init.zeros((gates,))
        bias[hidden_size: 2 * hidden_size] = 1.0  # forget-gate bias
        self.bias = Tensor(bias, requires_grad=True)

    def initial_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        """Zero ``(h, c)`` for a batch, in the cell's parameter dtype."""
        zeros = np.zeros((batch_size, self.hidden_size),
                         dtype=self.weight_hh.data.dtype)
        return (Tensor(zeros, dtype=zeros.dtype),
                Tensor(zeros.copy(), dtype=zeros.dtype))


class LSTM(Module):
    """Stacked unidirectional LSTM over a ``(T, B, D)`` sequence."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, *, num_layers: int = 1,
                 dropout_probability: float = 0.0) -> None:
        super().__init__()
        if num_layers < 1:
            raise ConfigurationError("num_layers must be >= 1")
        if not 0.0 <= dropout_probability < 1.0:
            raise ConfigurationError("dropout probability must be in [0, 1)")
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.dropout_probability = dropout_probability
        self._rng = rng
        self.cells = [
            LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng)
            for layer in range(num_layers)
        ]

    def _resolve_states(self, batch_size: int,
                        initial_states: Sequence[tuple[Tensor, Tensor]] | None,
                        ) -> list[tuple[Tensor, Tensor]]:
        if initial_states is None:
            return [cell.initial_state(batch_size) for cell in self.cells]
        if len(initial_states) != self.num_layers:
            raise ConfigurationError(
                f"expected {self.num_layers} initial states, "
                f"got {len(initial_states)}"
            )
        return list(initial_states)

    def forward_sequence(self, inputs: Tensor,
                         initial_states: Sequence[tuple[Tensor, Tensor]] | None = None,
                         ) -> Tensor:
        """Run the stack over a stacked ``(T, B, D)`` sequence tensor.

        This is the primary entry point: the whole scan stays in stacked
        form, inter-layer dropout draws one ``(T, B, H)`` mask per layer
        boundary (bit-identical to the historical per-timestep draws —
        the RNG stream consumes identically), and each layer runs as one
        :func:`~repro.nn.functional.lstm_sequence` op.

        Args:
            inputs: ``(T, B, D)`` tensor.
            initial_states: optional per-layer ``(h0, c0)``; zeros otherwise.

        Returns:
            Top-layer hidden states as one ``(T, B, H)`` tensor.
        """
        inputs = as_tensor(inputs)
        if inputs.ndim != 3:
            raise ConfigurationError(
                f"forward_sequence needs (T, B, D) inputs, got {inputs.shape}"
            )
        if inputs.shape[0] < 1:
            raise ConfigurationError("LSTM needs at least one timestep")
        states = self._resolve_states(inputs.shape[1], initial_states)
        sequence = inputs
        for layer, cell in enumerate(self.cells):
            h0, c0 = states[layer]
            started = time.perf_counter()
            sequence = lstm_sequence(sequence, cell.weight_ih, cell.weight_hh,
                                     cell.bias, h0, c0)
            observe_op("lstm_sequence", time.perf_counter() - started)
            if layer < self.num_layers - 1 and self.dropout_probability > 0:
                sequence = dropout(sequence, self.dropout_probability,
                                   self._rng, training=self.training)
        return sequence

    def forward(self, inputs: list[Tensor],
                initial_states: list[tuple[Tensor, Tensor]] | None = None,
                ) -> list[Tensor]:
        """Run the stack over a per-timestep list of ``(B, D)`` tensors.

        Compatibility wrapper over :meth:`forward_sequence`; returns
        top-layer hidden states, one ``(B, H)`` tensor per timestep.
        """
        if not inputs:
            raise ConfigurationError("LSTM needs at least one timestep")
        stacked = self.forward_sequence(stack(inputs, axis=0), initial_states)
        return [stacked[t] for t in range(len(inputs))]

    def forward_stacked(self, inputs: list[Tensor],
                        initial_states: list[tuple[Tensor, Tensor]] | None = None
                        ) -> Tensor:
        """Like :meth:`forward` but stacked into one ``(T, B, H)`` tensor."""
        if not inputs:
            raise ConfigurationError("LSTM needs at least one timestep")
        return self.forward_sequence(stack(inputs, axis=0), initial_states)


class BiLSTM(Module):
    """Bidirectional LSTM: forward and backward passes, concatenated."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, *,
                 dropout_probability: float = 0.0) -> None:
        super().__init__()
        self.forward_lstm = LSTM(input_size, hidden_size, rng,
                                 dropout_probability=dropout_probability)
        self.backward_lstm = LSTM(input_size, hidden_size, rng,
                                  dropout_probability=dropout_probability)
        self.hidden_size = hidden_size

    def _directions(self, inputs: Tensor) -> tuple[Tensor, Tensor]:
        """Both directions' ``(T, B, H)`` scans, the backward one reversed.

        For a large pass the backward direction scans on the overlap
        helper (:mod:`repro.nn.overlap`) while this thread scans the
        forward one. Each direction is one layer and so draws no random
        numbers: which thread runs it changes no bit of any result.
        """
        reversed_inputs = flip_sequence(inputs)

        def scan_backward() -> Tensor:
            return self.backward_lstm.forward_sequence(reversed_inputs)

        pending: Future[Tensor] | None = None
        if overlap.should_overlap(inputs.shape[1] * self.hidden_size):
            pending = overlap.submit(scan_backward)
        forward_out = self.forward_lstm.forward_sequence(inputs)
        backward_out = scan_backward() if pending is None else pending.result()
        return forward_out, backward_out

    def forward_sequence(self, inputs: Tensor) -> Tensor:
        """Per-timestep ``(T, B, 2H)`` outputs (forward ++ backward)."""
        forward_out, backward_out = self._directions(as_tensor(inputs))
        return concat([forward_out, flip_sequence(backward_out)], axis=2)

    def forward(self, inputs: list[Tensor]) -> list[Tensor]:
        """Per-timestep ``(B, 2H)`` outputs (forward ++ backward)."""
        stacked = self.forward_sequence(stack(inputs, axis=0))
        return [stacked[t] for t in range(len(inputs))]

    def final_summary(self, inputs: list[Tensor] | Tensor) -> Tensor:
        """Sequence summary: last forward state ++ first backward state.

        This is the standard BiLSTM readout for whole-sequence
        classification — each direction's state after reading everything.
        Accepts either the per-timestep list form or a stacked
        ``(T, B, D)`` tensor.
        """
        stacked = (inputs if isinstance(inputs, Tensor)
                   else stack(inputs, axis=0))
        forward_out, backward_out = self._directions(stacked)
        return concat([forward_out[-1], backward_out[-1]], axis=1)
