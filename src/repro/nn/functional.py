"""Structural and neural-network operations on :class:`Tensor`.

Everything here builds autograd graph nodes: concatenation/stacking,
embedding lookup, dropout, the fused recurrent op, and the loss used by
the cGAN (binary cross-entropy in the numerically-stable logits form,
Eq. 4 of the paper).

The recurrent op deserves a note on granularity. :func:`lstm_sequence` is
the *per-stack* fusion: every layer's whole ``(T, B, D)`` scan — input
projection batched into ``(k·B, D) @ (D, 4H)`` GEMMs over chunks of ``k``
timesteps, per-step recurrence in place over preallocated gate/state
buffers, and a hand-written BPTT backward — collapsed into a single graph
node, whose layers a large stack scans side by side
(:func:`repro.nn.overlap.wavefront`).
The per-step cell graph it replaced is the pinned equivalence reference,
kept as a test oracle (``tests/lstm_oracle.py``); the property suite holds
the two within dtype-matched tolerances.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Sequence

import numpy as np

from repro.errors import GradientError
from repro.nn import overlap
from repro.nn.tensor import Tensor, TensorLike, as_tensor
from repro.obs import observe_wall

__all__ = [
    "CHUNK_STEPS",
    "LstmLayer",
    "bce_with_logits",
    "concat",
    "dropout",
    "embedding",
    "flip_sequence",
    "lstm_sequence",
    "repeat_sequence",
    "softplus",
    "stack",
]


def concat(tensors: Sequence[TensorLike], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    if not tensors:
        raise GradientError("concat needs at least one tensor")
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor._result(data, tuple(tensors), "concat")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    out._backward = backward
    return out


def stack(tensors: Sequence[TensorLike], axis: int = 0) -> Tensor:
    """Stack equal-shaped tensors along a new ``axis`` (differentiable)."""
    if not tensors:
        raise GradientError("stack needs at least one tensor")
    tensors = [as_tensor(t) for t in tensors]
    first_shape = tensors[0].shape
    if any(t.shape != first_shape for t in tensors):
        raise GradientError("stack needs tensors of identical shape")
    data = np.stack([t.data for t in tensors], axis=axis)
    out = Tensor._result(data, tuple(tensors), "stack")

    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for tensor, part in zip(tensors, parts):
            tensor._accumulate(np.squeeze(part, axis=axis))

    out._backward = backward
    return out


def repeat_sequence(x: Tensor, repeats: int) -> Tensor:
    """Tile a ``(B, D)`` tensor into a ``(T, B, D)`` sequence.

    The differentiable equivalent of ``stack([x] * repeats)`` in one graph
    node with an O(1)-node backward (the gradient sums over the new axis);
    the generator uses it to drive every timestep with the same
    conditioning vector.
    """
    x = as_tensor(x)
    if repeats < 1:
        raise GradientError(f"repeats must be >= 1, got {repeats}")
    data = np.broadcast_to(x.data, (repeats,) + x.shape).copy()
    out = Tensor._result(data, (x,), "repeat_sequence")

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad.sum(axis=0))

    out._backward = backward
    return out


def flip_sequence(x: Tensor) -> Tensor:
    """Reverse a sequence tensor along its leading (time) axis."""
    x = as_tensor(x)
    if x.ndim < 1:
        raise GradientError("flip_sequence needs at least 1 dimension")
    out = Tensor._result(np.ascontiguousarray(x.data[::-1]), (x,),
                         "flip_sequence")

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad[::-1])

    out._backward = backward
    return out


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup into an embedding matrix (differentiable w.r.t. weight).

    Args:
        weight: ``(num_embeddings, dim)`` parameter tensor.
        indices: integer array of any shape; values index rows of weight.
    """
    weight = as_tensor(weight)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise GradientError("embedding indices must be integers")
    if weight.ndim != 2:
        raise GradientError("embedding weight must be 2-D")
    if idx.size and (idx.min() < 0 or idx.max() >= weight.shape[0]):
        raise GradientError(
            f"embedding index out of range [0, {weight.shape[0]})"
        )
    out = Tensor._result(weight.data[idx], (weight,), "embedding")

    def backward(grad: np.ndarray) -> None:
        scattered = np.zeros_like(weight.data)
        np.add.at(scattered, idx, grad)
        weight._accumulate(scattered)

    out._backward = backward
    return out


def dropout(x: Tensor, probability: float, rng: np.random.Generator, *,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero activations with ``probability`` and rescale."""
    if not 0.0 <= probability < 1.0:
        raise GradientError(f"dropout probability must be in [0, 1), got {probability}")
    x = as_tensor(x)
    if not training or probability == 0.0:
        return x
    mask = _dropout_mask(x.shape, probability, rng, x.data.dtype)
    out = Tensor._result(x.data * mask, (x,), "dropout")

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    out._backward = backward
    return out


def _dropout_mask(shape: tuple[int, ...], probability: float,
                  rng: np.random.Generator, dtype: np.dtype) -> np.ndarray:
    """An inverted-dropout mask: 0 with ``probability``, else ``1 / keep``."""
    keep = 1.0 - probability
    return ((rng.random(shape) < keep) / keep).astype(dtype)


def _stable_sigmoid(values: np.ndarray) -> np.ndarray:
    """The numerically stable logistic used by every gate nonlinearity."""
    return 0.5 * (np.tanh(0.5 * values) + 1.0)


def _sigmoid_in_place(values: np.ndarray) -> None:
    """:func:`_stable_sigmoid` written over ``values``, op for op."""
    np.multiply(0.5, values, out=values)
    np.tanh(values, out=values)
    np.add(values, 1.0, out=values)
    np.multiply(0.5, values, out=values)


#: Timesteps per chunk of a stack's wavefront (:func:`lstm_sequence`),
#: picked by interleaved measurement at paper scale (DESIGN.md, "Both
#: layers of a stack at once").
CHUNK_STEPS = 8

#: One layer's operands: ``(w_ih, w_hh, bias, h0, c0)``.
LstmLayer = tuple[Tensor, Tensor, Tensor, Tensor, Tensor]


class _Layer:
    """One layer of a stacked scan: operands, saved buffers, BPTT carry.

    :meth:`forward` fills the buffers a chunk of timesteps at a time and
    :meth:`backward` drains them a chunk at a time, last chunk first;
    :meth:`input_weight_grad` and :meth:`finish` run the whole-sequence
    gradient GEMMs. Each step lets go of the buffers no later step reads,
    so a layer's BPTT has freed them all when it ends. The layer
    reads its input from ``source`` (the stack's input or the hidden
    states of the layer below) through the dropout ``mask`` between
    them, if any.

    Per timestep and batch row a layer keeps only what BPTT reads: the
    four activated gates, the cell state and the hidden state, after one
    row of ``h0``. The input projection is written into the gate buffer
    and the gates activate there, so no step allocates an array. A pass
    that builds no graph node (``chunk`` given) keeps one chunk of gates
    and masked inputs and a running cell instead; only its hidden states,
    which the layer above and the op's output read, span the sequence.
    """

    def __init__(self, operands: tuple[Tensor, ...], source: np.ndarray,
                 mask: np.ndarray | None, dtype: np.dtype,
                 chunk: int | None) -> None:
        self.w_ih, self.w_hh, self.bias, self.h0, self.c0 = operands
        seq_len, batch = source.shape[:2]
        hidden = self.w_hh.shape[0]
        self.hidden, self.dtype = hidden, dtype
        self.source, self.mask = source, mask
        # Buffers indexed by timestep modulo their length: the whole
        # sequence for BPTT, or one chunk (the cell: one step) otherwise.
        steps = seq_len if chunk is None else chunk
        self.inputs = (source if mask is None
                       else np.empty((steps,) + source.shape[1:],
                                     dtype=source.dtype))
        self.gates = np.empty((steps, batch, 4 * hidden), dtype=dtype)
        # A reshape of a fresh buffer is a view: the projection's GEMM
        # writes straight into the gates.
        self.gate_rows = self.gates.reshape(steps * batch, 4 * hidden)
        self.c_all = np.empty((seq_len if chunk is None else 1, batch,
                               hidden), dtype=dtype)
        self.c_first = np.asarray(self.c0.data, dtype=dtype)
        # h0, then the hidden state after each step.
        self.states = np.empty((seq_len + 1, batch, hidden), dtype=dtype)
        self.states[0] = self.h0.data
        self.h_all = self.states[1:]
        self.recurrent = np.empty((batch, 4 * hidden), dtype=dtype)
        self.scratch = np.empty((batch, hidden), dtype=dtype)
        self.started = 0.0
        # Set by the stack's backward: the gradient of h_all, and where the
        # input gradient goes (the layer below's grad_out, or None).
        self.grad_out: np.ndarray | None = None
        self.grad_in: np.ndarray | None = None

    def forward(self, start: int, stop: int) -> None:
        """Project and scan timesteps ``[start, stop)``.

        The operations are those of ``x @ w_ih + bias + h @ w_hh``, the
        gate nonlinearities, ``c = f·c + i·g`` and ``h = o·tanh(c)`` on
        fresh arrays, with the same operands in the same order, so the
        bits are the same; only where the results land differs.
        """
        if start == 0:
            self.started = time.perf_counter()
        gates, c_all, states = self.gates, self.c_all, self.states
        first = start % len(gates)
        x = self.source[start:stop]
        if self.mask is not None:
            x = np.multiply(x, self.mask[start:stop],
                            out=self.inputs[first: first + stop - start])
        steps, batch, in_dim = x.shape
        hidden = self.hidden
        rows = self.gate_rows[first * batch: (first + steps) * batch]
        np.matmul(x.reshape(steps * batch, in_dim), self.w_ih.data, out=rows)
        rows += self.bias.data
        w_hh, recurrent, scratch = self.w_hh.data, self.recurrent, self.scratch
        for t in range(start, stop):
            a = gates[t % len(gates)]
            a += np.matmul(states[t], w_hh, out=recurrent)
            _sigmoid_in_place(a[:, :2 * hidden])  # i and f at once
            i, f = a[:, :hidden], a[:, hidden: 2 * hidden]
            g, o = a[:, 2 * hidden: 3 * hidden], a[:, 3 * hidden:]
            np.tanh(g, out=g)
            _sigmoid_in_place(o)
            c_prev = self.c_first if t == 0 else c_all[(t - 1) % len(c_all)]
            c = c_all[t % len(c_all)]
            np.multiply(f, c_prev, out=c)
            c += np.multiply(i, g, out=scratch)
            np.multiply(o, np.tanh(c, out=scratch), out=states[t + 1])
        if stop == len(self.h_all):
            observe_wall("nn.lstm_sequence.wall_s", self.started)

    def backward(self, start: int, stop: int) -> None:
        """BPTT over timesteps ``[start, stop)``, then their input gradient.

        A step's pre-activation gradients overwrite its gates, which no
        later step reads, so the gate buffer becomes ``d_gates`` in place.
        ``tanh(c)`` is recomputed from the saved cell state, the ufunc the
        forward scan ran on the same values.
        """
        hidden = self.hidden
        c_all = self.c_all
        if stop == len(c_all):  # the first chunk BPTT reaches
            self.started = time.perf_counter()
            self.d_gates = self.gates
            self.dh = np.zeros(self.scratch.shape, dtype=self.dtype)
            self.dc = np.zeros(self.scratch.shape, dtype=self.dtype)
        grad_out, d_gates = self.grad_out, self.d_gates
        assert grad_out is not None
        w_hh_t = self.w_hh.data.T
        dh_next, dc_next = self.dh, self.dc
        for t in range(stop - 1, start - 1, -1):
            i = d_gates[t, :, :hidden]
            f = d_gates[t, :, hidden: 2 * hidden]
            g = d_gates[t, :, 2 * hidden: 3 * hidden]
            o = d_gates[t, :, 3 * hidden:]
            c_prev = c_all[t - 1] if t > 0 else self.c_first
            tanh_c = np.tanh(c_all[t])
            dh = grad_out[t] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c ** 2)
            d_i = dc * g * i * (1.0 - i)
            d_f = dc * c_prev * f * (1.0 - f)
            d_g = dc * i * (1.0 - g ** 2)
            d_o = dh * tanh_c * o * (1.0 - o)
            dc_next = dc * f
            d_gates[t, :, :hidden] = d_i
            d_gates[t, :, hidden: 2 * hidden] = d_f
            d_gates[t, :, 2 * hidden: 3 * hidden] = d_g
            d_gates[t, :, 3 * hidden:] = d_o
            dh_next = d_gates[t] @ w_hh_t
        self.dh, self.dc = dh_next, dc_next
        if self.grad_in is not None:
            steps, batch = stop - start, d_gates.shape[1]
            target = self.grad_in[start:stop]
            target[...] = (d_gates[start:stop].reshape(steps * batch,
                                                       4 * hidden)
                           @ self.w_ih.data.T).reshape(target.shape)
            if self.mask is not None:
                target *= self.mask[start:stop]
        if start == 0:  # the last chunk: what only the scan reads can go
            del (self.gates, self.gate_rows, self.c_all, self.grad_out,
                 self.grad_in, self.mask, self.source)

    def input_weight_grad(self) -> None:
        """The whole-sequence ``w_ih`` gradient, a step of its own.

        The whole-sequence GEMMs run only for operands that take a
        gradient: a frozen layer back-propagates into its inputs alone.
        Two steps, this and :meth:`finish`, let a wavefront run the top
        layer's two GEMMs beside the next layer's last chunk and its
        first GEMM.
        """
        if self.w_ih.requires_grad:
            seq_len, batch, hidden = self.h_all.shape
            flat_inputs = self.inputs.reshape(seq_len * batch, -1)
            self.w_ih._accumulate(flat_inputs.T @ self.d_gates.reshape(
                seq_len * batch, 4 * hidden))
        del self.inputs

    def finish(self) -> None:
        """The ``w_hh``, bias and initial-state gradients; frees the rest."""
        seq_len, batch, hidden = self.h_all.shape
        flat_gates = self.d_gates.reshape(seq_len * batch, 4 * hidden)
        if self.w_hh.requires_grad:
            # h_prev over the sequence is every state but the last, h0
            # first: a view of the state buffer.
            h_prev = self.states[:-1].reshape(seq_len * batch, hidden)
            self.w_hh._accumulate(h_prev.T @ flat_gates)
        self.bias._accumulate(flat_gates.sum(axis=0))
        self.h0._accumulate(self.dh)
        self.c0._accumulate(self.dc)
        observe_wall("nn.lstm_sequence_backward.wall_s", self.started)
        del self.d_gates, self.states, self.h_all


def lstm_sequence(inputs: Tensor, layers: Sequence[LstmLayer], *,
                  dropout_probability: float = 0.0,
                  rng: np.random.Generator | None = None) -> Tensor:
    """A stack of LSTM layers over a whole ``(T, B, D)`` sequence as one op.

    Forward, per layer: the input projection is batched into
    ``(k·B, D) @ (D, 4H)`` GEMMs (plus bias) over chunks of ``k``
    timesteps, written straight into the gate buffer, and the recurrence
    runs per step in place over preallocated gate/state buffers — the
    only sequential work left is the unavoidable ``h @ W_hh`` chain.
    Backward is one hand-written BPTT pass per layer: a descending scan
    overwrites the ``(T, B, 4H)`` gate buffer with the pre-activation
    gradients, each chunk's input gradient is one GEMM, and the weight
    and bias gradients fall out as whole-sequence GEMMs. A pass that
    builds no graph node (no operand takes a gradient) saves nothing for
    BPTT: each layer keeps one chunk of gates and a running cell.

    Chunk ``c`` of a layer needs only chunk ``c`` of the layer below and
    its own chunk ``c - 1``, so :func:`repro.nn.overlap.wavefront` can
    scan layer ``l`` over one chunk while layer ``l + 1`` scans the chunk
    before it, and in BPTT the other way round. A stack of two or more
    layers at batch × hidden ≥ :data:`~repro.nn.overlap.MIN_STACK_SIZE`
    uses chunks of :data:`CHUNK_STEPS`, overlapped or not, so its bits do
    not depend on where it runs. Anything else scans as one chunk, the
    whole-sequence arithmetic: it never overlaps, and small GEMMs are not
    row-invariant on every BLAS (DESIGN.md), so chunking would move bits
    for nothing.

    Args:
        inputs: ``(T, B, D)`` sequence tensor.
        layers: per layer, bottom first, ``(w_ih, w_hh, bias, h0, c0)``:
            ``(D, 4H)`` input projection with gates ordered
            ``[i, f, g, o]``, ``(H, 4H)`` recurrent projection, ``(4H,)``
            bias and ``(B, H)`` initial hidden and cell states. Each
            layer's ``D`` is the ``H`` of the layer below.
        dropout_probability: inverted dropout between layers, drawn from
            ``rng`` as one ``(T, B, H)`` mask per layer boundary, bottom
            first, before any scan.
        rng: the generator the dropout masks come from.

    Returns:
        ``(T, B, H)`` tensor of the top layer's per-timestep hidden states,
        one graph node (op ``lstm_sequence`` for one layer, ``lstm_stack``
        for more).
    """
    inputs = as_tensor(inputs)
    if inputs.ndim != 3:
        raise GradientError(f"inputs must be (T, B, D), got {inputs.shape}")
    if not layers:
        raise GradientError("lstm_sequence needs at least one layer")
    if not 0.0 <= dropout_probability < 1.0:
        raise GradientError("dropout probability must be in [0, 1), got "
                            f"{dropout_probability}")
    if dropout_probability > 0 and rng is None:
        raise GradientError("dropout between layers needs a generator")
    seq_len, batch, in_dim = inputs.shape
    operands = [tuple(as_tensor(t) for t in layer) for layer in layers]
    dtypes: list[np.dtype] = []
    dtype = inputs.data.dtype
    for w_ih, w_hh, bias, h0, c0 in operands:
        if w_hh.ndim != 2 or w_hh.shape[1] != 4 * w_hh.shape[0]:
            raise GradientError(f"w_hh must be (H, 4H), got {w_hh.shape}")
        hidden = w_hh.shape[0]
        if w_ih.shape != (in_dim, 4 * hidden):
            raise GradientError(
                f"w_ih must be ({in_dim}, {4 * hidden}), got {w_ih.shape}"
            )
        if bias.shape != (4 * hidden,):
            raise GradientError(
                f"bias must be ({4 * hidden},), got {bias.shape}")
        for name, state in (("h0", h0), ("c0", c0)):
            if state.shape != (batch, hidden):
                raise GradientError(
                    f"{name} must be ({batch}, {hidden}), got {state.shape}"
                )
        dtype = np.result_type(dtype, w_ih.data, w_hh.data, bias.data,
                               h0.data, c0.data)
        dtypes.append(dtype)
        in_dim = hidden

    size = batch * in_dim  # in_dim is now the top layer's hidden size
    step = (CHUNK_STEPS if len(operands) > 1 and size >= overlap.MIN_STACK_SIZE
            else seq_len)
    chunks = [(start, min(start + step, seq_len))
              for start in range(0, seq_len, step)]
    parents = (inputs,) + tuple(t for layer in operands for t in layer)
    # A pass that builds no node has no BPTT to save buffers for.
    chunk = (None if any(t.requires_grad for t in parents)
             else chunks[0][1] - chunks[0][0])

    # Every mask is drawn before any scan. The scans draw nothing, so the
    # generator ends where drawing each mask after the layer below would
    # leave it.
    stack: list[_Layer] = []
    source = inputs.data
    for layer_operands, layer_dtype in zip(operands, dtypes):
        mask = None
        if stack and dropout_probability > 0:
            assert rng is not None
            mask = _dropout_mask(source.shape, dropout_probability, rng,
                                 source.dtype)
        stack.append(_Layer(layer_operands, source, mask, layer_dtype, chunk))
        source = stack[-1].h_all
    overlap.wavefront([[functools.partial(layer.forward, start, stop)
                        for start, stop in chunks] for layer in stack], size)

    out = Tensor._result(stack[-1].h_all, parents,
                         "lstm_sequence" if len(stack) == 1 else "lstm_stack")

    def backward(grad_out: np.ndarray) -> None:
        # Layers under the lowest one with an operand at or below it that
        # takes a gradient have nothing to backpropagate.
        first = 0
        if not inputs.requires_grad:
            while first < len(stack) and not any(
                    t.requires_grad for t in operands[first]):
                first += 1
        stack[-1].grad_out = grad_out
        for below, above in zip(stack[first:], stack[first + 1:]):
            below.grad_out = above.grad_in = np.empty_like(below.h_all)
        if inputs.requires_grad:
            stack[0].grad_in = np.empty(inputs.shape, dtype=stack[0].dtype)
        input_grad = stack[0].grad_in
        overlap.wavefront(
            [[functools.partial(layer.backward, start, stop)
              for start, stop in reversed(chunks)]
             + [layer.input_weight_grad, layer.finish]
             for layer in reversed(stack[first:])], size)
        if input_grad is not None:
            inputs._accumulate(input_grad)

    out._backward = backward
    return out


def softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))``."""
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    out = Tensor._result(data, (x,), "softplus")

    def backward(grad: np.ndarray) -> None:
        sig = _stable_sigmoid(x.data)
        x._accumulate(grad * sig)

    out._backward = backward
    return out


def bce_with_logits(logits: Tensor, targets: np.ndarray | Tensor) -> Tensor:
    """Mean binary cross-entropy on raw scores (stable formulation).

    ``loss = mean(softplus(logits) - targets * logits)`` — equivalent to
    sigmoid + BCE but immune to log(0). This is the workhorse of the cGAN
    training loss (Eq. 4).
    """
    logits = as_tensor(logits)
    target_data = (targets.data if isinstance(targets, Tensor)
                   else np.asarray(targets, dtype=logits.data.dtype))
    if target_data.shape != logits.shape:
        raise GradientError(
            f"target shape {target_data.shape} != logits shape {logits.shape}"
        )
    if target_data.size and (target_data.min() < 0 or target_data.max() > 1):
        raise GradientError("BCE targets must lie in [0, 1]")
    per_element = softplus(logits) - logits * Tensor(
        target_data, dtype=target_data.dtype
    )
    return per_element.mean()
