"""Structural and neural-network operations on :class:`Tensor`.

Everything here builds autograd graph nodes: concatenation/stacking,
embedding lookup, dropout, the fused recurrent op, and the loss used by
the cGAN (binary cross-entropy in the numerically-stable logits form,
Eq. 4 of the paper).

The recurrent op deserves a note on granularity. :func:`lstm_sequence` is
the *per-layer* fusion: the whole ``(T, B, D)`` scan — input projection
batched as a single ``(T·B, D) @ (D, 4H)`` GEMM up front, per-step
recurrence over preallocated gate/state buffers, and one hand-written BPTT
backward — collapsed into a single graph node. The per-step cell graph it
replaced is the pinned equivalence reference, kept as a test oracle
(``tests/lstm_oracle.py``); the property suite holds the two within
dtype-matched tolerances.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import GradientError
from repro.nn.tensor import Tensor, TensorLike, as_tensor

__all__ = [
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
    keep = 1.0 - probability
    mask = ((rng.random(x.shape) < keep) / keep).astype(x.data.dtype)
    out = Tensor._result(x.data * mask, (x,), "dropout")

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    out._backward = backward
    return out


def _stable_sigmoid(values: np.ndarray) -> np.ndarray:
    """The numerically stable logistic used by every gate nonlinearity."""
    return 0.5 * (np.tanh(0.5 * values) + 1.0)


def lstm_sequence(inputs: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor,
                  h0: Tensor, c0: Tensor) -> Tensor:
    """One LSTM layer over a whole ``(T, B, D)`` sequence as a single op.

    Forward: the input projection for every timestep is batched into one
    ``(T·B, D) @ (D, 4H)`` GEMM (plus bias), then the recurrence runs
    per-step with preallocated gate/state buffers — the only sequential
    work left is the unavoidable ``h @ W_hh`` chain. Backward is one
    hand-written BPTT pass: a descending scan fills a ``(T, B, 4H)``
    pre-activation-gradient buffer, and all weight/input gradients fall
    out as three whole-sequence GEMMs.

    Args:
        inputs: ``(T, B, D)`` sequence tensor.
        w_ih: ``(D, 4H)`` input projection, gates ordered ``[i, f, g, o]``.
        w_hh: ``(H, 4H)`` recurrent projection.
        bias: ``(4H,)`` gate bias.
        h0: ``(B, H)`` initial hidden state.
        c0: ``(B, H)`` initial cell state.

    Returns:
        ``(T, B, H)`` tensor of per-timestep hidden states.
    """
    inputs = as_tensor(inputs)
    w_ih, w_hh, bias = as_tensor(w_ih), as_tensor(w_hh), as_tensor(bias)
    h0, c0 = as_tensor(h0), as_tensor(c0)
    if inputs.ndim != 3:
        raise GradientError(f"inputs must be (T, B, D), got {inputs.shape}")
    seq_len, batch, in_dim = inputs.shape
    if w_hh.ndim != 2 or w_hh.shape[1] != 4 * w_hh.shape[0]:
        raise GradientError(f"w_hh must be (H, 4H), got {w_hh.shape}")
    hidden = w_hh.shape[0]
    if w_ih.shape != (in_dim, 4 * hidden):
        raise GradientError(
            f"w_ih must be ({in_dim}, {4 * hidden}), got {w_ih.shape}"
        )
    if bias.shape != (4 * hidden,):
        raise GradientError(f"bias must be ({4 * hidden},), got {bias.shape}")
    for name, state in (("h0", h0), ("c0", c0)):
        if state.shape != (batch, hidden):
            raise GradientError(
                f"{name} must be ({batch}, {hidden}), got {state.shape}"
            )

    dtype = np.result_type(inputs.data, w_ih.data, w_hh.data, bias.data,
                           h0.data, c0.data)
    # Batched input projection: one GEMM covers every timestep.
    x_proj = (inputs.data.reshape(seq_len * batch, in_dim) @ w_ih.data
              + bias.data).reshape(seq_len, batch, 4 * hidden)
    gates = np.empty((seq_len, batch, 4 * hidden), dtype=dtype)
    c_all = np.empty((seq_len, batch, hidden), dtype=dtype)
    tanh_c = np.empty((seq_len, batch, hidden), dtype=dtype)
    h_all = np.empty((seq_len, batch, hidden), dtype=dtype)
    h = np.asarray(h0.data, dtype=dtype)
    c = np.asarray(c0.data, dtype=dtype)
    for t in range(seq_len):
        a = x_proj[t] + h @ w_hh.data
        i = _stable_sigmoid(a[:, :hidden])
        f = _stable_sigmoid(a[:, hidden: 2 * hidden])
        g = np.tanh(a[:, 2 * hidden: 3 * hidden])
        o = _stable_sigmoid(a[:, 3 * hidden:])
        c = f * c + i * g
        gates[t, :, :hidden] = i
        gates[t, :, hidden: 2 * hidden] = f
        gates[t, :, 2 * hidden: 3 * hidden] = g
        gates[t, :, 3 * hidden:] = o
        c_all[t] = c
        np.tanh(c, out=tanh_c[t])
        h = o * tanh_c[t]
        h_all[t] = h

    out = Tensor._result(h_all, (inputs, w_ih, w_hh, bias, h0, c0),
                         "lstm_sequence")

    def backward(grad_out: np.ndarray) -> None:
        started = time.perf_counter()
        d_gates = np.empty((seq_len, batch, 4 * hidden), dtype=dtype)
        dh_next = np.zeros((batch, hidden), dtype=dtype)
        dc_next = np.zeros((batch, hidden), dtype=dtype)
        w_hh_t = w_hh.data.T
        for t in range(seq_len - 1, -1, -1):
            i = gates[t, :, :hidden]
            f = gates[t, :, hidden: 2 * hidden]
            g = gates[t, :, 2 * hidden: 3 * hidden]
            o = gates[t, :, 3 * hidden:]
            c_prev = c_all[t - 1] if t > 0 else np.asarray(c0.data,
                                                          dtype=dtype)
            dh = grad_out[t] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c[t] ** 2)
            d_gates[t, :, :hidden] = dc * g * i * (1.0 - i)
            d_gates[t, :, hidden: 2 * hidden] = dc * c_prev * f * (1.0 - f)
            d_gates[t, :, 2 * hidden: 3 * hidden] = dc * i * (1.0 - g ** 2)
            d_gates[t, :, 3 * hidden:] = dh * tanh_c[t] * o * (1.0 - o)
            dc_next = dc * f
            dh_next = d_gates[t] @ w_hh_t
        # The three whole-sequence GEMMs run only for operands that take a
        # gradient: a frozen layer (weights constant) back-propagates into
        # its inputs alone.
        flat_gates = d_gates.reshape(seq_len * batch, 4 * hidden)
        if inputs.requires_grad:
            inputs._accumulate(
                (flat_gates @ w_ih.data.T).reshape(seq_len, batch, in_dim)
            )
        if w_ih.requires_grad:
            flat_inputs = inputs.data.reshape(seq_len * batch, in_dim)
            w_ih._accumulate(flat_inputs.T @ flat_gates)
        if w_hh.requires_grad:
            # h_prev over the sequence is h_all shifted right by one, h0
            # first.
            h_prev = np.concatenate(
                [np.asarray(h0.data, dtype=dtype)[None], h_all[:-1]], axis=0
            )
            w_hh._accumulate(h_prev.reshape(seq_len * batch, hidden).T
                             @ flat_gates)
        bias._accumulate(flat_gates.sum(axis=0))
        h0._accumulate(dh_next)
        c0._accumulate(dc_next)
        from repro.nn.metrics import observe_op
        observe_op("lstm_sequence_backward", time.perf_counter() - started)

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
