"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records the operations applied to
it; calling :meth:`Tensor.backward` on a scalar result walks the recorded
graph in reverse topological order and accumulates gradients into every
tensor created with ``requires_grad=True``. Arithmetic supports full numpy
broadcasting; gradients of broadcast operands are summed back to the
operand's shape.

Dtype policy
------------

Leaf tensors are created in the engine's *default dtype* — ``float64``
unless overridden by ``RF_PROTECT_NN_DTYPE`` (read once, lazily, through
:mod:`repro.config`), :func:`set_default_dtype`, or a :func:`dtype_scope`
block. Graph nodes keep whatever dtype numpy computed for them, so a
float32 model stays float32 end-to-end (gradients included: every gradient
buffer is allocated with ``zeros_like`` against the tensor it belongs to).
An explicit ``Tensor(data, dtype=...)`` always wins over the policy.

Element-wise and matrix arithmetic live here as methods; structural and
neural-network operations (concat, stack, embedding, dropout, the fused
LSTM sequence scan, losses) live in :mod:`repro.nn.functional`.

Graph lifetime
--------------

:meth:`Tensor.backward` frees the graph as it goes, like PyTorch's default
``retain_graph=False``: once a node's gradient step has run, the node drops
its closure (and with it every buffer the step saved) and its parents. A
step takes its node's gradient as an argument and never refers to its own
node, so graphs hold no reference cycles: a graph is freed by reference
counting as soon as it is dropped, backpropagated or not, never left to the
cycle collector. A second backward through a freed node raises
:class:`~repro.errors.GradientError`; leaves are never freed, so separate
graphs keep accumulating into the same parameters.
"""

from __future__ import annotations

import contextlib
import functools
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import Future
from typing import Any, Union

import numpy as np

from repro.errors import GradientError
from repro.nn import overlap

__all__ = [
    "DTypeLike",
    "Tensor",
    "TensorLike",
    "as_tensor",
    "default_dtype",
    "dtype_scope",
    "resolve_dtype",
    "set_default_dtype",
    "unbroadcast",
]

#: Anything the arithmetic methods coerce into a (leaf) tensor.
TensorLike = Union["Tensor", np.ndarray, float, int, Sequence[Any]]

#: Anything :func:`resolve_dtype` accepts as a dtype spec.
DTypeLike = Union[str, type, np.dtype]

#: Dtypes the policy accepts — the engine is real-valued by design.
_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_default_dtype: np.dtype | None = None  # resolved lazily from repro.config


def resolve_dtype(dtype: DTypeLike | None) -> np.dtype:
    """Normalize a dtype spec to a supported float dtype.

    ``None`` means "the active policy dtype" (:func:`default_dtype`).
    """
    if dtype is None:
        return default_dtype()
    try:
        resolved = np.dtype(dtype)
    except TypeError as error:
        raise GradientError(f"invalid dtype {dtype!r}: {error}") from error
    if resolved not in _SUPPORTED_DTYPES:
        raise GradientError(
            f"autograd dtype must be float32 or float64, got {resolved}"
        )
    return resolved


def default_dtype() -> np.dtype:
    """The active leaf/parameter dtype (``RF_PROTECT_NN_DTYPE`` default)."""
    global _default_dtype
    if _default_dtype is None:
        from repro.config import get_nn_dtype
        _default_dtype = resolve_dtype(get_nn_dtype())
    return _default_dtype


def set_default_dtype(dtype: str | type | np.dtype) -> np.dtype:
    """Set the active default dtype; returns the previous one."""
    global _default_dtype
    previous = default_dtype()
    _default_dtype = resolve_dtype(dtype)
    return previous


@contextlib.contextmanager
def dtype_scope(dtype: str | type | np.dtype) -> Iterator[np.dtype]:
    """Run a block under a different default dtype, then restore."""
    previous = set_default_dtype(dtype)
    try:
        yield default_dtype()
    finally:
        set_default_dtype(previous)


def _is_basic_index(key: Any) -> bool:
    """True if ``key`` is numpy basic indexing (no arrays, no bool masks).

    Basic indexing selects each source element at most once, so gradient
    scatter can use plain ``+=``; advanced indexing may select an element
    repeatedly and needs ``np.add.at``.
    """
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        part is None or part is Ellipsis
        or isinstance(part, (int, np.integer, slice))
        for part in parts
    )


def _no_backward(grad: np.ndarray) -> None:
    """The gradient step of a leaf or a constant: nothing to push."""


def _released(grad: np.ndarray) -> None:
    """The mark of a node whose step has run and whose graph is freed."""


def _offloads(node: "Tensor") -> bool:
    """Whether :meth:`Tensor.backward` runs ``node``'s step on the helper.

    Only a large fused LSTM scan is worth a thread handoff: the two
    directions of a BiLSTM are the BPTT scans that can overlap.
    """
    return (node._op == "lstm_sequence"
            and overlap.should_overlap(node.shape[1] * node.shape[2]))


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes numpy added during broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An array with an optional gradient and a recorded history."""

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "_parents",
                 "_op")

    def __init__(self, data: TensorLike, *, requires_grad: bool = False,
                 dtype: str | type | np.dtype | None = None,
                 _parents: tuple["Tensor", ...] = (), _op: str = "leaf") -> None:
        if dtype is not None:
            self.data = np.asarray(data, dtype=resolve_dtype(dtype))
        elif _parents:
            # Graph nodes keep the dtype numpy computed for them.
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=default_dtype())
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward_fn: Callable[[np.ndarray], None] = _no_backward
        self._parents = _parents
        self._op = _op

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{flag})"

    def item(self) -> float:
        """The value of a single-element tensor as a Python float."""
        if self.data.size != 1:
            raise GradientError(f"item() needs a 1-element tensor, got {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """A copy of the underlying data (safe to mutate)."""
        return self.data.copy()

    def detach(self) -> "Tensor":
        """A view of the same data cut off from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def astype(self, dtype: str | type | np.dtype) -> "Tensor":
        """A differentiable cast; the gradient is cast back on the way down."""
        target = resolve_dtype(dtype)
        out = Tensor._result(self.data.astype(target, copy=False), (self,),
                             "astype")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.astype(self.data.dtype, copy=False))

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Graph mechanics
    # ------------------------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...],
                op: str) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents, _op=op)
        if not requires:
            # No gradient can flow through this result: it is a constant
            # and records no history (see the ``_backward`` setter).
            out._parents = ()
        return out

    @property
    def _backward(self) -> Callable[[np.ndarray], None]:
        """This node's gradient step: pushes its gradient into its parents.

        The step takes the node's gradient as its argument and never refers
        to the node itself, so a node and its step form no reference cycle:
        a graph nobody backpropagates is freed as soon as it is dropped.
        """
        return self._backward_fn

    @_backward.setter
    def _backward(self, backward: Callable[[np.ndarray], None]) -> None:
        # Only a node a gradient can flow through keeps its closure. A
        # constant result drops it, and with it every buffer the closure
        # saved, so a pass over frozen parameters builds no graph.
        if self.requires_grad:
            self._backward_fn = backward

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def _accumulate_at(self, key: Any, grad: np.ndarray) -> None:
        """Accumulate a gradient into the subregion selected by ``key``.

        Writing into ``self.grad`` directly (instead of building a
        full-size scatter buffer and adding it) keeps per-timestep slicing
        of long sequences O(slice) rather than O(sequence) per step.
        Basic-index keys (ints/slices) select disjoint elements, so plain
        ``+=`` is exact; advanced indexing may repeat elements and goes
        through ``np.add.at``.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        if _is_basic_index(key):
            self.grad[key] += grad
        else:
            np.add.at(self.grad, key, grad)

    def zero_grad(self) -> None:
        """Reset this tensor's accumulated gradient."""
        self.grad = None

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Args:
            gradient: seed gradient; defaults to 1 and then requires this
                tensor to be a scalar (the usual loss case).
        """
        if gradient is None:
            if self.data.size != 1:
                raise GradientError(
                    "backward() without a gradient argument requires a scalar; "
                    f"got shape {self.shape}"
                )
            gradient = np.ones_like(self.data)
        else:
            gradient = np.asarray(gradient, dtype=self.data.dtype)
            if gradient.shape != self.shape:
                raise GradientError(
                    f"seed gradient shape {gradient.shape} != tensor shape {self.shape}"
                )

        ordered: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                ordered.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward_fn is _released:
                raise GradientError(
                    f"backward() reached a {node._op!r} node whose graph an "
                    "earlier backward() freed; recompute the forward pass"
                )
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate_seed(gradient)
        # At most one step runs on the overlap helper at a time. A node
        # waits for it if that step accumulates into the node or into one
        # of the node's parents, so every gradient sum keeps the serial
        # order and no buffer is written by two threads.
        pending: Future[None] | None = None
        pending_targets: set[int] = set()
        try:
            for node in reversed(ordered):
                step = node._backward_fn
                if step is _no_backward:
                    continue  # a leaf or a constant: nothing runs
                parents = node._parents
                if pending is not None and (
                        id(node) in pending_targets
                        or not pending_targets.isdisjoint(map(id, parents))):
                    pending.result()
                    pending = None
                # The step keeps what it needs; the node lets go of it.
                node._backward_fn, node._parents = _released, ()
                grad = node.grad
                if grad is None:
                    continue  # no gradient reached this node
                if pending is None and _offloads(node):
                    pending = overlap.submit(functools.partial(step, grad))
                    pending_targets = {id(parent) for parent in parents}
                else:
                    step(grad)
        finally:
            if pending is not None:
                pending.result()

    def _accumulate_seed(self, gradient: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += gradient

    # ------------------------------------------------------------------
    # Element-wise arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other, like=self)
        out = Tensor._result(self.data + other.data, (self, other), "add")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other._accumulate(unbroadcast(grad, other.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other, like=self)
        out = Tensor._result(self.data * other.data, (self, other), "mul")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad * other.data, self.shape))
            other._accumulate(unbroadcast(grad * self.data, other.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: TensorLike) -> "Tensor":
        return self + (-as_tensor(other, like=self))

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other, like=self) + (-self)

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other, like=self)
        return self * other.pow(-1.0)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other, like=self) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        """Element-wise power with a constant exponent."""
        if not np.isscalar(exponent):
            raise GradientError("pow() supports scalar exponents only")
        out = Tensor._result(self.data ** exponent, (self,), "pow")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        out._backward = backward
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        return self.pow(exponent)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        out = Tensor._result(out_data, (self,), "exp")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = Tensor._result(np.log(self.data), (self,), "log")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        out._backward = backward
        return out

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        out = Tensor._result(out_data, (self,), "tanh")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic via tanh.
        out_data = 0.5 * (np.tanh(0.5 * self.data) + 1.0)
        out = Tensor._result(out_data, (self,), "sigmoid")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        out._backward = backward
        return out

    def relu(self) -> "Tensor":
        out = Tensor._result(np.maximum(self.data, 0.0), (self,), "relu")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0.0))

        out._backward = backward
        return out

    def abs(self) -> "Tensor":
        out = Tensor._result(np.abs(self.data), (self,), "abs")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        out._backward = backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through inside the bounds."""
        if low >= high:
            raise GradientError(f"clip needs low < high, got [{low}, {high}]")
        out = Tensor._result(np.clip(self.data, low, high), (self,), "clip")

        def backward(grad: np.ndarray) -> None:
            inside = (self.data >= low) & (self.data <= high)
            self._accumulate(grad * inside)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Reductions and shape ops
    # ------------------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        out = Tensor._result(self.data.sum(axis=axis, keepdims=keepdims),
                             (self,), "sum")

        def backward(grad: np.ndarray) -> None:
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        out._backward = backward
        return out

    def mean(self, axis: int | tuple[int, ...] | None = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int | tuple[int, ...]) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor._result(self.data.reshape(shape), (self,), "reshape")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        out._backward = backward
        return out

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        if axes is None:
            axes = tuple(reversed(range(self.ndim)))
        axes = tuple(axes)
        out = Tensor._result(self.data.transpose(axes), (self,), "transpose")
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        out._backward = backward
        return out

    def __getitem__(self, key: Any) -> "Tensor":
        out = Tensor._result(self.data[key], (self,), "slice")

        def backward(grad: np.ndarray) -> None:
            self._accumulate_at(key, grad)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------

    def matmul(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)
        if self.ndim < 1 or other.ndim < 1:
            raise GradientError("matmul operands must have at least 1 dimension")
        out = Tensor._result(self.data @ other.data, (self, other), "matmul")

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other._accumulate(grad * a)
            elif b.ndim == 1:
                self._accumulate(np.expand_dims(grad, -1) * b)
                other._accumulate(
                    unbroadcast((np.expand_dims(grad, -1)
                                 * a).sum(axis=tuple(range(a.ndim - 1))), b.shape)
                )
            elif a.ndim == 1:
                # out = a @ b with a (K,), b (..., K, M), grad (..., M).
                weighted = b * np.expand_dims(grad, -2)      # (..., K, M)
                reduce_axes = tuple(range(weighted.ndim - 2)) + (-1,)
                self._accumulate(weighted.sum(axis=reduce_axes))
                other._accumulate(unbroadcast(np.expand_dims(a, -1)
                                              * np.expand_dims(grad, -2), b.shape))
            else:
                # Each product costs as much as the forward GEMM, so an
                # operand that takes no gradient (a frozen weight, or the
                # data it is applied to) skips its own.
                if self.requires_grad:
                    self._accumulate(unbroadcast(
                        grad @ np.swapaxes(b, -1, -2), a.shape))
                if other.requires_grad:
                    other._accumulate(unbroadcast(
                        np.swapaxes(a, -1, -2) @ grad, b.shape))

        out._backward = backward
        return out

    def __matmul__(self, other: TensorLike) -> "Tensor":
        return self.matmul(other)


def as_tensor(value: TensorLike, *, like: Tensor | None = None) -> Tensor:
    """Coerce a value into a (non-differentiable, if new) tensor.

    Python scalars adopt ``like``'s dtype when given, so expressions such
    as ``x * 0.5`` or ``x.mean()`` never widen a float32 graph to the
    (possibly wider) default policy dtype. Arrays and sequences follow the
    policy as usual.
    """
    if isinstance(value, Tensor):
        return value
    if like is not None and isinstance(value, (int, float)):
        return Tensor(value, dtype=like.data.dtype)
    return Tensor(value)
