"""Module system and feed-forward layers.

:class:`Module` provides parameter discovery (recursing through attributes
that are modules, parameter tensors, or lists of either), train/eval mode
propagation, and a scoped freeze — the minimal surface the GAN needs,
modelled on the PyTorch API so the paper's architecture description maps
one-to-one.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.nn import init
from repro.nn.functional import dropout, embedding
from repro.nn.tensor import Tensor

__all__ = ["Dropout", "Embedding", "Linear", "Module", "Sequential", "Tanh"]


class Module:
    """Base class: parameter registry, training-mode flag, call protocol."""

    def __init__(self) -> None:
        self.training = True

    def forward(self, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.forward(*args, **kwargs)

    def parameters(self) -> Iterator[Tensor]:
        """Yield every trainable tensor reachable from this module."""
        seen: set[int] = set()
        yield from self._walk_parameters(seen)

    def _walk_parameters(self, seen: set[int]) -> Iterator[Tensor]:
        for value in vars(self).values():
            yield from _parameters_of(value, seen)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        """Yield ``(dotted_name, tensor)`` pairs for serialization."""
        seen: set[int] = set()
        yield from self._walk_named("", seen)

    def _walk_named(self, prefix: str, seen: set[int]) -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            yield from _named_parameters_of(f"{prefix}{name}", value, seen)

    def zero_grad(self) -> None:
        """Clear gradients on all parameters."""
        for parameter in self.parameters():
            parameter.zero_grad()

    @contextlib.contextmanager
    def frozen(self) -> Iterator["Module"]:
        """Treat every parameter as a constant within a ``with`` block.

        Forward values are unchanged. Results that depend only on frozen
        parameters and plain inputs record no graph, and a backward pass
        through the module computes gradients for its inputs alone, so
        the parameters receive none. Run that backward pass inside the
        block too: gradients are routed by each tensor's flag at the time
        they flow. ``requires_grad`` is restored on exit, exceptions
        included. Inside the block :meth:`parameters` is empty, which makes
        a nested freeze a no-op.
        """
        parameters = list(self.parameters())
        for parameter in parameters:
            parameter.requires_grad = False
        try:
            yield self
        finally:
            for parameter in parameters:
                parameter.requires_grad = True

    def train(self) -> "Module":
        """Enable training mode (dropout active) on the whole tree."""
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        """Enable inference mode (dropout disabled) on the whole tree."""
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            for module in _modules_of(value):
                module._set_mode(training)

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())


def _modules_of(value: object) -> Iterator[Module]:
    if isinstance(value, Module):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _modules_of(item)


def _parameters_of(value: object, seen: set[int]) -> Iterator[Tensor]:
    if isinstance(value, Tensor) and value.requires_grad:
        if id(value) not in seen:
            seen.add(id(value))
            yield value
    elif isinstance(value, Module):
        yield from value._walk_parameters(seen)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _parameters_of(item, seen)


def _named_parameters_of(name: str, value: object,
                         seen: set[int]) -> Iterator[tuple[str, Tensor]]:
    if isinstance(value, Tensor) and value.requires_grad:
        if id(value) not in seen:
            seen.add(id(value))
            yield name, value
    elif isinstance(value, Module):
        yield from value._walk_named(f"{name}.", seen)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _named_parameters_of(f"{name}.{index}", item, seen)


class Linear(Module):
    """Affine layer ``y = x @ W.T + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, *, bias: bool = True) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ConfigurationError("Linear features must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            init.xavier_uniform((out_features, in_features), rng),
            requires_grad=True,
        )
        self.bias = (Tensor(init.zeros((out_features,)), requires_grad=True)
                     if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        if num_embeddings < 1 or dim < 1:
            raise ConfigurationError("Embedding sizes must be >= 1")
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Tensor(rng.standard_normal((num_embeddings, dim)) * 0.1,
                             requires_grad=True)

    def forward(self, indices: np.ndarray) -> Tensor:
        return embedding(self.weight, np.asarray(indices))


class Dropout(Module):
    """Inverted dropout; inert in eval mode."""

    def __init__(self, probability: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= probability < 1.0:
            raise ConfigurationError(
                f"dropout probability must be in [0, 1), got {probability}"
            )
        self.probability = probability
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.probability, self._rng, training=self.training)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sequential(Module):
    """Run modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        if not modules:
            raise ConfigurationError("Sequential needs at least one module")
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x
