"""Optimizers: SGD with momentum, and Adam (the paper's choice, Sec. 9.2)."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.tensor import Tensor

__all__ = ["Adam", "Optimizer", "SGD"]


class Optimizer:
    """Base class holding the parameter list and the step/zero protocol."""

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ConfigurationError("optimizer received no parameters")
        if any(not p.requires_grad for p in self.parameters):
            raise ConfigurationError("all optimized tensors must require grad")
        if learning_rate <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def clip_gradients(self, max_norm: float) -> float:
        """Scale gradients so their global L2 norm is at most ``max_norm``.

        Returns the pre-clipping norm — useful for divergence monitoring.
        """
        if max_norm <= 0:
            raise ConfigurationError("max_norm must be positive")
        total = 0.0
        for parameter in self.parameters:
            if parameter.grad is not None:
                total += float((parameter.grad ** 2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm:
            scale = max_norm / (norm + 1e-12)
            for parameter in self.parameters:
                if parameter.grad is not None:
                    parameter.grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float = 0.01,
                 *, momentum: float = 0.0) -> None:
        super().__init__(parameters, learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        # zeros_like: velocity adopts each parameter's dtype, so a float32
        # policy run keeps float32 optimizer state end-to-end.
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for parameter, velocity in zip(self.parameters, self._velocity):
            if parameter.grad is None:
                continue
            velocity *= self.momentum
            velocity -= self.learning_rate * parameter.grad
            parameter.data += velocity


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float = 1e-3,
                 *, beta1: float = 0.9, beta2: float = 0.999,
                 epsilon: float = 1e-8) -> None:
        super().__init__(parameters, learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("betas must be in [0, 1)")
        if epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step_count = 0
        # zeros_like: moment buffers adopt each parameter's dtype (policy).
        self._first_moment = [np.zeros_like(p.data) for p in self.parameters]
        self._second_moment = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """One update per parameter, in place.

        Two scratch arrays per parameter hold every intermediate of
        ``lr·m̂ / (sqrt(v̂) + ε)``, each the operation the written-out
        formula runs, on the same operands in the same order, so the bits
        are the formula's.
        """
        self._step_count += 1
        correction1 = 1.0 - self.beta1 ** self._step_count
        correction2 = 1.0 - self.beta2 ** self._step_count
        for parameter, m, v in zip(self.parameters, self._first_moment,
                                   self._second_moment):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            update, denominator = np.empty_like(m), np.empty_like(v)
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, grad, out=update)
            v *= self.beta2
            np.square(grad, out=update)
            v += np.multiply(1.0 - self.beta2, update, out=update)
            np.divide(m, correction1, out=update)
            np.divide(v, correction2, out=denominator)
            np.sqrt(denominator, out=denominator)
            denominator += self.epsilon
            np.multiply(self.learning_rate, update, out=update)
            parameter.data -= np.divide(update, denominator, out=update)
