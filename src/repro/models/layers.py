"""Numerical building blocks shared by the numpy models.

Contains the softmax and one-hot primitives, parameter initialisers,
and a from-scratch Adam optimiser.  Every model in this package trains via
manual backpropagation, so these helpers are deliberately small, explicit
functions rather than an autograd framework.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically clipped logistic function (shared by the LSTM gates)."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return an ``(n, num_classes)`` one-hot float matrix."""
    encoded = np.zeros((len(labels), num_classes), dtype=np.float64)
    encoded[np.arange(len(labels)), labels] = 1.0
    return encoded


def glorot_init(rng: np.random.Generator, fan_in: int, fan_out: int, *shape: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a weight of ``shape``."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    full_shape = shape if shape else (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=full_shape)


def dropout_mask(
    rng: np.random.Generator, shape: tuple[int, ...], rate: float
) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability ``rate``, else 1/(1-rate)."""
    if not 0 <= rate < 1:
        raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


class Adam:
    """Adam optimiser over a named dict of parameter arrays.

    Parameters are updated in place; the optimiser owns the first/second
    moment state keyed by parameter name.
    """

    def __init__(
        self,
        learning_rate: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Apply one Adam step for every parameter present in ``grads``."""
        self._step += 1
        correction1 = 1.0 - self.beta1**self._step
        correction2 = 1.0 - self.beta2**self._step
        for name, grad in grads.items():
            if name not in params:
                raise ConfigurationError(f"gradient for unknown parameter {name!r}")
            if name not in self._m:
                self._m[name] = np.zeros_like(params[name])
                self._v[name] = np.zeros_like(params[name])
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad**2
            m_hat = m / correction1
            v_hat = v / correction2
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def minibatches(
    n: int, batch_size: int, rng: np.random.Generator
) -> "list[np.ndarray]":
    """Shuffled index mini-batches covering ``range(n)`` once."""
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    order = rng.permutation(n)
    return [order[start : start + batch_size] for start in range(0, n, batch_size)]
