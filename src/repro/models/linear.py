"""Softmax regression over bag-of-words features.

This is the fast default classifier for active-learning experiments: it
retrains in milliseconds, exposes calibrated-enough probabilities for the
uncertainty strategies, and — because the loss gradient of a log-linear
model has closed form — supports the Expected Gradient Length strategy
exactly (Eq. 5) without per-sample backprop.
"""

from __future__ import annotations

import numpy as np

from ..data.datasets import TextDataset
from ..exceptions import ConfigurationError
from .base import Classifier, NumpyModel
from .layers import one_hot, softmax

#: Rows per block when EGL sums squared features, so the squares never
#: fill a second ``(n, |V|)`` matrix.  ``sum(axis=1)`` reduces each row
#: on its own, so the block size cannot change a byte.
EGL_BLOCK_ROWS = 256


class LinearSoftmax(NumpyModel, Classifier):
    """Multinomial logistic regression on L1-normalised token counts.

    Parameters
    ----------
    epochs:
        Full passes of Adam per :meth:`fit` call.
    learning_rate:
        Adam step size.
    l2:
        L2 regularisation strength on the weight matrix.
    batch_size:
        Mini-batch size.
    seed:
        Seed for parameter init and batch shuffling; :meth:`fit` always
        restarts from the same init, so refits are deterministic.
    warm_epochs:
        Epoch budget when :meth:`fit` is given ``init_from``; defaults to
        ``epochs // 4`` (at least 1).
    """

    STATE_META = ("num_classes",)

    def __init__(
        self,
        epochs: int = 30,
        learning_rate: float = 0.5,
        l2: float = 1e-4,
        batch_size: int = 64,
        seed: int = 0,
        warm_epochs: "int | None" = None,
    ) -> None:
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.l2 = l2
        self.batch_size = batch_size
        self.seed = seed
        self.warm_epochs = warm_epochs
        self._check_arguments()
        self._params: dict[str, np.ndarray] | None = None  # W (V, C), b (C,)
        self._num_classes: int | None = None

    # -- training ---------------------------------------------------------

    def fit(
        self, dataset: TextDataset, init_from: "LinearSoftmax | None" = None
    ) -> "LinearSoftmax":
        return self._train(dataset, init_from)

    def _training_data(self, dataset: TextDataset):
        self._num_classes = dataset.num_classes
        return dataset.bag_of_words(), one_hot(dataset.labels, dataset.num_classes)

    def _initial_params(self, dataset: TextDataset, data, rng) -> dict:
        return {
            "W": np.zeros((data[0].shape[1], dataset.num_classes)),
            "b": np.zeros(dataset.num_classes),
        }

    def _check_warm(self, previous: dict, dataset: TextDataset, data) -> None:
        expected = (data[0].shape[1], dataset.num_classes)
        if previous["W"].shape != expected:
            raise ConfigurationError(
                f"warm-start shape mismatch: previous model is "
                f"{previous['W'].shape}, dataset needs {expected}"
            )

    def _gradients(self, data, batch: np.ndarray, rng) -> dict:
        features, targets = data
        params = self._params
        x = features[batch]
        probabilities = softmax(x @ params["W"] + params["b"])
        delta = (probabilities - targets[batch]) / len(batch)
        return {
            "W": x.T @ delta + self.l2 * params["W"],
            "b": delta.sum(axis=0),
        }

    # -- inference --------------------------------------------------------

    def predict_proba(self, dataset: TextDataset) -> np.ndarray:
        params = self._require_fitted()
        features = dataset.bag_of_words()
        if features.shape[1] != params["W"].shape[0]:
            raise ConfigurationError(
                f"vocabulary mismatch: model has {params['W'].shape[0]} features, "
                f"dataset has {features.shape[1]}"
            )
        return softmax(features @ params["W"] + params["b"])

    def expected_gradient_lengths(self, dataset: TextDataset) -> np.ndarray:
        """Eq. (5) in closed form for a log-linear model.

        For sample ``x`` labeled ``y``, the gradient of the NLL w.r.t.
        ``(W, b)`` is ``(p - e_y) (x, 1)^T``, whose Frobenius norm is
        ``||p - e_y|| * sqrt(||x||^2 + 1)``.  The EGL score marginalises
        the norm over labels with weights ``p_y``.
        """
        params = self._require_fitted()
        features = dataset.bag_of_words()
        probabilities = softmax(features @ params["W"] + params["b"])
        squared_norms = np.empty(len(features))
        for start in range(0, len(features), EGL_BLOCK_ROWS):
            block = features[start : start + EGL_BLOCK_ROWS]
            squared_norms[start : start + EGL_BLOCK_ROWS] = (block**2).sum(axis=1)
        feature_norms = np.sqrt(squared_norms + 1.0)
        # ||p - e_y||^2 = ||p||^2 - 2 p_y + 1, per candidate label y.
        squared = (probabilities**2).sum(axis=1, keepdims=True) - 2 * probabilities + 1.0
        residual_norms = np.sqrt(np.clip(squared, 0.0, None))
        expected = (probabilities * residual_norms).sum(axis=1)
        return expected * feature_norms

    @property
    def weights(self) -> np.ndarray:
        """The fitted ``(V, C)`` weight matrix (read-only view)."""
        return self._require_fitted()["W"]

    def __repr__(self) -> str:
        state = "fitted" if self._params is not None else "unfitted"
        return f"LinearSoftmax(epochs={self.epochs}, lr={self.learning_rate}, {state})"
