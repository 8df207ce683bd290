"""One-hidden-layer classifier over mean-embedding features with MC dropout.

This is the BALD-capable classifier: dropout stays active at prediction
time when sampling, so the mutual-information estimator of Gal et al.
(2017) can be computed.  Input features are the mean of (simulated)
pretrained word embeddings, which keeps the network tiny and retraining
fast; the embedding table itself is fixed, mirroring the common
frozen-embedding fine-tuning regime.
"""

from __future__ import annotations

import numpy as np

from ..data.datasets import TextDataset
from ..exceptions import ConfigurationError
from ..ioutil import decode_array, encode_array
from .base import Classifier, NumpyModel
from .embeddings import pretrained_for_dataset
from .layers import dropout_mask, glorot_init, one_hot, softmax


class MLPClassifier(NumpyModel, Classifier):
    """Embedding-mean -> Dense -> ReLU -> Dropout -> Dense -> softmax.

    Parameters
    ----------
    hidden_dim:
        Width of the hidden layer.
    embedding_dim:
        Dimension of the (frozen) embedding table, built on first fit via
        :func:`repro.models.embeddings.pretrained_for_dataset` unless an
        ``embedding_matrix`` is supplied.
    dropout:
        Dropout rate after the hidden layer; also used for MC sampling.
    epochs, learning_rate, batch_size, l2, seed:
        Optimisation hyper-parameters (Adam).
    """

    STATE_META = ("num_classes",)

    def __init__(
        self,
        hidden_dim: int = 32,
        embedding_dim: int = 32,
        dropout: float = 0.3,
        epochs: int = 40,
        learning_rate: float = 0.05,
        batch_size: int = 64,
        l2: float = 1e-4,
        seed: int = 0,
        embedding_matrix: np.ndarray | None = None,
        warm_epochs: "int | None" = None,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.embedding_dim = embedding_dim
        self.dropout = dropout
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.l2 = l2
        self.seed = seed
        self.embedding_matrix = embedding_matrix
        self.warm_epochs = warm_epochs
        self._check_arguments()
        self._params: dict[str, np.ndarray] | None = None
        self._num_classes: int | None = None

    # -- features ---------------------------------------------------------

    def _features(self, dataset: TextDataset) -> np.ndarray:
        if self.embedding_matrix is None:
            self.embedding_matrix = pretrained_for_dataset(
                dataset, dim=self.embedding_dim, seed_or_rng=self.seed
            )
        embedding = self.embedding_matrix
        if embedding.shape[0] != len(dataset.vocab):
            raise ConfigurationError(
                f"embedding table has {embedding.shape[0]} rows for a "
                f"vocabulary of {len(dataset.vocab)}"
            )
        features = np.zeros((len(dataset), embedding.shape[1]))
        for row, sentence in enumerate(dataset.sentences):
            if len(sentence):
                features[row] = embedding[sentence].mean(axis=0)
        return features

    # -- training ---------------------------------------------------------

    def fit(
        self, dataset: TextDataset, init_from: "MLPClassifier | None" = None
    ) -> "MLPClassifier":
        return self._train(dataset, init_from)

    def _training_data(self, dataset: TextDataset):
        self._num_classes = dataset.num_classes
        return self._features(dataset), one_hot(dataset.labels, dataset.num_classes)

    def _initial_params(self, dataset: TextDataset, data, rng) -> dict:
        return {
            "W1": glorot_init(rng, data[0].shape[1], self.hidden_dim),
            "b1": np.zeros(self.hidden_dim),
            "W2": glorot_init(rng, self.hidden_dim, dataset.num_classes),
            "b2": np.zeros(dataset.num_classes),
        }

    def _check_warm(self, previous: dict, dataset: TextDataset, data) -> None:
        dim, hidden = data[0].shape[1], self.hidden_dim
        if previous["W1"].shape != (dim, hidden) or previous["W2"].shape != (
            hidden, dataset.num_classes
        ):
            raise ConfigurationError(
                "warm-start shape mismatch: previous MLP does not match "
                f"(dim={dim}, hidden={hidden}, classes={dataset.num_classes})"
            )

    def _gradients(self, data, batch: np.ndarray, rng) -> dict:
        features, targets = data
        x = features[batch]
        mask = dropout_mask(rng, (len(batch), self.hidden_dim), self.dropout)
        probabilities, dropped, hidden_pre = self._forward(x, mask)
        delta_out = (probabilities - targets[batch]) / len(batch)
        delta_hidden = (delta_out @ self._params["W2"].T) * mask
        delta_hidden *= hidden_pre > 0
        return {
            "W2": dropped.T @ delta_out + self.l2 * self._params["W2"],
            "b2": delta_out.sum(axis=0),
            "W1": x.T @ delta_hidden + self.l2 * self._params["W1"],
            "b1": delta_hidden.sum(axis=0),
        }

    # -- parameter state: the frozen embedding travels with the weights ----

    def get_params(self) -> dict:
        state = super().get_params()
        return {
            "arrays": state["arrays"],
            "embedding": encode_array(self.embedding_matrix),
            "meta": state["meta"],
        }

    def set_params(self, state: dict) -> "MLPClassifier":
        self.embedding_matrix = decode_array(
            state["embedding"], ConfigurationError, "embedding"
        )
        return super().set_params(state)

    # -- inference --------------------------------------------------------

    def _forward(
        self, features: np.ndarray, mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (probabilities, dropped_hidden, hidden_pre)."""
        params = self._require_fitted()
        hidden_pre = features @ params["W1"] + params["b1"]
        hidden = np.maximum(hidden_pre, 0.0)
        dropped = hidden if mask is None else hidden * mask
        probabilities = softmax(dropped @ params["W2"] + params["b2"])
        return probabilities, dropped, hidden_pre

    def predict_proba(self, dataset: TextDataset) -> np.ndarray:
        probabilities, _, _ = self._forward(self._features(dataset))
        return probabilities

    def predict_proba_samples(
        self, dataset: TextDataset, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """MC-dropout draws: dropout stays active, one mask per draw."""
        if n_samples < 1:
            raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
        features = self._features(dataset)
        draws = np.empty((n_samples, len(dataset), int(self._num_classes or 0)))
        for t in range(n_samples):
            mask = dropout_mask(rng, (len(dataset), self.hidden_dim), self.dropout)
            draws[t], _, _ = self._forward(features, mask)
        return draws

    def expected_gradient_lengths(self, dataset: TextDataset) -> np.ndarray:
        """Eq. (5) via per-class backprop with vectorised norm accounting.

        Per-sample gradients of both dense layers are rank-one outer
        products, so their Frobenius norms factor into vector-norm
        products and never need to be materialised.
        """
        params = self._require_fitted()
        features = self._features(dataset)
        probabilities, hidden, hidden_pre = self._forward(features)
        num_classes = probabilities.shape[1]
        feature_sq = (features**2).sum(axis=1)
        hidden_sq = (hidden**2).sum(axis=1)
        relu_mask = hidden_pre > 0
        expected = np.zeros(len(dataset))
        for label in range(num_classes):
            delta_out = probabilities.copy()
            delta_out[:, label] -= 1.0
            delta_hidden = (delta_out @ params["W2"].T) * relu_mask
            out_sq = (delta_out**2).sum(axis=1)
            hid_sq = (delta_hidden**2).sum(axis=1)
            grad_norm = np.sqrt(
                out_sq * (hidden_sq + 1.0) + hid_sq * (feature_sq + 1.0)
            )
            expected += probabilities[:, label] * grad_norm
        return expected

    def __repr__(self) -> str:
        state = "fitted" if self._params is not None else "unfitted"
        return f"MLPClassifier(hidden={self.hidden_dim}, dropout={self.dropout}, {state})"
