"""Numpy TextCNN (Kim, 2014) with manual backpropagation.

Architecture: embedding lookup -> parallel 1-D convolutions of several
window widths -> ReLU -> max-over-time pooling -> concatenation ->
dropout -> dense softmax.  This mirrors the paper's text-classification
model; the embedding table is trainable and initialised from simulated
pretrained vectors, which is what gives the EGL-word strategy (Eq. 12)
its signal.

The backward pass is written explicitly so three things become possible
without an autograd framework:

* training with Adam,
* per-word embedding gradients for every candidate label (EGL-word),
* MC-dropout sampling for BALD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.datasets import TextDataset
from ..exceptions import ConfigurationError
from .base import Classifier, NumpyModel
from .embeddings import pretrained_for_dataset
from .layers import dropout_mask, glorot_init, one_hot, softmax


@dataclass
class _ForwardCache:
    """Intermediate activations needed by the backward pass."""

    ids: np.ndarray  # (n, L)
    embedded: np.ndarray  # (n, L, D)
    windows: dict[int, np.ndarray]  # width -> (n, P, w*D)
    conv_pre: dict[int, np.ndarray]  # width -> (n, P, F)
    argmax: dict[int, np.ndarray]  # width -> (n, F) pooled position
    hidden: np.ndarray  # (n, F_total) post-dropout
    drop_mask: np.ndarray | None
    probabilities: np.ndarray  # (n, C)


class TextCNN(NumpyModel, Classifier):
    """Convolutional sentence classifier trained by manual backprop.

    Parameters
    ----------
    embedding_dim:
        Word-vector dimension.
    filters:
        Feature maps per window width.
    widths:
        Convolution window widths.
    dropout:
        Dropout rate before the output layer (also used for BALD draws).
    epochs, learning_rate, batch_size, l2, seed:
        Optimisation hyper-parameters (Adam).
    max_length:
        Sentences are truncated/padded to this length (``None`` = longest
        training sentence).
    """

    STATE_META = ("num_classes", "fit_length")

    def __init__(
        self,
        embedding_dim: int = 24,
        filters: int = 16,
        widths: tuple[int, ...] = (3, 4),
        dropout: float = 0.3,
        epochs: int = 12,
        learning_rate: float = 0.01,
        batch_size: int = 32,
        l2: float = 1e-4,
        seed: int = 0,
        max_length: int | None = None,
        embedding_matrix: np.ndarray | None = None,
        warm_epochs: "int | None" = None,
    ) -> None:
        if not widths or min(widths) < 1:
            raise ConfigurationError(f"widths must be positive, got {widths}")
        self.embedding_dim = embedding_dim
        self.filters = filters
        self.widths = tuple(widths)
        self.dropout = dropout
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.l2 = l2
        self.seed = seed
        self.max_length = max_length
        self.embedding_matrix = embedding_matrix
        self.warm_epochs = warm_epochs
        self._check_arguments()
        self._params: dict[str, np.ndarray] | None = None
        self._num_classes: int | None = None
        self._fit_length: int | None = None

    # -- plumbing ----------------------------------------------------------

    @property
    def _hidden_dim(self) -> int:
        return self.filters * len(self.widths)

    def _padded_ids(self, dataset: TextDataset) -> np.ndarray:
        length = self._fit_length or max(dataset.max_length(), max(self.widths))
        return dataset.padded(max_length=max(length, max(self.widths)))

    # -- training ------------------------------------------------------------

    def fit(
        self, dataset: TextDataset, init_from: "TextCNN | None" = None
    ) -> "TextCNN":
        return self._train(dataset, init_from)

    def _training_data(self, dataset: TextDataset):
        self._fit_length = self.max_length or max(dataset.max_length(), max(self.widths))
        self._num_classes = dataset.num_classes
        return self._padded_ids(dataset), one_hot(dataset.labels, dataset.num_classes)

    def _initial_params(self, dataset: TextDataset, data, rng) -> dict:
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
        dim = embedding.shape[1]
        params: dict[str, np.ndarray] = {"E": embedding.copy()}
        for width in self.widths:
            fan_in = width * dim
            params[f"W{width}"] = glorot_init(rng, fan_in, self.filters)
            params[f"bw{width}"] = np.zeros(self.filters)
        params["Wo"] = glorot_init(rng, self._hidden_dim, dataset.num_classes)
        params["bo"] = np.zeros(dataset.num_classes)
        return params

    def _check_warm(self, previous: dict, dataset: TextDataset, data) -> None:
        vocab, classes = len(dataset.vocab), dataset.num_classes
        if previous["E"].shape[0] != vocab or previous["Wo"].shape[1] != classes:
            raise ConfigurationError(
                "warm-start shape mismatch: previous TextCNN does not match "
                f"(vocab={vocab}, classes={classes})"
            )

    def _gradients(self, data, batch: np.ndarray, rng) -> dict:
        ids, targets = data
        mask = dropout_mask(rng, (len(batch), self._hidden_dim), self.dropout)
        cache = self._forward(ids[batch], mask)
        delta_out = (cache.probabilities - targets[batch]) / len(batch)
        return self._backward(cache, delta_out)

    # -- forward / backward -------------------------------------------------

    def _convolutions(self, embedded: np.ndarray):
        """Each window width's conv/pool pass over ``embedded`` ``(n, L, D)``.

        Yields ``(width, windows, pre, argmax, pooled)``: the stacked
        windows ``(n, P, w*D)``, the conv pre-activations ``(n, P, F)``,
        the max-pooled position and the ReLU/max-pooled features, both
        ``(n, F)``.  The backward pass keeps all of them; inference keeps
        only ``pooled``.
        """
        params = self._require_fitted()
        n, length, dim = embedded.shape
        for width in self.widths:
            positions = length - width + 1
            # (n, P, w, D) strided view -> (n, P, w*D)
            view = np.lib.stride_tricks.sliding_window_view(embedded, width, axis=1)
            # sliding_window_view puts the window axis last: (n, P, D, w)
            stacked = view.transpose(0, 1, 3, 2).reshape(n, positions, width * dim)
            pre = stacked @ params[f"W{width}"] + params[f"bw{width}"]
            relu = np.maximum(pre, 0.0)
            arg = relu.argmax(axis=1)  # (n, F)
            pooled = np.take_along_axis(relu, arg[:, None, :], axis=1)[:, 0, :]
            yield width, stacked, pre, arg, pooled

    def _forward(
        self, ids: np.ndarray, drop_mask: np.ndarray | None
    ) -> _ForwardCache:
        params = self._require_fitted()
        embedded = params["E"][ids]  # (n, L, D)
        windows: dict[int, np.ndarray] = {}
        conv_pre: dict[int, np.ndarray] = {}
        argmax: dict[int, np.ndarray] = {}
        pooled = []
        for width, stacked, pre, arg, features in self._convolutions(embedded):
            windows[width] = stacked
            conv_pre[width] = pre
            argmax[width] = arg
            pooled.append(features)
        concat = np.concatenate(pooled, axis=1)
        hidden = concat if drop_mask is None else concat * drop_mask
        probabilities = softmax(hidden @ params["Wo"] + params["bo"])
        return _ForwardCache(
            ids=ids,
            embedded=embedded,
            windows=windows,
            conv_pre=conv_pre,
            argmax=argmax,
            hidden=hidden,
            drop_mask=drop_mask,
            probabilities=probabilities,
        )

    def _pool_grad_to_conv(
        self, cache: _ForwardCache, delta_hidden: np.ndarray
    ) -> dict[int, np.ndarray]:
        """Route the concat/pool gradient back to per-width conv_pre grads."""
        grads: dict[int, np.ndarray] = {}
        offset = 0
        for width in self.widths:
            dpool = delta_hidden[:, offset : offset + self.filters]  # (n, F)
            offset += self.filters
            pre = cache.conv_pre[width]
            dconv = np.zeros_like(pre)
            arg = cache.argmax[width]
            n = pre.shape[0]
            rows = np.repeat(np.arange(n), self.filters)
            cols = np.tile(np.arange(self.filters), n)
            flat_pos = arg.ravel()
            active = pre[rows, flat_pos, cols] > 0  # ReLU gate at the pooled spot
            dconv[rows, flat_pos, cols] = dpool.ravel() * active
            grads[width] = dconv
        return grads

    def _embedding_grads(
        self, cache: _ForwardCache, delta_out: np.ndarray
    ) -> np.ndarray:
        """Gradient of the loss w.r.t. the embedded input, (n, L, D).

        Linear in ``delta_out`` for the masks frozen in ``cache``; reused
        once per candidate label by EGL-word.
        """
        params = self._require_fitted()
        delta_hidden = delta_out @ params["Wo"].T
        if cache.drop_mask is not None:
            delta_hidden = delta_hidden * cache.drop_mask
        dconv = self._pool_grad_to_conv(cache, delta_hidden)
        n, length, dim = cache.embedded.shape
        dembedded = np.zeros_like(cache.embedded)
        for width in self.widths:
            dwindows = dconv[width] @ params[f"W{width}"].T  # (n, P, w*D)
            positions = dwindows.shape[1]
            dwindows = dwindows.reshape(n, positions, width, dim)
            for j in range(width):
                dembedded[:, j : j + positions, :] += dwindows[:, :, j, :]
        return dembedded

    def _backward(
        self, cache: _ForwardCache, delta_out: np.ndarray
    ) -> dict[str, np.ndarray]:
        params = self._require_fitted()
        grads: dict[str, np.ndarray] = {
            "Wo": cache.hidden.T @ delta_out + self.l2 * params["Wo"],
            "bo": delta_out.sum(axis=0),
        }
        delta_hidden = delta_out @ params["Wo"].T
        if cache.drop_mask is not None:
            delta_hidden = delta_hidden * cache.drop_mask
        dconv = self._pool_grad_to_conv(cache, delta_hidden)
        for width in self.widths:
            grads[f"W{width}"] = (
                np.einsum("npk,npf->kf", cache.windows[width], dconv[width])
                + self.l2 * params[f"W{width}"]
            )
            grads[f"bw{width}"] = dconv[width].sum(axis=(0, 1))
        dembedded = self._embedding_grads(cache, delta_out)
        dE = np.zeros_like(params["E"])
        np.add.at(dE, cache.ids, dembedded)
        dE[0] = 0.0  # PAD stays zero
        grads["E"] = dE
        return grads

    # -- parameter state -----------------------------------------------------

    def set_params(self, state: dict) -> "TextCNN":
        super().set_params(state)
        if self.embedding_matrix is None:
            # Keep warm restarts possible after a restore without the
            # prototype's embedding table: reuse the restored (trained)
            # embedding as the initial table for future cold fits.
            self.embedding_matrix = self._params["E"].copy()
        return self

    # -- inference -------------------------------------------------------------

    def _pooled_features(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated ReLU/max-pooled conv features ``(n, F_total)``.

        The dropout-free sub-graph of :meth:`_forward`, without its
        backward caches.  MC-dropout draws reuse this once per batch and
        only resample masks.
        """
        embedded = self._require_fitted()["E"][ids]  # (n, L, D)
        return np.concatenate(
            [pooled for *_, pooled in self._convolutions(embedded)], axis=1
        )

    def predict_proba(self, dataset: TextDataset) -> np.ndarray:
        params = self._require_fitted()
        ids = self._padded_ids(dataset)
        outputs = []
        for start in range(0, len(ids), 256):
            hidden = self._pooled_features(ids[start : start + 256])
            outputs.append(softmax(hidden @ params["Wo"] + params["bo"]))
        return np.concatenate(outputs) if outputs else np.empty((0, self._num_classes or 0))

    def predict_proba_samples(
        self, dataset: TextDataset, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """MC-dropout draws for BALD: dropout active at prediction time.

        Conv/pool features are computed once; each draw only resamples
        the dropout mask and re-runs the output layer.  Mask draw order
        (draw-major, chunk-inner) matches the per-draw oracle in
        ``tests/oracles``, so draws are bit-for-bit identical for the
        same generator state.
        """
        if n_samples < 1:
            raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
        params = self._require_fitted()
        ids = self._padded_ids(dataset)
        chunks = [
            self._pooled_features(ids[start : start + 256])
            for start in range(0, len(ids), 256)
        ]
        draws = np.empty((n_samples, len(ids), int(self._num_classes or 0)))
        for t in range(n_samples):
            outputs = []
            for features in chunks:
                mask = dropout_mask(rng, features.shape, self.dropout)
                hidden = features * mask
                outputs.append(softmax(hidden @ params["Wo"] + params["bo"]))
            draws[t] = np.concatenate(outputs)
        return draws

    def expected_embedding_gradients(self, dataset: TextDataset) -> np.ndarray:
        """Eq. (12): EGL-word scores.

        For each candidate label ``y`` the loss gradient w.r.t. every word
        embedding in the sentence is computed; per-word norms are averaged
        under the predictive distribution and the max over words is taken.
        PAD positions are excluded.
        """
        self._require_fitted()
        ids = self._padded_ids(dataset)
        scores = np.empty(len(ids))
        num_classes = int(self._num_classes or 0)
        for start in range(0, len(ids), 256):
            chunk = ids[start : start + 256]
            cache = self._forward(chunk, None)
            expected_norms = np.zeros(chunk.shape[:2])  # (n, L)
            for label in range(num_classes):
                delta_out = cache.probabilities.copy()
                delta_out[:, label] -= 1.0
                dembedded = self._embedding_grads(cache, delta_out)
                norms = np.linalg.norm(dembedded, axis=2)  # (n, L)
                expected_norms += cache.probabilities[:, label][:, None] * norms
            expected_norms[chunk == 0] = 0.0  # ignore PAD slots
            scores[start : start + len(chunk)] = expected_norms.max(axis=1)
        return scores

    def __repr__(self) -> str:
        state = "fitted" if self._params is not None else "unfitted"
        return (
            f"TextCNN(dim={self.embedding_dim}, filters={self.filters}, "
            f"widths={self.widths}, {state})"
        )
