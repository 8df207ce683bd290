"""BiLSTM-CRF sequence labeler with manual backpropagation.

The paper's NER model is the BiLSTM-CNNs-CRF of Ma & Hovy (2016).  This
is its numpy equivalent minus the character-CNN: word embeddings
(initialised from the simulated pretrained vectors) feed a bidirectional
LSTM (both directions run :mod:`repro.models.lstm`'s one recurrence)
whose concatenated states project to CRF emission scores; the CRF layer
(transitions, forward-backward, Viterbi) is shared with
:class:`~repro.models.crf.LinearChainCRF` via :mod:`repro.models.crf_core`.

Compared with the feature CRF, this model is slower but supports *true*
MC dropout for BALD (dropout on the recurrent states at prediction time)
and learns distributed representations, making it the higher-fidelity
substrate when runtime allows.
"""

from __future__ import annotations

import numpy as np

from ..data.datasets import SequenceDataset
from ..exceptions import ConfigurationError
from .batching import length_buckets
from .crf_core import CRFTagger, crf_marginals_batch, crf_padded_gradients
from .embeddings import pretrained_for_dataset
from .layers import dropout_mask, glorot_init
from .lstm import lstm_backward, lstm_forward


class BiLSTMCRF(CRFTagger):
    """Bidirectional-LSTM encoder with a CRF output layer.

    Parameters
    ----------
    embedding_dim, hidden_dim:
        Word-vector size and per-direction LSTM state size.
    dropout:
        Dropout on the concatenated BiLSTM states (training and MC
        sampling).
    epochs, learning_rate, batch_size, l2, seed:
        Optimisation hyper-parameters (Adam).
    """

    def __init__(
        self,
        embedding_dim: int = 16,
        hidden_dim: int = 12,
        dropout: float = 0.25,
        epochs: int = 4,
        learning_rate: float = 0.05,
        batch_size: int = 8,
        l2: float = 1e-4,
        seed: int = 0,
        embedding_matrix: np.ndarray | None = None,
        warm_epochs: "int | None" = None,
    ) -> None:
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
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
        self._num_tags: int | None = None

    # -- plumbing -----------------------------------------------------------

    def _bilstm(self, embedded: np.ndarray, keep_caches: bool = False) -> tuple:
        """Concatenated states ``(B, L, 2H)`` of same-length embedded
        sentences ``(B, L, D)``, plus each direction's caches."""
        params = self._params
        lengths = np.full(len(embedded), embedded.shape[1])
        forward, forward_caches = lstm_forward(
            embedded, lengths, params["Wxf"], params["Whf"], params["bf"], keep_caches
        )
        backward_rev, backward_caches = lstm_forward(
            embedded[:, ::-1], lengths, params["Wxb"], params["Whb"], params["bb"],
            keep_caches,
        )
        states = np.concatenate([forward, backward_rev[:, ::-1]], axis=2)
        return states, (forward_caches, backward_caches)

    def _encode(
        self, sentence: np.ndarray, drop_mask: np.ndarray | None
    ) -> tuple[np.ndarray, dict]:
        """Emission scores plus the cache the backward pass needs."""
        params = self._require_fitted()
        states, caches = self._bilstm(params["E"][sentence][None], keep_caches=True)
        dropped = states[0] if drop_mask is None else states[0] * drop_mask
        emissions = dropped @ params["Wo"] + params["bo"]
        cache = {
            "sentence": sentence,
            "dropped": dropped,
            "drop_mask": drop_mask,
            "caches": caches,
        }
        return emissions, cache

    # -- training -----------------------------------------------------------

    def _initial_params(self, dataset: SequenceDataset, data, rng) -> dict:
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
        hidden = self.hidden_dim
        num_tags = dataset.num_tags
        params: dict[str, np.ndarray] = {"E": embedding.copy()}
        for prefix in ("f", "b"):
            params[f"Wx{prefix}"] = glorot_init(rng, dim, 4 * hidden)
            params[f"Wh{prefix}"] = glorot_init(rng, hidden, 4 * hidden)
            bias = np.zeros(4 * hidden)
            bias[hidden : 2 * hidden] = 1.0  # forget-gate bias trick
            params[f"b{prefix}"] = bias
        params["Wo"] = glorot_init(rng, 2 * hidden, num_tags)
        params["bo"] = np.zeros(num_tags)
        params["A"] = np.zeros((num_tags, num_tags))
        params["start"] = np.zeros(num_tags)
        params["end"] = np.zeros(num_tags)
        return params

    def _check_warm(self, previous: dict, dataset: SequenceDataset, data) -> None:
        vocab, tags = len(dataset.vocab), dataset.num_tags
        if previous["E"].shape[0] != vocab or previous["Wo"].shape[1] != tags:
            raise ConfigurationError(
                "warm-start shape mismatch: previous BiLSTMCRF does not "
                f"match (vocab={vocab}, tags={tags})"
            )

    def _gradients(self, data, batch: np.ndarray, rng) -> dict:
        """The minibatch's mean NLL gradient plus the L2 term.

        Each sentence draws its dropout mask and is encoded in minibatch
        order; one padded lattice pass (:func:`crf_padded_gradients`)
        then serves the whole minibatch, and each sentence's gradient is
        backpropagated and its transition rows added in minibatch order,
        so the bytes equal accumulating one sentence at a time.
        """
        ids, tags, lengths = data
        params = self._params
        lengths = lengths[batch]
        width = int(lengths.max())
        emissions = np.zeros((len(batch), width, self._num_tags))
        caches = []
        for row, (index, length) in enumerate(zip(batch, lengths.tolist())):
            mask = dropout_mask(rng, (length, 2 * self.hidden_dim), self.dropout)
            emissions[row, :length], cache = self._encode(ids[index, :length], mask)
            caches.append(cache)
        d_emissions, d_transitions, d_start, d_end = crf_padded_gradients(
            emissions, lengths, tags[batch, :width],
            params["A"], params["start"], params["end"],
        )
        scale = 1.0 / len(batch)
        grads = {name: np.zeros_like(v) for name, v in params.items()}
        for row, (cache, length) in enumerate(zip(caches, lengths.tolist())):
            self._backprop(cache, d_emissions[row, :length] * scale, grads)
            grads["A"] += scale * d_transitions[row]
            grads["start"] += scale * d_start[row]
            grads["end"] += scale * d_end[row]
        for name in ("Wxf", "Whf", "Wxb", "Whb", "Wo"):
            grads[name] += self.l2 * params[name]
        return grads

    def _backprop(
        self, cache: dict, d_emissions: np.ndarray, grads: dict[str, np.ndarray]
    ) -> None:
        """Accumulate gradients from d_emissions back to the embeddings."""
        params = self._require_fitted()
        hidden = self.hidden_dim
        grads["Wo"] += cache["dropped"].T @ d_emissions
        grads["bo"] += d_emissions.sum(axis=0)
        d_concat = d_emissions @ params["Wo"].T
        if cache["drop_mask"] is not None:
            d_concat = d_concat * cache["drop_mask"]
        forward_caches, backward_caches = cache["caches"]
        d_forward = lstm_backward(
            d_concat[None, :, :hidden], forward_caches, params["Wxf"], params["Whf"],
            (grads["Wxf"], grads["Whf"], grads["bf"]),
        )
        d_backward_rev = lstm_backward(
            d_concat[None, ::-1, hidden:], backward_caches,
            params["Wxb"], params["Whb"], (grads["Wxb"], grads["Whb"], grads["bb"]),
        )
        d_embedded = d_forward[0] + d_backward_rev[0, ::-1]
        np.add.at(grads["E"], cache["sentence"], d_embedded)
        grads["E"][0] = 0.0  # PAD stays zero

    # -- parameter state -----------------------------------------------------

    def set_params(self, state: dict) -> "BiLSTMCRF":
        super().set_params(state)
        if self.embedding_matrix is None:
            self.embedding_matrix = self._params["E"].copy()
        return self

    # -- inference ------------------------------------------------------------------

    def encoder_states(self, dataset: SequenceDataset) -> list[np.ndarray]:
        """Deterministic concatenated BiLSTM states ``(L, 2H)`` per sentence.

        Sentences are grouped into exact-length buckets and each bucket
        runs through both LSTM directions as one ``(B, L, D)`` tensor.
        A bucket of ``B > 1`` performs one matrix-matrix product per step
        instead of the ``B`` matrix-vector products of encoding each
        sentence alone, which BLAS may reduce in a different order, so
        states agree with :meth:`_encode` to ~1e-15, not bit for bit.
        """
        params = self._require_fitted()
        sentences = dataset.sentences
        output: list[np.ndarray | None] = [None] * len(sentences)
        for _, rows in length_buckets([len(s) for s in sentences]):
            ids = np.stack([sentences[int(r)] for r in rows])
            states, _ = self._bilstm(params["E"][ids])  # (B, L, 2H)
            for row, row_states in zip(rows, states):
                output[int(row)] = row_states
        return output

    def emissions(self, dataset: SequenceDataset) -> list[np.ndarray]:
        """Dropout-free emission matrices ``(L, T)`` for every sentence."""
        params = self._require_fitted()
        return [
            states @ params["Wo"] + params["bo"]
            for states in self.encoder_states(dataset)
        ]

    def token_marginal_samples(
        self, dataset: SequenceDataset, n_samples: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """True MC dropout on the recurrent states (BALD for sequences).

        The BiLSTM runs once per sentence (the deterministic sub-graph);
        each draw only resamples the dropout mask, projects the masked
        states, and all draws go through one batched forward-backward.
        Mask draw order matches the per-draw oracle in ``tests/oracles``
        exactly.
        """
        if n_samples < 1:
            raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
        params = self._require_fitted()
        num_tags = int(self._num_tags or 0)
        all_states = self.encoder_states(dataset)
        results = []
        for states in all_states:
            length = states.shape[0]
            emissions = np.empty((n_samples, length, num_tags))
            for t in range(n_samples):
                mask = dropout_mask(
                    rng, (length, 2 * self.hidden_dim), self.dropout
                )
                emissions[t] = (states * mask) @ params["Wo"] + params["bo"]
            results.append(
                crf_marginals_batch(
                    emissions, params["A"], params["start"], params["end"]
                )
            )
        return results

    def __repr__(self) -> str:
        state = "fitted" if self._params is not None else "unfitted"
        return (
            f"BiLSTMCRF(dim={self.embedding_dim}, hidden={self.hidden_dim}, {state})"
        )
