"""BiLSTM-CRF sequence labeler with manual backpropagation.

The paper's NER model is the BiLSTM-CNNs-CRF of Ma & Hovy (2016).  This
is its numpy equivalent minus the character-CNN: word embeddings
(initialised from the simulated pretrained vectors) feed a bidirectional
LSTM whose concatenated states project to CRF emission scores; the CRF
layer (transitions, forward-backward, Viterbi) is shared with
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
from .crf_core import (
    CRFTagger,
    crf_marginals_batch,
    crf_sentence_gradients,
)
from .embeddings import pretrained_for_dataset
from .layers import dropout_mask, glorot_init, sigmoid


def _lstm_run(
    inputs: np.ndarray, w_input: np.ndarray, w_hidden: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Unroll an LSTM over ``inputs`` (L, D); gates stacked [i, f, g, o]."""
    length = inputs.shape[0]
    hidden_dim = w_hidden.shape[0]
    h_state = np.zeros(hidden_dim)
    c_state = np.zeros(hidden_dim)
    states = np.empty((length, hidden_dim))
    caches: list[dict[str, np.ndarray]] = []
    for t in range(length):
        pre = inputs[t] @ w_input + h_state @ w_hidden + bias
        i = sigmoid(pre[:hidden_dim])
        f = sigmoid(pre[hidden_dim : 2 * hidden_dim])
        g = np.tanh(pre[2 * hidden_dim : 3 * hidden_dim])
        o = sigmoid(pre[3 * hidden_dim :])
        c_new = f * c_state + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        caches.append({
            "x": inputs[t], "h_prev": h_state, "c_prev": c_state,
            "i": i, "f": f, "g": g, "o": o, "tanh_c": tanh_c,
        })
        h_state, c_state = h_new, c_new
        states[t] = h_new
    return states, caches


def _lstm_run_batch(
    inputs: np.ndarray, w_input: np.ndarray, w_hidden: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Inference-only LSTM over a same-length batch ``(B, L, D)``.

    Returns the hidden states ``(B, L, H)``.  No caches are kept (the
    training path still uses :func:`_lstm_run` per sentence) and no
    masking is needed because callers bucket sentences by exact length.
    """
    batch, length, _ = inputs.shape
    hidden_dim = w_hidden.shape[0]
    h_state = np.zeros((batch, hidden_dim))
    c_state = np.zeros((batch, hidden_dim))
    states = np.empty((batch, length, hidden_dim))
    for t in range(length):
        pre = inputs[:, t] @ w_input + h_state @ w_hidden + bias
        i = sigmoid(pre[:, :hidden_dim])
        f = sigmoid(pre[:, hidden_dim : 2 * hidden_dim])
        g = np.tanh(pre[:, 2 * hidden_dim : 3 * hidden_dim])
        o = sigmoid(pre[:, 3 * hidden_dim :])
        c_state = f * c_state + i * g
        h_state = o * np.tanh(c_state)
        states[:, t] = h_state
    return states


def _lstm_back(
    d_states: np.ndarray,
    caches: list[dict[str, np.ndarray]],
    w_input: np.ndarray,
    w_hidden: np.ndarray,
    grads: dict[str, np.ndarray],
    prefix: str,
) -> np.ndarray:
    """BPTT: accumulate parameter grads, return input gradients (L, D)."""
    hidden_dim = w_hidden.shape[0]
    d_inputs = np.zeros((len(caches), w_input.shape[0]))
    dh = np.zeros(hidden_dim)
    dc = np.zeros(hidden_dim)
    for t in range(len(caches) - 1, -1, -1):
        cache = caches[t]
        dh = dh + d_states[t]
        do = dh * cache["tanh_c"]
        dc = dc + dh * cache["o"] * (1.0 - cache["tanh_c"] ** 2)
        di = dc * cache["g"]
        df = dc * cache["c_prev"]
        dg = dc * cache["i"]
        dc_prev = dc * cache["f"]
        dpre = np.concatenate([
            di * cache["i"] * (1 - cache["i"]),
            df * cache["f"] * (1 - cache["f"]),
            dg * (1 - cache["g"] ** 2),
            do * cache["o"] * (1 - cache["o"]),
        ])
        grads[f"Wx{prefix}"] += np.outer(cache["x"], dpre)
        grads[f"Wh{prefix}"] += np.outer(cache["h_prev"], dpre)
        grads[f"b{prefix}"] += dpre
        d_inputs[t] = w_input @ dpre
        dh = w_hidden @ dpre
        dc = dc_prev
    return d_inputs


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

    def _encode(
        self, sentence: np.ndarray, drop_mask: np.ndarray | None
    ) -> tuple[np.ndarray, dict]:
        """Emission scores plus the cache the backward pass needs."""
        params = self._require_fitted()
        embedded = params["E"][sentence]  # (L, D)
        forward_states, forward_caches = _lstm_run(
            embedded, params["Wxf"], params["Whf"], params["bf"]
        )
        backward_states_rev, backward_caches = _lstm_run(
            embedded[::-1], params["Wxb"], params["Whb"], params["bb"]
        )
        concat = np.concatenate(
            [forward_states, backward_states_rev[::-1]], axis=1
        )  # (L, 2H)
        dropped = concat if drop_mask is None else concat * drop_mask
        emissions = dropped @ params["Wo"] + params["bo"]
        cache = {
            "sentence": sentence,
            "dropped": dropped,
            "drop_mask": drop_mask,
            "forward_caches": forward_caches,
            "backward_caches": backward_caches,
        }
        return emissions, cache

    # -- training -----------------------------------------------------------

    def _training_data(self, dataset: SequenceDataset):
        self._num_tags = dataset.num_tags
        return dataset.sentences, dataset.tag_sequences

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
        sentences, tag_sequences = data
        params = self._params
        hidden = self.hidden_dim
        grads = {name: np.zeros_like(v) for name, v in params.items()}
        for index in batch:
            sentence = sentences[index]
            tags = tag_sequences[index]
            mask = dropout_mask(rng, (len(sentence), 2 * hidden), self.dropout)
            emissions, cache = self._encode(sentence, mask)
            d_em, d_a, d_start, d_end, _ = crf_sentence_gradients(
                emissions, tags, params["A"], params["start"], params["end"]
            )
            scale = 1.0 / len(batch)
            self._backprop(cache, d_em * scale, grads)
            grads["A"] += scale * d_a
            grads["start"] += scale * d_start
            grads["end"] += scale * d_end
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
        d_forward = d_concat[:, :hidden]
        d_backward = d_concat[:, hidden:]
        d_inputs = _lstm_back(
            d_forward, cache["forward_caches"], params["Wxf"], params["Whf"],
            grads, "f",
        )
        d_inputs_rev = _lstm_back(
            d_backward[::-1], cache["backward_caches"], params["Wxb"], params["Whb"],
            grads, "b",
        )
        d_embedded = d_inputs + d_inputs_rev[::-1]
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
        The batched recurrence performs one matrix-matrix product per
        step instead of ``B`` matrix-vector products, which BLAS may
        reduce in a different order, so states agree with the
        per-sentence encoder to ~1e-15 rather than bit-for-bit.
        """
        params = self._require_fitted()
        sentences = dataset.sentences
        output: list[np.ndarray | None] = [None] * len(sentences)
        for length, rows in length_buckets([len(s) for s in sentences]):
            ids = np.stack([sentences[int(r)] for r in rows])
            embedded = params["E"][ids]  # (B, L, D)
            forward = _lstm_run_batch(
                embedded, params["Wxf"], params["Whf"], params["bf"]
            )
            backward_rev = _lstm_run_batch(
                embedded[:, ::-1], params["Wxb"], params["Whb"], params["bb"]
            )
            concat = np.concatenate([forward, backward_rev[:, ::-1]], axis=2)
            for row, states in zip(rows, concat):
                output[int(row)] = states
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
