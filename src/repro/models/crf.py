"""Linear-chain CRF sequence labeler.

Fast stand-in for the paper's BiLSTM-CNNs-CRF NER model (Ma & Hovy
2016): the neural encoder is replaced by log-linear emission features —
current word, previous word, next word — while the CRF output layer
(transition matrix, forward-backward training, Viterbi decoding) is the
exact shared implementation in :mod:`repro.models.crf_core`, also used by
the higher-fidelity :class:`~repro.models.bilstm_crf.BiLSTMCRF`.  The
active-learning strategies only consume the probabilistic interface
(best-path probability, token marginals), which this model provides in the
same form the paper's model would.

Stochastic marginals for BALD are produced by *feature dropout*: each of
the three emission components is dropped independently per draw, a
sequence-model analogue of MC dropout.
"""

from __future__ import annotations

import numpy as np

from ..data.datasets import SequenceDataset
from ..exceptions import ConfigurationError
from .batching import length_buckets
from .crf_core import (
    CRFTagger,
    crf_marginals,
    crf_marginals_batch,
    crf_sentence_gradients,
)

_COMPONENTS = ("U_curr", "U_prev", "U_next")


class LinearChainCRF(CRFTagger):
    """CRF over word-identity context features.

    Parameters
    ----------
    epochs:
        Training passes over the labeled sentences.
    learning_rate:
        Adam step size.
    l2:
        L2 penalty on all parameter tables.
    batch_size:
        Sentences per gradient step.
    feature_dropout:
        Component-drop probability used by :meth:`token_marginal_samples`.
    seed:
        Seed for shuffling (parameters start at zero, so init is
        deterministic anyway).
    """

    def __init__(
        self,
        epochs: int = 8,
        learning_rate: float = 0.2,
        l2: float = 1e-4,
        batch_size: int = 16,
        feature_dropout: float = 0.25,
        seed: int = 0,
        warm_epochs: "int | None" = None,
    ) -> None:
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.l2 = l2
        self.batch_size = batch_size
        self.feature_dropout = feature_dropout
        self.seed = seed
        self.warm_epochs = warm_epochs
        self._check_arguments()
        self._params: dict[str, np.ndarray] | None = None
        self._num_tags: int | None = None

    # -- scores --------------------------------------------------------------

    def _emission_parts(
        self, sentence: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three emission components (current/previous/next word)."""
        params = self._require_fitted()
        prev_ids = np.concatenate([[0], sentence[:-1]])
        next_ids = np.concatenate([sentence[1:], [0]])
        return (
            params["U_curr"][sentence],
            params["U_prev"][prev_ids],
            params["U_next"][next_ids],
        )

    def _sentence_emissions(
        self, sentence: np.ndarray, component_mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Emission scores, shape ``(length, num_tags)``.

        ``component_mask`` (length 3, values 0/scale) implements feature
        dropout over the current/previous/next word components.
        """
        params = self._require_fitted()
        parts = self._emission_parts(sentence)
        if component_mask is None:
            emissions = parts[0] + parts[1] + parts[2]
        else:
            emissions = sum(m * p for m, p in zip(component_mask, parts))
        return emissions + params["b"]

    def emissions(self, dataset: SequenceDataset) -> list[np.ndarray]:
        """Emission matrices of every sentence, computed batched.

        Sentences are grouped into exact-length buckets and each bucket's
        three component tables are gathered in one fancy-indexing pass —
        bit-for-bit equal to calling :meth:`_sentence_emissions` per sentence.
        """
        params = self._require_fitted()
        sentences = dataset.sentences
        output: list[np.ndarray | None] = [None] * len(sentences)
        for length, rows in length_buckets([len(s) for s in sentences]):
            ids = np.stack([sentences[int(r)] for r in rows])  # (B, L)
            zero = np.zeros((len(rows), 1), dtype=np.int64)
            prev_ids = np.concatenate([zero, ids[:, :-1]], axis=1)
            next_ids = np.concatenate([ids[:, 1:], zero], axis=1)
            batch = (
                params["U_curr"][ids]
                + params["U_prev"][prev_ids]
                + params["U_next"][next_ids]
                + params["b"]
            )
            for row, matrix in zip(rows, batch):
                output[int(row)] = matrix
        return output

    # -- training --------------------------------------------------------------

    def _training_data(self, dataset: SequenceDataset):
        self._num_tags = dataset.num_tags
        return dataset.sentences, dataset.tag_sequences

    def _initial_params(self, dataset: SequenceDataset, data, rng) -> dict:
        vocab_size, num_tags = len(dataset.vocab), dataset.num_tags
        return {
            "U_curr": np.zeros((vocab_size, num_tags)),
            "U_prev": np.zeros((vocab_size, num_tags)),
            "U_next": np.zeros((vocab_size, num_tags)),
            "b": np.zeros(num_tags),
            "A": np.zeros((num_tags, num_tags)),
            "start": np.zeros(num_tags),
            "end": np.zeros(num_tags),
        }

    def _check_warm(self, previous: dict, dataset: SequenceDataset, data) -> None:
        expected = (len(dataset.vocab), dataset.num_tags)
        if previous["U_curr"].shape != expected:
            raise ConfigurationError(
                "warm-start shape mismatch: previous CRF is "
                f"{previous['U_curr'].shape}, dataset needs {expected}"
            )

    def _gradients(self, data, batch: np.ndarray, rng) -> dict:
        sentences, tag_sequences = data
        grads = {name: np.zeros_like(v) for name, v in self._params.items()}
        for index in batch:
            self._accumulate_sentence_grads(
                sentences[index], tag_sequences[index], grads, scale=1.0 / len(batch)
            )
        for name, value in self._params.items():
            grads[name] += self.l2 * value
        return grads

    def _accumulate_sentence_grads(
        self,
        sentence: np.ndarray,
        tags: np.ndarray,
        grads: dict[str, np.ndarray],
        scale: float,
    ) -> None:
        """Add the NLL gradient of one sentence into ``grads``."""
        params = self._require_fitted()
        emissions = self._sentence_emissions(sentence)
        d_emissions, d_transitions, d_start, d_end, _ = crf_sentence_gradients(
            emissions, tags, params["A"], params["start"], params["end"]
        )
        d_emissions = d_emissions * scale
        prev_ids = np.concatenate([[0], sentence[:-1]])
        next_ids = np.concatenate([sentence[1:], [0]])
        np.add.at(grads["U_curr"], sentence, d_emissions)
        np.add.at(grads["U_prev"], prev_ids, d_emissions)
        np.add.at(grads["U_next"], next_ids, d_emissions)
        grads["b"] += d_emissions.sum(axis=0)
        grads["A"] += scale * d_transitions
        grads["start"] += scale * d_start
        grads["end"] += scale * d_end

    # -- inference ----------------------------------------------------------------

    def token_marginal_samples(
        self, dataset: SequenceDataset, n_samples: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Stochastic marginals via feature dropout (sequence-BALD).

        The three emission components of a sentence are gathered once and
        only the component mask is resampled per draw; all ``n_samples``
        masked emission matrices then run through one batched
        forward-backward.  Draw order and RNG consumption match the
        per-draw reference path exactly.
        """
        if n_samples < 1:
            raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
        params = self._require_fitted()
        results: list[np.ndarray] = []
        num_tags = int(self._num_tags or 0)
        for sentence in dataset.sentences:
            parts = self._emission_parts(sentence)
            emissions = np.empty((n_samples, len(sentence), num_tags))
            for t in range(n_samples):
                keep = rng.random(3) >= self.feature_dropout
                if not keep.any():
                    keep[rng.integers(3)] = True  # never drop every component
                mask = keep / max(keep.mean(), 1e-12)
                emissions[t] = (
                    sum(m * p for m, p in zip(mask, parts)) + params["b"]
                )
            results.append(
                crf_marginals_batch(
                    emissions, params["A"], params["start"], params["end"]
                )
            )
        return results

    # -- per-sentence reference path (oracle for the batched sampler) -------

    def _token_marginal_samples_reference(
        self, dataset: SequenceDataset, n_samples: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        if n_samples < 1:
            raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
        params = self._require_fitted()
        results: list[np.ndarray] = []
        num_tags = int(self._num_tags or 0)
        for sentence in dataset.sentences:
            draws = np.empty((n_samples, len(sentence), num_tags))
            for t in range(n_samples):
                keep = rng.random(3) >= self.feature_dropout
                if not keep.any():
                    keep[rng.integers(3)] = True  # never drop every component
                mask = keep / max(keep.mean(), 1e-12)
                emissions = self._sentence_emissions(sentence, component_mask=mask)
                draws[t] = crf_marginals(
                    emissions, params["A"], params["start"], params["end"]
                )
            results.append(draws)
        return results

    def __repr__(self) -> str:
        state = "fitted" if self._params is not None else "unfitted"
        return f"LinearChainCRF(epochs={self.epochs}, lr={self.learning_rate}, {state})"
