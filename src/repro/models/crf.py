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
    crf_marginals_batch,
    crf_padded_gradients,
)

#: The emission tables, in the order of :func:`_context_ids`.
_COMPONENTS = ("U_curr", "U_prev", "U_next")


def _context_ids(ids: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Current, previous and next word ids of a ``(B, L)`` id matrix.

    Beyond either edge the neighbour is PAD (0), so rows right-padded
    with 0 see exactly the neighbours their unpadded sentences see.
    """
    zero = np.zeros((len(ids), 1), dtype=np.int64)
    return (
        ids,
        np.concatenate([zero, ids[:, :-1]], axis=1),
        np.concatenate([ids[:, 1:], zero], axis=1),
    )


def _dropout_masks() -> np.ndarray:
    """The component mask of each keep pattern, as the draws compute it.

    Row ``code`` keeps component ``k`` when bit ``k`` of ``code`` is set
    and scales the kept ones by ``3 / kept``; row 0 (nothing kept) is
    never drawn.
    """
    keeps = (np.arange(8)[:, None] >> np.arange(3)) & 1 == 1
    return np.array([keep / max(keep.mean(), 1e-12) for keep in keeps])


_DROPOUT_MASKS = _dropout_masks()


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

    def _tables(self, dataset: SequenceDataset) -> dict:
        """The fitted arrays, once every word id of ``dataset`` has a row
        in the emission tables."""
        params = self._require_fitted()
        rows = params["U_curr"].shape[0]
        if len(dataset.vocab) > rows:
            raise ConfigurationError(
                f"vocabulary mismatch: model has {rows} word rows, "
                f"dataset has {len(dataset.vocab)} words"
            )
        return params

    def emissions(self, dataset: SequenceDataset) -> list[np.ndarray]:
        """Emission matrices of every sentence, computed batched.

        Sentences are grouped into exact-length buckets and each bucket's
        three component tables are gathered in one fancy-indexing pass —
        bit-for-bit equal to gathering them one sentence at a time.
        """
        params = self._tables(dataset)
        sentences = dataset.sentences
        output: list[np.ndarray | None] = [None] * len(sentences)
        for _length, rows in length_buckets([len(s) for s in sentences]):
            context = _context_ids(np.stack([sentences[int(r)] for r in rows]))
            parts = [params[name][index] for name, index in zip(_COMPONENTS, context)]
            batch = parts[0] + parts[1] + parts[2] + params["b"]
            for row, matrix in zip(rows, batch):
                output[int(row)] = matrix
        return output

    # -- training --------------------------------------------------------------

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

    def _check_params(self, params: dict, meta: dict) -> None:
        """Beyond the transitions, the three emission tables must be
        matrices with ``T`` columns and one shared row count (the
        vocabulary), and ``b`` must be ``(T,)``."""
        super()._check_params(params, meta)
        tags = meta["num_tags"]
        words = params["U_curr"].shape[0] if params["U_curr"].ndim == 2 else None
        for name in _COMPONENTS:
            table = params[name]
            if table.shape != (words, tags):
                raise ConfigurationError(
                    f"arrays.{name} must be a matrix with meta.num_tags ({tags}) "
                    f"columns and the rows of arrays.U_curr, got shape {table.shape}"
                )
        if params["b"].shape != (tags,):
            raise ConfigurationError(
                f"arrays.b must have shape {(tags,)}, got {params['b'].shape}"
            )

    def _gradients(self, data, batch: np.ndarray, rng) -> dict:
        """The minibatch's mean NLL gradient plus the L2 term.

        One padded lattice pass (:func:`crf_padded_gradients`) serves the
        whole minibatch.  Each table then takes its contributions in
        minibatch order: ``np.add.at`` applies its updates in index order,
        and the ``b``/``A``/``start``/``end`` sums run sentence by
        sentence, each over the sentence's own positions, so the bytes
        equal accumulating one sentence at a time.
        """
        ids, tags, lengths = data
        params = self._params
        lengths = lengths[batch]
        width = int(lengths.max())
        context = _context_ids(ids[batch, :width])
        parts = [params[name][index] for name, index in zip(_COMPONENTS, context)]
        emissions = parts[0] + parts[1] + parts[2] + params["b"]
        d_emissions, d_transitions, d_start, d_end = crf_padded_gradients(
            emissions, lengths, tags[batch, :width],
            params["A"], params["start"], params["end"],
        )
        scale = 1.0 / len(batch)
        d_emissions *= scale
        real = np.arange(width) < lengths[:, None]
        token_grads = d_emissions[real]
        grads = {name: np.zeros_like(v) for name, v in params.items()}
        for name, component_ids in zip(_COMPONENTS, context):
            np.add.at(grads[name], component_ids[real], token_grads)
        for row, length in enumerate(lengths.tolist()):
            grads["b"] += d_emissions[row, :length].sum(axis=0)
            grads["A"] += scale * d_transitions[row]
            grads["start"] += scale * d_start[row]
            grads["end"] += scale * d_end[row]
        for name, value in params.items():
            grads[name] += self.l2 * value
        return grads

    # -- inference ----------------------------------------------------------------

    def token_marginal_samples(
        self, dataset: SequenceDataset, n_samples: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Stochastic marginals via feature dropout (sequence-BALD).

        Every keep mask is drawn first, in the order of the per-draw
        oracle in ``tests/oracles`` (per sentence, per draw:
        ``rng.random(3)``, plus ``rng.integers(3)`` when all three
        components were dropped), so the generator ends where the oracle
        leaves it.  A mask is one of 7 keep patterns.
        Each exact-length bucket then gathers its three emission
        components once, builds emissions only for its distinct
        (sentence, pattern) pairs, runs them through one batched
        forward-backward and hands each sentence its ``(n_samples, L,
        T)`` draws; the kernel is row-independent, so a repeated pattern
        gets the very marginals a separate pass would give it.
        """
        if n_samples < 1:
            raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
        params = self._tables(dataset)
        sentences = dataset.sentences
        keeps = np.empty((len(sentences), n_samples, 3), dtype=bool)
        for keep in keeps.reshape(-1, 3):
            keep[:] = rng.random(3) >= self.feature_dropout
            if not keep.any():
                keep[rng.integers(3)] = True  # never drop every component
        patterns = keeps @ np.array([1, 2, 4])
        results: list[np.ndarray | None] = [None] * len(sentences)
        for _length, rows in length_buckets([len(s) for s in sentences]):
            context = _context_ids(np.stack([sentences[int(r)] for r in rows]))
            parts = [params[name][index] for name, index in zip(_COMPONENTS, context)]
            pairs, draws = np.unique(
                np.arange(len(rows))[:, None] * 8 + patterns[rows],
                return_inverse=True,
            )
            owners, masks = pairs // 8, _DROPOUT_MASKS[pairs % 8, :, None, None]
            emissions = (
                0
                + masks[:, 0] * parts[0][owners]
                + masks[:, 1] * parts[1][owners]
                + masks[:, 2] * parts[2][owners]
                + params["b"]
            )
            marginals = crf_marginals_batch(
                emissions, params["A"], params["start"], params["end"]
            )
            for row, row_draws in zip(rows, draws.reshape(len(rows), n_samples)):
                results[int(row)] = marginals[row_draws]
        return results

    def __repr__(self) -> str:
        state = "fitted" if self._params is not None else "unfitted"
        return f"LinearChainCRF(epochs={self.epochs}, lr={self.learning_rate}, {state})"
