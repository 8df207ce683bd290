"""Linear-chain CRF kernels and the decoding head of the CRF taggers.

Pure functions over emission tensors and transition parameters (``A``
of shape ``(T, T)``, plus start/end vectors): log-space forward and
backward recursions, Viterbi, token marginals and the negative
log-likelihood gradient.  Both :class:`~repro.models.crf.LinearChainCRF`
(log-linear emissions) and :class:`~repro.models.bilstm_crf.BiLSTMCRF`
(neural emissions) are thin parameterisations around these: each
subclasses :class:`CRFTagger`, which holds ``fit``, the padded training
data and every bucketed decode, and supplies only its emissions,
gradient hook and stochastic marginals.

Decoding runs batched kernels (``*_batch``) over an ``(B, L, T)``
emission tensor of same-length sequences — the models length-bucket
their sentences and push each bucket through the lattice in one shot.
Training gradients take a right-padded minibatch instead
(:func:`crf_padded_gradients`).  Each kernel has one implementation:
the per-sentence recursions they replaced are the oracles in
``tests/oracles``, and the equivalence tests assert that every row of a
batched or padded kernel equals them bit for bit (the tag axis is
reduced identically).
"""

from __future__ import annotations

import numpy as np

from ..data.datasets import SequenceDataset
from ..exceptions import ConfigurationError, DataError
from .base import NumpyModel, SequenceLabeler
from .batching import length_buckets


def logsumexp_axis(matrix: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp along ``axis``."""
    peak = matrix.max(axis=axis, keepdims=True)
    return np.log(np.exp(matrix - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)


def crf_forward_batch(
    emissions: np.ndarray, transitions: np.ndarray,
    start: np.ndarray, end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched forward recursion over ``(B, L, T)`` same-length emissions.

    Returns the alpha tensor ``(B, L, T)`` and per-sequence log
    partitions ``(B,)``; row ``b`` is bit-for-bit the per-sentence
    forward recursion of ``emissions[b]``.
    """
    length = emissions.shape[1]
    alpha = np.empty_like(emissions)
    alpha[:, 0] = start + emissions[:, 0]
    for position in range(1, length):
        alpha[:, position] = emissions[:, position] + logsumexp_axis(
            alpha[:, position - 1][:, :, None] + transitions, axis=1
        )
    log_z = logsumexp_axis(alpha[:, length - 1] + end, axis=1)
    return alpha, log_z


def crf_backward_batch(
    emissions: np.ndarray, transitions: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Batched backward recursion: beta tensor ``(B, L, T)``."""
    length = emissions.shape[1]
    beta = np.empty_like(emissions)
    beta[:, length - 1] = end
    for position in range(length - 2, -1, -1):
        beta[:, position] = logsumexp_axis(
            transitions
            + (emissions[:, position + 1] + beta[:, position + 1])[:, None, :],
            axis=2,
        )
    return beta


def crf_viterbi_batch(
    emissions: np.ndarray, transitions: np.ndarray,
    start: np.ndarray, end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Viterbi: best paths ``(B, L)`` and scores ``(B,)``.

    Ties resolve to the lowest tag index, exactly as in a per-sentence
    Viterbi (numpy argmax scans the tag axis in the same order either
    way).
    """
    batch, length, num_tags = emissions.shape
    delta = start + emissions[:, 0]  # (B, T)
    backpointers = np.empty((batch, length, num_tags), dtype=np.int64)
    for position in range(1, length):
        candidate = delta[:, :, None] + transitions  # (B, T, T)
        backpointers[:, position] = candidate.argmax(axis=1)
        delta = candidate.max(axis=1) + emissions[:, position]
    delta = delta + end
    best_last = delta.argmax(axis=1)
    rows = np.arange(batch)
    paths = np.empty((batch, length), dtype=np.int64)
    paths[:, -1] = best_last
    for position in range(length - 1, 0, -1):
        paths[:, position - 1] = backpointers[rows, position, paths[:, position]]
    return paths, delta[rows, best_last]


def crf_path_scores_batch(
    emissions: np.ndarray, paths: np.ndarray, transitions: np.ndarray,
    start: np.ndarray, end: np.ndarray,
) -> np.ndarray:
    """Unnormalised scores ``(B,)`` of the tag paths ``(B, L)``.

    Each row's terms are laid out in the Viterbi recursion's order —
    start, first emission, then each transition and emission, then the
    end — and summed by ``np.cumsum``, which adds left to right, so a
    Viterbi path scores bit for bit its Viterbi score.
    """
    batch, length = paths.shape
    terms = np.empty((batch, 2 * length + 1))
    terms[:, 0] = start[paths[:, 0]]
    terms[:, 1::2] = emissions[np.arange(batch)[:, None], np.arange(length), paths]
    terms[:, 2:-1:2] = transitions[paths[:, :-1], paths[:, 1:]]
    terms[:, -1] = end[paths[:, -1]]
    return np.cumsum(terms, axis=1)[:, -1]


def crf_marginals_batch(
    emissions: np.ndarray, transitions: np.ndarray,
    start: np.ndarray, end: np.ndarray,
) -> np.ndarray:
    """Batched token marginals ``(B, L, T)``."""
    alpha, log_z = crf_forward_batch(emissions, transitions, start, end)
    beta = crf_backward_batch(emissions, transitions, end)
    return np.exp(alpha + beta - log_z[:, None, None])


def crf_padded_gradients(
    emissions: np.ndarray,
    lengths: np.ndarray,
    tags: np.ndarray,
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """NLL gradients of a right-padded minibatch, one lattice pass for all.

    ``emissions`` is ``(B, W, T)`` and ``tags`` is ``(B, W)``; row ``b``
    is real up to ``lengths[b]`` (at least 1) and anything after it is
    ignored.  Returns ``(d_emissions, d_transitions, d_start, d_end)`` of
    shapes ``(B, W, T)``, ``(B, T, T)``, ``(B, T)`` and ``(B, T)``, all
    of the *negative* log likelihood, ready for gradient descent.  Row
    ``b`` of each is bit-for-bit the gradient of the lone sentence
    ``emissions[b, :lengths[b]]``, and ``d_emissions`` is zero past a
    row's length.

    Padding never reaches a real position.  The forward recursion runs
    on past a row's end, where nothing reads it; the backward recursion
    restarts each row from ``end`` at its last real position; and the
    pairwise-transition sum runs over each sentence's own positions.
    (With one tag, numpy sums a position axis pairwise, so trailing
    padding would regroup that sum even where it adds zeros.)
    """
    batch, width, _ = emissions.shape
    rows = np.arange(batch)
    last = np.asarray(lengths, dtype=np.int64) - 1
    alpha, _ = crf_forward_batch(emissions, transitions, start, end)
    log_z = logsumexp_axis(alpha[rows, last] + end, axis=1)
    beta = np.empty_like(emissions)
    beta[:, width - 1] = end
    for position in range(width - 2, -1, -1):
        step = logsumexp_axis(
            transitions
            + (emissions[:, position + 1] + beta[:, position + 1])[:, None, :],
            axis=2,
        )
        beta[:, position] = np.where((last == position)[:, None], end, step)
    real = np.arange(width) <= last[:, None]
    # -inf past a row's end: its exp is 0, and padding cannot overflow.
    d_emissions = np.exp(
        np.where(real[:, :, None], alpha + beta - log_z[:, None, None], -np.inf)
    )
    token_rows, token_positions = np.nonzero(real)
    d_emissions[token_rows, token_positions, tags[token_rows, token_positions]] -= 1.0
    d_start = d_emissions[:, 0].copy()
    d_end = d_emissions[rows, last]
    # Transition p -> p + 1 of row b is real when p < last[b]; np.nonzero
    # lists them row by row, so each sentence's positions are contiguous.
    pair_rows, pair_positions = np.nonzero(np.arange(width - 1) < last[:, None])
    following = pair_positions + 1
    pairwise = np.exp(
        alpha[pair_rows, pair_positions][:, :, None]
        + transitions[None, :, :]
        + (emissions[pair_rows, following] + beta[pair_rows, following])[:, None, :]
        - log_z[pair_rows][:, None, None]
    )
    d_transitions = np.zeros((batch,) + transitions.shape)
    offset = 0
    for row, count in enumerate(last.tolist()):
        if count:
            d_transitions[row] = pairwise[offset : offset + count].sum(axis=0)
        offset += count
    np.add.at(
        d_transitions,
        (pair_rows, tags[pair_rows, pair_positions], tags[pair_rows, following]),
        -1.0,
    )
    return d_emissions, d_transitions, d_start, d_end


class CRFTagger(NumpyModel, SequenceLabeler):
    """A sequence labeler whose output layer is a linear-chain CRF.

    Subclasses keep the CRF's ``A``, ``start`` and ``end`` in their
    fitted ``_params`` and provide their emission scores through one
    hook, :meth:`emissions` (every sentence of a dataset, batched,
    dropout-free), and their minibatch gradients through ``_gradients``
    over the padded ids, tags and lengths of :meth:`_training_data`.
    Decoding groups sentences into exact-length buckets and runs each
    bucket through the lattice as one ``(B, L, T)`` tensor; the batched
    kernels reduce in the same order as the per-sentence recursions, so
    both agree bit for bit.
    """

    STATE_META = ("num_tags",)

    def fit(
        self, dataset: SequenceDataset, init_from: "CRFTagger | None" = None
    ) -> "CRFTagger":
        return self._train(dataset, init_from)

    def _training_data(self, dataset: SequenceDataset):
        """Token ids and tags right-padded with 0 to ``(n, max length)``,
        and the sentence lengths; built once per fit."""
        self._num_tags = dataset.num_tags
        lengths = dataset.lengths()
        real = np.arange(lengths.max()) < lengths[:, None]
        ids = np.zeros(real.shape, dtype=np.int64)
        tags = np.zeros(real.shape, dtype=np.int64)
        ids[real] = np.concatenate(dataset.sentences)
        tags[real] = np.concatenate(dataset.tag_sequences)
        return ids, tags, lengths

    def _check_params(self, params: dict, meta: dict) -> None:
        """``A`` must be ``(T, T)`` and ``start``/``end`` ``(T,)``, where
        ``T`` is ``meta.num_tags``."""
        tags = meta["num_tags"]
        for name, shape in (("A", (tags, tags)), ("start", (tags,)), ("end", (tags,))):
            if params[name].shape != shape:
                raise ConfigurationError(
                    f"arrays.{name} must have shape {shape} for meta.num_tags "
                    f"({tags}), got {params[name].shape}"
                )

    def _transitions(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The fitted ``(A, start, end)`` transition parameters."""
        params = self._require_fitted()
        return params["A"], params["start"], params["end"]

    def _buckets(
        self, dataset: SequenceDataset, emissions: "list[np.ndarray] | None"
    ):
        """``(rows, (B, L, T) emission batch)`` per exact-length bucket."""
        if emissions is None:
            emissions = self.emissions(dataset)
        for _length, rows in length_buckets([len(s) for s in dataset.sentences]):
            yield rows, np.stack([emissions[int(row)] for row in rows])

    def predict_tags(
        self,
        dataset: SequenceDataset,
        *,
        emissions: "list[np.ndarray] | None" = None,
    ) -> list[np.ndarray]:
        """Viterbi paths, decoded one length bucket at a time."""
        transitions = self._transitions()
        paths: list[np.ndarray | None] = [None] * len(dataset)
        for rows, batch in self._buckets(dataset, emissions):
            bucket_paths, _ = crf_viterbi_batch(batch, *transitions)
            for row, path in zip(rows, bucket_paths):
                paths[int(row)] = path.copy()
        return paths

    def best_path_log_proba(
        self,
        dataset: SequenceDataset,
        *,
        emissions: "list[np.ndarray] | None" = None,
    ) -> np.ndarray:
        """``log p(y*|x)`` per sentence — longer sentences score lower,
        which reproduces the length bias MNLP (Eq. 13) corrects.  The
        Viterbi paths, scored by :meth:`decode`."""
        if emissions is None:
            emissions = self.emissions(dataset)
        tags = self.predict_tags(dataset, emissions=emissions)
        return self.decode(dataset, tags, emissions=emissions)

    def decode(
        self,
        dataset: SequenceDataset,
        tags: "list[np.ndarray]",
        *,
        emissions: "list[np.ndarray] | None" = None,
    ) -> np.ndarray:
        """``log p(tags | x)`` per sentence: each path's score less the
        log partition of one forward pass per length bucket.  On the
        Viterbi paths this is bit for bit the Viterbi score less the log
        partition."""
        if list(map(len, tags)) != [len(sentence) for sentence in dataset.sentences]:
            raise DataError("decode needs one tag per token of every sentence")
        transitions = self._transitions()
        log_probas = np.empty(len(dataset))
        for rows, batch in self._buckets(dataset, emissions):
            paths = np.stack([tags[int(row)] for row in rows])
            _, log_z = crf_forward_batch(batch, *transitions)
            log_probas[rows] = crf_path_scores_batch(batch, paths, *transitions) - log_z
        return log_probas

    def token_marginals(
        self,
        dataset: SequenceDataset,
        *,
        emissions: "list[np.ndarray] | None" = None,
    ) -> list[np.ndarray]:
        """Per-sentence ``(L, T)`` token marginals by forward-backward."""
        transitions = self._transitions()
        output: list[np.ndarray | None] = [None] * len(dataset)
        for rows, batch in self._buckets(dataset, emissions):
            marginals = crf_marginals_batch(batch, *transitions)
            for row, matrix in zip(rows, marginals):
                output[int(row)] = matrix
        return output

    def token_accuracy(self, dataset: SequenceDataset) -> float:
        """Fraction of tokens whose Viterbi tag matches gold."""
        predicted = self.predict_tags(dataset)
        correct = sum(
            int((p == g).sum()) for p, g in zip(predicted, dataset.tag_sequences)
        )
        total = dataset.total_tokens()
        return correct / total if total else 0.0
