"""Linear-chain CRF primitives and the decoding head of the CRF taggers.

Pure functions over an emission matrix ``(L, T)`` and transition
parameters (``A`` of shape ``(T, T)``, plus start/end vectors): log-space
forward/backward recursions, gold-path scoring, and the negative
log-likelihood gradient w.r.t. emissions and transitions.  Both
:class:`~repro.models.crf.LinearChainCRF` (log-linear emissions) and
:class:`~repro.models.bilstm_crf.BiLSTMCRF` (neural emissions) are thin
parameterisations around these: each subclasses :class:`CRFTagger`,
which holds ``fit`` and every bucketed decode, and supplies only its
emissions, training hooks and stochastic marginals.

Decoding runs batched kernels (``*_batch``) over an ``(B, L, T)``
emission tensor of same-length sequences — the models length-bucket
their sentences and push each bucket through the lattice in one shot.
The batched kernels perform the *same* per-element reductions in the
same order as the per-sentence recursions (the tag axis is reduced
identically), so their outputs are bit-for-bit equal to looping those
over the batch; the equivalence tests assert exact equality against the
per-sentence oracles in ``tests/oracles``.  Training gradients take a
right-padded minibatch instead (:func:`crf_padded_gradients`), equal row
by row to :func:`crf_sentence_gradients`.
"""

from __future__ import annotations

import numpy as np

from ..data.datasets import SequenceDataset
from .base import NumpyModel, SequenceLabeler
from .batching import length_buckets


def logsumexp_axis(matrix: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp along ``axis``."""
    peak = matrix.max(axis=axis, keepdims=True)
    return np.log(np.exp(matrix - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)


def crf_forward(
    emissions: np.ndarray, transitions: np.ndarray,
    start: np.ndarray, end: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Forward recursion: alpha table ``(L, T)`` and log partition."""
    length = emissions.shape[0]
    alpha = np.empty_like(emissions)
    alpha[0] = start + emissions[0]
    for position in range(1, length):
        alpha[position] = emissions[position] + logsumexp_axis(
            alpha[position - 1][:, None] + transitions, axis=0
        )
    log_z = float(logsumexp_axis((alpha[length - 1] + end)[None, :], axis=1)[0])
    return alpha, log_z


def crf_backward(
    emissions: np.ndarray, transitions: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Backward recursion: beta table ``(L, T)``."""
    length = emissions.shape[0]
    beta = np.empty_like(emissions)
    beta[length - 1] = end
    for position in range(length - 2, -1, -1):
        beta[position] = logsumexp_axis(
            transitions + (emissions[position + 1] + beta[position + 1])[None, :],
            axis=1,
        )
    return beta


def crf_path_score(
    emissions: np.ndarray, tags: np.ndarray, transitions: np.ndarray,
    start: np.ndarray, end: np.ndarray,
) -> float:
    """Unnormalised log score of one tag path."""
    score = float(start[tags[0]] + emissions[0, tags[0]])
    for position in range(1, len(tags)):
        score += float(transitions[tags[position - 1], tags[position]])
        score += float(emissions[position, tags[position]])
    return score + float(end[tags[-1]])


def crf_forward_batch(
    emissions: np.ndarray, transitions: np.ndarray,
    start: np.ndarray, end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched forward recursion over ``(B, L, T)`` same-length emissions.

    Returns the alpha tensor ``(B, L, T)`` and per-sequence log
    partitions ``(B,)``; row ``b`` is bit-for-bit :func:`crf_forward` of
    ``emissions[b]``.
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


def crf_decode_buckets(
    emissions: "list[np.ndarray]",
    bucket_rows: "list[tuple[int, np.ndarray]]",
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> "tuple[list[np.ndarray], np.ndarray]":
    """One pass per length bucket: Viterbi paths *and* path log-probas.

    ``predict_tags`` and ``best_path_log_proba`` each used to walk the
    buckets separately, so a round needing both (span-F1 evaluation plus
    a path-confidence score on the same dataset) ran Viterbi twice.
    This fused decode stacks each bucket once and reuses its Viterbi
    lattice for both outputs; the per-kernel results are the exact
    arrays the separate passes produce.

    Parameters
    ----------
    emissions:
        Per-sentence emission matrices ``(L_i, T)``.
    bucket_rows:
        ``(length, rows)`` pairs from
        :func:`~repro.models.batching.length_buckets`.

    Returns
    -------
    ``(paths, log_probas)`` — per-sentence Viterbi tag arrays and the
    ``log p(y*|x)`` vector, index-aligned with ``emissions``.
    """
    paths: "list[np.ndarray | None]" = [None] * len(emissions)
    log_probas = np.empty(len(emissions))
    for _length, rows in bucket_rows:
        batch = np.stack([emissions[int(row)] for row in rows])
        bucket_paths, best_scores = crf_viterbi_batch(
            batch, transitions, start, end
        )
        _, log_z = crf_forward_batch(batch, transitions, start, end)
        log_probas[rows] = best_scores - log_z
        for row, path in zip(rows, bucket_paths):
            paths[int(row)] = path.copy()
    return paths, log_probas


def crf_marginals_batch(
    emissions: np.ndarray, transitions: np.ndarray,
    start: np.ndarray, end: np.ndarray,
) -> np.ndarray:
    """Batched token marginals ``(B, L, T)``."""
    alpha, log_z = crf_forward_batch(emissions, transitions, start, end)
    beta = crf_backward_batch(emissions, transitions, end)
    return np.exp(alpha + beta - log_z[:, None, None])


def crf_sentence_gradients(
    emissions: np.ndarray,
    tags: np.ndarray,
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """NLL gradients of one sentence.

    Returns ``(d_emissions, d_transitions, d_start, d_end, nll)`` where
    ``d_emissions`` has the emission matrix's shape; all gradients are of
    the *negative* log likelihood, ready for gradient descent.
    """
    length = emissions.shape[0]
    alpha, log_z = crf_forward(emissions, transitions, start, end)
    beta = crf_backward(emissions, transitions, end)
    marginals = np.exp(alpha + beta - log_z)
    d_emissions = marginals.copy()
    d_emissions[np.arange(length), tags] -= 1.0
    d_transitions = np.zeros_like(transitions)
    if length > 1:
        pairwise = (
            alpha[:-1, :, None]
            + transitions[None, :, :]
            + (emissions[1:] + beta[1:])[:, None, :]
            - log_z
        )
        d_transitions += np.exp(pairwise).sum(axis=0)
        np.add.at(d_transitions, (tags[:-1], tags[1:]), -1.0)
    d_start = marginals[0].copy()
    d_start[tags[0]] -= 1.0
    d_end = marginals[-1].copy()
    d_end[tags[-1]] -= 1.0
    nll = log_z - crf_path_score(emissions, tags, transitions, start, end)
    return d_emissions, d_transitions, d_start, d_end, nll


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
    shapes ``(B, W, T)``, ``(B, T, T)``, ``(B, T)`` and ``(B, T)``.  Row
    ``b`` of each is bit-for-bit :func:`crf_sentence_gradients` of
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
    dropout-free).  Decoding groups sentences into exact-length buckets
    and runs each bucket through the lattice as one ``(B, L, T)``
    tensor; the batched kernels reduce in the same order as the
    per-sentence recursions, so both agree bit for bit.
    """

    STATE_META = ("num_tags",)

    def fit(
        self, dataset: SequenceDataset, init_from: "CRFTagger | None" = None
    ) -> "CRFTagger":
        return self._train(dataset, init_from)

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
        which reproduces the length bias MNLP (Eq. 13) corrects."""
        transitions = self._transitions()
        log_probas = np.empty(len(dataset))
        for rows, batch in self._buckets(dataset, emissions):
            _, best_scores = crf_viterbi_batch(batch, *transitions)
            _, log_z = crf_forward_batch(batch, *transitions)
            log_probas[rows] = best_scores - log_z
        return log_probas

    def decode(
        self,
        dataset: SequenceDataset,
        *,
        emissions: "list[np.ndarray] | None" = None,
    ) -> "tuple[list[np.ndarray], np.ndarray]":
        """Fused ``(predict_tags, best_path_log_proba)`` in one pass.

        Runs each length bucket through the Viterbi and forward lattices
        once, so callers needing both tags and path confidences pay for
        a single decode instead of two.  Outputs are bit-for-bit the
        separate methods' results.
        """
        transitions = self._transitions()
        if emissions is None:
            emissions = self.emissions(dataset)
        return crf_decode_buckets(
            emissions,
            length_buckets([len(s) for s in dataset.sentences]),
            *transitions,
        )

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
