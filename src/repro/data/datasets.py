"""Dataset containers shared by models, strategies, and the AL loop.

Two container types cover the paper's two tasks:

* :class:`TextDataset` — variable-length token-id sequences with one class
  label each (text classification).
* :class:`SequenceDataset` — token-id sequences with one tag id per token
  (named entity recognition).

Both support ``subset`` (used by the pool to slice labeled/unlabeled data
without copying the corpus) and carry their vocabulary so models can size
their embedding tables.  A :class:`TextDataset`'s sentences are fixed at
construction: read-only views into one flat id array, whose token counts
(:class:`TokenCounts`) are counted once and shared with every subset.
Pool scoring featurizes text into one reused buffer
(:meth:`TextDataset.scoring_bag_of_words`).
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from itertools import repeat
from typing import NamedTuple

import numpy as np

from ..exceptions import DataError
from .vocab import Vocabulary


def _id_arrays(
    sequences: Sequence[Sequence[int]], kind: str, limit: "int | None" = None
) -> "tuple[list[np.ndarray], np.ndarray]":
    """Return ``sequences`` as int64 arrays, and all their ids in one array.

    The ids are checked once: each array must be 1-D, with ids ``>= 0``
    and, when ``limit`` is given, ``< limit``.  Arrays that already are
    int64 are kept, not copied, so a :class:`SequenceDataset` subset
    shares its parent's arrays.  The error names the first offending
    sample.
    """
    arrays = list(map(np.asarray, sequences, repeat(np.int64)))
    if not arrays:
        return arrays, np.zeros(0, dtype=np.int64)
    try:
        ids = np.concatenate(arrays)
    except ValueError:  # a 0-d array, or arrays of different ndim
        ids = None
    if ids is None or ids.ndim != 1:
        sample = next(i for i, array in enumerate(arrays) if array.ndim != 1)
        raise DataError(
            f"sample {sample}: {kind} sequences must be 1-D, "
            f"got shape {arrays[sample].shape}"
        )
    if ids.size and (ids.min() < 0 or (limit is not None and ids.max() >= limit)):
        bad = ids < 0 if limit is None else (ids < 0) | (ids >= limit)
        position = int(np.argmax(bad))
        ends = np.cumsum([array.size for array in arrays])
        sample = int(np.searchsorted(ends, position, side="right"))
        bound = "non-negative" if limit is None else f"in [0, {limit})"
        raise DataError(
            f"sample {sample}: {kind} id {ids[position]} is not {bound}"
        )
    return arrays, ids


class TokenCounts(NamedTuple):
    """Each row's distinct tokens and their counts, flattened row by row.

    Row ``r`` owns entries ``offsets[r]:offsets[r + 1]``, in ascending
    token order.  ``cells`` holds each entry's flat index
    ``r * width + token`` into an ``(n, width)`` matrix, ``counts`` how
    often the token occurs in the row, and ``values`` the bag-of-words
    feature ``count / row length``.  The arrays are read-only.
    """

    width: int
    offsets: np.ndarray
    cells: np.ndarray
    counts: np.ndarray
    values: np.ndarray

    def gather(self, rows: np.ndarray) -> "TokenCounts":
        """The counts of ``rows`` (non-negative row indices, repeats allowed)."""
        starts = self.offsets[rows]
        sizes = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        source = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], sizes)
        # An entry moves from row rows[i] to row i: its flat index, by whole rows.
        shift = np.repeat((np.arange(len(rows)) - rows) * self.width, sizes)
        return _read_only(TokenCounts(
            self.width, offsets, self.cells[source] + shift,
            self.counts[source], self.values[source],
        ))


def _read_only(counts: TokenCounts) -> TokenCounts:
    for array in counts[1:]:
        array.flags.writeable = False
    return counts


def count_tokens(ids: np.ndarray, lengths: np.ndarray, width: int) -> TokenCounts:
    """Count the rows laid end to end in ``ids`` with one ``np.unique``.

    Row ``r`` is the next ``lengths[r]`` ids, each in ``[0, width)``.
    Counts are small integers, so a row's length is exactly the float sum
    of its counts, and ``count / length`` holds the same bytes a dense row
    sum and divide would give.
    """
    n = len(lengths)
    rows = np.repeat(np.arange(n), lengths)
    cells, counts = np.unique(rows * width + ids, return_counts=True)
    cell_rows = cells // width
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell_rows, minlength=n), out=offsets[1:])
    return _read_only(TokenCounts(
        width, offsets, cells, counts.astype(np.int32), counts / lengths[cell_rows]
    ))


class _Corpus:
    """The token ids a :class:`TextDataset` was built from, end to end.

    The dataset and every subset cut from it share one corpus, which
    counts its tokens at the first featurization of any of them and
    keeps the counts (:attr:`counts` is ``None`` until then).
    """

    def __init__(self, ids: np.ndarray, lengths: np.ndarray) -> None:
        self.ids = ids
        self.lengths = lengths
        self.counts: "TokenCounts | None" = None

    def counted(self, width: int) -> TokenCounts:
        """The kept counts, counted now if there are none of this width."""
        counts = self.counts
        if counts is None or counts.width != width:
            counts = self.counts = count_tokens(self.ids, self.lengths, width)
        return counts


class _ScoringBuffer:
    """One float64 buffer that pool scoring reuses, all-zero between uses.

    It grows to the largest ``n * |V|`` scored so far and stays resident.
    :meth:`TextDataset.bag_of_words` given it as ``out`` writes into a
    :meth:`matrix` view and records the flat indices of the cells it
    wrote in :attr:`written`; :meth:`clear` sets exactly those back to
    zero.  A forked child starts over with an empty buffer and a free
    lock: the parent's lock may be held by a thread the child does not
    have, with cells that thread has not cleared yet.
    """

    def __init__(self) -> None:
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.lock = threading.Lock()
        self.cells = np.zeros(0)
        self.written = np.zeros(0, dtype=np.int64)

    def matrix(self, rows: int, width: int) -> np.ndarray:
        """An all-zero C-contiguous ``(rows, width)`` view (hold :attr:`lock`)."""
        if self.cells.size < rows * width:
            self.cells = np.zeros(rows * width)
        return self.cells[: rows * width].reshape(rows, width)

    def clear(self) -> None:
        """Set the cells written since the last clear back to zero."""
        self.cells[self.written] = 0.0
        self.written = np.zeros(0, dtype=np.int64)


_SCORING_BUFFER = _ScoringBuffer()


class TextDataset:
    """Labeled sentences for text classification.

    The sentences are fixed at construction: :attr:`sentences` is a tuple
    of read-only views into one flat id array, so the token counts
    behind :meth:`bag_of_words` can be kept.  :attr:`labels` stays a
    writable array (ingest writes labels in place) and is not part of
    those counts.

    Parameters
    ----------
    sentences:
        One token-id sequence per sample.
    labels:
        Integer class label per sample, in ``[0, num_classes)``.
    vocab:
        The vocabulary the ids were produced with.
    num_classes:
        Total number of classes (may exceed ``labels.max() + 1`` when a
        subset happens to miss a class).
    name:
        Human-readable dataset name used in reports.
    """

    def __init__(
        self,
        sentences: Sequence[Sequence[int]],
        labels: Sequence[int],
        vocab: Vocabulary,
        num_classes: int,
        name: str = "text",
    ) -> None:
        arrays, ids = _id_arrays(sentences, "token", len(vocab))
        lengths = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
        ends = np.cumsum(lengths).tolist()
        ids.flags.writeable = False
        self.sentences = tuple([ids[start:end] for start, end in zip([0, *ends], ends)])
        self.labels = np.asarray(labels, dtype=np.int64)
        if len(self.sentences) != len(self.labels):
            raise DataError(
                f"{len(self.sentences)} sentences but {len(self.labels)} labels"
            )
        if num_classes < 2:
            raise DataError(f"num_classes must be >= 2, got {num_classes}")
        if len(self.labels) and not (0 <= self.labels.min() and self.labels.max() < num_classes):
            raise DataError("labels out of range for num_classes")
        self.vocab = vocab
        self.num_classes = int(num_classes)
        self.name = name
        self._corpus = _Corpus(ids, lengths)
        self._rows: "np.ndarray | None" = None  # the whole corpus, in order
        self._counts: "TokenCounts | None" = None

    def __len__(self) -> int:
        return len(self.sentences)

    def subset(self, indices: Sequence[int]) -> "TextDataset":
        """Return the dataset of rows ``indices``, in that order.

        The subset holds this dataset's own row arrays and shares its
        corpus, so nothing is validated or counted again: it gathers its
        rows' token counts from the corpus counts, here if the corpus
        has been counted, else at its first featurization.  The labels
        are copied.
        """
        index_array = np.asarray(indices, dtype=np.int64)
        rows = np.arange(len(self)) if self._rows is None else self._rows
        subset = object.__new__(TextDataset)
        subset.sentences = tuple(map(self.sentences.__getitem__, index_array.tolist()))
        subset.labels = self.labels[index_array]
        subset.vocab = self.vocab
        subset.num_classes = self.num_classes
        subset.name = self.name
        subset._corpus = self._corpus
        subset._rows = rows[index_array]
        counts = self._corpus.counts
        subset._counts = None if counts is None else counts.gather(subset._rows)
        return subset

    def lengths(self) -> np.ndarray:
        """Sentence lengths as an int array."""
        lengths = self._corpus.lengths
        return lengths.copy() if self._rows is None else lengths[self._rows]

    def max_length(self) -> int:
        """Longest sentence length (0 for an empty dataset)."""
        return int(self.lengths().max()) if len(self) else 0

    def padded(self, max_length: int | None = None) -> np.ndarray:
        """Return an ``(n, max_length)`` matrix padded with the PAD id (0).

        Sentences longer than ``max_length`` are truncated.
        """
        if max_length is None:
            max_length = self.max_length()
        matrix = np.zeros((len(self), max_length), dtype=np.int64)
        for row, sentence in enumerate(self.sentences):
            k = min(len(sentence), max_length)
            matrix[row, :k] = sentence[:k]
        return matrix

    def token_counts(self) -> TokenCounts:
        """Each row's distinct tokens and their counts, counted once.

        The first call of any dataset cut from one corpus counts the
        whole corpus with one ``np.unique``; a subset's rows are
        gathered from those counts.  Later calls return the kept counts.
        """
        width = len(self.vocab)
        counts = self._counts
        if counts is None or counts.width != width:
            counts = self._corpus.counted(width)
            if self._rows is not None:
                counts = counts.gather(self._rows)
            self._counts = counts
        return counts

    def bag_of_words(self, *, out: "_ScoringBuffer | None" = None) -> np.ndarray:
        """Return ``(n, |V|)`` token-count features (L1-normalised rows).

        Empty sentences produce an all-zero row.  The features are one
        ``np.put`` of the kept :meth:`token_counts` cells, each
        ``count / length``, into a fresh zero matrix or, with ``out``
        (the scoring buffer, passed only by
        :meth:`scoring_bag_of_words`), into a view of that buffer, which
        records them.
        """
        counts = self.token_counts()
        if out is None:
            matrix = np.zeros((len(self), counts.width), dtype=np.float64)
        else:
            matrix = out.matrix(len(self), counts.width)
            out.written = counts.cells
        np.put(matrix, counts.cells, counts.values)
        return matrix

    @contextmanager
    def scoring_bag_of_words(self) -> Iterator[np.ndarray]:
        """Yield :meth:`bag_of_words` written into one reused buffer.

        Scoring a pool builds its matrix for one product, every round,
        and mapping and page-faulting a fresh matrix of that size costs
        more than filling it.  The buffer is all-zero between uses: on
        leaving the block, also on an error, exactly the cells written
        are set back to zero.  The matrix is valid only inside the
        block.  One caller holds the buffer at a time; a concurrent or
        nested caller gets a fresh matrix instead.
        """
        buffer = _SCORING_BUFFER
        lock = buffer.lock
        if not lock.acquire(blocking=False):
            yield self.bag_of_words()
            return
        try:
            yield self.bag_of_words(out=buffer)
        finally:
            buffer.clear()
            lock.release()

    def class_counts(self) -> np.ndarray:
        """Number of samples per class, length ``num_classes``."""
        return np.bincount(self.labels, minlength=self.num_classes)

    def __repr__(self) -> str:
        return (
            f"TextDataset(name={self.name!r}, n={len(self)}, "
            f"classes={self.num_classes}, vocab={len(self.vocab)})"
        )


class SequenceDataset:
    """Token-tagged sentences for sequence labeling (NER).

    Parameters
    ----------
    sentences:
        One token-id sequence per sample, each with at least one token.
    tag_sequences:
        One tag-id sequence per sample, same length as its sentence.
    vocab:
        Token vocabulary.
    tag_names:
        Tag-id -> tag-string table (e.g. ``["O", "B-PER", ...]``).
    name:
        Human-readable dataset name used in reports.
    """

    def __init__(
        self,
        sentences: Sequence[Sequence[int]],
        tag_sequences: Sequence[Sequence[int]],
        vocab: Vocabulary,
        tag_names: Sequence[str],
        name: str = "ner",
    ) -> None:
        self.sentences, _ = _id_arrays(sentences, "token", len(vocab))
        self.tag_sequences, _ = _id_arrays(tag_sequences, "tag")
        if len(self.sentences) != len(self.tag_sequences):
            raise DataError(
                f"{len(self.sentences)} sentences but {len(self.tag_sequences)} tag sequences"
            )
        token_counts = list(map(len, self.sentences))
        if 0 in token_counts:
            # The taggers' lattices start at a sentence's first token.
            raise DataError(
                f"sample {token_counts.index(0)}: a sentence must have at least one token"
            )
        tag_counts = list(map(len, self.tag_sequences))
        if token_counts != tag_counts:
            i = next(i for i, (tokens, tags) in enumerate(zip(token_counts, tag_counts))
                     if tokens != tags)
            raise DataError(
                f"sentence {i}: {token_counts[i]} tokens but {tag_counts[i]} tags"
            )
        self.vocab = vocab
        self.tag_names = list(tag_names)
        if not self.tag_names:
            raise DataError("tag_names must not be empty")
        self.name = name

    @property
    def num_tags(self) -> int:
        """Size of the tag inventory."""
        return len(self.tag_names)

    def __len__(self) -> int:
        return len(self.sentences)

    def subset(self, indices: Sequence[int]) -> "SequenceDataset":
        """Return a dataset containing only ``indices``."""
        index_array = np.asarray(indices, dtype=np.int64)
        rows = index_array.tolist()
        return SequenceDataset(
            [self.sentences[i] for i in rows],
            [self.tag_sequences[i] for i in rows],
            self.vocab,
            self.tag_names,
            name=self.name,
        )

    def lengths(self) -> np.ndarray:
        """Sentence lengths as an int array."""
        return np.array([len(s) for s in self.sentences], dtype=np.int64)

    def total_tokens(self) -> int:
        """Total token count across all sentences."""
        return int(self.lengths().sum()) if len(self) else 0

    def token_counts(self) -> TokenCounts:
        """Each row's distinct tokens and their counts, in one vectorized pass.

        Counted on every call: a sequence dataset's rows are a plain list.
        """
        ids = np.concatenate(self.sentences) if len(self) else np.zeros(0, dtype=np.int64)
        return count_tokens(ids, self.lengths(), len(self.vocab))

    def tags_as_strings(self, index: int) -> list[str]:
        """Decode the tag sequence of sentence ``index`` to strings."""
        return [self.tag_names[t] for t in self.tag_sequences[index]]

    def __repr__(self) -> str:
        return (
            f"SequenceDataset(name={self.name!r}, n={len(self)}, "
            f"tags={self.num_tags}, vocab={len(self.vocab)})"
        )
