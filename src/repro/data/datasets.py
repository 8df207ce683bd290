"""Dataset containers shared by models, strategies, and the AL loop.

Two container types cover the paper's two tasks:

* :class:`TextDataset` — variable-length token-id sequences with one class
  label each (text classification).
* :class:`SequenceDataset` — token-id sequences with one tag id per token
  (named entity recognition).

Both are immutable views over numpy data, support ``subset`` (used by the
pool to slice labeled/unlabeled data without copying the corpus), and carry
their vocabulary so models can size their embedding tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat

import numpy as np

from ..exceptions import DataError
from .vocab import Vocabulary


def _id_arrays(
    sequences: Sequence[Sequence[int]], kind: str, limit: "int | None" = None
) -> list[np.ndarray]:
    """Return ``sequences`` as int64 arrays, checked once over all their ids.

    Each array must be 1-D, with ids ``>= 0`` and, when ``limit`` is given,
    ``< limit``.  Arrays that already are int64 are kept, not copied, so a
    subset shares its parent's arrays.  The error names the first offending
    sample.
    """
    arrays = list(map(np.asarray, sequences, repeat(np.int64)))
    if not arrays:
        return arrays
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
    return arrays


class TextDataset:
    """Labeled sentences for text classification.

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
        self.sentences = _id_arrays(sentences, "token", len(vocab))
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

    def __len__(self) -> int:
        return len(self.sentences)

    def subset(self, indices: Sequence[int]) -> "TextDataset":
        """Return a view-like dataset containing only ``indices``."""
        index_array = np.asarray(indices, dtype=np.int64)
        return TextDataset(
            [self.sentences[i] for i in index_array.tolist()],
            self.labels[index_array],
            self.vocab,
            self.num_classes,
            name=self.name,
        )

    def lengths(self) -> np.ndarray:
        """Sentence lengths as an int array."""
        return np.array([len(s) for s in self.sentences], dtype=np.int64)

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

    def bag_of_words(self, normalize: bool = True) -> np.ndarray:
        """Return ``(n, |V|)`` token-count features (L1-normalised rows).

        Empty sentences produce an all-zero row.  Each (row, token) cell
        is written once, as ``count / length`` (the raw count when
        ``normalize`` is false).  Counts are small integers, so a sentence's
        length is exactly the float row sum of its counts, and the cell
        holds the same bytes a dense row sum and divide would give.
        """
        width = len(self.vocab)
        matrix = np.zeros((len(self), width), dtype=np.float64)
        if not len(self):
            return matrix
        lengths = self.lengths()
        ids = np.concatenate(self.sentences)
        if ids.size and ids.max() >= width:
            raise DataError(f"token id {ids.max()} is not in [0, {width})")
        rows = np.repeat(np.arange(len(self)), lengths)
        cells, counts = np.unique(rows * width + ids, return_counts=True)
        values = counts / lengths[cells // width] if normalize else counts
        np.put(matrix, cells, values)
        return matrix

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
        self.sentences = _id_arrays(sentences, "token", len(vocab))
        self.tag_sequences = _id_arrays(tag_sequences, "tag")
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

    def tags_as_strings(self, index: int) -> list[str]:
        """Decode the tag sequence of sentence ``index`` to strings."""
        return [self.tag_names[t] for t in self.tag_sequences[index]]

    def __repr__(self) -> str:
        return (
            f"SequenceDataset(name={self.name!r}, n={len(self)}, "
            f"tags={self.num_tags}, vocab={len(self.vocab)})"
        )
