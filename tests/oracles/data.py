"""Dense oracles for text features and similarity vectors.

``TextDataset.bag_of_words`` puts the cells of token counts that a
dataset counts once and keeps; ``candidate_vectors`` writes its unit rows
straight from the same counts.  The builders below are what they
replaced: a per-row ``np.add.at`` count matrix, the ``np.unique`` count
of every row on every call, and the dense divide by ``np.linalg.norm``.
"""

from __future__ import annotations

import numpy as np


def token_count_matrix(dataset) -> np.ndarray:
    """Dense ``(n, |V|)`` token counts, one ``np.add.at`` per row."""
    matrix = np.zeros((len(dataset), len(dataset.vocab)), dtype=np.float64)
    for row, sentence in enumerate(dataset.sentences):
        np.add.at(matrix[row], sentence, 1.0)
    return matrix


def bag_of_words_oracle(dataset) -> np.ndarray:
    """L1-normalised rows of the per-row count matrix (byte oracle for
    ``TextDataset.bag_of_words``)."""
    matrix = token_count_matrix(dataset)
    totals = matrix.sum(axis=1, keepdims=True)
    np.divide(matrix, totals, out=matrix, where=totals > 0)
    return matrix


def unique_bag_of_words(dataset) -> np.ndarray:
    """The builder ``bag_of_words`` was before counts were kept: one
    ``np.unique`` over every row of the dataset on each call."""
    width = len(dataset.vocab)
    matrix = np.zeros((len(dataset), width), dtype=np.float64)
    if not len(dataset):
        return matrix
    lengths = np.array([len(s) for s in dataset.sentences], dtype=np.int64)
    ids = np.concatenate(dataset.sentences)
    rows = np.repeat(np.arange(len(dataset)), lengths)
    cells, counts = np.unique(rows * width + ids, return_counts=True)
    np.put(matrix, cells, counts / lengths[cells // width])
    return matrix


def candidate_vectors_reference(dataset) -> np.ndarray:
    """Count rows divided by their ``np.linalg.norm`` into a zero copy
    (byte oracle for ``repro.core.strategies.density.candidate_vectors``)."""
    matrix = token_count_matrix(dataset)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0)
