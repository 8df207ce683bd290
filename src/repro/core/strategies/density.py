"""Density-weighted representative sampling (Eq. 7).

Multiplies an informative base score by the sample's average cosine
similarity to the unlabeled pool, down-weighting outliers.  Similarity
uses L2-normalised bag-of-words (classification) or bag-of-tokens (NER)
vectors; because rows are unit-normalised, the mean similarity of sample
``i`` to the pool is just ``f_i . mean(f)``, so no pairwise matrix is
materialised.
"""

from __future__ import annotations

import numpy as np

from ...data.datasets import SequenceDataset, TextDataset
from ...exceptions import ConfigurationError
from .base import QueryStrategy, SelectionContext


def candidate_vectors(dataset: "TextDataset | SequenceDataset") -> np.ndarray:
    """Unit-normalised token-count vectors for similarity computations.

    One dense matrix, written straight from the dataset's
    :meth:`~repro.data.datasets.TextDataset.token_counts`.  A row's norm
    sums squared integer counts, which is exact in any order, so each
    cell has the bytes of a dense count row divided by its
    ``np.linalg.norm``; empty rows stay zero.
    """
    counts = dataset.token_counts()
    rows = np.repeat(np.arange(len(dataset)), np.diff(counts.offsets))
    squares = np.square(counts.counts, dtype=np.float64)
    norms = np.sqrt(np.bincount(rows, weights=squares, minlength=len(dataset)))
    matrix = np.zeros((len(dataset), counts.width))
    np.put(matrix, counts.cells, counts.counts / norms[rows])
    return matrix


class DensityWeighted(QueryStrategy):
    """``phi_S(x) * mean_similarity(x, U)``.

    Parameters
    ----------
    base:
        The informative strategy providing ``phi_S``.
    beta:
        Exponent on the density term (1.0 reproduces Eq. 7).
    """

    def __init__(self, base: QueryStrategy, beta: float = 1.0) -> None:
        if beta < 0:
            raise ConfigurationError(f"beta must be non-negative, got {beta}")
        self.base = base
        self.beta = beta

    @property
    def name(self) -> str:
        return f"Density({self.base.name})"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        base_scores = np.asarray(self.base.scores(model, context), dtype=np.float64)
        vectors = candidate_vectors(context.candidates)
        density = vectors @ vectors.mean(axis=0)
        density = np.clip(density, 0.0, None)
        return base_scores * density**self.beta
