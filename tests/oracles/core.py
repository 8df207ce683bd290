"""Scalar oracles for the selection and LHS-feature kernels.

``QueryStrategy.select`` picks its batch through the partial
``top_k_indices``, and the LHS feature extractor backfills its history
window with array operations; the full sort and the row loop below are
what they replaced.
"""

from __future__ import annotations

import numpy as np

from repro.core.selection import top_k_reference
from repro.core.strategies.base import QueryStrategy, SelectionContext


def select_reference(
    strategy: QueryStrategy, model, context: SelectionContext, batch_size: int
) -> np.ndarray:
    """Full-sort oracle for ``QueryStrategy.select``.

    Runs the historical ``np.lexsort((jitter, -scores))`` over the
    whole pool; ``select`` must match it bit for bit.
    """
    score_vector = strategy._validated_scores(model, context, batch_size)
    order = top_k_reference(score_vector, batch_size, context.rng)
    return context.unlabeled[order]


def backfill_reference(window: np.ndarray) -> np.ndarray:
    """Row-loop reference implementation of ``repro.core.features._backfill``."""
    filled = window.copy()
    for row in range(filled.shape[0]):
        observed = ~np.isnan(filled[row])
        if not observed.any():
            filled[row] = 0.0
            continue
        first = filled[row, observed.argmax()]
        filled[row, ~observed] = first
    return filled
