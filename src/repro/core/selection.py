"""Partial top-k selection: ``argpartition`` with exact tie semantics.

Every batch pick in the reproduction is "take the ``k`` best-scoring
samples", historically implemented as a full sort of the pool:

* strategies break ties with a uniform jitter draw —
  ``np.lexsort((jitter, -scores))`` — so symmetric score vectors don't
  systematically prefer low indices;
* the ranker-training utilities take ``np.argsort(-scores)[:k]``.

A full sort is O(n log n) in the pool size even though only ``k`` (a
batch, typically 25–100) winners are needed.  At 10^6-sample pools the
sort dominates the per-round cost.  :func:`top_k_indices` replaces it
with an O(n + c log c) partial selection (``c`` = candidates at or above
the k-th score) while reproducing the full-sort output *bit for bit*:

1. draw the jitter over the **full** vector exactly as before, so the
   RNG stream is consumed identically whether or not the fast path runs;
2. ``np.argpartition`` finds the k-th largest score in O(n);
3. every sample strictly above that threshold is in the batch; samples
   tied *at* the threshold compete on (jitter, position) — so the small
   candidate set (strictly-above plus threshold ties) is ordered with
   the same ``lexsort`` key as the reference and truncated to ``k``.

``np.flatnonzero`` enumerates candidates in ascending position order and
``lexsort`` is stable, so the subset sort ranks equal keys in the same
relative order as the full sort — hence the bit-for-bit guarantee, which
the tests check against :func:`top_k_reference` (the retained full sort).

Degenerate inputs fall back to the oracle: NaN scores poison
``argpartition``'s ordering (the loop's failure-injection contract is
that an all-NaN vector still yields a legal batch), and ``k >= n`` needs
the full ordering anyway.
"""

from __future__ import annotations

import numpy as np

__all__ = ["top_k_indices", "top_k_reference"]


def _jitter_for(
    scores: np.ndarray, rng: "np.random.Generator | None"
) -> "np.ndarray | None":
    """Draw the tie-breaking jitter (always over the full vector).

    Drawing unconditionally — even when ``k`` is 0 or the fast path is
    skipped — keeps RNG consumption a function of the pool size alone,
    so fast- and reference-path runs stay byte-identical.
    """
    return None if rng is None else rng.random(len(scores))


def top_k_reference(
    scores: np.ndarray,
    k: int,
    rng: "np.random.Generator | None" = None,
    *,
    jitter: "np.ndarray | None" = None,
) -> np.ndarray:
    """Full-sort oracle: positions of the ``k`` best scores, best first.

    With an ``rng`` (or explicit ``jitter``) ties are broken uniformly at
    random via ``np.lexsort((jitter, -scores))`` — the strategy-layer
    semantics.  Without one, ties are broken by ascending position
    (stable sort) — the deterministic semantics the ranker-training
    utilities now share.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
    if jitter is None:
        jitter = _jitter_for(scores, rng)
    k = max(0, min(int(k), len(scores)))
    if jitter is None:
        order = np.argsort(-scores, kind="stable")
    else:
        order = np.lexsort((jitter, -scores))
    return order[:k]


def top_k_indices(
    scores: np.ndarray,
    k: int,
    rng: "np.random.Generator | None" = None,
    *,
    jitter: "np.ndarray | None" = None,
) -> np.ndarray:
    """Positions of the ``k`` best scores, best first — partial selection.

    Bit-for-bit identical to :func:`top_k_reference` (same ``jitter`` /
    tie rules), but O(n) in the pool size instead of O(n log n): only
    the threshold ties are fully ordered.

    Parameters
    ----------
    scores:
        1-D score vector; higher is better.
    k:
        Batch size.  Clamped to ``[0, len(scores)]``; ``k = 0`` returns
        an empty array (after consuming the jitter draw, if any).
    rng:
        Optional tie-breaking generator.  When given, consumes exactly
        one ``rng.random(len(scores))`` draw — identical to the
        reference — and ties are broken uniformly at random.  When
        omitted, ties are broken by ascending position.
    jitter:
        Pre-drawn jitter vector (mutually exclusive with ``rng``); used
        by callers that must thread one jitter draw through several
        picks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
    if rng is not None and jitter is not None:
        raise ValueError("pass either rng or jitter, not both")
    if jitter is None:
        jitter = _jitter_for(scores, rng)
    n = len(scores)
    k = max(0, min(int(k), n))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k >= n or np.isnan(scores).any():
        # Degenerate: the full ordering is needed (k >= n), or NaNs make
        # partition order unreliable — the oracle's lexsort handles both
        # (NaNs sort last, so a legal batch still comes out).
        return top_k_reference(scores, k, jitter=jitter)
    # Ascending partition: positions [n - k:] hold the k largest scores
    # (unordered); the boundary value is the k-th largest.
    partitioned = np.argpartition(scores, n - k)
    threshold = scores[partitioned[n - k]]
    # Candidates: strict winners plus everything tied at the threshold.
    # flatnonzero yields ascending positions, matching the full sort's
    # stable relative order for equal (score, jitter) keys.
    candidates = np.flatnonzero(scores >= threshold)
    if jitter is None:
        order = np.argsort(-scores[candidates], kind="stable")
    else:
        order = np.lexsort((jitter[candidates], -scores[candidates]))
    return candidates[order[:k]]
