"""Classify historical evaluation sequences into the paper's Figure 2 shapes.

Figure 2 of the paper names four qualitative shapes a sample's score
sequence can take — (a) relatively stable, (b) increasing, (c)
decreasing, (d) fluctuating — and the whole method rests on these shapes
carrying different information.  This module makes the taxonomy
operational: monotone shapes are detected with the Mann-Kendall test and
the stable/fluctuating split with a variance threshold, which
:func:`classify_trends` chooses adaptively as a quantile of the observed
variances, testing the whole collection with one
:func:`~repro.timeseries.mann_kendall.mann_kendall_batch` call.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

import numpy as np

from ..exceptions import ConfigurationError
from .mann_kendall import mann_kendall_batch, mann_kendall_test, testable_series


class TrendShape(str, Enum):
    """The four sequence shapes of the paper's Figure 2."""

    STABLE = "stable (a)"
    INCREASING = "increasing (b)"
    DECREASING = "decreasing (c)"
    FLUCTUATING = "fluctuating (d)"


def _shape(
    s: float, p_value: float, variance: float, variance_threshold: float, alpha: float
) -> TrendShape:
    """The shape of a series from its MK ``s`` and p-value and its variance."""
    if p_value < alpha and s > 0:
        return TrendShape.INCREASING
    if p_value < alpha and s < 0:
        return TrendShape.DECREASING
    if variance > variance_threshold:
        return TrendShape.FLUCTUATING
    return TrendShape.STABLE


def classify_trend(
    sequence: "np.ndarray | list[float]",
    variance_threshold: float,
    alpha: float = 0.1,
) -> TrendShape:
    """Classify one sequence.

    Monotone shapes win over the stable/fluctuating split: a sequence
    with a significant MK trend is (b)/(c) regardless of its variance.

    Raises
    ------
    ConfigurationError
        If the sequence has fewer than 3 points (MK needs 3) or the
        threshold is negative.
    """
    if variance_threshold < 0:
        raise ConfigurationError(
            f"variance_threshold must be non-negative, got {variance_threshold}"
        )
    series = np.asarray(sequence, dtype=np.float64).ravel()
    result = mann_kendall_test(series, alpha=alpha)
    return _shape(
        result.s, result.p_value, float(np.var(series)), variance_threshold, alpha
    )


def classify_trends(
    sequences: Sequence["np.ndarray | list[float]"],
    alpha: float = 0.1,
    fluctuation_quantile: float = 0.75,
) -> dict[TrendShape, int]:
    """Classify many sequences with an adaptive variance threshold.

    The stable/fluctuating cut is placed at the ``fluctuation_quantile``
    of the sequences' variances, so "fluctuating" means "fluctuates more
    than most of this collection" — the relative notion the paper uses.
    Every sequence is tested in one NaN-padded :func:`mann_kendall_batch`
    call; the labels equal :func:`classify_trend`'s at that threshold.

    Returns a count per shape (all four keys always present).

    Raises
    ------
    ConfigurationError
        On an empty collection, an out-of-range quantile or alpha, or a
        sequence :func:`classify_trend` rejects (under 3 points, a NaN).
    """
    if not sequences:
        raise ConfigurationError("no sequences to classify")
    if not 0 < fluctuation_quantile < 1:
        raise ConfigurationError(
            f"fluctuation_quantile must be in (0, 1), got {fluctuation_quantile}"
        )
    series = [testable_series(sequence, alpha) for sequence in sequences]
    variances = [float(np.var(values)) for values in series]
    threshold = float(np.quantile(variances, fluctuation_quantile))
    padded = np.full((len(series), max(len(values) for values in series)), np.nan)
    for row, values in enumerate(series):
        padded[row, : len(values)] = values
    result = mann_kendall_batch(padded)
    counts = {shape: 0 for shape in TrendShape}
    for s, p_value, variance in zip(result.s, result.p_value, variances):
        counts[_shape(s, p_value, variance, threshold, alpha)] += 1
    return counts
