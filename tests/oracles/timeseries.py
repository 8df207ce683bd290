"""The scalar Mann-Kendall test (oracle for both production tests).

``mann_kendall_batch`` computes S, its tie-corrected variance and tau
for every row of a matrix at once, and ``mann_kendall_test`` reads them
from a one-row batch.  This is the per-series test they replaced: S from
the pairwise sign matrix and the tie correction from ``np.unique``
counts.  Both production functions must match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.timeseries.mann_kendall import (
    MKResult,
    Trend,
    _hamed_rao_correction,
    two_sided_p_value,
)


def _s_statistic(values: np.ndarray) -> float:
    n = len(values)
    differences = values[None, :] - values[:, None]
    upper = np.triu_indices(n, k=1)
    return float(np.sign(differences[upper]).sum())


def _tie_corrected_variance(values: np.ndarray) -> float:
    n = len(values)
    variance = n * (n - 1) * (2 * n + 5) / 18.0
    _, counts = np.unique(values, return_counts=True)
    ties = counts[counts > 1]
    variance -= (ties * (ties - 1) * (2 * ties + 5)).sum() / 18.0
    return float(variance)


def mann_kendall_scalar(
    values: "np.ndarray | list[float]",
    alpha: float = 0.05,
    hamed_rao: bool = False,
    max_lag: "int | None" = None,
) -> MKResult:
    """The Mann-Kendall test of one series of at least 3 values."""
    series = np.asarray(values, dtype=np.float64).ravel()
    s = _s_statistic(series)
    variance = _tie_corrected_variance(series)
    if hamed_rao:
        variance *= _hamed_rao_correction(series, max_lag=max_lag)
    if variance <= 0:  # fully tied series
        z = 0.0
    elif s > 0:
        z = (s - 1.0) / np.sqrt(variance)
    elif s < 0:
        z = (s + 1.0) / np.sqrt(variance)
    else:
        z = 0.0
    p_value = float(two_sided_p_value(z))
    n = len(series)
    tau = s / (n * (n - 1) / 2.0)
    if p_value < alpha and s > 0:
        trend = Trend.INCREASING
    elif p_value < alpha and s < 0:
        trend = Trend.DECREASING
    else:
        trend = Trend.NO_TREND
    return MKResult(s=s, variance=variance, z=float(z), p_value=p_value, tau=float(tau), trend=trend)
