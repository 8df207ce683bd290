"""Mann-Kendall trend test, plain and autocorrelation-corrected.

The LHS ranking features include "trend of historical sequence",
characterised with the MK test (the paper cites Hamed & Rao 1998, the
modified test for autocorrelated data).  Both variants are implemented:

* :func:`mann_kendall_test` — the classical test with the tie-corrected
  variance and the normal approximation;
* ``hamed_rao=True`` — variance inflated by the effective-sample-size
  correction computed from the ranks' autocorrelation.

The normalised statistic ``z`` (and the derived :class:`Trend` label) is
what the feature extractor consumes.  :func:`mann_kendall_batch` runs the
classical test on every row of a NaN-padded sequence matrix at once — the
per-round hot path of the LHS feature extractor — and is the one
implementation of S, its tie-corrected variance and tau:
:func:`mann_kendall_test` reads them from a one-row batch and applies
Hamed-Rao on top.  The scalar test stays as the reference oracle in
``tests/oracles``, and the equivalence tests pin both functions to it
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..exceptions import ConfigurationError

#: ``math.erfc`` applied elementwise (numpy has no erfc of its own).
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def two_sided_p_value(z) -> np.ndarray:
    """Two-sided standard-normal p-value ``P(|Z| >= |z|) = erfc(|z| / sqrt 2)``.

    Elementwise over ``z``; a scalar ``z`` gives a 0-d array.  The scalar
    and batched Mann-Kendall tests both call this, so their p-values
    agree bit for bit.
    """
    return np.asarray(_ERFC(np.abs(z) / math.sqrt(2.0)), dtype=np.float64)


class Trend(str, Enum):
    """Qualitative trend label at a given significance level."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    NO_TREND = "no trend"


@dataclass(frozen=True)
class MKResult:
    """Outcome of a Mann-Kendall test.

    Attributes
    ----------
    s:
        The raw MK S statistic (sum of pairwise signs).
    variance:
        Variance of S (tie-corrected; inflated under Hamed-Rao).
    z:
        Standard-normal statistic derived from S.
    p_value:
        Two-sided p-value.
    tau:
        Kendall's tau, ``S / (n (n-1) / 2)``.
    trend:
        Qualitative label at the requested alpha.
    """

    s: float
    variance: float
    z: float
    p_value: float
    tau: float
    trend: Trend


def _hamed_rao_correction(values: np.ndarray, max_lag: int | None = None) -> float:
    """n/n* variance inflation factor of Hamed & Rao (1998)."""
    n = len(values)
    ranks = np.argsort(np.argsort(values)).astype(np.float64) + 1.0
    centred = ranks - ranks.mean()
    denominator = float((centred**2).sum())
    if denominator == 0.0:
        return 1.0
    limit = max_lag if max_lag is not None else n - 1
    correction = 0.0
    for lag in range(1, min(limit, n - 1) + 1):
        rho = float((centred[:-lag] * centred[lag:]).sum()) / denominator
        # Only significant autocorrelations enter, per the original paper.
        if abs(rho) > 1.96 / np.sqrt(n):
            correction += (n - lag) * (n - lag - 1) * (n - lag - 2) * rho
    factor = 1.0 + 2.0 / (n * (n - 1) * (n - 2)) * correction
    return max(factor, 1e-6)


@dataclass(frozen=True)
class MKBatchResult:
    """Row-wise outcome of a batched Mann-Kendall test.

    Each attribute is an array with one entry per input row.  Rows with
    fewer than 3 recorded (non-NaN) values are not testable: they get
    ``s = variance = z = tau = 0`` and ``p_value = 1`` (the neutral
    "no evidence of trend" outcome the feature extractor expects).
    """

    s: np.ndarray
    variance: np.ndarray
    z: np.ndarray
    p_value: np.ndarray
    tau: np.ndarray
    #: Number of recorded values per row.
    lengths: np.ndarray


def _z_statistic(s, variance) -> np.ndarray:
    """Continuity-corrected ``z = (S -/+ 1) / sqrt(Var S)``, elementwise.

    ``z`` is 0 where ``S = 0`` or ``Var S <= 0`` (a fully tied series).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(
            s > 0, (s - 1.0) / np.sqrt(variance), (s + 1.0) / np.sqrt(variance)
        )
    return np.where((variance <= 0) | (s == 0), 0.0, z)


def _batch_s_statistic(values: np.ndarray, max_pairs: int = 1 << 22) -> np.ndarray:
    """Row-wise S statistic of left-aligned NaN-padded sequences.

    The pairwise sign matrix is materialised in row chunks so memory
    stays bounded by ``max_pairs`` floats regardless of batch size.
    """
    k, m = values.shape
    s = np.zeros(k)
    if m < 2:
        return s
    i_idx, j_idx = np.triu_indices(m, k=1)
    chunk = max(1, int(max_pairs // len(i_idx)))
    for start in range(0, k, chunk):
        block = values[start : start + chunk]
        # Pairs touching a NaN pad produce NaN signs; nansum drops them.
        differences = block[:, j_idx] - block[:, i_idx]
        s[start : start + chunk] = np.nansum(np.sign(differences), axis=1)
    return s


def _batch_tie_term(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Row-wise ``sum_g t_g (t_g - 1) (2 t_g + 5)`` over tie groups.

    Works on sorted rows (NaNs last): each position contributes the
    telescoping increment ``f(p+1) - f(p)`` of its 0-based position ``p``
    within its tie group, which sums to ``f(t_g)`` per group without any
    per-row ``np.unique``.
    """
    k, m = values.shape
    if m == 0:
        return np.zeros(k)
    ordered = np.sort(values, axis=1)  # NaNs sort to the end
    new_group = np.ones((k, m), dtype=bool)
    new_group[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    position = np.arange(m)
    group_start = np.maximum.accumulate(np.where(new_group, position, 0), axis=1)
    in_group = position[None, :] - group_start  # p, 0-based

    def f(t: np.ndarray) -> np.ndarray:
        return t * (t - 1.0) * (2.0 * t + 5.0)

    increments = f(in_group + 1.0) - f(in_group)
    increments[position[None, :] >= lengths[:, None]] = 0.0  # NaN padding
    return increments.sum(axis=1)


def mann_kendall_batch(sequences: np.ndarray) -> MKBatchResult:
    """Classical Mann-Kendall test on every row of a sequence matrix.

    Parameters
    ----------
    sequences:
        2-D float matrix; NaN marks "no observation".  Valid values are
        taken in their order of appearance within each row, so any
        padding layout (leading, trailing, interleaved) is accepted.

    Returns
    -------
    MKBatchResult
        Per-row s / variance / z / p-value / tau, bit-identical to the
        scalar test (the oracle in ``tests/oracles``) on each row's
        compacted values.
    """
    sequences = np.asarray(sequences, dtype=np.float64)
    if sequences.ndim != 2:
        raise ConfigurationError(
            f"sequences must be 2-D, got shape {sequences.shape}"
        )
    k, _ = sequences.shape
    observed = ~np.isnan(sequences)
    lengths = observed.sum(axis=1)
    width = int(lengths.max()) if k else 0
    # Compact every row to the left so pad NaNs never sit between values.
    values = np.full((k, width), np.nan)
    row_idx, col_idx = np.nonzero(observed)
    values[row_idx, observed.cumsum(axis=1)[row_idx, col_idx] - 1] = sequences[
        row_idx, col_idx
    ]

    n = lengths.astype(np.float64)
    s = _batch_s_statistic(values)
    variance = n * (n - 1.0) * (2.0 * n + 5.0) / 18.0
    variance -= _batch_tie_term(values, lengths) / 18.0
    z = _z_statistic(s, variance)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(n >= 2, s / (n * (n - 1.0) / 2.0), 0.0)
    testable = lengths >= 3
    s = np.where(testable, s, 0.0)
    variance = np.where(testable, variance, 0.0)
    z = np.where(testable, z, 0.0)
    tau = np.where(testable, tau, 0.0)
    p_value = np.where(testable, two_sided_p_value(z), 1.0)
    return MKBatchResult(
        s=s, variance=variance, z=z, p_value=p_value, tau=tau, lengths=lengths
    )


def testable_series(values: "np.ndarray | list[float]", alpha: float) -> np.ndarray:
    """``values`` as the 1-D float series :func:`mann_kendall_test` takes.

    Raises
    ------
    ConfigurationError
        If fewer than 3 values are supplied, a value is NaN (the batched
        test reads NaN as "no observation") or alpha is out of (0, 1).
    """
    series = np.asarray(values, dtype=np.float64).ravel()
    if len(series) < 3:
        raise ConfigurationError(
            f"Mann-Kendall needs at least 3 observations, got {len(series)}"
        )
    if np.isnan(series).any():
        raise ConfigurationError("Mann-Kendall values must not be NaN")
    if not 0 < alpha < 1:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    return series


def mann_kendall_test(
    values: "np.ndarray | list[float]",
    alpha: float = 0.05,
    hamed_rao: bool = False,
    max_lag: "int | None" = None,
) -> MKResult:
    """Run the Mann-Kendall trend test on ``values``.

    Parameters
    ----------
    values:
        The time series (at least 3 points).
    alpha:
        Two-sided significance level for the qualitative label.
    hamed_rao:
        Apply the Hamed-Rao autocorrelation variance correction.
    max_lag:
        Highest lag inspected by the Hamed-Rao correction (default: all
        lags).  Truncating avoids spurious corrections from the ~5% of
        lags that test significant by chance on long white-noise series.

    Raises
    ------
    ConfigurationError
        If fewer than 3 values are supplied, a value is NaN (the batched
        test reads NaN as "no observation") or alpha is out of (0, 1).
    """
    series = testable_series(values, alpha)
    batch = mann_kendall_batch(series[None, :])
    s, variance, tau = float(batch.s[0]), float(batch.variance[0]), float(batch.tau[0])
    if hamed_rao:
        variance *= _hamed_rao_correction(series, max_lag=max_lag)
    z = float(_z_statistic(s, variance))
    p_value = float(two_sided_p_value(z))
    if p_value < alpha and s > 0:
        trend = Trend.INCREASING
    elif p_value < alpha and s < 0:
        trend = Trend.DECREASING
    else:
        trend = Trend.NO_TREND
    return MKResult(s=s, variance=variance, z=z, p_value=p_value, tau=tau, trend=trend)
