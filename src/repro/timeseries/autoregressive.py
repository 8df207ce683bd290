"""Autoregressive AR(k) least-squares fitting.

The paper mentions ARIMA as one option for predicting the next evaluation
score from a historical sequence (Sec. 4.4.2); historical sequences are
short, stationary-ish score series, so a plain AR(k) model fit by ridge
least squares captures the same signal at a fraction of the cost.
:class:`~repro.timeseries.predictor.ARNextScorePredictor`, the fast
alternative to the LSTM predictor, is that model.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import ConfigurationError


def fit_ar_coefficients(
    sequences: Sequence[np.ndarray],
    targets: Sequence[float],
    order: int,
    ridge: float = 1e-6,
) -> np.ndarray:
    """Fit AR(k) coefficients ``[c, a_1..a_k]`` by ridge least squares.

    Each training row is the last ``order`` values of a sequence (earliest
    first); shorter sequences are left-padded with their first value.

    Raises
    ------
    ConfigurationError
        On empty input, misaligned lengths, or non-positive order.
    """
    if order < 1:
        raise ConfigurationError(f"order must be >= 1, got {order}")
    rows = [lag_vector(np.asarray(s, dtype=np.float64), order) for s in sequences]
    target_array = np.asarray(list(targets), dtype=np.float64)
    if not rows or len(rows) != len(target_array):
        raise ConfigurationError(f"{len(rows)} sequences vs {len(target_array)} targets")
    design = np.column_stack([np.ones(len(rows)), np.vstack(rows)])
    gram = design.T @ design + ridge * np.eye(order + 1)
    return np.linalg.solve(gram, design.T @ target_array)


def lag_vector(sequence: np.ndarray, order: int) -> np.ndarray:
    """Last ``order`` values of ``sequence`` (earliest first), left-padded.

    Raises
    ------
    ConfigurationError
        If the sequence is empty.
    """
    series = np.asarray(sequence, dtype=np.float64).ravel()
    if len(series) == 0:
        raise ConfigurationError("cannot build a lag vector from an empty sequence")
    if len(series) >= order:
        return series[-order:]
    padding = np.full(order - len(series), series[0])
    return np.concatenate([padding, series])
