"""Time-series analysis of historical evaluation sequences.

The LHS strategy treats each sample's historical evaluation sequence as a
short time series and extracts a Mann-Kendall trend statistic and a
predicted next value from it (Sec. 4.4.2 of the paper).  This package
implements both from scratch:

* :mod:`repro.timeseries.mann_kendall` — the MK trend test, including the
  Hamed-Rao autocorrelation-corrected variant the paper cites.
* :mod:`repro.timeseries.autoregressive` — AR(k) least-squares fitting
  (the paper mentions ARIMA as an alternative to the LSTM).
* :mod:`repro.timeseries.predictor` — the ``NextScorePredictor`` protocol,
  with the LSTM-backed predictor and the AR(k) model.
"""

from .autoregressive import fit_ar_coefficients
from .mann_kendall import (
    MKBatchResult,
    MKResult,
    Trend,
    mann_kendall_batch,
    mann_kendall_test,
)
from .predictor import ARNextScorePredictor, LSTMNextScorePredictor, NextScorePredictor
from .trends import TrendShape, classify_trend, classify_trends

__all__ = [
    "ARNextScorePredictor",
    "LSTMNextScorePredictor",
    "MKBatchResult",
    "MKResult",
    "NextScorePredictor",
    "Trend",
    "TrendShape",
    "classify_trend",
    "classify_trends",
    "fit_ar_coefficients",
    "mann_kendall_batch",
    "mann_kendall_test",
]
