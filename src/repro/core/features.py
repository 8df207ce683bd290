"""Ranking-feature extraction for the LHS strategy (Sec. 4.4.2).

Five feature groups, each individually switchable (the paper's Table 7
ablation turns them off one by one):

1. **historical evaluation results** — the last ``window`` scores,
   right-aligned, missing leading positions backfilled with the earliest
   observed score;
2. **fluctuation** — variance of the windowed sequence;
3. **trend** — Mann-Kendall ``z`` statistic and Kendall's tau of the full
   recorded sequence;
4. **predicted next result** — the next-score prediction of a fitted
   :class:`~repro.timeseries.predictor.NextScorePredictor` (persistence
   fallback: the current score, when no predictor is configured);
5. **output probability** — the top-2 class probabilities of the current
   model (sorted descending so the feature is class-count agnostic).

A sixth, off-by-default group implements the paper's stated future work
("explore more effective features of the historical sequence"):

6. **window statistics** — min, max, mean, and last-step delta of the
   windowed sequence (``use_window_stats=True``).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..models.base import Classifier
from ..timeseries.mann_kendall import mann_kendall_batch
from ..timeseries.predictor import NextScorePredictor
from .strategies.base import SelectionContext


class RankingFeatureExtractor:
    """Turns (history, model outputs) into LambdaMART feature rows.

    Parameters
    ----------
    window:
        History window for groups 1-2.
    predictor:
        Optional fitted next-score predictor for group 4.
    use_history, use_fluctuation, use_trend, use_prediction,
    use_probabilities:
        Ablation switches; at least one group must remain on.
    use_window_stats:
        Extension group (off by default): min/max/mean/last-delta of the
        windowed sequence.
    """

    def __init__(
        self,
        window: int = 5,
        predictor: NextScorePredictor | None = None,
        use_history: bool = True,
        use_fluctuation: bool = True,
        use_trend: bool = True,
        use_prediction: bool = True,
        use_probabilities: bool = True,
        use_window_stats: bool = False,
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        switches = (
            use_history,
            use_fluctuation,
            use_trend,
            use_prediction,
            use_probabilities,
            use_window_stats,
        )
        if not any(switches):
            raise ConfigurationError("at least one feature group must be enabled")
        self.window = window
        self.predictor = predictor
        self.use_history = use_history
        self.use_fluctuation = use_fluctuation
        self.use_trend = use_trend
        self.use_prediction = use_prediction
        self.use_probabilities = use_probabilities
        self.use_window_stats = use_window_stats

    def feature_names(self) -> list[str]:
        """Column names of the extracted feature matrix."""
        names: list[str] = []
        if self.use_history:
            names.extend(f"history[t-{self.window - 1 - i}]" for i in range(self.window))
        if self.use_fluctuation:
            names.append("fluctuation")
        if self.use_trend:
            names.extend(["mk_z", "mk_tau"])
        if self.use_prediction:
            names.append("predicted_next")
        if self.use_probabilities:
            names.extend(["proba_top1", "proba_top2"])
        if self.use_window_stats:
            names.extend(["win_min", "win_max", "win_mean", "win_delta"])
        return names

    @property
    def dim(self) -> int:
        """Number of feature columns."""
        return len(self.feature_names())

    def extract(
        self,
        model: object,
        context: SelectionContext,
        positions: np.ndarray,
    ) -> np.ndarray:
        """Feature matrix for ``context.unlabeled[positions]``.

        ``positions`` index into ``context.unlabeled`` (i.e. the rows of
        the round's score vectors), not into the dataset.
        """
        positions = np.asarray(positions, dtype=np.int64)
        sample_indices = context.unlabeled[positions]
        history = context.history
        columns: list[np.ndarray] = []

        window = history.window_matrix(sample_indices, self.window)
        filled = _backfill(window)
        if self.use_history:
            columns.append(filled)
        if self.use_fluctuation:
            columns.append(history.fluctuation(sample_indices, self.window)[:, None])
        if self.use_trend:
            columns.append(self._trend_features(history, sample_indices))
        if self.use_prediction:
            columns.append(self._prediction_feature(history, sample_indices, filled))
        if self.use_probabilities:
            columns.append(self._probability_features(model, context, positions))
        if self.use_window_stats:
            columns.append(_window_statistics(filled))
        return np.hstack(columns)

    # -- groups ------------------------------------------------------------

    def _trend_features(self, history, sample_indices: np.ndarray) -> np.ndarray:
        features = np.zeros((len(sample_indices), 2))
        if len(sample_indices) == 0 or history.num_rounds == 0:
            return features
        # One batched MK test over all sequences; rows with fewer than 3
        # observations come back as zeros, matching the per-sample path.
        result = mann_kendall_batch(history.sequence_matrix(sample_indices))
        features[:, 0] = result.z
        features[:, 1] = result.tau
        return features

    def _prediction_feature(
        self, history, sample_indices: np.ndarray, filled_window: np.ndarray
    ) -> np.ndarray:
        last = filled_window[:, -1]
        if self.predictor is None:
            return last[:, None]  # persistence fallback
        # One padded batch for the whole candidate set instead of a
        # Python list of per-sample sequences.
        values, lengths = history.padded_sequences(sample_indices)
        usable = np.flatnonzero(lengths >= 1)
        predictions = last.copy()
        if len(usable):
            predictions[usable] = self.predictor.predict_padded(
                values[usable], lengths[usable]
            )
        return predictions[:, None]

    def _probability_features(
        self, model: object, context: SelectionContext, positions: np.ndarray
    ) -> np.ndarray:
        if not isinstance(model, Classifier):
            return np.zeros((len(positions), 2))
        probabilities = context.probabilities(model)[positions]
        top2 = np.sort(probabilities, axis=1)[:, ::-1][:, :2]
        if top2.shape[1] < 2:  # degenerate single-class edge case
            top2 = np.hstack([top2, np.zeros((len(top2), 1))])
        return top2


def _window_statistics(filled_window: np.ndarray) -> np.ndarray:
    """Extension group 6: min / max / mean / last-step delta per row."""
    minimum = filled_window.min(axis=1)
    maximum = filled_window.max(axis=1)
    mean = filled_window.mean(axis=1)
    if filled_window.shape[1] >= 2:
        delta = filled_window[:, -1] - filled_window[:, -2]
    else:
        delta = np.zeros(len(filled_window))
    return np.column_stack([minimum, maximum, mean, delta])


def _backfill(window: np.ndarray) -> np.ndarray:
    """Replace leading NaNs with each row's earliest observed value.

    Rows with no observations become all zeros.  Fully vectorized; the
    tests check it against the row-loop oracle in ``tests/oracles``.
    """
    observed = ~np.isnan(window)
    any_observed = observed.any(axis=1)
    first_column = observed.argmax(axis=1)
    first_value = window[np.arange(len(window)), first_column]
    fill = np.where(any_observed, first_value, 0.0)
    return np.where(observed, window, fill[:, None])
