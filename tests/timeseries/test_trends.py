"""Tests for the Figure-2 trend-shape classifier."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.timeseries import trends
from repro.timeseries.trends import TrendShape, classify_trend, classify_trends


def per_sequence_counts(sequences, alpha, fluctuation_quantile):
    """The shape counts from :func:`classify_trend` called once per sequence."""
    variances = [np.var(np.asarray(s, dtype=np.float64)) for s in sequences]
    threshold = float(np.quantile(variances, fluctuation_quantile))
    counts = {shape: 0 for shape in TrendShape}
    for sequence in sequences:
        counts[classify_trend(sequence, threshold, alpha=alpha)] += 1
    return counts


@st.composite
def series(draw):
    """3-14 points: uniform noise, heavily tied, a random walk or a trend."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(3, 14))
    kind = draw(st.sampled_from(["noise", "tied", "walk", "trend"]))
    if kind == "noise":
        return rng.random(length)
    if kind == "tied":
        return rng.integers(0, 3, size=length).astype(float)
    if kind == "walk":
        return np.cumsum(rng.normal(size=length))
    return rng.normal(scale=0.5, size=length) + rng.normal() * np.arange(length)


class TestClassifyTrend:
    def test_increasing(self):
        shape = classify_trend(np.linspace(0, 1, 10), variance_threshold=1.0)
        assert shape is TrendShape.INCREASING

    def test_decreasing(self):
        shape = classify_trend(np.linspace(1, 0, 10), variance_threshold=1.0)
        assert shape is TrendShape.DECREASING

    def test_stable(self):
        series = np.full(8, 0.5) + 1e-4 * np.arange(8) * (-1) ** np.arange(8)
        assert classify_trend(series, variance_threshold=0.01) is TrendShape.STABLE

    def test_fluctuating(self):
        series = np.array([0.1, 0.9, 0.2, 0.8, 0.15, 0.85])
        assert classify_trend(series, variance_threshold=0.01) is TrendShape.FLUCTUATING

    def test_monotone_wins_over_variance(self):
        # A strong trend has high variance but must classify as a trend.
        series = np.linspace(0, 10, 12)
        assert classify_trend(series, variance_threshold=0.0) is TrendShape.INCREASING

    def test_short_sequence_rejected(self):
        with pytest.raises(ConfigurationError):
            classify_trend([1.0, 2.0], variance_threshold=0.1)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            classify_trend([1.0, 2.0, 3.0], variance_threshold=-1.0)


class TestClassifyTrends:
    def test_counts_sum_to_total(self, rng):
        sequences = [rng.random(6) for _ in range(40)]
        counts = classify_trends(sequences)
        assert sum(counts.values()) == 40

    def test_all_shapes_keyed(self, rng):
        counts = classify_trends([rng.random(6) for _ in range(5)])
        assert set(counts) == set(TrendShape)

    def test_adaptive_threshold_splits_population(self, rng):
        flat = [np.full(6, 0.5) + 0.001 * rng.random(6) for _ in range(20)]
        wild = [rng.random(6) for _ in range(20)]
        counts = classify_trends(flat + wild, fluctuation_quantile=0.5)
        assert counts[TrendShape.FLUCTUATING] >= 10
        assert counts[TrendShape.STABLE] >= 10

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            classify_trends([])

    def test_bad_quantile_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            classify_trends([rng.random(5)], fluctuation_quantile=1.0)


class TestBatchedClassification:
    """``classify_trends`` tests every sequence in one batch, with the
    labels ``classify_trend`` gives each sequence alone."""

    @settings(max_examples=200, deadline=None)
    @given(
        sequences=st.lists(series(), min_size=1, max_size=8),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
        fluctuation_quantile=st.floats(0.05, 0.95),
    )
    def test_counts_equal_the_per_sequence_labels(
        self, sequences, alpha, fluctuation_quantile
    ):
        assert classify_trends(
            sequences, alpha=alpha, fluctuation_quantile=fluctuation_quantile
        ) == per_sequence_counts(sequences, alpha, fluctuation_quantile)

    def test_one_batched_test_per_call(self, rng, monkeypatch):
        shapes = []
        batch = trends.mann_kendall_batch

        def counting_batch(matrix):
            shapes.append(matrix.shape)
            return batch(matrix)

        monkeypatch.setattr(trends, "mann_kendall_batch", counting_batch)
        sequences = [rng.random(int(n)) for n in rng.integers(3, 12, size=30)]
        classify_trends(sequences)
        assert shapes == [(30, max(len(s) for s in sequences))]

    @pytest.mark.parametrize(
        "bad, message",
        [([1.0, 2.0], "at least 3 observations, got 2"),
         ([1.0, np.nan, 3.0], "must not be NaN")],
        ids=["short", "nan"],
    )
    def test_a_sequence_classify_trend_rejects_is_rejected(self, rng, bad, message):
        with pytest.raises(ConfigurationError, match=message):
            classify_trend(bad, variance_threshold=0.1)
        with pytest.raises(ConfigurationError, match=message):
            classify_trends([rng.random(5), bad, rng.random(4)])

    def test_bad_alpha_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="alpha must be in"):
            classify_trends([rng.random(5)], alpha=1.5)
