"""Tests for the Mann-Kendall trend test."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ConfigurationError
from repro.timeseries.mann_kendall import (
    Trend,
    mann_kendall_batch,
    mann_kendall_test,
    two_sided_p_value,
)
from tests.oracles.timeseries import mann_kendall_scalar

#: z values spanning [-10, 10], including both tails and zero.
Z_GRID = np.linspace(-10.0, 10.0, 2001)


def float_bytes(result, row=None):
    """The float fields of a test result (or of one row of a batch result),
    as bytes, so -0.0 and 0.0 differ."""
    return [
        np.float64(
            getattr(result, name) if row is None else getattr(result, name)[row]
        ).tobytes()
        for name in ("s", "variance", "z", "p_value", "tau")
    ]


class TestBasicTrends:
    def test_increasing(self):
        result = mann_kendall_test(np.arange(12.0))
        assert result.trend is Trend.INCREASING
        assert result.z > 0

    def test_decreasing(self):
        result = mann_kendall_test(np.arange(12.0)[::-1])
        assert result.trend is Trend.DECREASING
        assert result.z < 0

    def test_constant_series_no_trend(self):
        result = mann_kendall_test(np.ones(10))
        assert result.trend is Trend.NO_TREND
        assert result.z == 0.0

    def test_alternating_no_trend(self):
        result = mann_kendall_test([1, 2, 1, 2, 1, 2, 1, 2])
        assert result.trend is Trend.NO_TREND

    def test_s_statistic_exact(self):
        # [1, 3, 2]: pairs (1,3)+1 (1,2)+1 (3,2)-1 -> S = 1.
        assert mann_kendall_test([1, 3, 2]).s == 1

    def test_tau_bounds(self):
        result = mann_kendall_test(np.arange(10.0))
        assert np.isclose(result.tau, 1.0)

    def test_p_value_range(self):
        result = mann_kendall_test([3, 1, 4, 1, 5, 9, 2, 6])
        assert 0.0 <= result.p_value <= 1.0


class TestPValue:
    """``erfc(|z| / sqrt 2)`` against the ``2 * (1 - Phi(|z|))`` it replaced."""

    def test_matches_normal_cdf_formula(self):
        phi = 0.5 * (1.0 + np.vectorize(math.erf)(np.abs(Z_GRID) / math.sqrt(2.0)))
        old = 2.0 * (1.0 - phi)
        assert np.abs(two_sided_p_value(Z_GRID) - old).max() <= 1e-12

    def test_matches_scipy_formula(self):
        norm = pytest.importorskip("scipy.stats").norm
        old = 2.0 * (1.0 - norm.cdf(np.abs(Z_GRID)))
        assert np.abs(two_sided_p_value(Z_GRID) - old).max() <= 1e-12

    def test_known_values(self):
        assert two_sided_p_value(0.0) == 1.0
        assert two_sided_p_value(1.959963984540054) == pytest.approx(0.05, abs=1e-15)
        assert two_sided_p_value(-3.0) == two_sided_p_value(3.0)


class TestVariance:
    def test_known_variance_no_ties(self):
        # Var(S) = n(n-1)(2n+5)/18 for n=10 -> 125.
        assert mann_kendall_test(np.arange(10.0)).variance == pytest.approx(125.0)

    def test_tie_correction_reduces_variance(self):
        tied = mann_kendall_test([1, 1, 2, 3, 4, 5, 6, 7, 8, 9]).variance
        assert tied < 125.0


class TestHamedRao:
    def test_autocorrelated_series_inflates_variance(self):
        rng = np.random.default_rng(0)
        series = np.cumsum(rng.normal(size=40))  # strongly autocorrelated
        plain = mann_kendall_test(series)
        corrected = mann_kendall_test(series, hamed_rao=True)
        assert corrected.variance >= plain.variance

    def test_white_noise_unaffected_at_short_lags(self):
        rng = np.random.default_rng(1)
        series = rng.normal(size=60)
        plain = mann_kendall_test(series)
        corrected = mann_kendall_test(series, hamed_rao=True, max_lag=5)
        assert corrected.variance == pytest.approx(plain.variance, rel=0.3)

    def test_correction_factor_positive(self):
        rng = np.random.default_rng(1)
        series = rng.normal(size=60)
        corrected = mann_kendall_test(series, hamed_rao=True)
        assert corrected.variance > 0


class TestValidation:
    def test_too_short(self):
        with pytest.raises(ConfigurationError):
            mann_kendall_test([1, 2])

    def test_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            mann_kendall_test([1, 2, 3], alpha=0)

    def test_nan_rejected(self):
        # The batched test reads NaN as "no observation"; the scalar
        # test refuses it rather than silently dropping a value.
        with pytest.raises(ConfigurationError, match="NaN"):
            mann_kendall_test([1.0, np.nan, 2.0, 3.0])


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=25))
def test_antisymmetry_property(values):
    forward = mann_kendall_test(values)
    backward = mann_kendall_test(values[::-1])
    assert forward.s == -backward.s
    assert np.isclose(forward.variance, backward.variance)


@given(
    st.lists(st.integers(-1000, 1000), min_size=3, max_size=25),
    st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    st.integers(-10, 10),
)
def test_affine_invariance_property(values, scale, shift):
    # Integer inputs and exact binary scales keep the pairwise order
    # unchanged by floating-point rounding.
    original = mann_kendall_test([float(v) for v in values])
    transformed = mann_kendall_test([scale * v + shift for v in values])
    assert original.s == transformed.s


class TestBatch:
    """mann_kendall_batch and mann_kendall_test must both agree bit for bit
    with the scalar oracle (comparing them with each other would be
    circular: the test reads its S, variance and tau from the batch)."""

    def _assert_matches_scalar(self, matrix):
        result = mann_kendall_batch(matrix)
        for row, padded in enumerate(np.asarray(matrix, dtype=np.float64)):
            values = padded[~np.isnan(padded)]
            assert result.lengths[row] == len(values)
            if len(values) >= 3:
                reference = mann_kendall_scalar(values)
                scalar = mann_kendall_test(values)
                assert float_bytes(result, row) == float_bytes(reference)
                assert float_bytes(scalar) == float_bytes(reference)
                assert scalar.trend is reference.trend
            else:
                assert result.s[row] == 0.0
                assert result.variance[row] == 0.0
                assert result.z[row] == 0.0
                assert result.tau[row] == 0.0
                assert result.p_value[row] == 1.0

    @pytest.mark.parametrize("max_lag", [None, 3])
    def test_hamed_rao_matches_scalar(self, max_lag):
        rng = np.random.default_rng(2)
        for series in (
            np.cumsum(rng.normal(size=40)),
            rng.choice([0.1, 0.2, 0.3], size=25),
            rng.normal(size=12),
        ):
            result = mann_kendall_test(series, hamed_rao=True, max_lag=max_lag)
            reference = mann_kendall_scalar(series, hamed_rao=True, max_lag=max_lag)
            assert float_bytes(result) == float_bytes(reference)
            assert result.trend is reference.trend

    def test_random_sequences(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(40, 12))
        self._assert_matches_scalar(matrix)

    def test_tied_sequences(self):
        rng = np.random.default_rng(1)
        # Heavy ties exercise the tie-corrected variance term.
        matrix = rng.choice([0.1, 0.2, 0.3], size=(40, 10)).astype(np.float64)
        self._assert_matches_scalar(matrix)

    def test_constant_rows_zero_variance(self):
        result = mann_kendall_batch(np.ones((3, 8)))
        assert (result.z == 0.0).all()
        assert (result.variance == 0.0).all()

    def test_ragged_nan_padding(self):
        matrix = np.array(
            [
                [0.3, 0.1, 0.2, np.nan, np.nan],
                [np.nan, np.nan, np.nan, np.nan, np.nan],
                [0.5, np.nan, 0.4, np.nan, 0.3],  # interleaved padding
                [0.9, 0.8, np.nan, np.nan, np.nan],  # too short to test
            ]
        )
        self._assert_matches_scalar(matrix)

    def test_interleaved_padding_equals_compacted(self):
        interleaved = np.array([[np.nan, 1.0, np.nan, 3.0, 2.0, np.nan]])
        compact = np.array([[1.0, 3.0, 2.0]])
        a = mann_kendall_batch(interleaved)
        b = mann_kendall_batch(compact)
        assert a.s[0] == b.s[0] and a.z[0] == b.z[0] and a.tau[0] == b.tau[0]

    def test_empty_batch(self):
        result = mann_kendall_batch(np.empty((0, 5)))
        assert result.z.shape == (0,)

    def test_all_nan_batch(self):
        result = mann_kendall_batch(np.full((4, 6), np.nan))
        assert (result.p_value == 1.0).all()
        assert (result.lengths == 0).all()

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            mann_kendall_batch(np.arange(5.0))

    @given(
        st.lists(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=0, max_size=10),
            min_size=1,
            max_size=12,
        )
    )
    def test_batch_equals_scalar_property(self, ragged_rows):
        width = max(len(row) for row in ragged_rows)
        matrix = np.full((len(ragged_rows), max(width, 1)), np.nan)
        for index, row in enumerate(ragged_rows):
            matrix[index, : len(row)] = row
        self._assert_matches_scalar(matrix)
