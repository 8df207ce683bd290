"""Tests for the HistoryStore — the paper's central data structure."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.history import HistoryStore
from repro.exceptions import ConfigurationError, HistoryError


@pytest.fixture()
def store():
    """Three rounds over 6 samples; samples 4 and 5 leave the pool early."""
    history = HistoryStore(6, strategy_name="entropy")
    history.append(1, np.arange(6), np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))
    history.append(2, np.arange(5), np.array([0.15, 0.25, 0.35, 0.45, 0.55]))
    history.append(3, np.arange(4), np.array([0.12, 0.22, 0.32, 0.42]))
    return history


class TestAppend:
    def test_rounds_recorded(self, store):
        assert store.num_rounds == 3
        assert store.rounds == [1, 2, 3]

    def test_duplicate_round_rejected(self, store):
        with pytest.raises(HistoryError):
            store.append(3, np.arange(2), np.zeros(2))

    def test_out_of_order_rejected(self, store):
        with pytest.raises(HistoryError):
            store.append(2, np.arange(2), np.zeros(2))

    def test_gap_in_rounds_allowed(self, store):
        store.append(7, np.arange(2), np.zeros(2))
        assert store.has_round(7)

    def test_misaligned_rejected(self, store):
        with pytest.raises(HistoryError):
            store.append(4, np.arange(3), np.zeros(2))

    def test_out_of_range_index_rejected(self, store):
        with pytest.raises(HistoryError):
            store.append(4, np.array([99]), np.zeros(1))

    def test_duplicate_indices_rejected(self, store):
        with pytest.raises(HistoryError):
            store.append(4, np.array([1, 1]), np.zeros(2))

    def test_empty_round_allowed(self, store):
        store.append(4, np.empty(0, dtype=np.int64), np.empty(0))
        assert store.num_rounds == 4

    def test_bad_n_samples(self):
        with pytest.raises(ConfigurationError):
            HistoryStore(0)


class TestSequences:
    def test_full_coverage_sample(self, store):
        assert store.sequence(0).tolist() == [0.1, 0.15, 0.12]

    def test_partial_coverage_sample(self, store):
        assert store.sequence(4).tolist() == [0.5, 0.55]

    def test_single_round_sample(self, store):
        assert store.sequence(5).tolist() == [0.6]

    def test_sequence_length(self, store):
        assert store.sequence_length(5) == 1

    def test_out_of_range(self, store):
        with pytest.raises(HistoryError):
            store.sequence(6)

    def test_nbytes_positive(self, store):
        assert store.nbytes() > 0

    def test_nbytes_is_logical_footprint(self, store):
        # Exactly recorded_rounds * n_samples * 8, independent of the
        # preallocated growth headroom (the Table 2 space quantity).
        assert store.nbytes() == 3 * 6 * 8
        assert store.capacity >= store.num_rounds
        assert store.capacity_nbytes() >= store.capacity * 6 * 8

    def test_nbytes_unchanged_by_capacity_growth(self):
        history = HistoryStore(4)
        history.append(1, np.arange(4), np.zeros(4))
        before = history.nbytes()
        history.append(2, np.arange(4), np.zeros(4))
        assert history.nbytes() == 2 * before


class TestAmortizedGrowth:
    """Append must stay amortized O(N): capacity doubles, it does not
    reallocate every call (the pre-vectorization vstack behavior)."""

    def test_buffer_reallocations_logarithmic(self):
        history = HistoryStore(16)
        buffer_ids = set()
        rounds = 400
        for round_index in range(1, rounds + 1):
            history.append(round_index, np.arange(16), np.zeros(16))
            buffer_ids.add(id(history._buffer))
        # Geometric doubling: ~log2(400) distinct buffers, not 400.
        assert len(buffer_ids) <= int(np.log2(rounds)) + 3

    def test_capacity_bounded_by_doubling(self):
        history = HistoryStore(8)
        for round_index in range(1, 101):
            history.append(round_index, np.arange(8), np.zeros(8))
        assert history.num_rounds <= history.capacity < 2 * 101

    def test_sequences_survive_reallocation(self):
        history = HistoryStore(3)
        values = np.linspace(0.0, 1.0, 50)
        for round_index, value in enumerate(values, start=1):
            history.append(round_index, np.array([0]), np.array([value]))
        assert np.allclose(history.sequence(0), values)


class TestCurrentScoresFastPath:
    def test_as_of_copy_consistent(self, store):
        truncated = store.as_of(2)
        np.testing.assert_array_equal(
            truncated.current_scores(np.arange(6)),
            truncated.window_matrix(np.arange(6), 1)[:, 0],
        )

    def test_matches_window_matrix_path(self, store):
        indices = np.arange(6)
        np.testing.assert_array_equal(
            store.current_scores(indices), store.window_matrix(indices, 1)[:, 0]
        )

    def test_out_of_range_rejected(self, store):
        with pytest.raises(HistoryError):
            store.current_scores(np.array([99]))


class TestSequenceMatrix:
    def test_left_aligned_rows(self, store):
        matrix = store.sequence_matrix(np.array([0, 4, 5]))
        assert matrix.shape == (3, 3)
        assert matrix[0].tolist() == [0.1, 0.15, 0.12]
        assert matrix[1, :2].tolist() == [0.5, 0.55] and np.isnan(matrix[1, 2])
        assert matrix[2, 0] == 0.6 and np.isnan(matrix[2, 1:]).all()

    def test_empty_store(self):
        assert HistoryStore(4).sequence_matrix(np.arange(4)).shape == (4, 0)

    def test_rows_match_sequence(self, store):
        matrix = store.sequence_matrix(np.arange(6))
        for row, index in enumerate(range(6)):
            observed = matrix[row][~np.isnan(matrix[row])]
            np.testing.assert_array_equal(observed, store.sequence(index))


class TestWindowMatrix:
    def test_right_alignment(self, store):
        window = store.window_matrix(np.array([0]), 2)
        assert window[0].tolist() == [0.15, 0.12]

    def test_padding_for_short_sequences(self, store):
        window = store.window_matrix(np.array([5]), 3)
        assert np.isnan(window[0, 0]) and np.isnan(window[0, 1])
        assert window[0, 2] == 0.6

    def test_window_larger_than_history(self, store):
        window = store.window_matrix(np.array([0]), 5)
        assert np.isnan(window[0, :2]).all()
        assert window[0, 2:].tolist() == [0.1, 0.15, 0.12]

    def test_empty_store(self):
        history = HistoryStore(3)
        window = history.window_matrix(np.array([0, 1]), 2)
        assert np.isnan(window).all()

    def test_empty_indices(self, store):
        assert store.window_matrix(np.empty(0, dtype=np.int64), 3).shape == (0, 3)

    def test_bad_window(self, store):
        with pytest.raises(ConfigurationError):
            store.window_matrix(np.array([0]), 0)

    def test_current_scores(self, store):
        current = store.current_scores(np.array([0, 4, 5]))
        assert current.tolist() == [0.12, 0.55, 0.6]


class TestWeightedSum:
    def test_eq_9_10_weights(self, store):
        # Sample 0: 0.12 * 1 + 0.15 * 0.5 + 0.1 * 0.25.
        value = store.weighted_sum(np.array([0]), 3)[0]
        assert value == pytest.approx(0.12 + 0.075 + 0.025)

    def test_window_one_equals_current(self, store):
        indices = np.arange(4)
        assert np.allclose(
            store.weighted_sum(indices, 1), store.current_scores(indices)
        )

    def test_short_history_uses_available(self, store):
        # Sample 5 has one score; weighted sum over window 3 is just it.
        assert store.weighted_sum(np.array([5]), 3)[0] == pytest.approx(0.6)

    def test_vectorised_matches_scalar(self, store):
        batch = store.weighted_sum(np.arange(6), 3)
        singles = [store.weighted_sum(np.array([i]), 3)[0] for i in range(6)]
        assert np.allclose(batch, singles)


class TestFluctuation:
    def test_variance_of_window(self, store):
        expected = np.var([0.1, 0.15, 0.12])
        assert store.fluctuation(np.array([0]), 3)[0] == pytest.approx(expected)

    def test_single_observation_is_zero(self, store):
        assert store.fluctuation(np.array([5]), 3)[0] == 0.0

    def test_window_restricts_variance(self, store):
        narrow = store.fluctuation(np.array([0]), 2)[0]
        assert narrow == pytest.approx(np.var([0.15, 0.12]))

    def test_constant_sequence_zero(self):
        history = HistoryStore(1)
        for round_index in range(1, 5):
            history.append(round_index, np.array([0]), np.array([0.7]))
        assert history.fluctuation(np.array([0]), 4)[0] == 0.0


@given(
    st.lists(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=4, max_size=4),
        min_size=1,
        max_size=8,
    ),
    st.integers(1, 6),
)
def test_windowed_ops_match_numpy_property(rounds, window):
    """For fully-covered samples, the store must agree with plain numpy."""
    history = HistoryStore(4)
    for round_index, scores in enumerate(rounds, start=1):
        history.append(round_index, np.arange(4), np.array(scores))
    matrix = np.array(rounds)  # (rounds, 4)
    tail = matrix[-window:]
    weights = np.exp2(np.arange(len(tail)) - (len(tail) - 1))
    expected_ws = (tail * weights[:, None]).sum(axis=0)
    assert np.allclose(history.weighted_sum(np.arange(4), window), expected_ws)
    if len(tail) >= 2:
        assert np.allclose(
            history.fluctuation(np.arange(4), window), tail.var(axis=0)
        )


class TestAsOf:
    def test_truncates_rounds(self, store):
        truncated = store.as_of(2)
        assert truncated.rounds == [1, 2]

    def test_sequences_truncated(self, store):
        truncated = store.as_of(2)
        assert truncated.sequence(0).tolist() == [0.1, 0.15]

    def test_full_copy_at_last_round(self, store):
        truncated = store.as_of(3)
        assert truncated.rounds == store.rounds
        assert np.allclose(
            truncated.weighted_sum(np.arange(4), 3),
            store.weighted_sum(np.arange(4), 3),
        )

    def test_before_first_round_empty(self, store):
        assert store.as_of(0).num_rounds == 0

    def test_copy_is_independent(self, store):
        truncated = store.as_of(2)
        truncated.append(9, np.array([0]), np.array([1.0]))
        assert not store.has_round(9)


@given(
    st.lists(st.floats(0, 1, allow_nan=False), min_size=12, max_size=12),
    st.integers(1, 5),
)
def test_pool_shrink_property(flat_scores, window):
    """Samples leave the pool over rounds; windows stay right-aligned.

    Simulates an AL run over 4 samples and 3 rounds where sample ``r``
    is no longer evaluated from round ``r+2`` on (it got labeled), and
    checks the store against per-sample manual reconstruction.
    """
    rounds = [np.asarray(flat_scores[i * 4 : (i + 1) * 4]) for i in range(3)]
    history = HistoryStore(4)
    evaluated = [np.arange(4), np.arange(1, 4), np.arange(2, 4)]
    manual = {i: [] for i in range(4)}
    for round_index, (scores, indices) in enumerate(zip(rounds, evaluated), start=1):
        history.append(round_index, indices, scores[indices])
        for sample in indices:
            manual[sample].append(scores[sample])
    for sample in range(4):
        expected_tail = manual[sample][-window:]
        window_row = history.window_matrix(np.array([sample]), window)[0]
        observed = window_row[~np.isnan(window_row)]
        assert observed.tolist() == pytest.approx(expected_tail)
        weights = np.exp2(np.arange(len(expected_tail)) - (len(expected_tail) - 1))
        expected_ws = float((np.asarray(expected_tail) * weights).sum())
        assert history.weighted_sum(np.array([sample]), window)[0] == pytest.approx(
            expected_ws
        )


class TestSnapshotForm:
    """``to_snapshot`` (round ids + one encoded matrix) and ``to_dict``
    (sparse rows) rebuild the same store through ``from_dict``."""

    def test_both_forms_rebuild_the_same_store(self, store):
        store.append(5, np.array([], dtype=np.int64), np.array([]))  # an empty round
        store.append_labels(3, np.array([0, 2]), np.array([1, 0]))
        snapshot = json.loads(json.dumps(store.to_snapshot()))
        assert snapshot["rounds"] == [1, 2, 3, 5]
        assert snapshot["scores"]["shape"] == [4, 6]
        from_snapshot = HistoryStore.from_dict(snapshot)
        from_rows = HistoryStore.from_dict(json.loads(json.dumps(store.to_dict())))
        for rebuilt in (from_snapshot, from_rows):
            assert rebuilt.to_dict() == store.to_dict()
            assert rebuilt.to_snapshot() == store.to_snapshot()
            assert rebuilt.current_scores(np.arange(6)).tobytes() == (
                store.current_scores(np.arange(6)).tobytes()
            )

    def test_empty_store_round_trips(self):
        empty = HistoryStore(3)
        assert HistoryStore.from_dict(empty.to_snapshot()).num_rounds == 0

    def test_wrong_matrix_shape_rejected(self, store):
        snapshot = store.to_snapshot()
        snapshot["rounds"] = snapshot["rounds"][:2]
        with pytest.raises(HistoryError, match=r"scores has shape \[3, 6\], expected \[2, 6\]"):
            HistoryStore.from_dict(snapshot)

    def test_replay_keeps_the_round_order_check(self, store):
        snapshot = store.to_snapshot()
        snapshot["rounds"] = [1, 3, 2]
        with pytest.raises(HistoryError, match="not after last recorded round"):
            HistoryStore.from_dict(snapshot)

    def test_malformed_scores_are_history_errors(self, store):
        snapshot = store.to_snapshot()
        snapshot["scores"]["data"] = "!!"
        with pytest.raises(HistoryError, match="scores has malformed base64"):
            HistoryStore.from_dict(snapshot)


def test_repr(store):
    assert "entropy" in repr(store)
