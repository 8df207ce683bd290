"""Tests for predicted-label tracking: history records and the engine knob.

``track_flips`` feeds the contradiction-rate metric a per-round record
of the model's predicted labels.  Its contract: the record rides the
history store's side channel (serialized, pruned, and truncated with
it), and turning it on never changes curves or selections — prediction
is cached and RNG-free.
"""

import json

import numpy as np
import pytest

from repro.core.history import HistoryStore
from repro.core.session import SessionEngine, record_to_dict, run_to_completion
from repro.core.strategies import Entropy, LeastConfidence
from repro.eval.pipeline import contradiction_rate
from repro.exceptions import HistoryError
from repro.models.crf import LinearChainCRF
from repro.models.linear import LinearSoftmax

ENGINE_KWARGS = dict(batch_size=10, rounds=2, seed_or_rng=11)


def _engine(text_dataset, **overrides):
    kwargs = dict(ENGINE_KWARGS)
    kwargs.update(overrides)
    return SessionEngine(
        LinearSoftmax(epochs=3, seed=0),
        Entropy(),
        text_dataset.subset(range(400)),
        text_dataset.subset(range(400, 500)),
        **kwargs,
    )


class TestHistoryLabelRounds:
    def test_append_and_iterate(self):
        history = HistoryStore(8)
        history.append_labels(1, np.array([0, 2]), np.array([1, 0]))
        history.append_labels(3, np.array([1]), np.array([1]))
        rounds = list(history.label_rounds())
        assert [r for r, _, _ in rounds] == [1, 3]
        assert np.array_equal(rounds[0][1], [0, 2])
        assert history.num_label_rounds == 2

    def test_out_of_order_round_rejected(self):
        history = HistoryStore(8)
        history.append_labels(2, np.array([0]), np.array([0]))
        with pytest.raises(HistoryError, match="not after"):
            history.append_labels(2, np.array([1]), np.array([0]))

    def test_misaligned_inputs_rejected(self):
        history = HistoryStore(8)
        with pytest.raises(HistoryError, match="aligned"):
            history.append_labels(1, np.array([0, 1]), np.array([0]))

    def test_out_of_range_index_rejected(self):
        history = HistoryStore(4)
        with pytest.raises(HistoryError, match="out of range"):
            history.append_labels(1, np.array([4]), np.array([0]))

    def test_duplicate_indices_rejected(self):
        history = HistoryStore(4)
        with pytest.raises(HistoryError, match="duplicate"):
            history.append_labels(1, np.array([1, 1]), np.array([0, 0]))

    def test_dict_roundtrip_carries_labels(self):
        history = HistoryStore(8)
        history.append(1, np.array([0, 1]), np.array([0.5, 0.6]))
        history.append_labels(1, np.array([0, 1]), np.array([1, 0]))
        payload = json.loads(json.dumps(history.to_dict()))
        restored = HistoryStore.from_dict(payload)
        rounds = list(restored.label_rounds())
        assert len(rounds) == 1
        assert np.array_equal(rounds[0][2], [1, 0])

    def test_labels_key_absent_when_unused(self):
        history = HistoryStore(8)
        history.append(1, np.array([0]), np.array([0.5]))
        # the serialized byte shape of label-free stores must not change
        assert "labels" not in history.to_dict()

    def test_pickle_roundtrip_carries_labels(self):
        import pickle

        history = HistoryStore(8)
        history.append_labels(2, np.array([3]), np.array([1]))
        restored = pickle.loads(pickle.dumps(history))
        assert [r for r, _, _ in restored.label_rounds()] == [2]

    def test_as_of_truncates_label_rounds(self):
        history = HistoryStore(8)
        for round_index in (1, 2, 3):
            history.append_labels(round_index, np.array([0]), np.array([round_index]))
        truncated = history.as_of(2)
        assert [r for r, _, _ in truncated.label_rounds()] == [1, 2]


class TestEngineTracking:
    def test_tracking_records_one_round_per_proposal(self, text_dataset):
        engine = _engine(text_dataset, track_flips=True)
        result = run_to_completion(engine)
        # one label round per selection round, covering the unlabeled pool
        rounds = list(result.history.label_rounds())
        assert len(rounds) == ENGINE_KWARGS["rounds"]
        assert not np.isnan(contradiction_rate(result.history))

    def test_tracking_never_changes_the_run(self, text_dataset):
        plain = run_to_completion(_engine(text_dataset))
        tracked = run_to_completion(_engine(text_dataset, track_flips=True))
        assert np.array_equal(plain.curve().values, tracked.curve().values)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(plain.selection_order, tracked.selection_order)
        )

    def test_off_by_default_and_no_label_rounds(self, text_dataset):
        engine = _engine(text_dataset)
        assert engine.track_flips is False
        result = run_to_completion(engine)
        assert result.history.num_label_rounds == 0

    def test_snapshot_restore_preserves_tracking(self, text_dataset):
        engine = _engine(text_dataset, track_flips=True)
        engine.propose()
        snapshot = json.loads(json.dumps(engine.snapshot()))
        resumed = SessionEngine.restore(
            snapshot,
            LinearSoftmax(epochs=3, seed=0),
            Entropy(),
            text_dataset.subset(range(400)),
            text_dataset.subset(range(400, 500)),
        )
        assert resumed.track_flips is True
        reference = run_to_completion(_engine(text_dataset, track_flips=True))
        resumed_result = run_to_completion(resumed)
        assert resumed_result.history.num_label_rounds == len(
            list(reference.history.label_rounds())
        )
        assert np.array_equal(
            resumed_result.curve().values, reference.curve().values
        )

    def test_restore_does_not_double_record_mid_propose(self, text_dataset):
        engine = _engine(text_dataset, track_flips=True)
        engine.propose()
        recorded = [r for r, _, _ in engine.history.label_rounds()]
        snapshot = json.loads(json.dumps(engine.snapshot()))
        resumed = SessionEngine.restore(
            snapshot,
            LinearSoftmax(epochs=3, seed=0),
            Entropy(),
            text_dataset.subset(range(400)),
            text_dataset.subset(range(400, 500)),
        )
        assert [r for r, _, _ in resumed.history.label_rounds()] == recorded


class TestTaggerTracking:
    """A tagger's "label" is a CRC of its predicted tag sequence."""

    @staticmethod
    def _run(ner_dataset, track_flips):
        return run_to_completion(SessionEngine(
            LinearChainCRF(epochs=3, seed=0),
            LeastConfidence(),
            ner_dataset.subset(range(150)),
            ner_dataset.subset(range(150, 200)),
            batch_size=5,
            rounds=3,
            seed_or_rng=11,
            track_flips=track_flips,
        ))

    def test_tracking_never_changes_a_tagger_run(self, ner_dataset):
        plain = self._run(ner_dataset, track_flips=False)
        tracked = self._run(ner_dataset, track_flips=True)
        assert json.dumps([record_to_dict(r) for r in plain.records]) == json.dumps(
            [record_to_dict(r) for r in tracked.records]
        )
        assert [s.tolist() for s in plain.selection_order] == [
            s.tolist() for s in tracked.selection_order
        ]
        assert plain.history.num_label_rounds == 0
        assert tracked.history.num_label_rounds == len(tracked.selection_order)
        assert np.isfinite(contradiction_rate(tracked.history))
