"""Warm-start training through the session engine.

``training_mode="warm"`` is the opt-in fast path: each round's model
resumes from the previous round's parameters.  These tests pin its
contract — deterministic given the run seed, quality-comparable to cold,
and byte-identical across snapshot/restore at every phase boundary —
plus the cold-mode guarantee that serialized-parameter restore
reproduces exactly what a from-scratch refit would.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.session import (
    SessionEngine,
    SessionState,
    record_to_dict,
    run_to_completion,
)
from repro.core.strategies import Entropy, QBC, Random, WSHS
from repro.exceptions import ConfigurationError, SessionError
from repro.models.linear import LinearSoftmax
from tests.core.helpers import make_context

KWARGS = dict(batch_size=25, rounds=3, seed_or_rng=11)


def _splits(text_dataset):
    return text_dataset.subset(range(300)), text_dataset.subset(range(300, 420))


def _model():
    return LinearSoftmax(epochs=8, seed=0)


def _engine(text_dataset, mode, strategy=None, model=None):
    train, test = _splits(text_dataset)
    return SessionEngine(
        model if model is not None else _model(),
        strategy if strategy is not None else Entropy(),
        train,
        test,
        training_mode=mode,
        **KWARGS,
    )


def _advance(engine) -> bool:
    if engine.state is SessionState.FINISHED:
        return False
    if engine.state is SessionState.AWAIT_LABELS:
        engine.ingest_labels(engine.pending)
    else:
        engine.step()
    return True


def _assert_identical(a, b):
    assert len(a.records) == len(b.records)
    for rec_a, rec_b in zip(a.records, b.records):
        assert rec_a.metric == rec_b.metric
        assert rec_a.selected.tobytes() == rec_b.selected.tobytes()
        assert np.array_equal(
            rec_a.selected_scores, rec_b.selected_scores, equal_nan=True
        )


class TestWarmMode:
    def test_invalid_mode_rejected(self, text_dataset):
        train, test = _splits(text_dataset)
        with pytest.raises(ConfigurationError, match="training_mode"):
            SessionEngine(
                _model(), Entropy(), train, test, training_mode="hot", **KWARGS
            )

    def test_warm_run_is_deterministic(self, text_dataset):
        first = run_to_completion(_engine(text_dataset, "warm"))
        second = run_to_completion(_engine(text_dataset, "warm"))
        _assert_identical(first, second)

    def test_warm_differs_from_cold_but_stays_close(self, text_dataset):
        cold = run_to_completion(_engine(text_dataset, "cold"))
        warm = run_to_completion(_engine(text_dataset, "warm"))
        # Different optimisation trajectory after round 0...
        assert any(
            rec_c.metric != rec_w.metric
            for rec_c, rec_w in zip(cold.records, warm.records)
        )
        # ...but comparable final quality (documented tolerance).
        assert abs(cold.records[-1].metric - warm.records[-1].metric) <= 0.15

    def test_cold_default_unchanged_by_knob(self, text_dataset):
        train, test = _splits(text_dataset)
        implicit = run_to_completion(SessionEngine(_model(), Entropy(), train, test, **KWARGS))
        explicit = run_to_completion(_engine(text_dataset, "cold"))
        _assert_identical(implicit, explicit)


class TestWarmSnapshotRestore:
    def test_restore_at_every_boundary_is_byte_identical(self, text_dataset):
        train, test = _splits(text_dataset)
        baseline = _engine(text_dataset, "warm")
        boundaries = 0
        while _advance(baseline):
            boundaries += 1
        expected = baseline.result()

        for stop_after in range(boundaries):
            engine = _engine(text_dataset, "warm")
            for _ in range(stop_after):
                _advance(engine)
            payload = json.loads(json.dumps(engine.snapshot()))
            assert payload["config"]["training_mode"] == "warm"
            resumed = SessionEngine.restore(
                payload, _model(), Entropy(), train, test
            )
            assert resumed.training_mode == "warm"
            while _advance(resumed):
                pass
            _assert_identical(expected, resumed.result())

    def test_warm_snapshot_carries_provenance(self, text_dataset):
        engine = _engine(text_dataset, "warm")
        engine.propose()           # bootstrap
        engine.ingest_labels(engine.pending)
        engine.propose()           # first warm-capable training round
        engine.ingest_labels(engine.pending)
        engine.propose()
        payload = engine.snapshot()
        spec = payload["model"]
        assert spec["training_mode"] == "warm"
        assert spec["warm"] is True
        assert "arrays" in spec["params"]

    def test_restore_warm_without_params_raises(self, text_dataset):
        train, test = _splits(text_dataset)
        engine = _engine(text_dataset, "warm")
        engine.propose()
        engine.ingest_labels(engine.pending)
        engine.propose()
        engine.ingest_labels(engine.pending)
        engine.propose()
        payload = json.loads(json.dumps(engine.snapshot()))
        assert payload["model"]["warm"] is True
        del payload["model"]["params"]
        with pytest.raises(SessionError, match="warm"):
            SessionEngine.restore(payload, _model(), Entropy(), train, test)

    def test_restore_rejects_other_warm_epochs(self, text_dataset):
        # warm_epochs is part of the model spec: a snapshot only resumes
        # with a prototype that trains the same warm epoch budget.
        train, test = _splits(text_dataset)
        engine = _engine(
            text_dataset, "warm", model=LinearSoftmax(epochs=8, warm_epochs=2, seed=0)
        )
        engine.propose()
        payload = json.loads(json.dumps(engine.snapshot()))
        with pytest.raises(SessionError, match="model spec"):
            SessionEngine.restore(
                payload, LinearSoftmax(epochs=8, warm_epochs=3, seed=0), Entropy(),
                train, test,
            )
        with pytest.raises(SessionError, match="model spec"):
            SessionEngine.restore(payload, _model(), Entropy(), train, test)
        resumed = SessionEngine.restore(
            payload, LinearSoftmax(epochs=8, warm_epochs=2, seed=0), Entropy(),
            train, test,
        )
        assert resumed.model_prototype.warm_epochs == 2


class TestSerializedParamRestore:
    def test_cold_restore_matches_refit_exactly(self, text_dataset):
        """set_params-based restore == the historical refit, byte for byte."""
        train, test = _splits(text_dataset)
        engine = _engine(text_dataset, "cold")
        run_to_completion(engine)
        payload = json.loads(json.dumps(engine.snapshot()))
        spec = payload["model"]
        assert "params" in spec

        restored = SessionEngine.restore(
            payload, _model(), Entropy(), train, test
        )
        refit = _model().clone()
        refit.seed = int(spec["seed"])
        refit.fit(train.subset(np.asarray(spec["labeled"], dtype=np.int64)))
        np.testing.assert_array_equal(
            restored._model.predict_proba(test), refit.predict_proba(test)
        )


class TestPhaseTimings:
    def test_round_records_carry_phase_wall_times(self, text_dataset):
        result = run_to_completion(_engine(text_dataset, "cold"))
        timed = [rec for rec in result.records if rec.timings]
        assert timed, "no round recorded phase timings"
        for record in timed:
            assert set(record.timings) <= {"train", "evaluate", "propose", "ingest"}
            assert all(seconds >= 0.0 for seconds in record.timings.values())
        # Every trained round measures its training phase.
        assert all("train" in rec.timings for rec in result.records if rec.timings)

    def test_timings_stay_out_of_serialised_records(self, text_dataset):
        result = run_to_completion(_engine(text_dataset, "cold"))
        payload = record_to_dict(result.records[0])
        assert "timings" not in payload


class TestWarmCommittee:
    def test_qbc_committee_warm_is_deterministic_and_differs(self, text_dataset):
        model = LinearSoftmax(epochs=4, seed=0).fit(text_dataset.subset(range(80)))
        strategy = QBC(committee_size=2)

        def scores(mode, seed=0):
            context = make_context(text_dataset.subset(range(200)), seed=seed)
            context.training_mode = mode
            return strategy.scores(model, context)

        np.testing.assert_array_equal(scores("warm"), scores("warm"))
        assert not np.array_equal(scores("warm"), scores("cold"))


class TestWarmHistoryStrategies:
    def test_wshs_runs_warm(self, text_dataset):
        result = run_to_completion(_engine(text_dataset, "warm", strategy=WSHS(Entropy(), window=2)))
        assert len(result.records) == KWARGS["rounds"] + 1

    def test_random_runs_warm(self, text_dataset):
        result = run_to_completion(_engine(text_dataset, "warm", strategy=Random()))
        assert len(result.records) == KWARGS["rounds"] + 1
