"""Tests for the re-entrant session engine.

The engine's central promise is *byte-identical equivalence*: the
step-driven state machine — including snapshot/restore at every phase
boundary — must reproduce exactly what the historical monolithic loop
computed.  ``_reference_run`` below is that monolith's body, kept
verbatim as an oracle (the repo's convention for hot-path rewrites).
"""

import json

import numpy as np
import pytest

from repro.core.history import HistoryStore
from repro.core.pool import Pool
from repro.core.prediction_cache import PredictionCache
from repro.core.ranker_training import RankerTrainingConfig, train_lhs_ranker
from repro.core.session import (
    ALResult,
    RoundRecord,
    SessionEngine,
    SessionState,
    run_to_completion,
)
from repro.core.strategies import Entropy, LHS, LeastConfidence, WSHS
from repro.core.strategies.base import SelectionContext
from repro.core.events import EventLog, SessionObserver
from repro.eval.metrics import evaluate_model
from repro.exceptions import IngestError, SessionError
from repro.models.crf import LinearChainCRF
from repro.models.linear import LinearSoftmax
from repro.rng import ensure_rng

LOOP_KWARGS = dict(batch_size=10, rounds=2, seed_or_rng=11)


def _reference_run(
    model_prototype,
    strategy,
    train_dataset,
    test_dataset,
    batch_size,
    rounds,
    initial_size=None,
    seed_or_rng=None,
) -> ALResult:
    """The pre-engine monolithic loop body, preserved as an oracle."""
    rng = ensure_rng(seed_or_rng)
    initial_size = batch_size if initial_size is None else initial_size
    keep_models = int(strategy.requires_model_history)
    n = len(train_dataset)
    initial = rng.choice(n, size=initial_size, replace=False)
    pool = Pool(n, initial_labeled=initial)
    history = HistoryStore(n, strategy_name=strategy.name)
    model_history: list = []
    records: list[RoundRecord] = []
    selection_order: list[np.ndarray] = []
    model = None
    cache = PredictionCache()

    for round_index in range(rounds + 1):
        cache.clear()
        model = model_prototype.clone()
        if hasattr(model, "seed"):
            model.seed = int(rng.integers(2**31))
        model = model.fit(train_dataset.subset(pool.labeled_indices))
        metric_value = evaluate_model(model, test_dataset, cache=cache)
        if keep_models:
            model_history.append(model)
            del model_history[:-keep_models]
        if round_index == rounds or pool.num_unlabeled < batch_size:
            records.append(
                RoundRecord(
                    round_index=round_index,
                    labeled_count=pool.num_labeled,
                    metric=metric_value,
                    selected=np.empty(0, dtype=np.int64),
                    selected_scores=np.empty(0),
                )
            )
            break
        context = SelectionContext(
            dataset=train_dataset,
            unlabeled=pool.unlabeled_indices,
            labeled=pool.labeled_indices,
            history=history,
            round_index=round_index + 1,
            rng=rng,
            model_history=list(model_history),
            cache=cache,
        )
        selected = strategy.select(model, context, batch_size)
        score_vector = history.current_scores(selected)
        records.append(
            RoundRecord(
                round_index=round_index,
                labeled_count=pool.num_labeled,
                metric=metric_value,
                selected=selected,
                selected_scores=score_vector,
            )
        )
        selection_order.append(selected)
        pool.label(selected)

    return ALResult(
        strategy_name=strategy.name,
        records=records,
        history=history,
        final_model=model,
        selection_order=selection_order,
    )


def assert_result_identical(a: ALResult, b: ALResult) -> None:
    """Byte-level equality of two single-run results."""
    assert a.strategy_name == b.strategy_name
    assert len(a.records) == len(b.records)
    for rec_a, rec_b in zip(a.records, b.records):
        assert rec_a.round_index == rec_b.round_index
        assert rec_a.labeled_count == rec_b.labeled_count
        assert rec_a.metric == rec_b.metric
        assert rec_a.selected.tobytes() == rec_b.selected.tobytes()
        assert np.array_equal(
            rec_a.selected_scores, rec_b.selected_scores, equal_nan=True
        )
    assert len(a.selection_order) == len(b.selection_order)
    for sel_a, sel_b in zip(a.selection_order, b.selection_order):
        assert sel_a.tobytes() == sel_b.tobytes()
    assert a.history.n_samples == b.history.n_samples
    assert a.history.rounds == b.history.rounds
    everything = np.arange(a.history.n_samples)
    assert (
        a.history.sequence_matrix(everything).tobytes()
        == b.history.sequence_matrix(everything).tobytes()
    )


@pytest.fixture(scope="module")
def session_ranker(text_dataset):
    """A tiny trained LHS ranker for the equivalence matrix."""
    return train_lhs_ranker(
        LinearSoftmax(epochs=4, seed=0),
        text_dataset.subset(range(250)),
        text_dataset.subset(range(250, 350)),
        base=Entropy(),
        config=RankerTrainingConfig(
            rounds=2,
            candidates_per_round=6,
            initial_size=15,
            add_per_round=2,
            window=2,
            predictor="ar",
            predictor_rounds=3,
            eval_size=80,
        ),
        seed_or_rng=5,
    )


def _strategy_factories(session_ranker):
    return {
        "entropy": lambda: Entropy(),
        "wshs": lambda: WSHS(Entropy(), window=2),
        "lhs": lambda: LHS(Entropy(), session_ranker),
    }


def _splits(text_dataset):
    return text_dataset.subset(range(150)), text_dataset.subset(range(150, 200))


class TestEngineEquivalence:
    @pytest.mark.parametrize("key", ["entropy", "wshs", "lhs"])
    def test_loop_matches_reference(self, text_dataset, session_ranker, key):
        factory = _strategy_factories(session_ranker)[key]
        train, test = _splits(text_dataset)
        expected = _reference_run(
            LinearSoftmax(epochs=3, seed=0), factory(), train, test, **LOOP_KWARGS
        )
        actual = run_to_completion(SessionEngine(
            LinearSoftmax(epochs=3, seed=0), factory(), train, test, **LOOP_KWARGS
        ))
        assert_result_identical(expected, actual)

    @pytest.mark.parametrize("key", ["entropy", "wshs", "lhs"])
    def test_step_driven_session_matches_reference(
        self, text_dataset, session_ranker, key
    ):
        factory = _strategy_factories(session_ranker)[key]
        train, test = _splits(text_dataset)
        expected = _reference_run(
            LinearSoftmax(epochs=3, seed=0), factory(), train, test, **LOOP_KWARGS
        )
        engine = SessionEngine(
            LinearSoftmax(epochs=3, seed=0), factory(), train, test, **LOOP_KWARGS
        )
        # Drive one phase at a time, never using the propose() shortcut.
        while engine.state is not SessionState.FINISHED:
            if engine.state is SessionState.AWAIT_LABELS:
                engine.ingest_labels(engine.pending)
            else:
                engine.step()
        assert_result_identical(expected, engine.result())

    def test_repeated_runs_continue_one_rng_stream(self, text_dataset):
        """Two engines sharing one generator never repeat the first run's draws."""
        train, test = _splits(text_dataset)
        kwargs = {**LOOP_KWARGS, "seed_or_rng": ensure_rng(LOOP_KWARGS["seed_or_rng"])}
        first, second = (
            run_to_completion(SessionEngine(
                LinearSoftmax(epochs=3, seed=0), Entropy(), train, test, **kwargs
            ))
            for _ in range(2)
        )
        assert (
            first.records[0].selected.tobytes()
            != second.records[0].selected.tobytes()
            or first.selection_order[0].tobytes()
            != second.selection_order[0].tobytes()
        )


class TestSnapshotRestore:
    def _components(self, text_dataset, session_ranker, key):
        train, test = _splits(text_dataset)
        factory = _strategy_factories(session_ranker)[key]
        return train, test, factory

    def _fresh_engine(self, text_dataset, session_ranker, key):
        train, test, factory = self._components(text_dataset, session_ranker, key)
        return SessionEngine(
            LinearSoftmax(epochs=3, seed=0), factory(), train, test, **LOOP_KWARGS
        )

    @staticmethod
    def _advance(engine) -> bool:
        """One phase transition; False once the session is finished."""
        if engine.state is SessionState.FINISHED:
            return False
        if engine.state is SessionState.AWAIT_LABELS:
            engine.ingest_labels(engine.pending)
        else:
            engine.step()
        return True

    @pytest.mark.parametrize("key", ["wshs", "lhs"])
    def test_restore_at_every_boundary_is_byte_identical(
        self, text_dataset, session_ranker, key
    ):
        train, test, factory = self._components(text_dataset, session_ranker, key)
        baseline = self._fresh_engine(text_dataset, session_ranker, key)
        boundaries = 0
        while self._advance(baseline):
            boundaries += 1
        expected = baseline.result()

        for stop_after in range(boundaries):
            engine = self._fresh_engine(text_dataset, session_ranker, key)
            for _ in range(stop_after):
                self._advance(engine)
            # Round-trip through actual JSON text: the snapshot must be
            # serialisable and survive the parse, like the on-disk files.
            payload = json.loads(json.dumps(engine.snapshot()))
            resumed = SessionEngine.restore(
                payload,
                LinearSoftmax(epochs=3, seed=0),
                factory(),
                train,
                test,
            )
            assert resumed.state is engine.state
            while self._advance(resumed):
                pass
            assert_result_identical(expected, resumed.result())

    def test_restore_between_propose_and_ingest(self, text_dataset, session_ranker):
        train, test, factory = self._components(text_dataset, session_ranker, "wshs")
        baseline = self._fresh_engine(text_dataset, session_ranker, "wshs")
        expected = run_to_completion(baseline)

        engine = self._fresh_engine(text_dataset, session_ranker, "wshs")
        pending = engine.propose()  # bootstrap
        engine.ingest_labels(pending)
        pending = engine.propose()  # first strategy-selected batch
        assert engine.state is SessionState.AWAIT_LABELS
        resumed = SessionEngine.restore(
            json.loads(json.dumps(engine.snapshot())),
            LinearSoftmax(epochs=3, seed=0),
            factory(),
            train,
            test,
        )
        assert resumed.pending.tobytes() == pending.tobytes()
        resumed.ingest_labels(resumed.pending)
        assert_result_identical(expected, run_to_completion(resumed))

    def test_restore_rejects_mismatched_components(
        self, text_dataset, session_ranker
    ):
        train, test, factory = self._components(text_dataset, session_ranker, "wshs")
        engine = self._fresh_engine(text_dataset, session_ranker, "wshs")
        engine.propose()
        snapshot = engine.snapshot()
        prototype = LinearSoftmax(epochs=3, seed=0)
        with pytest.raises(SessionError, match="strategy"):
            SessionEngine.restore(snapshot, prototype, Entropy(), train, test)
        with pytest.raises(SessionError, match="train size"):
            SessionEngine.restore(
                snapshot, prototype, factory(), train.subset(range(100)), test
            )
        for version in (2, 99):
            with pytest.raises(SessionError, match=r"version .*\(expected 3 or 4\)"):
                SessionEngine.restore(
                    dict(snapshot, version=version), prototype, factory(), train, test
                )
        with pytest.raises(SessionError, match="snapshot"):
            SessionEngine.restore({"format": "bogus"}, prototype, factory(), train, test)

    @pytest.mark.parametrize(
        "key, value", [("reseed_model", False), ("history_limit", 2), ("default_metric", False)]
    )
    def test_restore_refuses_retired_option_values(
        self, text_dataset, session_ranker, key, value
    ):
        """The retired options' snapshot keys hold only their kept value."""
        train, test, factory = self._components(text_dataset, session_ranker, "wshs")
        snapshot = self._fresh_engine(text_dataset, session_ranker, "wshs").snapshot()
        snapshot["config"][key] = value
        with pytest.raises(SessionError, match=f"config.{key} must be"):
            SessionEngine.restore(
                snapshot, LinearSoftmax(epochs=3, seed=0), factory(), train, test
            )

    def test_external_labels_survive_restore(self, text_dataset):
        """Annotator-supplied labels are replayed into a rebuilt dataset."""
        test = text_dataset.subset(range(150, 200))

        def fresh_train():
            # subset() copies, so each call models "reload from disk".
            return text_dataset.subset(range(150))

        train = fresh_train()
        engine = SessionEngine(
            LinearSoftmax(epochs=3, seed=0), Entropy(), train, test, **LOOP_KWARGS
        )
        pending = engine.propose()
        flipped = [
            int(1 - train.labels[index]) for index in pending.tolist()
        ]
        engine.ingest_labels(pending, flipped)
        rebuilt = fresh_train()
        resumed = SessionEngine.restore(
            json.loads(json.dumps(engine.snapshot())),
            LinearSoftmax(epochs=3, seed=0),
            Entropy(),
            rebuilt,
            test,
        )
        assert rebuilt.labels[pending].tolist() == flipped
        expected = run_to_completion(engine)
        assert_result_identical(expected, run_to_completion(resumed))


#: Malformed tag-sequence labels for one sentence of ``length`` tokens:
#: each is an ``IngestError`` naming the sample, and nothing is written.
MALFORMED_TAGS = {
    "float-tags": lambda length: [0.5] * length,
    "bool-tags": lambda length: [True] * length,
    "string-label": lambda length: "x",
    "string-tags": lambda length: ["B-PER"] * length,
    "dict-label": lambda length: {"tags": [0] * length},
    "null-label": lambda length: None,
}


def _awaiting_tagger(ner_dataset):
    """A CRF session awaiting labels for its bootstrap batch."""
    engine = SessionEngine(
        LinearChainCRF(epochs=2, seed=0),
        LeastConfidence(),
        ner_dataset.subset(range(150)),
        ner_dataset.subset(range(150, 200)),
        batch_size=4,
        rounds=2,
        seed_or_rng=11,
    )
    return engine, engine.propose()


class TestIngestValidation:
    def _awaiting_engine(self, text_dataset, advance_rounds=0):
        train, test = _splits(text_dataset)
        engine = SessionEngine(
            LinearSoftmax(epochs=3, seed=0), Entropy(), train, test, **LOOP_KWARGS
        )
        pending = engine.propose()
        for _ in range(advance_rounds):
            engine.ingest_labels(pending)
            pending = engine.propose()
        return engine, pending

    def test_length_mismatch(self, text_dataset):
        engine, pending = self._awaiting_engine(text_dataset)
        with pytest.raises(IngestError, match="10 samples but 3"):
            engine.ingest_labels(pending[:3])

    def test_never_proposed_index(self, text_dataset):
        engine, pending = self._awaiting_engine(text_dataset)
        outsider = next(
            index for index in range(len(engine.train_dataset))
            if index not in set(pending.tolist())
        )
        tampered = pending.copy()
        tampered[0] = outsider
        with pytest.raises(IngestError, match="never proposed"):
            engine.ingest_labels(tampered)

    def test_already_labeled_index(self, text_dataset):
        engine, first = self._awaiting_engine(text_dataset)
        engine.ingest_labels(first)
        second = engine.propose()
        tampered = second.copy()
        tampered[0] = first[0]  # labeled in the bootstrap round
        with pytest.raises(IngestError, match="already labeled"):
            engine.ingest_labels(tampered)

    def test_duplicate_indices(self, text_dataset):
        engine, pending = self._awaiting_engine(text_dataset)
        tampered = pending.copy()
        tampered[0] = tampered[1]
        with pytest.raises(IngestError, match="duplicate"):
            engine.ingest_labels(tampered)

    def test_labels_length_mismatch(self, text_dataset):
        engine, pending = self._awaiting_engine(text_dataset)
        with pytest.raises(IngestError, match="labels"):
            engine.ingest_labels(pending, [0] * (len(pending) - 1))

    def test_invalid_class_id(self, text_dataset):
        engine, pending = self._awaiting_engine(text_dataset)
        bad = [0] * len(pending)
        bad[-1] = engine.train_dataset.num_classes
        with pytest.raises(IngestError, match="out of range"):
            engine.ingest_labels(pending, bad)
        with pytest.raises(IngestError, match="class id"):
            engine.ingest_labels(pending, ["positive"] * len(pending))

    def test_failed_ingest_changes_nothing(self, text_dataset):
        engine, pending = self._awaiting_engine(text_dataset)
        before = engine.train_dataset.labels.copy()
        bad = [0] * len(pending)
        bad[-1] = 99
        with pytest.raises(IngestError):
            engine.ingest_labels(pending, bad)
        assert engine.state is SessionState.AWAIT_LABELS
        assert engine.train_dataset.labels.tolist() == before.tolist()
        engine.ingest_labels(pending)  # still usable afterwards

    @pytest.mark.parametrize("case", list(MALFORMED_TAGS))
    def test_sequence_label_must_be_tag_ids(self, ner_dataset, case):
        engine, pending = _awaiting_tagger(ner_dataset)
        before = [tags.tolist() for tags in engine.train_dataset.tag_sequences]
        labels = [
            [0] * len(engine.train_dataset.sentences[index]) for index in pending
        ]
        labels[0] = MALFORMED_TAGS[case](len(labels[0]))
        with pytest.raises(IngestError, match=f"sample {pending[0]}: "):
            engine.ingest_labels(pending, labels)
        assert engine.state is SessionState.AWAIT_LABELS
        after = [tags.tolist() for tags in engine.train_dataset.tag_sequences]
        assert after == before

    def test_tag_id_lists_commit(self, ner_dataset):
        engine, pending = _awaiting_tagger(ner_dataset)
        num_tags = engine.train_dataset.num_tags
        labels = [
            [(index + position) % num_tags
             for position in range(len(engine.train_dataset.sentences[index]))]
            for index in pending.tolist()
        ]
        engine.ingest_labels(pending, labels)
        for index, tags in zip(pending.tolist(), labels):
            assert engine.train_dataset.tag_sequences[index].tolist() == tags
        assert engine.propose() is not None

    def test_wrong_state_errors(self, text_dataset):
        train, test = _splits(text_dataset)
        engine = SessionEngine(
            LinearSoftmax(epochs=3, seed=0), Entropy(), train, test, **LOOP_KWARGS
        )
        with pytest.raises(SessionError, match="no proposal"):
            engine.ingest_labels([0])
        with pytest.raises(SessionError, match="not finished"):
            engine.result()
        pending = engine.propose()
        with pytest.raises(SessionError, match="awaiting labels"):
            engine.step()
        engine.ingest_labels(pending)
        result = run_to_completion(engine)
        with pytest.raises(SessionError, match="finished"):
            engine.step()
        assert result.records


class TestEvents:
    def test_lifecycle_order(self, text_dataset):
        train, test = _splits(text_dataset)
        log = EventLog()
        run_to_completion(SessionEngine(
            LinearSoftmax(epochs=3, seed=0),
            WSHS(Entropy(), window=2),
            train,
            test,
            batch_size=10,
            rounds=2,
            seed_or_rng=11,
            observers=[log],
        ))
        expected = [("batch_selected", 0), ("round_committed", 0)]
        for r in range(2):
            expected += [
                ("round_started", r),
                ("model_trained", r),
                ("scores_computed", r),
                ("batch_selected", r),
                ("round_committed", r),
            ]
        expected += [
            ("round_started", 2),
            ("model_trained", 2),
            ("session_finished", 3),
        ]
        assert log.events == expected

    def test_observer_exception_aborts_step(self, text_dataset):
        train, test = _splits(text_dataset)

        class Exploding(SessionObserver):
            def model_trained(self, round_index, model, metric):
                raise RuntimeError("exporter disk full")

        engine = SessionEngine(
            LinearSoftmax(epochs=3, seed=0),
            Entropy(),
            train,
            test,
            observers=[Exploding()],
            **LOOP_KWARGS,
        )
        engine.ingest_labels(engine.propose())
        with pytest.raises(RuntimeError, match="disk full"):
            engine.propose()  # commits, trains, evaluates -> observer fires
