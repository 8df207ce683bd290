"""Session snapshots (v2) embed real component specs and verify them."""

import pytest

from repro.core.session import SNAPSHOT_VERSION, SessionEngine, run_to_completion
from repro.exceptions import SessionError
from repro.specs import build_model, build_strategy

MODEL_SPEC = {"kind": "linear", "params": {"epochs": 2, "seed": 0}}
STRATEGY_SPEC = {
    "kind": "wshs",
    "params": {"base": {"kind": "entropy", "params": {}}, "window": 2},
}


def _engine(text_dataset):
    return SessionEngine(
        build_model(MODEL_SPEC),
        build_strategy(STRATEGY_SPEC),
        text_dataset.subset(range(100)),
        text_dataset.subset(range(100, 150)),
        batch_size=4,
        rounds=2,
        initial_size=8,
        seed_or_rng=0,
    )


class TestSnapshotSpecs:
    def test_snapshot_embeds_component_specs(self, text_dataset):
        engine = _engine(text_dataset)
        run_to_completion(engine)
        config = engine.snapshot()["config"]
        assert engine.snapshot()["version"] == SNAPSHOT_VERSION == 4
        assert config["model"]["kind"] == "linear"
        assert config["model"]["params"]["epochs"] == 2
        assert config["strategy_spec"]["kind"] == "wshs"
        assert config["strategy_spec"]["params"]["base"]["kind"] == "entropy"

    def test_refit_specs_carry_model_spec(self, text_dataset):
        engine = _engine(text_dataset)
        engine.propose()  # bootstrap batch
        engine.ingest_labels(engine.pending)
        engine.propose()  # commit + first real training round
        refit = engine.snapshot()["model"]
        assert sorted(refit) == [
            "labeled", "model", "params", "seed", "training_mode", "warm",
        ]
        assert refit["model"]["kind"] == "linear"
        assert refit["model"]["params"]["epochs"] == 2
        assert refit["training_mode"] == "cold"
        assert refit["warm"] is False
        assert "W" in refit["params"]["arrays"]

    def test_restore_rejects_different_model_spec(self, text_dataset):
        engine = _engine(text_dataset)
        run_to_completion(engine)
        snapshot = engine.snapshot()
        with pytest.raises(SessionError, match="model spec"):
            SessionEngine.restore(
                snapshot,
                build_model({"kind": "linear", "params": {"epochs": 3, "seed": 0}}),
                build_strategy(STRATEGY_SPEC),
                text_dataset.subset(range(100)),
                text_dataset.subset(range(100, 150)),
            )

    def test_restore_rejects_different_strategy_spec(self, text_dataset):
        engine = _engine(text_dataset)
        run_to_completion(engine)
        snapshot = engine.snapshot()
        other = {
            "kind": "wshs",
            "params": {"base": {"kind": "entropy", "params": {}}, "window": 5},
        }
        with pytest.raises(SessionError, match="strategy spec"):
            SessionEngine.restore(
                snapshot,
                build_model(MODEL_SPEC),
                build_strategy(other),
                text_dataset.subset(range(100)),
                text_dataset.subset(range(100, 150)),
            )

    def test_undescribable_components_skip_spec_check(self, text_dataset):
        # Custom classes outside the registries fall back to the v1
        # name/shape fingerprint instead of failing.
        from repro.models import LinearSoftmax

        class CustomModel(LinearSoftmax):
            pass

        engine = SessionEngine(
            CustomModel(epochs=2, seed=0),
            build_strategy(STRATEGY_SPEC),
            text_dataset.subset(range(100)),
            text_dataset.subset(range(100, 150)),
            batch_size=4,
            rounds=2,
            initial_size=8,
            seed_or_rng=0,
        )
        run_to_completion(engine)
        snapshot = engine.snapshot()
        assert snapshot["config"]["model"] is None
        restored = SessionEngine.restore(
            snapshot,
            CustomModel(epochs=2, seed=0),
            build_strategy(STRATEGY_SPEC),
            text_dataset.subset(range(100)),
            text_dataset.subset(range(100, 150)),
        )
        assert restored.snapshot()["config"]["model"] is None
