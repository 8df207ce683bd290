"""Documents and artifacts written before the executor/backend knobs went.

Earlier versions wrote ``runner.n_jobs``, ``runner.start_method``,
``runner.queue_backend`` and ``experiment.history_backend`` into every
experiment document, and a ``history_backend`` field into checkpoints
and session snapshots.  The fixtures under ``fixtures/legacy`` were
written by such a version (see ``fixtures/legacy/generate.py``); each
must still load, resume, and reproduce the bytes of a fresh serial run.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.session import SessionEngine, run_to_completion
from repro.exceptions import QueueError, SpecError
from repro.experiments import run_comparison
from repro.experiments.checkpoint import CheckpointStore, result_to_dict
from repro.experiments.distributed import coordinate, open_queue, run_worker
from repro.experiments.runner import grid_repeat_seeds
from repro.specs import ExperimentSpec, build_model, build_strategy

LEGACY = Path(__file__).parent / "fixtures" / "legacy"

#: Each retired setting, a value it no longer accepts, and a word of the hint.
RETIRED = [
    ("runner", "n_jobs", 4, "local_workers"),
    ("runner", "start_method", "spawn", "repro worker"),
    ("runner", "queue_backend", "sqlite", "file-lease"),
    ("experiment", "history_backend", "shared", "process-local"),
]


def load(name: str) -> dict:
    return json.loads((LEGACY / name).read_text())


@pytest.fixture(scope="module")
def tiny():
    """``(spec, train, test, serial results)`` of the fixtures' grid."""
    spec = ExperimentSpec.from_file(LEGACY / "experiment_tiny.json")
    train, test, _task = spec.build_datasets()
    serial = run_comparison(
        spec.resolved_model(), spec.strategies, train, test, config=spec.config
    )
    return spec, train, test, serial


def digests(results) -> dict:
    return {
        name: [json.dumps(result_to_dict(run)) for run in result.runs]
        for name, result in results.items()
    }


def store_for(spec, directory) -> CheckpointStore:
    return CheckpointStore(
        directory,
        spec.config,
        model_spec=spec.resolved_model().to_dict(),
        strategy_specs={name: s.to_dict() for name, s in spec.strategies.items()},
    )


class TestExperimentDocuments:
    def test_config_show_defaults_still_load(self):
        document = load("experiment_defaults.json")
        assert document["runner"]["n_jobs"] == 1  # the fixture is legacy
        spec = ExperimentSpec.from_dict(document)
        written = spec.to_dict()
        for section, key, _value, _hint in RETIRED:
            assert key not in written[section]
        assert ExperimentSpec.from_dict(written).to_dict() == written

    @pytest.mark.parametrize("section,key,value,hint", RETIRED)
    def test_other_values_name_the_replacement(self, section, key, value, hint):
        document = load("experiment_defaults.json")
        document[section][key] = value
        with pytest.raises(SpecError, match=f"{section}.{key}") as error:
            ExperimentSpec.from_dict(document)
        assert hint in str(error.value)

    def test_constructor_rejects_retired_runner_values(self):
        document = load("experiment_defaults.json")
        spec = ExperimentSpec.from_dict(document)
        with pytest.raises(SpecError, match="queue_dir"):
            ExperimentSpec(
                dataset=spec.dataset, strategies=spec.strategies,
                runner={"n_jobs": 2},
            )


class TestCheckpointArtifacts:
    def test_cell_checkpoint_loads(self, tiny):
        spec, _train, _test, serial = tiny
        seed = int(grid_repeat_seeds(spec.config)[0])
        loaded = store_for(spec, LEGACY / "checkpoints").load("wshs:entropy", 0, seed)
        (expected,) = serial["wshs:entropy"].runs
        assert result_to_dict(loaded) == result_to_dict(expected)

    def test_grid_resumes_from_legacy_cell_and_round_snapshot(self, tiny, tmp_path):
        spec, train, test, serial = tiny
        checkpoints = tmp_path / "ckpt"
        shutil.copytree(LEGACY / "checkpoints", checkpoints)
        resumed = run_comparison(
            spec.resolved_model(), spec.strategies, train, test,
            config=spec.config, checkpoint_dir=str(checkpoints), resume=True,
        )
        assert digests(resumed) == digests(serial)
        assert list(checkpoints.glob("session_*.json")) == []
        # New writes no longer carry the retired field.
        written = json.loads(
            store_for(spec, checkpoints).cell_path("random", 0).read_text()
        )
        assert "history_backend" not in written

    def test_engine_snapshot_restores(self, tiny):
        spec, train, test, serial = tiny
        snapshot = load("session_snapshot.json")
        assert snapshot["config"]["history_backend"] == "local"
        engine = SessionEngine.restore(
            snapshot,
            build_model(spec.resolved_model().to_dict()),
            build_strategy(spec.strategies["wshs:entropy"].to_dict()),
            train,
            test,
        )
        assert "history_backend" not in engine.snapshot()["config"]
        (expected,) = serial["wshs:entropy"].runs
        assert result_to_dict(run_to_completion(engine)) == result_to_dict(expected)


class TestQueueArtifacts:
    def test_old_file_queue_resumes(self, tiny, tmp_path):
        _spec, _train, _test, serial = tiny
        queue_dir = tmp_path / "q"
        shutil.copytree(LEGACY / "file_queue", queue_dir)
        assert open_queue(queue_dir).counts()["done"] == 1
        summary = run_worker(queue_dir, owner="resumer", poll=0.05)
        assert summary["completed"] == 1  # only the cell left undone
        assert digests(coordinate(queue_dir, poll=0.05)) == digests(serial)

    def test_old_sqlite_queue_is_refused(self):
        with pytest.raises(QueueError, match="'sqlite'"):
            open_queue(LEGACY / "sqlite_queue")
