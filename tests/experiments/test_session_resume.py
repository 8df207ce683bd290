"""Round-level (mid-cell) resume tests for the comparison runner.

Completed-cell checkpoints already make a restarted grid skip finished
cells; these tests cover the finer-grained layer this module gained with
the session engine: an *in-flight* cell snapshots its session after
every committed round, so a crash inside a cell — or a retried failing
cell — resumes from the last finished round instead of round zero, with
byte-identical results.
"""

import json

import pytest

from repro.exceptions import CheckpointError, ExecutionError
from repro.experiments import CheckpointStore, ExperimentConfig
from tests.faults import FaultInjectingModel, FaultSpec

from .test_checkpoint import (
    CONFIG_KWARGS,
    assert_results_identical,
    compare,
    plain_model,
)

#: rounds + 1 retrains per completed cell; 2 strategies x 2 repeats = 4 cells.
FITS_PER_CELL = CONFIG_KWARGS["rounds"] + 1
TOTAL_CELLS = 2 * CONFIG_KWARGS["repeats"]
NEVER = 10**9  # a fail_on_call that never matches: pure fit counting


def counting_model_factory(counter, spec=None, token_dir=None):
    """A model factory whose fits are counted (and optionally faulted)."""
    spec = spec or FaultSpec(token_dir=token_dir, fail_on_call=NEVER, times=None)
    return lambda: FaultInjectingModel(plain_model(), spec, counter)


class TestMidCellResume:
    def test_crash_inside_cell_resumes_from_round_snapshot(
        self, text_dataset, tmp_path
    ):
        clean = compare(text_dataset)
        checkpoints = tmp_path / "ckpt"
        # One shared fit counter: call 2 is the second retrain of the
        # first cell, i.e. the crash lands after round 0 committed (and
        # was snapshotted) but before round 1 finished.
        spec = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=2, times=1)
        with pytest.raises(ExecutionError):
            compare(
                text_dataset,
                model_factory=counting_model_factory([0], spec=spec),
                checkpoint_dir=str(checkpoints),
            )
        assert list(checkpoints.glob("session_*.json")), (
            "the crashed cell should have left a round-level snapshot"
        )

        counter = [0]
        resumed = compare(
            text_dataset,
            model_factory=counting_model_factory(counter, token_dir=tmp_path / "t2"),
            checkpoint_dir=str(checkpoints),
            resume=True,
        )
        assert_results_identical(clean, resumed)
        # The interrupted cell restarts at round 1 (2 remaining fits, not
        # 3); the other cells run in full.
        assert counter[0] == 2 + (TOTAL_CELLS - 1) * FITS_PER_CELL
        # Every snapshot is discarded once its cell completes.
        assert list(checkpoints.glob("session_*.json")) == []
        assert len(list(checkpoints.glob("cell_*.json"))) == TOTAL_CELLS

    def test_retry_resumes_mid_cell(self, text_dataset, tmp_path):
        clean = compare(text_dataset)
        counter = [0]
        spec = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=2, times=1)
        retried = compare(
            text_dataset,
            model_factory=counting_model_factory(counter, spec=spec),
            checkpoint_dir=str(tmp_path / "ckpt"),
            max_retries=1,
        )
        assert_results_identical(clean, retried)
        # Attempt 1 spends 2 fits and dies in round 1; the retry resumes
        # from the round-0 snapshot (2 more fits) instead of refitting
        # all 3 rounds from scratch.
        assert counter[0] == 2 + 2 + (TOTAL_CELLS - 1) * FITS_PER_CELL

    def test_resume_false_discards_stale_sessions(self, text_dataset, tmp_path):
        checkpoints = tmp_path / "ckpt"
        spec = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=2, times=1)
        with pytest.raises(ExecutionError):
            compare(
                text_dataset,
                model_factory=counting_model_factory([0], spec=spec),
                checkpoint_dir=str(checkpoints),
            )
        assert list(checkpoints.glob("session_*.json"))
        counter = [0]
        fresh = compare(
            text_dataset,
            model_factory=counting_model_factory(counter, token_dir=tmp_path / "t2"),
            checkpoint_dir=str(checkpoints),
            resume=False,
        )
        # Every cell recomputed in full: the stale snapshot was dropped.
        assert counter[0] == TOTAL_CELLS * FITS_PER_CELL
        assert_results_identical(compare(text_dataset), fresh)


class TestSessionSnapshotStore:
    def test_stale_fingerprint_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        store.save_session("wshs:entropy", 0, 123, {"state": "train"})
        other = CheckpointStore(
            tmp_path, ExperimentConfig(**dict(CONFIG_KWARGS, batch_size=16))
        )
        with pytest.raises(CheckpointError, match="stale session snapshot"):
            other.load_session("wshs:entropy", 0, 123)

    def test_snapshot_file_is_plain_json_dumps(self, tmp_path):
        # The bytes every earlier version wrote: json.dumps, default
        # separators, nothing else.
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        path = store.save_session("s", 1, 9, {"state": "train", "round_index": 2})
        assert path == store.session_path("s", 1)
        assert path.name.startswith("session_")
        payload = json.loads(path.read_text())
        assert payload["session"] == {"state": "train", "round_index": 2}
        assert path.read_text() == json.dumps(payload)

    def test_roundtrip_and_discard(self, tmp_path):
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        assert store.load_session("s", 1, 9) is None
        store.save_session("s", 1, 9, {"state": "train", "round_index": 2})
        assert store.load_session("s", 1, 9) == {"state": "train", "round_index": 2}
        store.discard_session("s", 1)
        assert store.load_session("s", 1, 9) is None
        store.discard_session("s", 1)  # idempotent

    def test_corrupt_session_file_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        store.session_path("s", 0).write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt session snapshot"):
            store.load_session("s", 0, 9)
