"""Golden digests of comparison-grid cells, under every executor mode.

Two tiny spec-described grids run serially and the ``result_to_dict``
of each (strategy, repeat) cell is hashed: a text grid (``linear``;
entropy, WSHS, FHS, HUS, LHS with a tiny saved ranker, QBC) and an NER
grid (``crf``; LC, WSHS(LC), BALD, MNLP), 2 repeats each.  Every other
way of running the same grid must reproduce those digests and write
byte-identical ``cell_*.json`` checkpoints:

* serial, with one injected failing attempt and one retry;
* serial, resumed after deleting half the cell files, with an in-flight
  ``session_*.json`` left in place;
* the lease queue, drained by an in-process worker, with one failing
  attempt;
* ``on_error="skip"`` with one cell that always fails: the other cells
  keep their digests and the failure records every attempt.

Failures are injected through :mod:`tests.faults`: a
:class:`~tests.faults.FaultSpec` fires from
:meth:`CheckpointStore.save_session` (after a committed round was
snapshotted, so a retry resumes mid-cell) or, on the queue, from a
:class:`~tests.faults.WorkerFault`.

Float bytes depend on BLAS summation order, so ``grids.json`` records
the numpy version it was generated with and the cases skip under any
other.  Regenerate the file only for a change that is meant to move
bytes::

    PYTHONPATH=src python -m tests.golden.test_grid_goldens --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.ranker_training import RankerTrainingConfig, train_lhs_ranker
from repro.core.session import result_to_dict
from repro.core.strategies import Entropy
from repro.exceptions import ExecutionError
from repro.experiments import (
    CheckpointStore,
    ExperimentConfig,
    coordinate,
    create_queue,
    run_comparison,
    run_worker,
)
from repro.models import LinearSoftmax
from repro.persistence import save_lhs_ranker
from repro.specs import ExperimentSpec, Spec
from repro.specs.strategies import parse_strategy_shorthand
from tests.faults import FaultSpec, InjectedFault, WorkerFault

GOLDEN_PATH = Path(__file__).with_name("grids.json")

#: grid -> (dataset kind, scale, model spec, strategy shorthands).
GRIDS = {
    "text": (
        "mr", 0.03,
        Spec(kind="linear", params={"epochs": 3, "batch_size": 16, "seed": 0}),
        ("entropy", "wshs:entropy", "fhs:entropy", "hus:entropy", "lhs:entropy",
         "qbc"),
    ),
    "ner": (
        "conll-en", 0.005,
        Spec(kind="crf", params={"epochs": 2, "seed": 0}),
        ("lc", "wshs:lc", "bald", "mnlp"),
    ),
}
SHAPE = dict(batch_size=5, rounds=3, repeats=2, seed=11)
WINDOW = 2


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _train_ranker(spec: ExperimentSpec, path: Path) -> None:
    """Train and save the tiny LHS ranker the text grid's ``lhs`` reads."""
    train, test, _ = spec.build_datasets()
    ranker = train_lhs_ranker(
        LinearSoftmax(epochs=3, seed=0),
        train,
        test,
        base=Entropy(),
        config=RankerTrainingConfig(
            rounds=2, candidates_per_round=4, initial_size=8, window=WINDOW,
            predictor="ar", predictor_rounds=3, eval_size=30,
        ),
        seed_or_rng=1,
    )
    save_lhs_ranker(ranker, path)


def _grid_spec(name: str, directory: Path) -> ExperimentSpec:
    kind, scale, model, shorthands = GRIDS[name]
    spec = ExperimentSpec(
        dataset=Spec(kind=kind, params={"scale": scale, "seed": 3}),
        split=Spec(kind="fraction", params={"test_fraction": 0.3}),
        model=model,
        strategies={"entropy": Spec(kind="entropy")},
        config=ExperimentConfig(**SHAPE),
    )
    ranker = directory / "ranker.json"
    if any(text.startswith("lhs:") for text in shorthands):
        _train_ranker(spec, ranker)
    spec.strategies = {
        text: parse_strategy_shorthand(text, WINDOW, str(ranker)) for text in shorthands
    }
    return spec


class Grid:
    """One built grid: its spec and datasets, run as often as a test likes."""

    def __init__(self, name: str, directory: Path) -> None:
        self.name = name
        self.spec = _grid_spec(name, directory)
        self.train, self.test, _ = self.spec.build_datasets()

    def cells(self) -> "list[tuple[str, int]]":
        return [
            (strategy, repeat)
            for strategy in self.spec.strategies
            for repeat in range(self.spec.config.repeats)
        ]

    def serial(self, checkpoint_dir=None, max_retries=0, **kwargs):
        return run_comparison(
            self.spec.resolved_model(),
            self.spec.strategies,
            self.train,
            self.test,
            config=self.spec.config,
            checkpoint_dir=checkpoint_dir,
            max_retries=max_retries,
            **kwargs,
        )

    def queue(self, directory: Path, max_retries=0):
        return create_queue(directory, self.spec, max_retries=max_retries)


def cell_digests(grid: Grid, results) -> dict:
    """``{"strategy/repeat": sha256}`` of every cell that succeeded."""
    digests = {}
    for name, result in results.items():
        failed = {failure.repeat for failure in result.failures}
        repeats = [r for r in range(grid.spec.config.repeats) if r not in failed]
        assert len(repeats) == len(result.runs)
        for repeat, run in zip(repeats, result.runs):
            digests[f"{name}/{repeat}"] = _digest(result_to_dict(run))
    return digests


def cell_files(directory: Path) -> "dict[str, bytes]":
    return {path.name: path.read_bytes() for path in sorted(directory.glob("cell_*.json"))}


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module", params=list(GRIDS))
def grid(request, tmp_path_factory):
    golden = _golden()
    if golden["numpy"] != np.__version__:
        pytest.skip(
            f"goldens were generated with numpy {golden['numpy']}, "
            f"this is numpy {np.__version__}"
        )
    return Grid(request.param, tmp_path_factory.mktemp(f"grid-{request.param}"))


@pytest.fixture(scope="module")
def reference(grid, tmp_path_factory):
    """``(digests, cell files)`` of a clean serial run with checkpoints."""
    directory = tmp_path_factory.mktemp(f"serial-{grid.name}")
    results = grid.serial(checkpoint_dir=directory)
    return cell_digests(grid, results), cell_files(directory)


def fail_on_session_save(monkeypatch, fault: FaultSpec, cell=None) -> None:
    """Make :meth:`CheckpointStore.save_session` fire ``fault`` after writing.

    With ``cell=None`` the fault counts every save and fires on its
    ``fail_on_call``-th; with ``cell=(strategy, repeat)`` it fires on
    every save of that cell, as far as the fault's budget allows.  The
    snapshot is on disk first, so a retried attempt resumes mid-cell.
    """
    original = CheckpointStore.save_session
    calls = [0]

    def save_session(store, strategy, repeat, seed, snapshot):
        path = original(store, strategy, repeat, seed, snapshot)
        if cell is None:
            calls[0] += 1
            fault.maybe_fire(calls[0])
        elif (strategy, repeat) == cell:
            fault.maybe_fire(fault.fail_on_call)
        return path

    monkeypatch.setattr(CheckpointStore, "save_session", save_session)


def test_serial_matches_golden(grid, reference):
    digests, files = reference
    assert digests == _golden()["digests"][grid.name]
    assert len(files) == len(grid.cells())


def test_serial_retry_matches_golden(grid, reference, tmp_path, monkeypatch):
    fault = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=1, times=1)
    fail_on_session_save(monkeypatch, fault)
    results = grid.serial(checkpoint_dir=tmp_path / "ckpt", max_retries=1)
    assert not fault.claim()  # the injected failure did fire
    assert cell_digests(grid, results) == reference[0]
    assert cell_files(tmp_path / "ckpt") == reference[1]
    assert not list((tmp_path / "ckpt").glob("session_*.json"))


def test_serial_resume_matches_golden(grid, reference, tmp_path, monkeypatch):
    directory = tmp_path / "ckpt"
    directory.mkdir()
    for name, payload in reference[1].items():
        (directory / name).write_bytes(payload)
    deleted = sorted(directory.glob("cell_*.json"))[::2]
    for path in deleted:
        path.unlink()
    # The first recomputed cell dies after its first committed round,
    # leaving its session snapshot behind.
    with monkeypatch.context() as patch:
        fault = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=1, times=1)
        fail_on_session_save(patch, fault)
        with pytest.raises(ExecutionError, match="failed after 1 attempt"):
            grid.serial(checkpoint_dir=directory, resume=True)
    assert len(list(directory.glob("session_*.json"))) == 1
    results = grid.serial(checkpoint_dir=directory, resume=True)
    assert cell_digests(grid, results) == reference[0]
    assert cell_files(directory) == reference[1]
    assert not list(directory.glob("session_*.json"))


def test_queue_worker_matches_golden(grid, reference, tmp_path):
    queue = grid.queue(tmp_path / "q", max_retries=1)
    fault = WorkerFault(
        "claimed", FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=1)
    )
    summary = run_worker(tmp_path / "q", owner="w", poll=0.01, on_event=fault)
    assert summary["failed"] == 1
    assert summary["completed"] == len(grid.cells())
    results = coordinate(tmp_path / "q", poll=0.01)
    assert cell_digests(grid, results) == reference[0]
    assert cell_files(queue.checkpoint_directory) == reference[1]


def test_skip_keeps_other_digests(grid, reference, tmp_path, monkeypatch):
    target = grid.cells()[-1]
    fault = FaultSpec(token_dir=tmp_path / "tokens", times=None)
    fail_on_session_save(monkeypatch, fault, cell=target)
    results = grid.serial(
        checkpoint_dir=tmp_path / "ckpt", max_retries=1, on_error="skip"
    )
    failures = [failure for result in results.values() for failure in result.failures]
    assert len(failures) == 1
    (failure,) = failures
    assert (failure.strategy, failure.repeat) == target
    assert failure.attempts == 2  # max_retries + 1
    assert InjectedFault.__name__ in failure.error
    expected = dict(reference[0])
    del expected[f"{target[0]}/{target[1]}"]
    assert cell_digests(grid, results) == expected
    files = dict(reference[1])
    assert len(files) - len(cell_files(tmp_path / "ckpt")) == 1
    for name, payload in cell_files(tmp_path / "ckpt").items():
        assert payload == files[name]


def main(argv: "list[str]") -> int:
    if argv != ["--write"]:
        print(f"usage: python -m {__spec__.name} --write", file=sys.stderr)
        return 2
    digests = {}
    for name in GRIDS:
        with tempfile.TemporaryDirectory() as directory:
            grid = Grid(name, Path(directory))
            digests[name] = cell_digests(grid, grid.serial())
    document = {"numpy": np.__version__, "digests": digests}
    GOLDEN_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} cell digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
