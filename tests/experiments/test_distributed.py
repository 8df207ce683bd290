"""Crash-equivalence tests for the broker-less distributed grid.

The distributed module promises that any worker census — workers joining
late, dying by SIGKILL between any two protocol steps, racing each other
for cells, or running on skewed clocks — produces checkpoints
byte-identical to a serial :func:`run_comparison` of the same spec.
Every scenario here is injected deterministically through
:mod:`tests.faults` (one-shot ``O_EXCL`` fault budgets, lifecycle-event
hooks), so the whole matrix runs in CI without flakiness.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, ExecutionError, QueueError
from repro.experiments import ExperimentConfig, run_comparison
from repro.experiments.checkpoint import cell_stem
from repro.experiments.distributed import (
    collect_results,
    coordinate,
    create_queue,
    open_queue,
    run_distributed,
    run_worker,
)
from repro.specs import ExperimentSpec, Spec
from tests.faults import FaultSpec, WorkerFault

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-crash tests fork real worker processes",
)

#: Keep every grid tiny: 2 strategies x 2 repeats, 2 rounds of 10.
GRID_KWARGS = dict(batch_size=10, rounds=2, repeats=2, seed=9)


def make_spec() -> ExperimentSpec:
    return ExperimentSpec(
        dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 7}),
        split=Spec(kind="fraction", params={"test_fraction": 0.3}),
        model=Spec(kind="linear", params={"epochs": 2, "batch_size": 32, "seed": 0}),
        strategies={"random": Spec(kind="random"), "entropy": Spec(kind="entropy")},
        config=ExperimentConfig(**GRID_KWARGS),
    )


@pytest.fixture(scope="module")
def grid_spec():
    return make_spec()


@pytest.fixture(scope="module")
def serial_reference(grid_spec, tmp_path_factory):
    """``(results, checkpoint_dir)`` of a serial run — the ground truth."""
    directory = tmp_path_factory.mktemp("serial-ref")
    train, test, _ = grid_spec.build_datasets()
    results = run_comparison(
        grid_spec.resolved_model(),
        grid_spec.strategies,
        train,
        test,
        config=grid_spec.config,
        checkpoint_dir=directory,
    )
    return results, directory


def assert_checkpoints_byte_identical(distributed_dir: Path, serial_dir: Path):
    distributed = sorted(Path(distributed_dir).glob("cell_*.json"))
    serial = sorted(Path(serial_dir).glob("cell_*.json"))
    assert [p.name for p in distributed] == [p.name for p in serial]
    for dist_file, serial_file in zip(distributed, serial):
        assert dist_file.read_bytes() == serial_file.read_bytes(), dist_file.name


def assert_results_match(actual, expected):
    assert set(actual) == set(expected)
    for name in expected:
        assert actual[name].curve.values.tobytes() == (
            expected[name].curve.values.tobytes()
        )
        assert actual[name].std.tobytes() == expected[name].std.tobytes()


def audit_events(queue, event: str) -> list[dict]:
    return [record for record in queue.read_audit() if record["event"] == event]


def set_envelope_backend(queue, backend: str) -> None:
    path = queue.directory / "queue.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "backend": backend}))


#: Damage to a queue envelope -> the field its one error line names.
BROKEN_ENVELOPES = {
    "no-lease": (lambda e: e.pop("lease"), "lease.ttl must be a number > 0, got None"),
    "string-ttl": (
        lambda e: e["lease"].update(ttl="30"), "lease.ttl must be a number > 0, got '30'"
    ),
    "no-retry": (
        lambda e: e.pop("retry"), "retry.max_attempts must be an int >= 1, got None"
    ),
    "no-cells": (
        lambda e: e.pop("cells"), "cells must be a list of cell tickets, got None"
    ),
    "list-experiment": (
        lambda e: e.update(experiment=[]), "experiment must be an object, got []"
    ),
    "string-checkpoint-dir": (
        lambda e: e.update(checkpoint_dir=7), "checkpoint_dir must be a string, got 7"
    ),
    "bad-ticket": (
        lambda e: e.update(cells=[{"cell_id": "x"}]), "malformed cell ticket: KeyError"
    ),
}


# -- worker crash entry points (module-level: fork targets) ------------------


def _crashing_worker(queue_dir, token_dir, event):
    """A worker that SIGKILLs itself (``os._exit``) at a lifecycle event."""
    fault = WorkerFault(
        event, FaultSpec(token_dir=Path(token_dir), fail_on_call=1,
                         mode="exit", times=1)
    )
    run_worker(queue_dir, owner="victim", poll=0.05, on_event=fault)


def _plain_worker(queue_dir, owner):
    run_worker(queue_dir, owner=owner, poll=0.05)


def fork_process(target, *args):
    process = multiprocessing.get_context("fork").Process(
        target=target, args=args, daemon=True
    )
    process.start()
    return process


# -- queue mechanics ---------------------------------------------------------


class TestQueueMaterialization:
    def test_envelope_and_tickets(self, grid_spec, tmp_path):
        queue = create_queue(tmp_path / "q", grid_spec)
        assert len(queue.tickets) == 4
        # Matched seeds: repetition r of every strategy shares seed r.
        seeds = {}
        for ticket in queue.tickets:
            seeds.setdefault(ticket.repeat, set()).add(ticket.seed)
        assert all(len(values) == 1 for values in seeds.values())
        # The envelope is all a worker reads: no per-cell documents.
        envelope = json.loads((tmp_path / "q" / "queue.json").read_text())
        assert envelope["lease"] == {"ttl": 30.0}
        assert envelope["retry"] == {"max_attempts": 1}
        assert envelope["experiment"]["dataset"] == grid_spec.dataset.to_dict()
        assert not (tmp_path / "q" / "cells").exists()

    def test_cell_ids_match_checkpoint_stems(self, grid_spec, tmp_path):
        queue = create_queue(tmp_path / "q", grid_spec)
        assert {t.cell_id for t in queue.tickets} == {
            cell_stem(name, repeat)
            for name in grid_spec.strategies
            for repeat in range(grid_spec.config.repeats)
        }

    def test_rematerializing_same_experiment_reopens(self, grid_spec, tmp_path):
        create_queue(tmp_path / "q", grid_spec)
        queue = create_queue(tmp_path / "q", grid_spec)
        assert len(queue.tickets) == 4

    def test_rematerializing_different_experiment_raises(self, grid_spec, tmp_path):
        create_queue(tmp_path / "q", grid_spec)
        other = make_spec()
        other.config = ExperimentConfig(**{**GRID_KWARGS, "seed": 10})
        with pytest.raises(QueueError, match="different experiment"):
            create_queue(tmp_path / "q", other)

    def test_runner_options_do_not_change_queue_identity(self, grid_spec, tmp_path):
        create_queue(tmp_path / "q", grid_spec)
        other = make_spec()
        other.runner = {**other.runner, "local_workers": 7, "lease_ttl": 5.0}
        queue = create_queue(tmp_path / "q", other)  # must not raise
        assert len(queue.tickets) == 4

    def test_envelope_records_file_backend(self, grid_spec, tmp_path):
        # Workers of earlier versions dispatch on this field.
        create_queue(tmp_path / "q", grid_spec)
        envelope = json.loads((tmp_path / "q" / "queue.json").read_text())
        assert envelope["backend"] == "file"

    def test_wrong_backend_class_raises(self, grid_spec, tmp_path):
        # Earlier versions could materialize a queue on sqlite.
        set_envelope_backend(create_queue(tmp_path / "s", grid_spec), "sqlite")
        with pytest.raises(QueueError, match="'sqlite'"):
            open_queue(tmp_path / "s")

    def test_unknown_backend_rejected(self, grid_spec, tmp_path):
        set_envelope_backend(create_queue(tmp_path / "q", grid_spec), "redis")
        with pytest.raises(QueueError, match="backend"):
            open_queue(tmp_path / "q")

    def test_missing_envelope_raises(self, tmp_path):
        with pytest.raises(QueueError, match="cannot read"):
            open_queue(tmp_path / "nothing-here")

    def test_old_envelope_keys_are_ignored(self, grid_spec, tmp_path):
        queue = create_queue(tmp_path / "q", grid_spec, lease_ttl=9.0, max_retries=1)
        path = queue.directory / "queue.json"
        envelope = json.loads(path.read_text())
        envelope["lease"].update(renewal_interval=1.0, skew_tolerance=2.0)
        envelope["retry"].update(
            backoff=0.5, backoff_factor=2.0, max_delay=60.0, jitter=0.5
        )
        path.write_text(json.dumps(envelope))
        reopened = open_queue(tmp_path / "q")
        assert (reopened.lease_ttl, reopened.max_attempts) == (9.0, 2)

    @pytest.mark.parametrize("case", list(BROKEN_ENVELOPES))
    def test_broken_envelope_is_one_error_line(self, grid_spec, tmp_path, capsys, case):
        from repro.cli import main

        damage, message = BROKEN_ENVELOPES[case]
        queue = create_queue(tmp_path / "q", grid_spec)
        path = queue.directory / "queue.json"
        envelope = json.loads(path.read_text())
        damage(envelope)
        path.write_text(json.dumps(envelope))
        with pytest.raises(QueueError) as error:
            open_queue(tmp_path / "q")
        assert str(error.value).startswith(f"{path}: {message}")
        assert main(["worker", "--queue-dir", str(tmp_path / "q")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {path}: {message}")

    def test_external_checkpoint_dir_recorded(self, grid_spec, tmp_path):
        queue = create_queue(
            tmp_path / "q", grid_spec, checkpoint_dir=tmp_path / "ckpt"
        )
        assert queue.checkpoint_directory == (tmp_path / "ckpt").resolve()


class TestClaimProtocol:
    def test_claims_are_exclusive_and_ordered(self, grid_spec, tmp_path):
        queue = create_queue(tmp_path / "q", grid_spec)
        claims = [queue.claim(f"worker-{i}") for i in range(5)]
        held = [claim for claim in claims if claim is not None]
        assert len(held) == 4  # fifth claim finds nothing
        assert claims[4] is None
        assert len({claim.ticket.cell_id for claim in held}) == 4
        # Ticket order: strategies in spec order, repeats within.
        assert [c.ticket.cell_id for c in held] == [
            t.cell_id for t in queue.tickets
        ]

    def test_commit_settles_and_duplicate_commit_is_flagged(
        self, grid_spec, tmp_path
    ):
        queue = create_queue(tmp_path / "q", grid_spec)
        claim = queue.claim("a")
        twin = open_queue(tmp_path / "q")
        assert queue.commit(claim) is True
        # A zombie twin committing the same (byte-identical) cell is
        # tolerated, flagged, and changes nothing.
        assert twin.commit(claim) is False
        assert len(audit_events(queue, "duplicate-commit")) == 1
        assert queue.counts()["done"] == 1

    def test_release_makes_cell_instantly_reclaimable(
        self, grid_spec, tmp_path
    ):
        queue = create_queue(tmp_path / "q", grid_spec)
        claim = queue.claim("a")
        queue.release(claim, "interrupted")
        reclaimed = queue.claim("b")
        assert reclaimed is not None
        assert reclaimed.ticket.cell_id == claim.ticket.cell_id
        (record,) = audit_events(queue, "released")
        assert record["reason"] == "interrupted"

    def test_settled_and_counts(self, grid_spec, tmp_path):
        queue = create_queue(tmp_path / "q", grid_spec)
        assert not queue.settled()
        assert queue.counts() == {
            "total": 4, "done": 0, "failed": 0, "claimed": 0, "pending": 4,
        }
        while (claim := queue.claim("a")) is not None:
            queue.commit(claim)
        assert queue.settled()
        assert queue.counts()["done"] == 4


class TestLeases:
    def test_live_lease_is_not_stolen(self, grid_spec, tmp_path):
        queue = create_queue(
            tmp_path / "q", grid_spec,
            lease_ttl=60.0,
        )
        claim = queue.claim("a")
        assert queue.reap_stale() == 0
        other = queue.claim("b")
        assert other is None or other.ticket.cell_id != claim.ticket.cell_id

    def test_stale_lease_is_reaped_and_reclaimed(self, grid_spec, tmp_path):
        queue = create_queue(
            tmp_path / "q", grid_spec,
            lease_ttl=0.2,
        )
        claim = queue.claim("dead-worker")
        time.sleep(0.4)
        reclaimed = None
        while reclaimed is None or reclaimed.ticket.cell_id != claim.ticket.cell_id:
            reclaimed = queue.claim("successor")
            assert reclaimed is not None  # stale cell must become claimable
        (record,) = audit_events(queue, "reaped")
        assert record["cell"] == claim.ticket.cell_id
        assert record["owner"] == "dead-worker"

    def test_undecodable_lease_is_reaped_like_bad_json(self, grid_spec, tmp_path):
        queue = create_queue(tmp_path / "q", grid_spec, lease_ttl=60.0)
        claim = queue.claim("dead-worker")
        lease = queue.directory / "leases" / f"{claim.ticket.cell_id}.json"
        lease.write_bytes(b'{"owner": "\xff"}')
        long_ago = time.time() - 600
        os.utime(lease, (long_ago, long_ago))
        assert queue.reap_stale() == 1
        (record,) = audit_events(queue, "reaped")
        assert record.get("owner") is None  # as for a lease that is not JSON

    def test_undecodable_audit_line_is_skipped(self, grid_spec, tmp_path):
        queue = create_queue(tmp_path / "q", grid_spec)
        with open(queue.directory / "audit.log", "ab") as log:
            log.write(b'{"event": "\xff"}\n')
        queue.release(queue.claim("a"), "interrupted")
        assert [record["event"] for record in queue.read_audit()][-2:] == [
            "claimed", "released",
        ]

    def test_lease_and_audit_line_nested_too_deep_read_as_bad_json(self, grid_spec, tmp_path):
        too_deep = b"[" * 100_000 + b"]" * 100_000
        queue = create_queue(tmp_path / "q", grid_spec, lease_ttl=60.0)
        claim = queue.claim("dead-worker")
        lease = queue.directory / "leases" / f"{claim.ticket.cell_id}.json"
        lease.write_bytes(b'{"owner": ' + too_deep + b"}")
        long_ago = time.time() - 600
        os.utime(lease, (long_ago, long_ago))
        with open(queue.directory / "audit.log", "ab") as log:
            log.write(too_deep + b"\n")
        assert queue.reap_stale() == 1
        (record,) = audit_events(queue, "reaped")
        assert record.get("owner") is None  # as for a lease that is not JSON

    def test_heartbeat_keeps_lease_alive(self, grid_spec, tmp_path):
        queue = create_queue(
            tmp_path / "q", grid_spec,
            lease_ttl=0.6,
        )
        claim = queue.claim("a")
        deadline = time.monotonic() + 1.5
        while time.monotonic() < deadline:
            assert queue.heartbeat(claim) is True
            assert queue.reap_stale() == 0
            time.sleep(0.1)

    def test_heartbeat_reports_lost_lease(self, grid_spec, tmp_path):
        queue = create_queue(
            tmp_path / "q", grid_spec,
            lease_ttl=0.2,
        )
        claim = queue.claim("slow-worker")
        time.sleep(0.4)
        assert queue.reap_stale() == 1
        assert queue.heartbeat(claim) is False


class TestClockSkew:
    def test_future_dated_lease_is_reaped(self, grid_spec, tmp_path):
        queue = create_queue(tmp_path / "q", grid_spec)  # ttl 30
        claim = queue.claim("skewed-host")
        lease = tmp_path / "q" / "leases" / f"{claim.ticket.cell_id}.json"
        future = time.time() + 120.0  # more than one TTL ahead
        os.utime(lease, (future, future))
        assert queue.reap_stale() == 1
        (record,) = audit_events(queue, "reaped")
        assert record["owner"] == "skewed-host"

    def test_slightly_ahead_lease_is_trusted(self, grid_spec, tmp_path):
        queue = create_queue(tmp_path / "q", grid_spec)
        claim = queue.claim("slightly-ahead")
        lease = tmp_path / "q" / "leases" / f"{claim.ticket.cell_id}.json"
        near_future = time.time() + 5.0  # within one TTL
        os.utime(lease, (near_future, near_future))
        assert queue.reap_stale() == 0
        assert queue.heartbeat(claim) is True


class TestRetryAndQuarantine:
    def test_poison_cell_quarantined_at_threshold(self, grid_spec, tmp_path):
        queue = create_queue(tmp_path / "q", grid_spec, max_retries=1)
        claim = queue.claim("a")
        cell_id = claim.ticket.cell_id
        assert queue.fail(claim, RuntimeError("poison")) == "retry"
        reclaim = queue.claim("a")
        assert reclaim.ticket.cell_id == cell_id  # immediately retryable
        assert queue.fail(reclaim, RuntimeError("poison")) == "quarantined"
        failures = queue.failures()
        assert set(failures) == {cell_id}
        assert failures[cell_id].attempts == 2
        assert "poison" in failures[cell_id].error
        # A quarantined cell is never handed out again.
        remaining = set()
        while (other := queue.claim("a")) is not None:
            remaining.add(other.ticket.cell_id)
        assert cell_id not in remaining
        assert len(audit_events(queue, "quarantined")) == 1

# -- end-to-end execution ----------------------------------------------------


class TestWorkerByteIdentity:
    def test_single_worker_matches_serial(
        self, grid_spec, serial_reference, tmp_path
    ):
        serial_results, serial_dir = serial_reference
        queue_dir = tmp_path / "q"
        queue = create_queue(queue_dir, grid_spec)
        summary = run_worker(queue_dir, owner="solo", poll=0.05)
        assert summary["completed"] == 4
        assert summary["failed"] == 0
        results = coordinate(queue_dir, poll=0.05)
        assert_results_match(results, serial_results)
        assert_checkpoints_byte_identical(queue.checkpoint_directory, serial_dir)
        assert len(audit_events(queue, "committed")) == 4


class TestWarmModeGrid:
    def test_warm_worker_matches_warm_serial(self, tmp_path):
        """Workers inherit ``training_mode`` from the spec: a warm grid
        converges byte-identical to a warm serial run."""
        warm_spec = ExperimentSpec(
            dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 7}),
            split=Spec(kind="fraction", params={"test_fraction": 0.3}),
            model=Spec(
                kind="linear", params={"epochs": 2, "batch_size": 32, "seed": 0}
            ),
            strategies={"random": Spec(kind="random"), "entropy": Spec(kind="entropy")},
            config=ExperimentConfig(**GRID_KWARGS, training_mode="warm"),
        )
        serial_dir = tmp_path / "serial"
        train, test, _ = warm_spec.build_datasets()
        serial_results = run_comparison(
            warm_spec.resolved_model(),
            warm_spec.strategies,
            train,
            test,
            config=warm_spec.config,
            checkpoint_dir=serial_dir,
        )
        queue_dir = tmp_path / "q"
        queue = create_queue(queue_dir, warm_spec)
        summary = run_worker(queue_dir, owner="solo", poll=0.05)
        assert summary["completed"] == 4
        results = coordinate(queue_dir, poll=0.05)
        assert_results_match(results, serial_results)
        assert_checkpoints_byte_identical(queue.checkpoint_directory, serial_dir)


@needs_fork
class TestCrashEquivalence:
    """SIGKILL a worker at chosen protocol steps; the grid must converge
    to bytes identical to serial with zero lost or duplicated cells."""

    def test_kill_between_save_and_commit_is_recovered(
        self, grid_spec, serial_reference, tmp_path
    ):
        _, serial_dir = serial_reference
        queue_dir = tmp_path / "q"
        queue = create_queue(queue_dir, grid_spec, lease_ttl=1.0)
        victim = fork_process(
            _crashing_worker, str(queue_dir), str(tmp_path / "tokens"), "saved"
        )
        victim.join(timeout=120)
        assert victim.exitcode == 23  # died between checkpoint and marker
        assert queue.counts()["done"] == 0  # the cell was never committed
        summary = run_worker(queue_dir, owner="successor", poll=0.05)
        # The orphaned checkpoint is committed without recomputation.
        assert summary["recovered"] == 1
        assert summary["completed"] == 4
        assert_checkpoints_byte_identical(queue.checkpoint_directory, serial_dir)
        assert len(audit_events(queue, "committed")) == 4
        assert len(audit_events(queue, "reaped")) >= 1

    def test_kill_mid_heartbeat_resumes_mid_cell(
        self, grid_spec, serial_reference, tmp_path
    ):
        _, serial_dir = serial_reference
        queue_dir = tmp_path / "q"
        # Cells run in ~10ms here, so the renewal interval (a third of
        # the TTL) must be far smaller for a heartbeat tick to land
        # inside a running cell.
        queue = create_queue(queue_dir, grid_spec, lease_ttl=0.003)
        victim = fork_process(
            _crashing_worker, str(queue_dir), str(tmp_path / "tokens"), "heartbeat"
        )
        victim.join(timeout=120)
        assert victim.exitcode == 23  # died mid-cell, lease still on disk
        summary = run_worker(queue_dir, owner="successor", poll=0.05)
        assert summary["completed"] == 4
        results = coordinate(queue_dir, poll=0.05)
        assert_results_match(results, serial_reference[0])
        assert_checkpoints_byte_identical(queue.checkpoint_directory, serial_dir)
        assert len(audit_events(queue, "reaped")) >= 1

    def test_elastic_grid_matches_serial(
        self, grid_spec, serial_reference, tmp_path
    ):
        """The acceptance scenario: one worker SIGKILLed between claim
        and commit, one joining late — bytes identical to serial."""
        serial_results, serial_dir = serial_reference
        queue_dir = tmp_path / "q"
        queue = create_queue(queue_dir, grid_spec, lease_ttl=1.0)
        victim = fork_process(
            _crashing_worker, str(queue_dir), str(tmp_path / "tokens"), "saved"
        )
        victim.join(timeout=120)
        assert victim.exitcode == 23
        # The late joiner arrives only after the victim is already dead.
        joiner = fork_process(_plain_worker, str(queue_dir), "late-joiner")
        results = coordinate(queue_dir, poll=0.05)
        joiner.join(timeout=120)
        assert joiner.exitcode == 0
        # Zero lost cells, zero duplicated commits, identical bytes.
        assert queue.counts() == {
            "total": 4, "done": 4, "failed": 0, "claimed": 0, "pending": 0,
        }
        assert len(audit_events(queue, "committed")) == 4
        assert_results_match(results, serial_results)
        assert_checkpoints_byte_identical(queue.checkpoint_directory, serial_dir)

    def test_run_distributed_multiworker_matches_serial(
        self, grid_spec, serial_reference, tmp_path
    ):
        serial_results, serial_dir = serial_reference
        results = run_distributed(
            grid_spec, tmp_path / "q", workers=2, poll=0.05
        )
        assert_results_match(results, serial_results)
        assert_checkpoints_byte_identical(
            open_queue(tmp_path / "q").checkpoint_directory, serial_dir
        )


class TestWorkerInterrupt:
    def test_interrupt_releases_lease_before_propagating(
        self, grid_spec, serial_reference, tmp_path
    ):
        _, serial_dir = serial_reference
        queue_dir = tmp_path / "q"
        queue = create_queue(queue_dir, grid_spec)
        fault = WorkerFault(
            "claimed",
            FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=1,
                      mode="interrupt", times=1),
        )
        with pytest.raises(KeyboardInterrupt):
            run_worker(queue_dir, owner="ctrl-c", poll=0.05, on_event=fault)
        # The held lease was released, not stranded until its TTL.
        assert queue.counts()["claimed"] == 0
        (record,) = audit_events(queue, "released")
        assert record["reason"] == "interrupted"
        assert record["owner"] == "ctrl-c"
        # The grid is immediately resumable and still byte-identical.
        run_worker(queue_dir, owner="resumer", poll=0.05)
        assert_checkpoints_byte_identical(queue.checkpoint_directory, serial_dir)


class TestPoisonedCell:
    def test_poison_cell_quarantined_and_grid_degrades(
        self, grid_spec, serial_reference, tmp_path
    ):
        serial_results, _ = serial_reference
        target = cell_stem("entropy", 1)
        queue_dir = tmp_path / "q"
        queue = create_queue(queue_dir, grid_spec, max_retries=1)
        poison = FaultSpec(
            token_dir=tmp_path / "tokens", fail_on_call=1, mode="raise",
            times=None,
        )

        def poison_target(event, cell):
            # Unlimited budget: every claim of the target cell fails.
            if event == "claimed" and cell == target:
                poison.maybe_fire(1)

        summary = run_worker(queue_dir, owner="w", poll=0.05,
                             on_event=poison_target)
        assert summary["completed"] == 3
        assert summary["failed"] == 2  # two attempts, then quarantine
        assert set(queue.failures()) == {target}
        with pytest.raises(ExecutionError, match="failed permanently"):
            collect_results(queue, on_error="raise")
        results = collect_results(queue, on_error="skip")
        # The surviving entropy repeat aggregates; the failure is attached.
        assert len(results["entropy"].runs) == 1
        assert len(results["entropy"].failures) == 1
        assert results["entropy"].failures[0].repeat == 1
        assert results["random"].curve.values.tobytes() == (
            serial_results["random"].curve.values.tobytes()
        )


class TestCoordinator:
    def test_timeout_raises_by_default(self, grid_spec, tmp_path):
        create_queue(tmp_path / "q", grid_spec)
        with pytest.raises(ExecutionError, match="timed out"):
            coordinate(tmp_path / "q", timeout=0.2, poll=0.05)

    def test_timeout_with_skip_degrades_gracefully(
        self, grid_spec, serial_reference, tmp_path
    ):
        serial_results, _ = serial_reference
        queue_dir = tmp_path / "q"
        queue = create_queue(queue_dir, grid_spec)
        # Complete 3 of 4 cells, then let the coordinator give up on the
        # last one (ticket order leaves entropy repeat 1 unfinished).
        run_worker(queue_dir, owner="partial", poll=0.05, max_cells=3)
        results = coordinate(
            queue_dir, on_error="skip", timeout=0.2, poll=0.05
        )
        assert len(audit_events(queue, "quarantined")) == 1
        assert len(results["entropy"].runs) == 1
        assert len(results["entropy"].failures) == 1
        assert "timeout" in results["entropy"].failures[0].error
        assert results["random"].curve.values.tobytes() == (
            serial_results["random"].curve.values.tobytes()
        )

    def test_unsettled_queue_cannot_be_collected(self, grid_spec, tmp_path):
        queue = create_queue(tmp_path / "q", grid_spec)
        with pytest.raises(ExecutionError, match="unsettled"):
            collect_results(queue)

    def test_lease_config_validation(self, grid_spec, tmp_path):
        for lease_ttl in (0, -1.0, "30", True, None):
            with pytest.raises(ConfigurationError, match="lease_ttl must be"):
                create_queue(tmp_path / "q", grid_spec, lease_ttl=lease_ttl)
        for max_retries in (-1, 1.0, "1"):
            with pytest.raises(ConfigurationError, match="max_retries must be"):
                create_queue(tmp_path / "q", grid_spec, max_retries=max_retries)
        assert not (tmp_path / "q").exists()
        queue = create_queue(tmp_path / "q", grid_spec, lease_ttl=6.0, max_retries=2)
        assert (queue.lease_ttl, queue.max_attempts) == (6.0, 3)
