"""Broker-less distributed grid execution over a shared work queue.

:func:`~repro.experiments.runner.run_comparison` runs a comparison grid
serially in one process.  This module runs the same grid in parallel, on
one host or many, without introducing a broker: the *coordinator*
materializes the grid — its experiment document and one ticket
(strategy, repeat, seed) per cell — into a queue directory on a shared
filesystem, and independent *worker* processes — started on any host
that can see that directory, via :func:`run_worker` or the ``repro
worker`` CLI — claim cells, execute them through the exact spec-built
runner path serial execution uses, and commit their results atomically
into the existing :class:`~repro.experiments.checkpoint.CheckpointStore`.
The coordinator just watches the checkpoint store fill in.

Queue state is plain files.  A cell is claimed by creating its lease
file with ``O_CREAT | O_EXCL`` (atomic on POSIX, including NFS v3+); the
lease carries the owner id and its mtime is the heartbeat, renewed by
``os.utime``.

Robustness model
----------------

Every transition is crash-equivalent: a worker may be SIGKILLed at any
instant and the grid still converges to checkpoints byte-identical to a
serial run, because

* cell execution is a pure function of the cell ticket (spec + seed) —
  re-running a cell produces the same bytes, so reclaiming the cell of
  a dead worker (its lease's heartbeat went stale) is always safe;
* mid-cell progress is snapshotted per round through the checkpoint
  store, so a reclaimed cell resumes from its last committed round and
  still produces identical bytes (PR 4's byte-identical restore);
* results commit by atomic rename *before* the ``done`` marker is
  created, so a marker never vouches for bytes that are not there; a
  worker killed between the two leaves a finished checkpoint that the
  next claimant detects and commits without recomputing;
* duplicate executions (a slow worker whose lease was reaped races its
  replacement) commit identical bytes through atomic renames and
  settle the ``done`` marker with ``O_EXCL`` — last writer loses and
  records a ``duplicate-commit`` audit event, nothing is double-counted.

Both lease timings follow the one ``lease_ttl``: a worker renews its
heartbeat every ``ttl / 3``, and a lease is stale once
``abs(now - heartbeat)`` exceeds the TTL — a heartbeat *in the future*
by more than that was written by an untrustworthy clock and is reaped
like an expired one.  Reaping a live worker by mistake costs duplicated
work, never correctness (see above), so the queue errs toward
reclaiming.

A failed cell is claimable again at once.  Cells that fail repeatedly
are *quarantined*: after ``max_retries + 1`` failures (counted across
workers via ``O_EXCL`` attempt tokens) the cell gets a permanent
:class:`CellFailure` audit record instead of stalling the grid, and the
coordinator applies the usual ``on_error`` semantics — ``"raise"``
aborts, ``"skip"`` aggregates the survivors with the failures attached
to their :class:`~repro.experiments.runner.StrategyResult`.

Every protocol event (claim, heartbeat loss, reap, commit, quarantine,
release) is appended to ``audit.log`` in the queue directory as one JSON
line, so a finished grid can answer "which host ran cell X, and what
happened to the worker that died?".
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from ..exceptions import ConfigurationError, ExecutionError, QueueError
from ..ioutil import atomic_write_json, check_fields, fsync_directory, parse_json, read_json
from ..specs.experiment import OPTION_RULES, ExperimentSpec, check_option
from ..specs.models import build_model
from ..specs.strategies import build_strategy
from .checkpoint import CheckpointStore, cell_stem
from .runner import (
    CellFailure,
    StrategyResult,
    _run_cell,
    aggregate_strategy_results,
    grid_repeat_seeds,
)

# The queue schema constants live in :mod:`repro.formats` and are
# re-exported here by the module that owns their reader.
from ..formats import QUEUE_FORMAT, QUEUE_VERSION

#: The ``backend`` every queue envelope records.  Earlier versions also
#: wrote ``"sqlite"``; such queues are refused with a :class:`QueueError`.
QUEUE_BACKEND = "file"

#: The envelope fields a queue reads: dotted path -> (rule, test).  A
#: queue written by an earlier version carries more ``lease``/``retry``
#: keys (renewal and skew overrides, a retry delay schedule); they are
#: ignored.
_ENVELOPE_RULES = {
    "experiment": ("an object", lambda value: isinstance(value, dict)),
    "lease.ttl": OPTION_RULES["lease_ttl"],
    "retry.max_attempts": (
        "an int >= 1",
        lambda value: type(value) is int and value >= 1,
    ),
    "cells": ("a list of cell tickets", lambda value: isinstance(value, list)),
    "checkpoint_dir": ("a string", lambda value: isinstance(value, str)),
}


@dataclass(frozen=True)
class CellTicket:
    """One claimable unit of work: a (strategy, repeat) cell plus its seed."""

    cell_id: str
    strategy: str
    strategy_index: int
    repeat: int
    seed: int

    def to_dict(self) -> dict:
        """The JSON form stored in the queue envelope."""
        return {
            "cell_id": self.cell_id,
            "strategy": self.strategy,
            "strategy_index": self.strategy_index,
            "repeat": self.repeat,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CellTicket":
        return cls(
            cell_id=str(payload["cell_id"]),
            strategy=str(payload["strategy"]),
            strategy_index=int(payload["strategy_index"]),
            repeat=int(payload["repeat"]),
            seed=int(payload["seed"]),
        )


@dataclass(frozen=True)
class Claim:
    """A held lease on one cell: proof of the right to execute it."""

    ticket: CellTicket
    owner: str
    attempt: int


class CellQueue:
    """The file-lease work queue of one grid (see module docstring).

    Construction loads the queue's envelope (``queue.json``): the
    experiment document every worker rebuilds its cells from, the lease
    TTL and the attempt budget, the ordered cell tickets, and where the
    checkpoint store lives.  Every state transition is a file operation.
    Layout under the queue directory::

        queue.json          envelope (experiment doc, lease/retry, tickets)
        leases/<id>.json    O_CREAT|O_EXCL claim; mtime = heartbeat
        retry/<id>.attempt-<n>  O_EXCL tokens counting failed attempts
        done/<id>.json      commit marker (created durably, after the result)
        failed/<id>.json    quarantine record (a CellFailure, as JSON)
        audit.log           append-only JSONL protocol trace

    Only ``O_CREAT | O_EXCL`` creation, ``rename``, and ``utime`` are
    load-bearing for correctness — the operations that are atomic on
    POSIX filesystems including NFS — so the queue is safe for multiple
    hosts sharing the directory.
    """

    _SUBDIRS = ("leases", "retry", "done", "failed")

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        envelope_path = self.directory / "queue.json"
        envelope = read_json(envelope_path, QueueError, "cannot read queue envelope")
        if not isinstance(envelope, dict) or envelope.get("format") != QUEUE_FORMAT:
            raise QueueError(f"{envelope_path} is not a {QUEUE_FORMAT!r} document")
        if envelope.get("version") != QUEUE_VERSION:
            raise QueueError(
                f"unsupported queue version {envelope.get('version')!r} "
                f"in {envelope_path}"
            )
        if envelope.get("backend") != QUEUE_BACKEND:
            raise QueueError(
                f"{envelope_path} was materialized with backend "
                f"{envelope.get('backend')!r}; only the {QUEUE_BACKEND!r} lease "
                "queue is supported, so re-materialize the grid in a fresh "
                "queue directory"
            )
        check_fields(envelope, _ENVELOPE_RULES, QueueError, str(envelope_path))
        self.experiment: dict = envelope["experiment"]
        #: Seconds without a heartbeat (or ahead of this clock) before a
        #: lease is stale; workers renew theirs every third of it.
        self.lease_ttl: float = envelope["lease"]["ttl"]
        self.max_attempts: int = envelope["retry"]["max_attempts"]
        try:
            self.tickets = [CellTicket.from_dict(cell) for cell in envelope["cells"]]
        except (KeyError, TypeError, ValueError) as error:
            raise QueueError(
                f"{envelope_path}: malformed cell ticket: {error!r}"
            ) from error
        self._tickets_by_id = {ticket.cell_id: ticket for ticket in self.tickets}
        self._checkpoint_dir: str = envelope["checkpoint_dir"]
        for name in self._SUBDIRS:
            (self.directory / name).mkdir(exist_ok=True)
        self._reap_counter = itertools.count()

    # -- helpers ---------------------------------------------------------

    @property
    def checkpoint_directory(self) -> Path:
        """The checkpoint store's directory (relative paths anchor here)."""
        path = Path(self._checkpoint_dir)
        return path if path.is_absolute() else self.directory / path

    def ticket(self, cell_id: str) -> CellTicket:
        """Look up one cell's ticket by id (:class:`QueueError` if unknown)."""
        if cell_id not in self._tickets_by_id:
            raise QueueError(f"unknown cell {cell_id!r} in queue {self.directory}")
        return self._tickets_by_id[cell_id]

    def audit(self, event: str, cell: "str | None" = None,
              owner: "str | None" = None, **detail) -> None:
        """Append one JSON line to the queue's audit log (crash-safe).

        A single ``O_APPEND`` write per record: concurrent writers from
        any number of hosts interleave whole lines, never bytes.
        """
        record = {"ts": time.time(), "event": event}
        if cell is not None:
            record["cell"] = cell
        if owner is not None:
            record["owner"] = owner
        record.update(detail)
        line = (json.dumps(record) + "\n").encode("utf-8")
        fd = os.open(
            self.directory / "audit.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def read_audit(self) -> list[dict]:
        """Every audit record, in append order (unparsable lines skipped)."""
        path = self.directory / "audit.log"
        if not path.exists():
            return []
        records = []
        for line in path.read_bytes().splitlines():
            try:
                records.append(parse_json(line, ValueError, "audit record"))
            except ValueError:
                continue
        return records

    def _lease_stale(self, age: float) -> bool:
        """Stale = heartbeat more than one TTL old, or one TTL in the future."""
        return abs(age) > self.lease_ttl

    # -- paths -------------------------------------------------------------

    def _lease_path(self, cell_id: str) -> Path:
        return self.directory / "leases" / f"{cell_id}.json"

    def _done_path(self, cell_id: str) -> Path:
        return self.directory / "done" / f"{cell_id}.json"

    def _failed_path(self, cell_id: str) -> Path:
        return self.directory / "failed" / f"{cell_id}.json"

    # -- claim / lease lifecycle -------------------------------------------

    def _read_json(self, path: Path) -> "dict | None":
        try:
            payload = read_json(path, ValueError, "cannot read")
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def _attempt_count(self, cell_id: str) -> int:
        retry_dir = self.directory / "retry"
        return sum(
            1 for _ in retry_dir.glob(f"{cell_id}.attempt-*")
        )

    def _settled(self, cell_id: str) -> bool:
        return self._done_path(cell_id).exists() or self._failed_path(cell_id).exists()

    def _try_reap(self, cell_id: str) -> bool:
        """Reclaim one stale lease via atomic rename (single winner)."""
        lease = self._lease_path(cell_id)
        tombstone = lease.with_name(
            f"{lease.name}.reaped-{os.getpid()}-{next(self._reap_counter)}"
            f"-{uuid.uuid4().hex[:8]}"
        )
        try:
            os.rename(lease, tombstone)
        except FileNotFoundError:
            return False  # someone else reaped (or the owner released) first
        info = self._read_json(tombstone) or {}
        try:
            os.unlink(tombstone)
        except OSError:
            pass
        self.audit("reaped", cell=cell_id, owner=info.get("owner"))
        return True

    def claim(self, owner: str) -> "Claim | None":
        """Atomically claim the next eligible cell, or ``None``."""
        now = time.time()
        for ticket in self.tickets:
            cell_id = ticket.cell_id
            if self._settled(cell_id):
                continue
            lease = self._lease_path(cell_id)
            try:
                age = now - lease.stat().st_mtime
            except FileNotFoundError:
                pass
            else:
                if not self._lease_stale(age) or not self._try_reap(cell_id):
                    continue
            attempt = self._attempt_count(cell_id)
            try:
                fd = os.open(lease, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                continue  # lost the race for this cell; try the next one
            with os.fdopen(fd, "w") as handle:
                handle.write(
                    json.dumps(
                        {"owner": owner, "claimed_at": now, "attempt": attempt}
                    )
                )
            if self._done_path(cell_id).exists():
                # The cell settled between the eligibility check and the
                # claim; drop the lease rather than re-executing.
                try:
                    os.unlink(lease)
                except OSError:
                    pass
                continue
            self.audit("claimed", cell=cell_id, owner=owner, attempt=attempt)
            return Claim(ticket=ticket, owner=owner, attempt=attempt)
        return None

    def heartbeat(self, claim: Claim) -> bool:
        """Renew the lease; ``False`` means it was lost (reaped/overtaken)."""
        lease = self._lease_path(claim.ticket.cell_id)
        info = self._read_json(lease)
        if info is None or info.get("owner") != claim.owner:
            return False
        try:
            os.utime(lease)
        except OSError:
            return False
        return True

    def _drop_lease(self, claim: Claim) -> bool:
        lease = self._lease_path(claim.ticket.cell_id)
        info = self._read_json(lease)
        if info is None or info.get("owner") != claim.owner:
            return False
        try:
            os.unlink(lease)
        except OSError:
            return False
        return True

    # -- settling ----------------------------------------------------------

    def commit(self, claim: Claim) -> bool:
        """Settle the cell as done; ``False`` = someone beat us to it."""
        cell_id = claim.ticket.cell_id
        marker = self._done_path(cell_id)
        payload = json.dumps(
            {"cell_id": cell_id, "owner": claim.owner, "committed_at": time.time()}
        ).encode("utf-8")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            # A reclaimed twin already committed the identical bytes.
            self.audit("duplicate-commit", cell=cell_id, owner=claim.owner)
            self._drop_lease(claim)
            return False
        try:
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        fsync_directory(marker.parent)
        self.audit("committed", cell=cell_id, owner=claim.owner)
        self._drop_lease(claim)
        return True

    def fail(self, claim: Claim, error: Exception) -> str:
        """Record one failed attempt; returns ``"retry"`` or ``"quarantined"``."""
        cell_id = claim.ticket.cell_id
        # O_EXCL attempt tokens make the failure count monotone even when
        # a reaped zombie and its replacement fail concurrently.
        attempts = self._attempt_count(cell_id)
        while True:
            attempts += 1
            token = self.directory / "retry" / f"{cell_id}.attempt-{attempts}"
            try:
                token.touch(exist_ok=False)
            except FileExistsError:
                continue
            break
        message = f"{type(error).__name__}: {error}"
        if attempts >= self.max_attempts:
            atomic_write_json(
                self._failed_path(cell_id),
                {
                    "cell_id": cell_id,
                    "strategy": claim.ticket.strategy,
                    "repeat": claim.ticket.repeat,
                    "attempts": attempts,
                    "error": message,
                    "owner": claim.owner,
                },
                durable=True,
            )
            self.audit(
                "quarantined", cell=cell_id, owner=claim.owner,
                attempts=attempts, error=message,
            )
            self._drop_lease(claim)
            return "quarantined"
        self.audit(
            "failed", cell=cell_id, owner=claim.owner, attempts=attempts, error=message
        )
        self._drop_lease(claim)
        return "retry"

    def release(self, claim: Claim, reason: str) -> None:
        """Give the cell back without charging an attempt (e.g. Ctrl-C)."""
        if self._drop_lease(claim):
            self.audit(
                "released", cell=claim.ticket.cell_id, owner=claim.owner,
                reason=reason,
            )

    def release_owned(self, owners: "list[str]", reason: str) -> int:
        """Release every lease held by one of ``owners``; returns count."""
        released = 0
        wanted = set(owners)
        for lease in (self.directory / "leases").glob("*.json"):
            info = self._read_json(lease)
            if info is None or info.get("owner") not in wanted:
                continue
            try:
                os.unlink(lease)
            except OSError:
                continue
            released += 1
            self.audit(
                "released", cell=lease.stem, owner=info.get("owner"), reason=reason
            )
        return released

    def reap_stale(self) -> int:
        """Reclaim cells whose lease went stale; returns how many."""
        now = time.time()
        reaped = 0
        for lease in (self.directory / "leases").glob("*.json"):
            if lease.name.count(".reaped-"):
                continue
            try:
                age = now - lease.stat().st_mtime
            except FileNotFoundError:
                continue
            if self._lease_stale(age) and self._try_reap(lease.stem):
                reaped += 1
        return reaped

    # -- queries -----------------------------------------------------------

    def settled(self) -> bool:
        """True when every cell is done or permanently failed."""
        return all(self._settled(ticket.cell_id) for ticket in self.tickets)

    def counts(self) -> dict:
        """Cell-state tallies: total/done/failed/claimed/pending."""
        done = failed = claimed = 0
        for ticket in self.tickets:
            if self._done_path(ticket.cell_id).exists():
                done += 1
            elif self._failed_path(ticket.cell_id).exists():
                failed += 1
            elif self._lease_path(ticket.cell_id).exists():
                claimed += 1
        total = len(self.tickets)
        return {
            "total": total,
            "done": done,
            "failed": failed,
            "claimed": claimed,
            "pending": total - done - failed - claimed,
        }

    def failures(self) -> "dict[str, CellFailure]":
        """Quarantined cells: cell id -> audit record."""
        records: dict[str, CellFailure] = {}
        for ticket in self.tickets:
            payload = self._read_json(self._failed_path(ticket.cell_id))
            if payload is None:
                continue
            records[ticket.cell_id] = CellFailure(
                strategy=str(payload.get("strategy", ticket.strategy)),
                repeat=int(payload.get("repeat", ticket.repeat)),
                attempts=int(payload.get("attempts", 0)),
                error=str(payload.get("error", "unknown failure")),
            )
        return records

    def quarantine_unsettled(self, reason: str) -> int:
        """Force-fail every not-yet-settled cell (coordinator timeout)."""
        quarantined = 0
        for ticket in self.tickets:
            cell_id = ticket.cell_id
            if self._settled(cell_id):
                continue
            atomic_write_json(
                self._failed_path(cell_id),
                {
                    "cell_id": cell_id,
                    "strategy": ticket.strategy,
                    "repeat": ticket.repeat,
                    "attempts": self._attempt_count(cell_id),
                    "error": reason,
                },
                durable=True,
            )
            self.audit("quarantined", cell=cell_id, error=reason)
            quarantined += 1
        return quarantined


# -- materialization ---------------------------------------------------------


def _grid_tickets(spec: ExperimentSpec) -> "list[CellTicket]":
    """Every (strategy, repeat) cell of the grid, with matched seeds."""
    seeds = grid_repeat_seeds(spec.config)
    tickets = []
    for strategy_index, strategy in enumerate(spec.strategies):
        for repeat in range(spec.config.repeats):
            tickets.append(
                CellTicket(
                    cell_id=cell_stem(strategy, repeat),
                    strategy=strategy,
                    strategy_index=strategy_index,
                    repeat=repeat,
                    seed=int(seeds[repeat]),
                )
            )
    return tickets


def _queue_spec(experiment_doc: dict) -> ExperimentSpec:
    """The experiment a queue runs, parsed from its envelope document.

    ``runner`` and ``report`` options (worker counts, timeouts, plot
    flags) do not affect the produced bytes, so they are dropped before
    parsing: a queue opens whatever options its coordinator wrote.
    """
    return ExperimentSpec.from_dict(
        {
            key: value
            for key, value in experiment_doc.items()
            if key not in ("runner", "report")
        }
    )


def _science_document(experiment_doc: dict) -> dict:
    """The result-determining part of an experiment document.

    Re-opening a queue with different runner or report options is
    legal; everything else must match exactly.  The document is
    normalised through :class:`ExperimentSpec`, so a queue materialized
    by an earlier version (whose documents still carried retired
    settings such as ``history_backend``) reopens as the same grid.
    """
    document = _queue_spec(experiment_doc).to_dict()
    del document["runner"], document["report"]
    return document


def create_queue(
    directory: "str | Path",
    spec: ExperimentSpec,
    lease_ttl: float = 30.0,
    max_retries: int = 0,
    checkpoint_dir: "str | Path | None" = None,
) -> CellQueue:
    """Materialize a comparison grid into a queue directory (idempotent).

    Writes the ``queue.json`` envelope: the experiment document, the
    lease TTL, the attempt budget (``max_retries + 1``) and one ticket
    per cell.  Workers rebuild every cell from it, and it is written
    atomically, so workers polling for it never see a half-materialized
    queue.  Re-materializing an existing queue with the same experiment
    document simply reopens it (that is how a coordinator resumes); a
    *different* experiment raises :class:`~repro.exceptions.QueueError`
    rather than mixing grids.
    """
    check_option("lease_ttl", lease_ttl)
    check_option("max_retries", max_retries)
    directory = Path(directory)
    experiment_doc = spec.to_dict()
    envelope_path = directory / "queue.json"
    if envelope_path.exists():
        queue = open_queue(directory)
        if _science_document(queue.experiment) != _science_document(experiment_doc):
            raise QueueError(
                f"queue {directory} was materialized for a different "
                "experiment; use a fresh queue directory"
            )
        return queue
    directory.mkdir(parents=True, exist_ok=True)
    tickets = _grid_tickets(spec)
    if checkpoint_dir is None:
        stored_checkpoint = "checkpoints"
        (directory / "checkpoints").mkdir(exist_ok=True)
    else:
        stored_checkpoint = str(Path(checkpoint_dir).resolve())
    atomic_write_json(
        envelope_path,
        {
            "format": QUEUE_FORMAT,
            "version": QUEUE_VERSION,
            "backend": QUEUE_BACKEND,
            "experiment": experiment_doc,
            "lease": {"ttl": lease_ttl},
            "retry": {"max_attempts": max_retries + 1},
            "checkpoint_dir": stored_checkpoint,
            "cells": [ticket.to_dict() for ticket in tickets],
        },
        durable=True,
    )
    queue = open_queue(directory)
    queue.audit("materialized", cells=len(tickets))
    return queue


def open_queue(directory: "str | Path") -> CellQueue:
    """Open an existing queue directory (:class:`QueueError` if it is not one)."""
    return CellQueue(directory)


# -- the worker --------------------------------------------------------------


class _LeaseHeartbeat(threading.Thread):
    """Renews a claim's lease every third of its TTL while the cell runs.

    Losing the lease (reaped by a skew-suspicious peer, or the file
    vanished) flips :attr:`lost` and stops renewing; execution carries
    on, because committing after lease loss is safe — the result bytes
    are identical to whatever the replacement worker produces.
    """

    def __init__(self, queue: CellQueue, claim: Claim, on_event=None) -> None:
        super().__init__(daemon=True, name=f"lease-{claim.ticket.cell_id}")
        self._queue = queue
        self._claim = claim
        self._interval = queue.lease_ttl / 3
        self._on_event = on_event
        self._stop_event = threading.Event()
        self.lost = False

    def run(self) -> None:
        cell_id = self._claim.ticket.cell_id
        while not self._stop_event.wait(self._interval):
            if self._on_event is not None:
                self._on_event("heartbeat", cell_id)
            if not self._queue.heartbeat(self._claim):
                self.lost = True
                if self._on_event is not None:
                    self._on_event("heartbeat-lost", cell_id)
                return

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=5.0)


def default_owner() -> str:
    """The worker identity recorded in leases and the audit log."""
    return f"{socket.gethostname()}-{os.getpid()}"


def run_worker(
    queue_dir: "str | Path",
    owner: "str | None" = None,
    checkpoint_dir: "str | Path | None" = None,
    poll: float = 0.5,
    max_cells: "int | None" = None,
    on_event=None,
) -> dict:
    """Claim-execute-commit cells until the queue settles (or ``max_cells``).

    The worker rebuilds its datasets once from the queue's experiment
    document (deterministic: every worker holds byte-identical corpora),
    then loops: claim a cell, run it through the same
    spec-built engine path :func:`run_comparison` uses (round-level
    session snapshots included, so a reclaimed cell resumes mid-cell),
    write the result checkpoint atomically, and settle the ``done``
    marker.  A claimed cell whose checkpoint already exists — its
    previous owner died between saving and committing — is committed
    without recomputation.  A failure is charged to the queue's attempt
    budget: the cell is claimable again at once, and quarantined once
    the budget is spent.  ``KeyboardInterrupt`` releases the held lease with a
    ``"interrupted"`` audit annotation before propagating, so a Ctrl-C'd
    worker never strands its cell for a full lease TTL.

    ``on_event`` is a test/observability hook called as
    ``on_event(event, cell_id)`` at every lifecycle point (``claimed``,
    ``heartbeat``, ``saved``, ``committed``, ``recovered``, ``retry``,
    ``quarantined``).

    Returns a summary dict: owner id plus completed/recovered/failed
    cell counts.
    """
    queue = open_queue(queue_dir)
    owner = owner or default_owner()
    emit = on_event if on_event is not None else (lambda event, cell_id: None)
    spec = _queue_spec(queue.experiment)
    train_dataset, test_dataset, _task = spec.build_datasets()
    model_spec = spec.resolved_model().to_dict()
    strategy_specs = {
        name: strategy.to_dict() for name, strategy in spec.strategies.items()
    }
    store = CheckpointStore(
        checkpoint_dir or queue.checkpoint_directory,
        spec.config,
        model_spec=model_spec,
        strategy_specs=strategy_specs,
        scenario=spec.scenario_fingerprint(),
    )
    model_factory = partial(build_model, model_spec)
    summary = {"owner": owner, "completed": 0, "recovered": 0, "failed": 0}
    while max_cells is None or summary["completed"] < max_cells:
        claim = queue.claim(owner)
        if claim is None:
            if queue.settled():
                break
            queue.reap_stale()
            time.sleep(poll)
            continue
        ticket = claim.ticket
        try:
            # Inside the try-block so a raising on_event hook (fault
            # injection) is charged to the cell like any worker failure.
            emit("claimed", ticket.cell_id)
            existing = store.load(ticket.strategy, ticket.repeat, ticket.seed)
            if existing is not None:
                # The previous owner died between checkpoint and commit:
                # the bytes are already on disk, only the marker is owed.
                emit("recovered", ticket.cell_id)
                queue.commit(claim)
                emit("committed", ticket.cell_id)
                summary["completed"] += 1
                summary["recovered"] += 1
                continue
            heartbeat = _LeaseHeartbeat(queue, claim, on_event)
            heartbeat.start()
            try:
                result = _run_cell(
                    model_factory,
                    partial(build_strategy, strategy_specs[ticket.strategy]),
                    train_dataset,
                    test_dataset,
                    spec.config,
                    ticket.seed,
                    store=store,
                    strategy_name=ticket.strategy,
                    repeat=ticket.repeat,
                )
            finally:
                heartbeat.stop()
            store.save(ticket.strategy, ticket.repeat, ticket.seed, result)
            store.discard_session(ticket.strategy, ticket.repeat)
            emit("saved", ticket.cell_id)
            queue.commit(claim)
            emit("committed", ticket.cell_id)
            summary["completed"] += 1
        except KeyboardInterrupt:
            queue.release(claim, "interrupted")
            raise
        except Exception as error:
            outcome = queue.fail(claim, error)
            emit(outcome, ticket.cell_id)
            summary["failed"] += 1
    return summary


# -- the coordinator ---------------------------------------------------------


def collect_results(
    queue: CellQueue, on_error: str = "raise"
) -> "dict[str, StrategyResult]":
    """Aggregate a settled queue from its checkpoint store.

    A cell with both a checkpoint and a failure record counts as done —
    the checkpoint is the ground truth (e.g. a worker finished after the
    coordinator's timeout already quarantined the cell).

    Raises
    ------
    ExecutionError
        Under ``on_error="raise"`` when any cell was quarantined, or in
        any mode when a cell is unsettled or every repeat of a strategy
        failed.
    """
    spec = _queue_spec(queue.experiment)
    store = CheckpointStore(
        queue.checkpoint_directory,
        spec.config,
        model_spec=spec.resolved_model().to_dict(),
        strategy_specs={
            name: strategy.to_dict() for name, strategy in spec.strategies.items()
        },
        scenario=spec.scenario_fingerprint(),
    )
    recorded = queue.failures()
    cell_results: dict[tuple[int, int], object] = {}
    cell_failures: dict[tuple[int, int], CellFailure] = {}
    for ticket in queue.tickets:
        key = (ticket.strategy_index, ticket.repeat)
        result = store.load(ticket.strategy, ticket.repeat, ticket.seed)
        if result is not None:
            cell_results[key] = result
        elif ticket.cell_id in recorded:
            cell_failures[key] = recorded[ticket.cell_id]
        else:
            raise ExecutionError(
                f"cell {ticket.cell_id} is unsettled: no checkpoint and no "
                "failure record (is the grid still running?)"
            )
    if cell_failures and on_error == "raise":
        details = "; ".join(
            f"({failure.strategy!r}, repeat {failure.repeat}): {failure.error}"
            for failure in cell_failures.values()
        )
        raise ExecutionError(
            f"{len(cell_failures)} cell(s) failed permanently: {details}"
        )
    names = list(spec.strategies)
    return aggregate_strategy_results(
        names, spec.config.repeats, cell_results, cell_failures
    )


def coordinate(
    queue_dir: "str | Path",
    on_error: str = "raise",
    timeout: "float | None" = None,
    poll: float = 0.5,
) -> "dict[str, StrategyResult]":
    """Watch a queue until it settles, then aggregate the results.

    The coordinator holds no state the queue does not: it reaps stale
    leases while waiting (workers do too — reaping is not a coordinator
    privilege) and aggregates from the checkpoint store once every cell
    is done or quarantined.  With a ``timeout``, a grid that has not
    settled in time either raises (``on_error="raise"``) or force-
    quarantines the unsettled cells and degrades to skip semantics,
    aggregating whatever completed.
    """
    queue = open_queue(queue_dir)
    deadline = None if timeout is None else time.monotonic() + timeout
    while not queue.settled():
        queue.reap_stale()
        if deadline is not None and time.monotonic() > deadline:
            counts = queue.counts()
            if on_error == "raise":
                raise ExecutionError(
                    f"distributed grid timed out after {timeout}s with "
                    f"{counts['pending']} pending and {counts['claimed']} "
                    f"claimed cell(s) in {queue.directory}"
                )
            queue.quarantine_unsettled(
                f"coordinator timeout after {timeout}s"
            )
            break
        time.sleep(poll)
    return collect_results(queue, on_error=on_error)


def _worker_process(queue_dir: str, owner: str, poll: float) -> None:
    """Entry point of a locally spawned worker process (spawn-safe)."""
    try:
        run_worker(queue_dir, owner=owner, poll=poll)
    except KeyboardInterrupt:
        pass


def run_distributed(
    spec: ExperimentSpec,
    queue_dir: "str | Path",
    workers: int = 1,
    lease_ttl: float = 30.0,
    max_retries: int = 0,
    on_error: str = "raise",
    timeout: "float | None" = None,
    poll: float = 0.2,
    checkpoint_dir: "str | Path | None" = None,
) -> "dict[str, StrategyResult]":
    """Materialize a grid, optionally spawn local workers, and coordinate.

    ``workers=0`` materializes and coordinates only — the mode for a
    grid whose workers run on other hosts (start them there with
    ``repro worker --queue-dir <shared dir>``); any additional worker
    may also join an in-flight grid at any time.  Results are
    byte-identical to :func:`run_comparison` on the same spec, whatever
    the worker census did mid-run.  ``lease_ttl`` and ``max_retries``
    go into the queue envelope (see :func:`create_queue`).

    Interrupting the coordinator (Ctrl-C) terminates the local workers,
    releases the leases they still hold with an ``"interrupted"`` audit
    annotation — so the cells are instantly reclaimable instead of
    waiting out the TTL — and re-raises; completed cells stay
    checkpointed, and rerunning against the same queue directory
    resumes exactly where the grid stopped.
    """
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    queue = create_queue(
        queue_dir,
        spec,
        lease_ttl=lease_ttl,
        max_retries=max_retries,
        checkpoint_dir=checkpoint_dir,
    )
    start_methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in start_methods else "spawn"
    )
    owners = [f"local-{default_owner()}-{index}" for index in range(workers)]
    processes = [
        context.Process(
            target=_worker_process,
            args=(str(queue_dir), owner, poll),
            daemon=True,
        )
        for owner in owners
    ]
    for process in processes:
        process.start()
    try:
        results = coordinate(
            queue_dir, on_error=on_error, timeout=timeout, poll=poll
        )
    except BaseException:
        _stop_local_workers(queue, processes, owners, reason="interrupted")
        raise
    for process in processes:
        process.join(timeout=10.0)
    _stop_local_workers(queue, processes, owners, reason="coordinator finished")
    return results


def _stop_local_workers(
    queue: CellQueue,
    processes: "list[multiprocessing.Process]",
    owners: "list[str]",
    reason: str,
) -> None:
    """Terminate local workers and release any leases they still hold."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=5.0)
    try:
        queue.release_owned(owners, reason=reason)
    except OSError:
        pass
