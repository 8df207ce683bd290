"""Per-cell checkpoints for interrupted comparison grids.

A comparison grid retrains the task model ``strategies * repeats *
(rounds + 1)`` times, so a crash near the end of ``run_comparison``
throws away hours of work.  This module snapshots every completed
``(strategy, repeat)`` cell to its own JSON file as it finishes — the
full :class:`~repro.core.session.ALResult` audit trail: per-round records,
selection order, and the history store contents — so a restarted run can
load the finished cells and recompute only the missing ones, with
results byte-identical to an uninterrupted run.

Like :mod:`repro.persistence`, checkpoints are plain JSON (no pickle):
inspectable, diffable, and safe to load from an untrusted directory.
Every file carries a fingerprint of the run that wrote it (strategy
name, repeat index, cell seed, experiment configuration, and — for
spec-described runs — the resolved model and strategy specs); a
checkpoint whose fingerprint does not match the resuming run is *stale*
and is rejected with :class:`~repro.exceptions.CheckpointError` rather
than silently reused — resuming must never mix cells from different
experiments.  Embedding the specs makes each checkpoint self-describing
(the JSON alone says exactly which model and strategy produced it) and
lets staleness compare structured specs instead of repr strings.  Writes
go through :func:`repro.ioutil.atomic_write_text`, so a crash mid-write
can never leave a truncated document behind.

The ``final_model`` of a cell is deliberately not serialised: it is not
part of the aggregated comparison output, and keeping checkpoints
model-agnostic keeps them small and format-stable.  Resumed cells carry
``final_model=None``.

Beyond completed cells, the store also keeps *round-level session
snapshots* (``session_*.json``): the
:meth:`~repro.core.session.SessionEngine.snapshot` of a cell still in
flight, written after every committed round.  A resumed or retried run
restores the engine mid-cell instead of recomputing the finished rounds,
and the snapshot is discarded the moment its cell completes — only
in-flight cells ever have one on disk.  Snapshots are written and read
exactly like the cell files (atomic ``json.dumps`` writes, decoded and
envelope-checked on load); the envelope and fingerprint checks share
the :mod:`repro.ioutil` helpers with the session CLI and the service.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

# result_to_dict/result_from_dict are also imported from here by callers.
from ..core.session import SNAPSHOT_RULES, ALResult, result_from_dict, result_to_dict
from ..exceptions import CheckpointError, HistoryError
from ..formats import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    SESSION_CHECKPOINT_FORMAT,
    SESSION_CHECKPOINT_VERSION,
)
from ..ioutil import (
    atomic_write_json,
    check_fields,
    check_fingerprint,
    read_json,
    validate_envelope,
)
from .config import ExperimentConfig

#: Every field of a cell file's ``result`` that :func:`result_from_dict`
#: reads, checked by the same record rules as a session snapshot's.
RESULT_RULES = {
    "result": ("an object", lambda value: isinstance(value, dict)),
    "result.strategy_name": ("a string", lambda value: isinstance(value, str)),
    **{
        f"result.{key}": SNAPSHOT_RULES[key]
        for key in ("records", "selection_order", "history")
    },
}


def cell_stem(strategy: str, repeat: int) -> str:
    """Filesystem-safe identifier of one ``(strategy, repeat)`` cell.

    Strategy display names may contain characters that are unsafe in
    file names (``wshs:entropy``), so the name is slugged for
    readability and disambiguated with a short hash of the exact name.
    The same stem keys checkpoint files, session snapshots, and the
    distributed queue's cell tickets, so every artifact of one cell is
    greppable by one string.
    """
    digest = hashlib.sha1(strategy.encode("utf-8")).hexdigest()[:8]
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", strategy)[:40] or "strategy"
    return f"{slug}.{digest}_r{int(repeat)}"


def _read(path: Path, kind: str) -> "dict | None":
    """The decoded JSON of ``path``, or ``None`` if the file is absent.

    An unreadable or undecodable file raises
    :class:`~repro.exceptions.CheckpointError` naming ``kind``.
    """
    try:
        return read_json(path, CheckpointError, f"corrupt {kind}")
    except CheckpointError as error:
        if isinstance(error.__cause__, FileNotFoundError):
            return None
        raise


# -- the store ---------------------------------------------------------------


class CheckpointStore:
    """Directory of per-cell checkpoint files for one comparison run.

    Parameters
    ----------
    directory:
        Where cell files live; created (with parents) if missing.
    config:
        The run's :class:`ExperimentConfig`; its shape fields become part
        of every cell fingerprint so checkpoints from a differently
        configured run are detected as stale.
    model_spec, strategy_specs:
        The resolved :mod:`repro.specs` descriptions of the run's model
        and of each strategy (display name -> spec dict), when the run
        was spec-described.  They are embedded in every file (the
        checkpoint then states exactly which components produced it) and
        compared structurally on load; ``None`` (factory-described runs)
        keeps the old name-only fingerprint.
    scenario:
        The scenario fingerprint
        (:meth:`repro.specs.transforms.ScenarioSpec.fingerprint`) of the
        perturbations applied to the run's data, or ``None`` for an
        unperturbed run.  Part of every cell fingerprint: a checkpoint
        written under one perturbation must never satisfy a resume under
        another (or under none).  Identity scenarios fingerprint as
        ``None``, so their checkpoints stay byte-identical to
        scenario-free runs.
    """

    def __init__(
        self,
        directory: "str | Path",
        config: ExperimentConfig,
        model_spec: "dict | None" = None,
        strategy_specs: "dict[str, dict] | None" = None,
        scenario: "dict | None" = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._model_spec = model_spec
        self._strategy_specs = strategy_specs or {}
        self._scenario = scenario
        # The whole shape, training_mode included: warm runs follow a
        # different optimisation trajectory, so a cold checkpoint must
        # not satisfy a warm run or vice versa.
        self._config_fingerprint = config.to_dict()

    def _cell_specs(self, strategy: str) -> dict:
        """The spec fingerprint stored in (and expected of) a cell file."""
        return {
            "model": self._model_spec,
            "strategy": self._strategy_specs.get(strategy),
        }

    def _fingerprint(self, strategy: str, repeat: int, seed: int) -> dict:
        """The identity every document of one cell must carry to be fresh."""
        return {
            "strategy": strategy,
            "repeat": int(repeat),
            "seed": int(seed),
            "config": self._config_fingerprint,
            "specs": self._cell_specs(strategy),
            # Always part of the expected fingerprint (None when
            # unperturbed): fingerprint checks read absent payload keys
            # as None, so a perturbed checkpoint can never satisfy an
            # unperturbed resume or vice versa, while unperturbed
            # payloads keep their historical byte shape (no key).
            "scenario": self._scenario,
        }

    def cell_path(self, strategy: str, repeat: int) -> Path:
        """The checkpoint file for one ``(strategy, repeat)`` cell."""
        return self.directory / f"cell_{cell_stem(strategy, repeat)}.json"

    def save(self, strategy: str, repeat: int, seed: int, result: ALResult) -> Path:
        """Atomically write one completed cell; returns the file path."""
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "strategy": strategy,
            "repeat": int(repeat),
            "seed": int(seed),
            "config": self._config_fingerprint,
            "specs": self._cell_specs(strategy),
            "result": result_to_dict(result),
        }
        if self._scenario is not None:
            payload["scenario"] = self._scenario
        path = self.cell_path(strategy, repeat)
        atomic_write_json(path, payload)
        return path

    def load(self, strategy: str, repeat: int, seed: int) -> "ALResult | None":
        """Load one cell, or ``None`` when no checkpoint exists for it.

        Raises
        ------
        CheckpointError
            If the file exists but is unreadable, not a cell checkpoint,
            from an unsupported format version, stale (its fingerprint
            does not match this run's strategy/repeat/seed/config), or
            has a ``result`` field that breaks :data:`RESULT_RULES`.
        """
        path = self.cell_path(strategy, repeat)
        payload = _read(path, "checkpoint")
        if payload is None:
            return None
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"{path} is not a comparison-cell checkpoint")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {payload.get('version')!r} in {path}"
            )
        check_fingerprint(
            payload,
            self._fingerprint(strategy, repeat, seed),
            CheckpointError,
            source=f"checkpoint {path}",
            hint="clear the checkpoint directory or rerun without resume",
        )
        check_fields(payload, RESULT_RULES, CheckpointError, f"corrupt checkpoint {path}")
        try:
            return result_from_dict(payload["result"])
        except HistoryError as error:  # a rejected round
            raise CheckpointError(f"corrupt checkpoint {path}: {error}") from error

    # -- in-flight session snapshots -----------------------------------------

    def session_path(self, strategy: str, repeat: int) -> Path:
        """The round-level snapshot file of one in-flight cell.

        Prefixed ``session_`` so completed-cell bookkeeping (and
        anything globbing ``cell_*.json``) never mistakes an in-flight
        snapshot for a finished result.
        """
        return self.directory / f"session_{cell_stem(strategy, repeat)}.json"

    def save_session(
        self, strategy: str, repeat: int, seed: int, snapshot: dict
    ) -> Path:
        """Atomically write the in-flight snapshot of one cell."""
        payload = {
            "format": SESSION_CHECKPOINT_FORMAT,
            "version": SESSION_CHECKPOINT_VERSION,
            "strategy": strategy,
            "repeat": int(repeat),
            "seed": int(seed),
            "config": self._config_fingerprint,
            "specs": self._cell_specs(strategy),
            "session": snapshot,
        }
        if self._scenario is not None:
            payload["scenario"] = self._scenario
        path = self.session_path(strategy, repeat)
        atomic_write_json(path, payload)
        return path

    def load_session(self, strategy: str, repeat: int, seed: int) -> "dict | None":
        """The cell's mid-run session snapshot, or ``None`` if absent.

        Raises
        ------
        CheckpointError
            If the file exists but is unreadable, not a session
            snapshot, from an unsupported version, or written by a
            differently fingerprinted run.
        """
        path = self.session_path(strategy, repeat)
        payload = _read(path, "session snapshot")
        if payload is None:
            return None
        validate_envelope(
            payload,
            SESSION_CHECKPOINT_FORMAT,
            SESSION_CHECKPOINT_VERSION,
            CheckpointError,
            source=f"session snapshot {path}",
        )
        check_fingerprint(
            payload,
            self._fingerprint(strategy, repeat, seed),
            CheckpointError,
            source=f"session snapshot {path}",
            hint="clear the checkpoint directory or rerun without resume",
        )
        session = payload.get("session")
        if not isinstance(session, dict):
            raise CheckpointError(f"corrupt session snapshot {path}: no session")
        return session

    def discard_session(self, strategy: str, repeat: int) -> None:
        """Remove the cell's in-flight snapshot once the cell completes."""
        self.session_path(strategy, repeat).unlink(missing_ok=True)
