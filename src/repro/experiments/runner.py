"""Seeded multi-repeat experiment runner.

Runs a set of strategies over the same dataset/model with matched seeds
(repetition ``r`` of every strategy shares the same initial labeled set),
so differences between strategies are not confounded by different random
starts — the comparison protocol the paper's averaged curves imply.

Every (strategy, repeat) cell is an independent, fully seeded
computation.  :func:`run_comparison` runs the cells serially in this
process; the same cells run in parallel — on this host or across hosts —
through the lease queue of :mod:`repro.experiments.distributed`, whose
workers call the same :func:`_run_cell` and produce the same bytes.
Model and strategies may be given as factories (closures) or as
:mod:`repro.specs` specs; only a fully spec-described grid can go
through the queue, and its checkpoints embed the specs that produced
them.  Factory-built grids run serially.

The grid is also fault tolerant.  Completed cells can be checkpointed to
a directory as they finish (``checkpoint_dir``) and skipped on restart;
failing cells are retried up to :class:`RetryPolicy` bounds; and
``on_error="skip"`` degrades gracefully, aggregating the surviving
repeats and attaching a per-cell failure log to each
:class:`StrategyResult` instead of raising.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..core.session import ALResult, SessionEngine, run_to_completion
from ..eval.curves import LearningCurve, curve_std, mean_curve
from ..exceptions import ConfigurationError, ExecutionError
from ..rng import ensure_rng
from ..specs.core import as_spec, is_spec_like
from ..specs.models import build_model
from ..specs.strategies import build_strategy
from .checkpoint import CheckpointStore
from .config import ExperimentConfig

StrategyFactory = Callable[[], object]

#: Recognised partial-failure handling modes of :func:`run_comparison`.
_ON_ERROR_MODES = ("raise", "skip")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and pacing for failing (strategy, repeat) cells.

    Attributes
    ----------
    max_attempts:
        Total attempts per cell, including the first; ``1`` disables
        retries.
    backoff:
        Base delay in seconds before the second attempt of a cell.
        ``0.0`` (the default) keeps the historical immediate-retry
        behaviour.  Subsequent attempts wait exponentially longer
        (``backoff * backoff_factor ** (failures - 1)``), capped at
        ``max_delay``.
    backoff_factor:
        Multiplier between consecutive delays (must be >= 1).
    max_delay:
        Upper bound on any single delay, in seconds.
    jitter:
        Fraction of each delay that is randomised *deterministically*
        from the cell's identity and attempt number, in ``[0, 1]``.  A
        delay ``d`` becomes a value in ``[d * (1 - jitter), d]``, the
        same value on every host for the same cell — retries de-herd
        without introducing nondeterminism into test runs.
    """

    max_attempts: int = 1
    backoff: float = 0.0
    backoff_factor: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff < 0:
            raise ConfigurationError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_delay < 0:
            raise ConfigurationError(f"max_delay must be >= 0, got {self.max_delay}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay(self, failures: int, key: str = "") -> float:
        """Seconds to wait before the attempt following ``failures`` failures.

        Deterministic: the jitter fraction is derived from a hash of
        ``(key, failures)``, so the same cell waits the same time on
        every host and every rerun, while different cells spread out.
        """
        if self.backoff <= 0 or failures < 1:
            return 0.0
        raw = self.backoff * self.backoff_factor ** (failures - 1)
        delay = min(self.max_delay, raw)
        if self.jitter > 0:
            digest = hashlib.sha256(f"{key}:{failures}".encode("utf-8")).digest()
            fraction = int.from_bytes(digest[:8], "big") / 2**64
            delay *= 1.0 - self.jitter * fraction
        return delay


@dataclass(frozen=True)
class CellFailure:
    """Audit record of one permanently failed (strategy, repeat) cell."""

    strategy: str
    repeat: int
    attempts: int
    error: str


@dataclass
class StrategyResult:
    """Aggregated outcome of one strategy across repeats.

    ``runs`` holds the successful repeats only (all of them unless the
    grid ran with ``on_error="skip"`` and some cells failed); ``curve``
    and ``std`` aggregate exactly those runs.  ``failures`` is the audit
    log of the repeats that were dropped.
    """

    name: str
    curve: LearningCurve
    std: np.ndarray
    runs: list[ALResult]
    failures: list[CellFailure] = field(default_factory=list)


def _factory_from_spec(builder: Callable[[dict], object], spec: dict) -> Callable[[], object]:
    """A picklable zero-arg factory equivalent to ``lambda: builder(spec)``."""
    return partial(builder, spec)


def _normalise_components(
    model_factory, strategy_factories: "Mapping[str, object]"
) -> tuple[Callable[[], object], dict, "dict | None", "dict[str, dict] | None"]:
    """Accept factories *or* specs for the model and each strategy.

    Returns ``(model_factory, factories_by_name, model_spec,
    strategy_specs)`` where the factories are zero-arg callables (spec
    inputs become partials over the spec builders) and the spec dicts
    are ``None`` unless *every* component was given as a spec — only
    then is the grid fully data-described (spec-fingerprinted
    checkpoints).
    """
    model_spec = None
    if is_spec_like(model_factory):
        model_spec = as_spec(model_factory).to_dict()
        model_factory = _factory_from_spec(build_model, model_spec)
    elif not callable(model_factory):
        raise ConfigurationError(
            f"model_factory must be a zero-arg callable or a model spec, "
            f"got {type(model_factory).__name__}"
        )
    factories: dict[str, Callable[[], object]] = {}
    strategy_specs: dict[str, dict] = {}
    for name, value in strategy_factories.items():
        if is_spec_like(value):
            spec = as_spec(value).to_dict()
            strategy_specs[name] = spec
            factories[name] = _factory_from_spec(build_strategy, spec)
        elif callable(value):
            factories[name] = value
        else:
            raise ConfigurationError(
                f"strategy {name!r} must be a zero-arg factory or a "
                f"strategy spec, got {type(value).__name__}"
            )
    fully_specced = model_spec is not None and len(strategy_specs) == len(factories)
    return (
        model_factory,
        factories,
        model_spec if fully_specced else None,
        strategy_specs if fully_specced else None,
    )


def grid_repeat_seeds(config: ExperimentConfig) -> np.ndarray:
    """The grid's per-repeat cell seeds (derived from ``config.seed``).

    Repetition ``r`` of *every* strategy shares seed ``r`` — the
    matched-seed protocol.  The distributed coordinator materializes the
    same seeds into its cell tickets, which is what makes a distributed
    grid byte-identical to :func:`run_comparison`.
    """
    return ensure_rng(config.seed).integers(0, 2**63 - 1, size=config.repeats)


def _run_cell(
    model_factory: Callable[[], object],
    strategy_factory: StrategyFactory,
    train_dataset,
    test_dataset,
    config: ExperimentConfig,
    metric,
    seed: int,
    store: "CheckpointStore | None" = None,
    strategy_name: "str | None" = None,
    repeat: int = 0,
) -> ALResult:
    """Run one (strategy, repeat) cell of the comparison grid.

    With a checkpoint ``store`` attached, the engine's round-level
    snapshot is written after every committed round, and an existing
    snapshot for this cell (left behind by a crash or a failed attempt)
    is restored instead of recomputing the finished rounds.  Resuming is
    byte-identical to running the cell uninterrupted, so a resumed retry
    is indistinguishable from a first-attempt success.
    """
    snapshot = None
    if store is not None:
        snapshot = store.load_session(strategy_name, repeat, int(seed))
    if snapshot is not None:
        engine = SessionEngine.restore(
            snapshot,
            model_factory(),
            strategy_factory(),
            train_dataset,
            test_dataset,
            metric=metric,
        )
    else:
        engine = SessionEngine(
            model_factory(),
            strategy_factory(),
            train_dataset,
            test_dataset,
            batch_size=config.batch_size,
            rounds=config.rounds,
            initial_size=config.initial_size,
            metric=metric,
            seed_or_rng=int(seed),
            training_mode=config.training_mode,
            track_flips=config.track_flips,
        )
    on_round_committed = None
    if store is not None:
        on_round_committed = lambda e: store.save_session(  # noqa: E731
            strategy_name, repeat, int(seed), e.snapshot()
        )
    return run_to_completion(engine, on_round_committed=on_round_committed)


class _CellGrid:
    """Bookkeeping for one grid execution: pending cells, retries, results.

    A *cell* is a ``(strategy_index, repeat_index)`` tuple.  Cells move
    from ``pending`` to either ``results`` (success, checkpointed if a
    store is attached) or ``failures`` (permanent failure under
    ``on_error="skip"``); under ``on_error="raise"`` a permanent failure
    raises :class:`ExecutionError` instead.
    """

    def __init__(
        self,
        names: list[str],
        repeat_seeds: np.ndarray,
        policy: RetryPolicy,
        on_error: str,
        store: "CheckpointStore | None",
    ) -> None:
        self.names = names
        self.repeat_seeds = repeat_seeds
        self.policy = policy
        self.on_error = on_error
        self.store = store
        self.pending: list[tuple[int, int]] = [
            (strategy_index, repeat_index)
            for strategy_index in range(len(names))
            for repeat_index in range(len(repeat_seeds))
        ]
        self.results: dict[tuple[int, int], ALResult] = {}
        self.failures: dict[tuple[int, int], CellFailure] = {}
        self.attempts: dict[tuple[int, int], int] = {}

    def describe(self, cell: "tuple[int, int]") -> str:
        return f"({self.names[cell[0]]!r}, repeat {cell[1]})"

    def retry_delay(self, cell: "tuple[int, int]") -> float:
        """Backoff before this cell's next attempt (0.0 = retry now)."""
        return self.policy.delay(
            self.attempts.get(cell, 0), key=f"{self.names[cell[0]]}:{cell[1]}"
        )

    def cell_seed(self, cell: "tuple[int, int]") -> int:
        return int(self.repeat_seeds[cell[1]])

    def resume(self) -> None:
        """Load already-completed cells from the checkpoint store."""
        if self.store is None:
            return
        for cell in list(self.pending):
            loaded = self.store.load(
                self.names[cell[0]], cell[1], self.cell_seed(cell)
            )
            if loaded is not None:
                self.results[cell] = loaded
                self.pending.remove(cell)
                self.store.discard_session(self.names[cell[0]], cell[1])

    def drop_stale_sessions(self) -> None:
        """Discard leftover mid-cell snapshots of every pending cell.

        Called when ``resume=False``: snapshots from a previous run must
        not leak into a run that explicitly asked to start over.
        """
        if self.store is None:
            return
        for cell in self.pending:
            self.store.discard_session(self.names[cell[0]], cell[1])

    def record_success(self, cell: "tuple[int, int]", result: ALResult) -> None:
        self.results[cell] = result
        self.pending.remove(cell)
        if self.store is not None:
            self.store.save(self.names[cell[0]], cell[1], self.cell_seed(cell), result)
            self.store.discard_session(self.names[cell[0]], cell[1])

    def record_error(self, cell: "tuple[int, int]", error: Exception) -> bool:
        """Count one failed attempt; True if the cell should be retried.

        Raises
        ------
        ExecutionError
            When the retry budget is exhausted and ``on_error="raise"``.
        """
        attempts = self.attempts.get(cell, 0) + 1
        self.attempts[cell] = attempts
        if attempts < self.policy.max_attempts:
            return True
        message = (
            f"cell {self.describe(cell)} failed after {attempts} "
            f"attempt{'s' if attempts != 1 else ''}: {error}"
        )
        if self.on_error == "raise":
            raise ExecutionError(message) from error
        self.failures[cell] = CellFailure(
            strategy=self.names[cell[0]],
            repeat=cell[1],
            attempts=attempts,
            error=f"{type(error).__name__}: {error}",
        )
        self.pending.remove(cell)
        return False


def _run_serial(
    grid: _CellGrid,
    model_factory,
    factories,
    train_dataset,
    test_dataset,
    config,
    metric,
) -> None:
    """In-process execution with per-cell retry.

    A retry of a cell whose engine snapshotted committed rounds resumes
    from the last snapshot rather than recomputing them.  Retries wait
    out the policy's (jittered, deterministic) backoff first.
    """
    for cell in list(grid.pending):
        while True:
            try:
                result = _run_cell(
                    model_factory,
                    factories[cell[0]],
                    train_dataset,
                    test_dataset,
                    config,
                    metric,
                    grid.cell_seed(cell),
                    store=grid.store,
                    strategy_name=grid.names[cell[0]],
                    repeat=cell[1],
                )
            except Exception as error:
                if grid.record_error(cell, error):
                    delay = grid.retry_delay(cell)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                break
            grid.record_success(cell, result)
            break


def run_comparison(
    model_factory: "Callable[[], object] | Mapping | object",
    strategy_factories: "Mapping[str, StrategyFactory | Mapping]",
    train_dataset,
    test_dataset,
    config: ExperimentConfig | None = None,
    metric: "Callable[[object, object], float] | None" = None,
    checkpoint_dir: "str | None" = None,
    resume: bool = True,
    retry: "RetryPolicy | None" = None,
    on_error: str = "raise",
    scenario: "dict | None" = None,
) -> dict[str, StrategyResult]:
    """Run every strategy ``config.repeats`` times and average the curves.

    Cells run serially in this process.  To run a spec-described grid in
    parallel or across hosts, use
    :func:`~repro.experiments.distributed.run_distributed`; its results
    are byte-identical to this function's.

    Parameters
    ----------
    model_factory:
        Zero-argument callable producing a fresh unfitted model, or a
        model :class:`~repro.specs.core.Spec` (or its dict form) naming
        a registered model kind.
    strategy_factories:
        Mapping from display name to a zero-argument strategy factory
        (factories, not instances: history-aware strategies are stateful
        per run) or to a strategy spec.  When the model *and* every
        strategy are given as specs the grid is fully data-described and
        checkpoints embed the specs.
    checkpoint_dir:
        When set, every completed cell is written to this directory as a
        JSON checkpoint the moment it finishes (atomically — a crash
        mid-write never leaves a corrupt file), and with ``resume=True``
        cells already checkpointed by a previous identically-configured
        run are loaded instead of recomputed.  In-flight cells
        additionally snapshot their session after every committed round
        (``session_*.json``), so a crash *inside* a cell resumes from
        the last finished round rather than round zero; the snapshot is
        deleted when its cell completes.  A resumed grid produces
        results byte-identical to an uninterrupted run.
    resume:
        Whether to reuse existing checkpoints in ``checkpoint_dir``.
        With ``False``, existing cell files are ignored and overwritten.
        Checkpoints whose fingerprint does not match this run raise
        :class:`~repro.exceptions.CheckpointError` rather than being
        silently reused.
    retry:
        Per-cell retry budget (default: no retries).  Retrying reruns
        the whole cell from its seed, so a successful retry is
        indistinguishable from a first-attempt success.
    on_error:
        ``"raise"`` (default) aborts the grid on the first permanently
        failed cell.  ``"skip"`` drops the failed cells, aggregates
        each strategy over its surviving repeats, and records the
        failures on :attr:`StrategyResult.failures`.  A strategy whose repeats *all*
        failed still raises — there is nothing left to aggregate.

    Returns
    -------
    dict
        Display name -> :class:`StrategyResult`, in input order.
    """
    if not strategy_factories:
        raise ConfigurationError("no strategies to compare")
    if on_error not in _ON_ERROR_MODES:
        raise ConfigurationError(
            f"on_error must be one of {_ON_ERROR_MODES}, got {on_error!r}"
        )
    config = config or ExperimentConfig()
    needed = config.labels_needed
    if needed > len(train_dataset):
        raise ConfigurationError(
            f"experiment needs {needed} pool samples (initial_size + "
            f"rounds * batch_size) but train_dataset has only "
            f"{len(train_dataset)}; shrink rounds/batch_size or enlarge "
            "the pool"
        )
    model_factory, factories_by_name, model_spec, strategy_specs = (
        _normalise_components(model_factory, strategy_factories)
    )
    repeat_seeds = grid_repeat_seeds(config)
    names = list(factories_by_name)
    factories = [factories_by_name[name] for name in names]
    store = (
        CheckpointStore(
            checkpoint_dir,
            config,
            model_spec=model_spec,
            strategy_specs=strategy_specs,
            # Scenario fingerprint of the (already perturbed) datasets:
            # checkpoints written under a different perturbation are
            # stale, not reusable.
            scenario=scenario,
        )
        if checkpoint_dir
        else None
    )

    grid = _CellGrid(names, repeat_seeds, retry or RetryPolicy(), on_error, store)
    if resume:
        grid.resume()
    else:
        grid.drop_stale_sessions()

    _run_serial(
        grid, model_factory, factories, train_dataset, test_dataset, config, metric
    )

    return aggregate_strategy_results(names, config.repeats, grid.results, grid.failures)


def aggregate_strategy_results(
    names: "list[str]",
    repeats: int,
    cell_results: "Mapping[tuple[int, int], ALResult]",
    cell_failures: "Mapping[tuple[int, int], CellFailure]",
) -> dict[str, StrategyResult]:
    """Fold per-cell outcomes into per-strategy aggregates, in input order.

    Shared by :func:`run_comparison` and the distributed coordinator:
    both settle every ``(strategy_index, repeat_index)`` cell into either
    an :class:`~repro.core.session.ALResult` or a :class:`CellFailure`,
    and aggregation is where the two execution paths must converge to
    the exact same curves.

    Raises
    ------
    ExecutionError
        When every repeat of some strategy failed — there is nothing
        left to aggregate for it.
    """
    results: dict[str, StrategyResult] = {}
    for strategy_index, name in enumerate(names):
        runs = [
            cell_results[(strategy_index, repeat_index)]
            for repeat_index in range(repeats)
            if (strategy_index, repeat_index) in cell_results
        ]
        strategy_failures = [
            cell_failures[cell]
            for cell in sorted(cell_failures)
            if cell[0] == strategy_index
        ]
        if not runs:
            raise ExecutionError(
                f"all {repeats} repeats of strategy {name!r} failed; "
                "nothing to aggregate"
            )
        curves = [run.curve(label=name) for run in runs]
        results[name] = StrategyResult(
            name=name,
            curve=mean_curve(curves, label=name),
            std=curve_std(curves),
            runs=runs,
            failures=strategy_failures,
        )
    return results
