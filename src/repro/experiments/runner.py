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
a failing cell runs again at once, up to ``max_retries`` extra times;
and ``on_error="skip"`` degrades gracefully, aggregating the surviving
repeats and attaching a per-cell failure log to each
:class:`StrategyResult` instead of raising.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..core.session import ALResult, SessionEngine, run_to_completion
from ..eval.curves import LearningCurve, curve_std, mean_curve
from ..exceptions import ConfigurationError, ExecutionError
from ..rng import ensure_rng
from ..specs.core import as_spec, is_spec_like
from ..specs.experiment import check_option
from ..specs.models import build_model
from ..specs.strategies import build_strategy
from .checkpoint import CheckpointStore
from .config import ExperimentConfig

StrategyFactory = Callable[[], object]

#: Recognised partial-failure handling modes of :func:`run_comparison`.
_ON_ERROR_MODES = ("raise", "skip")


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
    snapshot = None if store is None else store.load_session(strategy_name, repeat, int(seed))
    if snapshot is not None:
        engine = SessionEngine.restore(
            snapshot, model_factory(), strategy_factory(), train_dataset, test_dataset
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


def run_comparison(
    model_factory: "Callable[[], object] | Mapping | object",
    strategy_factories: "Mapping[str, StrategyFactory | Mapping]",
    train_dataset,
    test_dataset,
    config: ExperimentConfig | None = None,
    checkpoint_dir: "str | None" = None,
    resume: bool = True,
    max_retries: int = 0,
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
    max_retries:
        Extra attempts for a failing cell (default 0: none).  A retry
        runs at once and resumes the cell from its seed (or its last
        round snapshot), so a successful retry is indistinguishable from
        a first-attempt success.
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
    check_option("max_retries", max_retries)
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
    cells = [
        (strategy_index, repeat)
        for strategy_index in range(len(names))
        for repeat in range(config.repeats)
    ]
    results: dict[tuple[int, int], ALResult] = {}
    failures: dict[tuple[int, int], CellFailure] = {}
    # Settle checkpointed cells before any cell runs, so a stale
    # checkpoint fails the grid up front.  Without resume, leftover
    # mid-cell snapshots of an earlier run must not leak into this one.
    if store is not None:
        for strategy_index, repeat in cells:
            name, seed = names[strategy_index], int(repeat_seeds[repeat])
            loaded = store.load(name, repeat, seed) if resume else None
            if loaded is not None:
                results[(strategy_index, repeat)] = loaded
            if loaded is not None or not resume:
                store.discard_session(name, repeat)
    for cell in cells:
        if cell in results:
            continue
        strategy_index, repeat = cell
        name, seed = names[strategy_index], int(repeat_seeds[repeat])
        for attempt in range(1, max_retries + 2):
            try:
                result = _run_cell(
                    model_factory, factories[strategy_index], train_dataset,
                    test_dataset, config, seed, store=store,
                    strategy_name=name, repeat=repeat,
                )
            except Exception as error:
                if attempt <= max_retries:
                    continue
                if on_error == "raise":
                    raise ExecutionError(
                        f"cell ({name!r}, repeat {repeat}) failed after {attempt} "
                        f"attempt{'s' if attempt != 1 else ''}: {error}"
                    ) from error
                failures[cell] = CellFailure(
                    strategy=name, repeat=repeat, attempts=attempt,
                    error=f"{type(error).__name__}: {error}",
                )
                break
            results[cell] = result
            if store is not None:
                store.save(name, repeat, seed, result)
                store.discard_session(name, repeat)
            break
    return aggregate_strategy_results(names, config.repeats, results, failures)


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
