"""Write the legacy-artifact fixtures in this directory.

The fixtures are documents and artifacts as the release before the
removal of ``n_jobs``, ``start_method``, ``queue_backend`` and
``history_backend`` wrote them (commit ``c1fb78c``): every one of them
still carries those settings.  ``tests/test_legacy_artifacts.py`` checks
that the current code loads each of them.  Regenerate only from that
commit, never from the current tree::

    git archive c1fb78c | tar -x -C /tmp/old
    PYTHONPATH=/tmp/old/src python tests/fixtures/legacy/generate.py

Written files:

``experiment_defaults.json``
    ``repro config show --defaults`` (all four retired settings).
``experiment_tiny.json``
    The two-cell grid every other fixture comes from.
``checkpoints/cell_*.json``
    The completed ``wshs:entropy`` cell of that grid.
``checkpoints/session_*.json``
    The round-level snapshot of the ``random`` cell after its first
    committed round.
``session_snapshot.json``
    A bare :meth:`SessionEngine.snapshot` of the ``wshs:entropy`` cell
    after its first committed round.
``file_queue/``
    The grid materialized as a file-lease queue with one of its two
    cells done (the empty ``leases``/``retry``/``failed`` directories
    are recreated on open).
``sqlite_queue/queue.json``
    The envelope of the same grid materialized on the sqlite backend.
"""

import json
import shutil
import sys
from pathlib import Path

from repro.core.session import SessionEngine, run_to_completion
from repro.experiments import ExperimentConfig
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.distributed import create_queue, run_worker
from repro.experiments.runner import grid_repeat_seeds, run_comparison
from repro.specs import ExperimentSpec, Spec, build_model, build_strategy
from repro.specs.experiment import default_experiment_spec

HERE = Path(__file__).resolve().parent


class _Stop(Exception):
    """Ends a cell after its first committed round."""


def tiny_spec() -> ExperimentSpec:
    return ExperimentSpec(
        dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 7}),
        split=Spec(kind="fraction", params={"test_fraction": 0.3}),
        model=Spec(kind="linear", params={"epochs": 2, "batch_size": 32, "seed": 0}),
        strategies={
            "random": Spec(kind="random"),
            "wshs:entropy": Spec(
                kind="wshs", params={"base": {"kind": "entropy"}, "window": 2}
            ),
        },
        config=ExperimentConfig(batch_size=10, rounds=2, repeats=1, seed=9),
    )


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def first_round_snapshot(spec, strategy: str, seed: int, train, test) -> dict:
    engine = SessionEngine(
        build_model(spec.resolved_model().to_dict()),
        build_strategy(spec.strategies[strategy].to_dict()),
        train,
        test,
        batch_size=spec.config.batch_size,
        rounds=spec.config.rounds,
        seed_or_rng=seed,
    )
    snapshots = []

    def stop(engine):
        snapshots.append(engine.snapshot())
        raise _Stop

    try:
        run_to_completion(engine, on_round_committed=stop)
    except _Stop:
        pass
    return snapshots[0]


def main() -> int:
    for name in ("checkpoints", "file_queue", "sqlite_queue"):
        shutil.rmtree(HERE / name, ignore_errors=True)
    write_json(HERE / "experiment_defaults.json", default_experiment_spec().to_dict())
    spec = tiny_spec()
    write_json(HERE / "experiment_tiny.json", spec.to_dict())
    train, test, _task = spec.build_datasets()
    seed = int(grid_repeat_seeds(spec.config)[0])

    model_spec = spec.resolved_model().to_dict()
    strategy_specs = {name: s.to_dict() for name, s in spec.strategies.items()}
    scratch = HERE / "_scratch"
    run_comparison(
        model_spec, strategy_specs, train, test, config=spec.config,
        checkpoint_dir=str(scratch),
    )
    store = CheckpointStore(
        HERE / "checkpoints", spec.config,
        model_spec=model_spec, strategy_specs=strategy_specs,
    )
    cell = store.cell_path("wshs:entropy", 0)
    shutil.copy(scratch / cell.name, cell)
    shutil.rmtree(scratch)
    store.save_session(
        "random", 0, seed, first_round_snapshot(spec, "random", seed, train, test)
    )
    write_json(
        HERE / "session_snapshot.json",
        first_round_snapshot(spec, "wshs:entropy", seed, train, test),
    )

    create_queue(HERE / "file_queue", spec)
    run_worker(HERE / "file_queue", owner="legacy-worker", poll=0.05, max_cells=1)
    create_queue(HERE / "sqlite_queue", spec, backend="sqlite")
    for path in (HERE / "sqlite_queue").iterdir():
        if path.name != "queue.json":
            shutil.rmtree(path) if path.is_dir() else path.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
