"""Command-line interface: run comparisons and train rankers from a shell.

Batch subcommands::

    python -m repro compare --dataset mr --scale 0.1 \
        --strategies random entropy wshs:entropy fhs:entropy \
        --rounds 10 --batch-size 25 --repeats 3

    python -m repro run --config experiment.json
    python -m repro config validate experiment.json
    python -m repro config show --defaults

    python -m repro train-ranker --dataset subj --scale 0.1 \
        --base entropy --output ranker.json

Strategy specs are ``name`` or ``wrapper:base`` using the registry keys
(``random``, ``entropy``, ``lc``, ``egl``, ``hus``, ``wshs``, ``fhs``,
``mnlp``, ...).  ``lhs:<base>`` needs ``--ranker <file>`` produced by
``train-ranker``.

``compare`` flags and a ``run --config`` document are two front ends to
the same :class:`~repro.specs.ExperimentSpec`: the flag parser builds the
identical spec internally, so the two invocations produce byte-identical
results.

The ``session`` family drives one interactive annotation session through
files on disk, for external (human) annotators::

    python -m repro session init --dir run1 --dataset mr --strategy wshs:entropy
    python -m repro session propose --dir run1        # re-print the open batch
    #   ... fill in run1/proposal.json's labels template -> labels.json ...
    python -m repro session ingest --dir run1 --labels labels.json
    python -m repro session status --dir run1

Each ``ingest`` commits the batch, retrains, and proposes the next one
(``--oracle`` answers from the dataset's own labels instead, for smoke
tests).  All state lives in the session directory as plain JSON, so the
machine can be rebooted between any two commands.

The same commands drive sessions hosted on a running session server
(``python -m repro serve``) by swapping ``--dir`` for ``--server`` +
``--session``.  A server keeps every session in one store: ``--sqlite
FILE``, ``--json-dir DIR``, or (with neither) memory::

    python -m repro serve --port 8700 --sqlite sessions.db
    python -m repro session init --server http://127.0.0.1:8700 \
        --session s1 --dataset mr --strategy wshs:entropy
    python -m repro session ingest --server http://127.0.0.1:8700 \
        --session s1 --oracle
    python -m repro session result --server http://127.0.0.1:8700 \
        --session s1 --output result.json

Both modes are thin clients of the same service API, so a session driven
over HTTP produces results byte-identical to the file-based workflow.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Sequence
from pathlib import Path

from functools import partial

from .core.ranker_training import RankerTrainingConfig, train_lhs_ranker
from .core.strategies import create_strategy
from .eval.curves import LearningCurve
from .exceptions import (
    ConfigurationError,
    IngestError,
    ReproError,
    ServiceError,
    SessionError,
)
from .experiments import ExperimentConfig, plot_curves
from .experiments.distributed import run_worker
from .experiments.reporting import (
    accumulate_phase_times,
    format_curve_table,
    format_metric_table,
    format_phase_times,
    format_sweep_matrix,
    format_target_table,
)
from .experiments.sweep import (
    cell_directories,
    execute_experiment,
    metric_matrices,
    run_sweep,
)
from .formats import (
    SESSION_DIR_FORMAT,
    SESSION_DIR_VERSION,
    SESSION_RESULT_FORMAT,
    SESSION_RESULT_VERSION,
)
from .ioutil import atomic_write_json, validate_envelope
from .models import LinearSoftmax
from .persistence import save_lhs_ranker
from .service import (
    JsonSessionStore,
    MemorySessionStore,
    SessionClient,
    SessionService,
    SqliteSessionStore,
    make_server,
)
from .specs import (
    ExperimentSpec,
    Spec,
    SweepSpec,
    build_dataset,
    build_model,
    build_split,
    build_strategy,
    default_experiment_spec,
    default_model_spec,
    parse_strategy_shorthand,
)


def build_strategy_factory(
    spec: str, window: int, ranker_path: "str | None"
) -> Callable[[], object]:
    """Turn a ``name`` / ``wrapper:base`` spec into a strategy factory.

    Thin shim over :func:`repro.specs.parse_strategy_shorthand` +
    :func:`repro.specs.build_strategy`; the returned factory is a
    picklable partial over pure spec data.
    """
    parsed = parse_strategy_shorthand(spec, window=window, ranker_path=ranker_path)
    return partial(build_strategy, parsed.to_dict())


def _load_dataset(name: str, scale: float, seed: int):
    """Build ``(dataset, task)`` from CLI flags (shim over dataset specs)."""
    return build_dataset(Spec(kind=name, params={"scale": scale, "seed": seed}))


def _split(dataset, test_fraction: float):
    """Head/tail train-test split (shim over the ``fraction`` split spec)."""
    return build_split(
        Spec(kind="fraction", params={"test_fraction": test_fraction}), dataset
    )


def _model_factory(kind: str, epochs: int):
    """The default model factory for a task family (shim over model specs)."""
    return partial(build_model, default_model_spec(kind, epochs).to_dict())


def _experiment_from_flags(args: argparse.Namespace) -> ExperimentSpec:
    """The ``compare`` flag set as a declarative experiment document.

    ``repro run --config`` executes the same :class:`ExperimentSpec`, so
    flags and config files are interchangeable front ends.
    """
    spec = ExperimentSpec(
        dataset=Spec(kind=args.dataset, params={"scale": args.scale, "seed": args.seed}),
        split=Spec(kind="fraction", params={"test_fraction": args.test_fraction}),
        strategies={
            text: parse_strategy_shorthand(text, args.window, args.ranker)
            for text in args.strategies
        },
        config=ExperimentConfig(
            batch_size=args.batch_size,
            rounds=args.rounds,
            repeats=args.repeats,
            seed=args.seed,
            training_mode=args.training_mode,
        ),
        runner={
            "checkpoint_dir": args.checkpoint_dir,
            "resume": args.resume,
            "max_retries": args.max_retries,
            "backoff": args.backoff,
            "on_error": args.on_error,
            "queue_dir": args.queue_dir,
            "local_workers": args.local_workers,
            "lease_ttl": args.lease_ttl,
            "timeout": args.grid_timeout,
        },
        report={"targets": list(args.targets), "plot": args.plot},
    )
    spec.model = default_model_spec(spec.task, args.epochs)
    return spec


def _print_report(spec: ExperimentSpec, results: dict, train, task: str) -> None:
    """Print one experiment's report (warnings and timings to stderr)."""
    for result in results.values():
        for failure in result.failures:
            print(
                f"warning: dropped cell ({failure.strategy!r}, repeat "
                f"{failure.repeat}) after {failure.attempts} attempt(s): "
                f"{failure.error}",
                file=sys.stderr,
            )
    # Phase wall-times go to stderr: stdout stays byte-comparable across
    # runs (the CI smokes diff it), and timings never are.
    phase_totals = {}
    for name, result in results.items():
        run_totals = [
            totals
            for run in result.runs
            if (totals := accumulate_phase_times(run.records)) is not None
        ]
        if run_totals:
            phase_totals[name] = {
                phase: sum(t.get(phase, 0.0) for t in run_totals)
                for phase in ("train", "evaluate", "propose", "ingest")
            }
    if phase_totals:
        print(
            format_phase_times(
                phase_totals,
                title=f"phase wall-times over {spec.config.repeats} repeat(s), "
                      f"training_mode={spec.config.training_mode}",
            ),
            file=sys.stderr,
        )
    curves = {name: result.curve for name, result in results.items()}
    metric = "accuracy" if task == "text" else "span F1"
    print(format_curve_table(
        curves,
        title=f"{train.name}: {metric} vs labeled samples "
              f"(mean over {spec.config.repeats} repeats)",
    ))
    if spec.report["targets"]:
        print()
        print(format_target_table(curves, targets=spec.report["targets"]))
    if spec.report["plot"]:
        print()
        print(plot_curves(curves))


def _run_experiment(spec: ExperimentSpec) -> int:
    """Execute one experiment document and print its report."""
    results, train, _test, task = execute_experiment(spec)
    _print_report(spec, results, train, task)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        raise ConfigurationError("--resume requires --checkpoint-dir")
    return _run_experiment(_experiment_from_flags(args))


def _cmd_run(args: argparse.Namespace) -> int:
    return _run_experiment(ExperimentSpec.from_file(args.config))


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    """Execute every cell of a sweep document and print matrix reports."""
    sweep = SweepSpec.from_file(args.file)
    cells = sweep.cells()
    if len(cells) == 1 and cells[0].document == sweep.base:
        # Degenerate 1x1 sweep with no perturbations: run the base
        # document through the exact 'repro run --config' path, so the
        # output is byte-identical to it (the contract sweep semantics
        # are anchored on).
        spec = cells[0].spec
        if args.sweep_dir:
            checkpoint_dir, _queue = cell_directories(args.sweep_dir, cells[0])
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
            spec.runner["checkpoint_dir"] = str(checkpoint_dir)
            if args.resume:
                spec.runner["resume"] = True
        return _run_experiment(spec)
    total = len(cells)
    progress = {"done": 0}

    def on_cell(result, train) -> None:
        progress["done"] += 1
        print(f"=== cell {result.cell.key} ({progress['done']}/{total}) ===")
        _print_report(result.cell.spec, result.results, train, result.task)
        print()
        print(format_metric_table(
            result.metrics, title=f"metrics: {result.cell.key}"
        ))
        print()

    outcome = run_sweep(
        sweep, sweep_dir=args.sweep_dir, resume=args.resume, on_cell=on_cell
    )
    for matrix in metric_matrices(outcome):
        corner = (
            f"{matrix['row_axis']} \\ {matrix['col_axis']}"
            if matrix["row_axis"]
            else matrix["col_axis"]
        )
        print(format_sweep_matrix(
            matrix["values"],
            matrix["rows"],
            matrix["cols"],
            corner=corner,
            title=f"{matrix['metric']} [{matrix['strategy']}] across the grid",
        ))
        print()
    return 0


def _cmd_sweep_validate(args: argparse.Namespace) -> int:
    sweep = SweepSpec.from_file(args.file)
    for note in sweep.validate():
        print(note)
    print(f"{args.file}: valid sweep document")
    return 0


def _cmd_sweep_show(args: argparse.Namespace) -> int:
    sweep = SweepSpec.from_file(args.file)
    if args.cells:
        for cell in sweep.cells():
            print(f"=== cell {cell.key or '(degenerate)'} [{cell.slug}] ===")
            print(json.dumps(cell.document, indent=2))
        return 0
    print(json.dumps(sweep.to_dict(), indent=2))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Join a distributed grid: claim, execute, and commit cells."""

    def report(event: str, cell_id: str) -> None:
        if event != "heartbeat":  # one line per renewal would be noise
            print(f"worker: {event} {cell_id}", file=sys.stderr)

    summary = run_worker(
        args.queue_dir,
        owner=args.owner,
        poll=args.poll,
        max_cells=args.max_cells,
        on_event=report if args.verbose else None,
    )
    print(
        f"worker {summary['owner']}: {summary['completed']} cell(s) completed "
        f"({summary['recovered']} recovered from dead workers), "
        f"{summary['failed']} attempt(s) failed"
    )
    return 0


def _cmd_config_validate(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.from_file(args.file)
    for note in spec.validate():
        print(note)
    print(f"{args.file}: valid experiment document")
    return 0


def _cmd_config_show(args: argparse.Namespace) -> int:
    if args.file:
        spec = ExperimentSpec.from_file(args.file)
    elif args.defaults:
        spec = default_experiment_spec()
    else:
        raise ConfigurationError("pass --defaults or a config file to show")
    print(json.dumps(spec.to_dict(), indent=2))
    return 0


def _cmd_train_ranker(args: argparse.Namespace) -> int:
    dataset, kind = _load_dataset(args.dataset, args.scale, args.seed)
    if kind != "text":
        raise ConfigurationError("train-ranker supports text datasets only")
    train, test = _split(dataset, args.test_fraction)
    ranker = train_lhs_ranker(
        LinearSoftmax(epochs=args.epochs, batch_size=32, seed=0),
        train,
        test,
        base=create_strategy(args.base),
        config=RankerTrainingConfig(
            rounds=args.rounds,
            candidates_per_round=args.candidates,
            initial_size=args.batch_size,
            window=args.window,
            predictor=args.predictor if args.predictor != "none" else None,
            eval_size=min(250, len(test)),
        ),
        seed_or_rng=args.seed,
    )
    save_lhs_ranker(ranker, args.output)
    print(
        f"trained LHS ranker on {ranker.training_rows} candidate evaluations "
        f"(base={ranker.base_name}); saved to {args.output}"
    )
    return 0


# -- interactive annotation sessions -----------------------------------------

#: Session id of the single session a ``--dir`` directory holds; its
#: document is ``<dir>/session.json``, the exact file the pre-service
#: CLI wrote.
_DIR_SESSION_ID = "session"


def _session_file(directory: "str | Path") -> Path:
    """The session document inside a ``--dir`` session directory."""
    return Path(directory) / "session.json"


def _proposal_file(directory: "str | Path") -> Path:
    """The annotator-facing proposal file of a session directory."""
    return Path(directory) / "proposal.json"


def _result_file(directory: "str | Path") -> Path:
    """The finished audit-trail file of a session directory."""
    return Path(directory) / "result.json"


def _session_client(args: argparse.Namespace) -> "tuple[SessionClient, str, Path | None]":
    """Resolve a session subcommand to ``(client, session_id, directory)``.

    The session CLI is a thin client of the AL service in both modes:
    ``--dir`` builds an in-process service over a
    :class:`~repro.service.JsonSessionStore` rooted at the directory
    (session id ``"session"`` — the stored ``session.json`` is
    byte-identical to the pre-service layout), while ``--server`` speaks
    HTTP to a running ``repro serve`` (``directory`` is ``None`` there).
    """
    directory = getattr(args, "dir", None)
    server = getattr(args, "server", None)
    if (directory is None) == (server is None):
        raise ConfigurationError("pass exactly one of --dir <directory> or --server <url>")
    if server is not None:
        session_id = getattr(args, "session", None)
        if not session_id:
            raise ConfigurationError("--server mode needs --session <id>")
        return SessionClient.http(server), session_id, None
    service = SessionService(JsonSessionStore(directory))
    return SessionClient.in_process(service), _DIR_SESSION_ID, Path(directory)


def _missing_session_error(directory: "Path | None", error: ServiceError) -> ReproError:
    """Translate the service's 404 into a directory-mode hint."""
    if directory is not None and getattr(error, "status", None) == 404:
        return SessionError(
            f"no session in {directory} (missing {_session_file(directory)}); "
            f"run 'repro session init --dir {directory}' first"
        )
    return error


def _result_envelope(payload: dict) -> dict:
    """Wrap a service result payload in the on-disk audit-trail envelope."""
    return {
        "format": SESSION_RESULT_FORMAT,
        "version": SESSION_RESULT_VERSION,
        "result": payload["result"],
    }


def _render_finished(response: dict, directory: "Path | None") -> int:
    """Report a finished session (write ``result.json`` in ``--dir`` mode)."""
    recipe = response.get("recipe", {})
    print(f"session finished after {response['round']} rounds")
    counts = [point[0] for point in response["curve"]]
    values = [point[1] for point in response["curve"]]
    print(format_curve_table(
        {recipe.get("strategy", "session"): LearningCurve(counts, values)},
        title=f"{recipe.get('dataset', 'session')}: metric vs labeled samples",
    ))
    if directory is not None:
        atomic_write_json(_result_file(directory), _result_envelope(response))
        _proposal_file(directory).unlink(missing_ok=True)
        print(f"full audit trail written to {_result_file(directory)}")
    else:
        print(
            "fetch the audit trail with: repro session result "
            f"--server <url> --session {response['id']} --output <file>"
        )
    return 0


def _render_proposal(
    response: dict, directory: "Path | None", output: "str | None" = None
) -> int:
    """Persist/print the pending batch the way annotators consume it."""
    proposal = {
        "round": response["round"],
        "indices": response["indices"],
        "samples": response["samples"],
        # Copy into a labels file, replace the nulls, pass to ingest.
        "labels_template": response["labels_template"],
    }
    if directory is not None:
        atomic_write_json(_proposal_file(directory), proposal)
        print(
            f"round {response['round']}: {len(response['indices'])} samples "
            f"await labels (see {_proposal_file(directory)})"
        )
        print(
            "label them with: repro session ingest --dir "
            f"{directory} --labels <file>  (or --oracle)"
        )
    elif output:
        atomic_write_json(Path(output), proposal)
        print(
            f"round {response['round']}: {len(response['indices'])} samples "
            f"await labels (written to {output})"
        )
    else:
        print(json.dumps(proposal, indent=2))
    return 0


def _advance_session(
    client: SessionClient,
    session_id: str,
    directory: "Path | None",
    output: "str | None" = None,
) -> int:
    """Drive the session to its next proposal (or the end) and render it."""
    response = client.propose(session_id)
    if response.get("finished"):
        return _render_finished(response, directory)
    return _render_proposal(response, directory, output)


def _cmd_session_init(args: argparse.Namespace) -> int:
    recipe = {
        "dataset": args.dataset,
        "scale": args.scale,
        "test_fraction": args.test_fraction,
        "strategy": args.strategy,
        "window": args.window,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "rounds": args.rounds,
        "initial_size": args.initial_size,
        "seed": args.seed,
        "ranker": args.ranker,
        "training_mode": args.training_mode,
    }
    directory = getattr(args, "dir", None)
    server = getattr(args, "server", None)
    if (directory is None) == (server is None):
        raise ConfigurationError("pass exactly one of --dir <directory> or --server <url>")
    if directory is not None:
        directory = Path(directory)
        if _session_file(directory).exists():
            raise ConfigurationError(
                f"{_session_file(directory)} already exists; use "
                "'repro session propose/ingest/status' to continue it"
            )
        service = SessionService(JsonSessionStore(directory))
        client = SessionClient.in_process(service)
        response = client.create(recipe, session_id=_DIR_SESSION_ID)
        where = str(directory)
    else:
        client = SessionClient.http(server)
        # --session is optional on init: the server generates an id.
        response = client.create(recipe, session_id=getattr(args, "session", None))
        where = f"{response['id']} on {server}"
    print(
        f"initialised session in {where}: {recipe['strategy']} on "
        f"{recipe['dataset']} ({response['n_train']} pool / "
        f"{response['n_test']} test samples)"
    )
    return _advance_session(client, response["id"], directory, getattr(args, "output", None))


def _cmd_session_propose(args: argparse.Namespace) -> int:
    client, session_id, directory = _session_client(args)
    try:
        return _advance_session(client, session_id, directory, getattr(args, "output", None))
    except ServiceError as error:
        raise _missing_session_error(directory, error)


def _cmd_session_ingest(args: argparse.Namespace) -> int:
    if (args.labels is None) == (not args.oracle):
        raise ConfigurationError("pass exactly one of --labels <file> or --oracle")
    client, session_id, directory = _session_client(args)
    if args.oracle:
        indices, labels = None, None
    else:
        try:
            payload = json.loads(Path(args.labels).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise IngestError(f"cannot read labels file {args.labels}: {error}")
        mapping = payload.get("labels", payload) if isinstance(payload, dict) else None
        if not isinstance(mapping, dict):
            raise IngestError(
                f"{args.labels} must hold a JSON object mapping sample index "
                "to label (the proposal's labels_template, filled in)"
            )
        unfilled = sorted(key for key, value in mapping.items() if value is None)
        if unfilled:
            raise IngestError(
                f"labels file {args.labels} still has null labels for "
                f"indices {unfilled[:5]}"
            )
        indices = [int(key) for key in mapping]
        labels = [mapping[key] for key in mapping]
    try:
        response = client.ingest(
            session_id, indices=indices, labels=labels, oracle=args.oracle
        )
    except ServiceError as error:
        raise _missing_session_error(directory, error)
    print(f"ingested labels; committed round {response['round']}, retraining...")
    return _advance_session(client, session_id, directory, getattr(args, "output", None))


def _print_status(recipe: dict, snapshot: dict) -> int:
    """Print one session's state from its recipe + snapshot document."""
    pending = snapshot["pending"]
    print(f"dataset:  {recipe['dataset']} (scale {recipe['scale']})")
    print(f"strategy: {snapshot['config']['strategy']}")
    print(f"state:    {snapshot['state']}")
    print(
        f"round:    {snapshot['round_index']} of {snapshot['config']['rounds']}"
    )
    print(f"labeled:  {len(snapshot['pool']['labeled'])} of {snapshot['pool']['n']}")
    if pending is not None:
        print(f"pending:  {len(pending)} samples awaiting labels")
    for record in snapshot["records"]:
        print(
            f"  round {record['round_index']:>3}: metric "
            f"{record['metric']:.4f} at {record['labeled_count']} labels"
        )
    return 0


def _cmd_session_status(args: argparse.Namespace) -> int:
    directory = getattr(args, "dir", None)
    if directory is not None:
        # Status only reads the stored document; it never rebuilds
        # datasets/models, so it answers instantly even for huge pools.
        row = JsonSessionStore(directory).load(_DIR_SESSION_ID)
        if row is None:
            raise SessionError(
                f"no session in {directory} (missing {_session_file(directory)}); "
                f"run 'repro session init --dir {directory}' first"
            )
        payload = validate_envelope(
            row.document,
            SESSION_DIR_FORMAT,
            SESSION_DIR_VERSION,
            SessionError,
            source=str(_session_file(directory)),
        )
        return _print_status(payload["recipe"], payload["session"])
    client, session_id, _directory = _session_client(args)
    try:
        response = client.status(session_id)
    except ServiceError as error:
        raise _missing_session_error(None, error)
    return _print_status(response["recipe"], response["session"])


def _cmd_session_result(args: argparse.Namespace) -> int:
    client, session_id, directory = _session_client(args)
    try:
        response = client.result(session_id)
    except ServiceError as error:
        raise _missing_session_error(directory, error)
    envelope = _result_envelope(response)
    if args.output:
        atomic_write_json(Path(args.output), envelope)
        print(f"full audit trail written to {args.output}")
    else:
        print(json.dumps(envelope, indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the AL session server until interrupted."""
    if args.json_dir and args.sqlite:
        raise ConfigurationError("pass at most one of --json-dir and --sqlite")
    if args.json_dir:
        store, where = JsonSessionStore(args.json_dir), f"json store {args.json_dir}"
    elif args.sqlite:
        store, where = SqliteSessionStore(args.sqlite), f"sqlite store {args.sqlite}"
    else:
        # No durable store requested: host sessions in memory (they die
        # with the process — fine for demos and tests).
        store, where = MemorySessionStore(), "memory store"
    server = make_server(SessionService(store), host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving AL sessions on http://{host}:{port} ({where})", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for --help testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Active learning with historical evaluation results",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("--dataset", required=True,
                         help="mr, sst2, subj, trec, conll-en, conll-es, conll-nl")
        sub.add_argument("--scale", type=float, default=0.2,
                         help="dataset size multiplier (default 0.2)")
        sub.add_argument("--test-fraction", type=float, default=0.3)
        sub.add_argument("--batch-size", type=int, default=25)
        sub.add_argument("--rounds", type=int, default=10)
        sub.add_argument("--window", type=int, default=3,
                         help="history window l for WSHS/FHS/HUS")
        sub.add_argument("--epochs", type=int, default=5,
                         help="model training epochs per round")
        sub.add_argument("--seed", type=int, default=7)

    compare = subparsers.add_parser(
        "compare", help="run several query strategies and print their curves"
    )
    add_common(compare)
    compare.add_argument("--strategies", nargs="+", required=True,
                         help="specs like: random entropy wshs:entropy lhs:lc")
    compare.add_argument("--repeats", type=int, default=3)
    compare.add_argument("--targets", nargs="*", type=float, default=[],
                         help="also print annotations-to-target for these values")
    compare.add_argument("--ranker", default=None,
                         help="ranker file for lhs:<base> strategies")
    compare.add_argument("--plot", action="store_true",
                         help="also draw the curves as an ASCII chart")
    compare.add_argument("--checkpoint-dir", default=None,
                         help="write each completed (strategy, repeat) cell to "
                              "this directory as a JSON checkpoint; an "
                              "interrupted run can then restart with --resume")
    compare.add_argument("--resume", action="store_true",
                         help="reuse completed cells already checkpointed in "
                              "--checkpoint-dir instead of recomputing them")
    compare.add_argument("--max-retries", type=int, default=0,
                         help="extra attempts for a failing cell before it "
                              "counts as permanently failed (default 0)")
    compare.add_argument("--backoff", type=float, default=0.0,
                         help="base delay in seconds before retrying a failed "
                              "cell; doubles per failure with deterministic "
                              "jitter (default 0: retry immediately, the old "
                              "behavior)")
    compare.add_argument("--queue-dir", default=None,
                         help="run the grid in parallel through a broker-less "
                              "work queue materialized in this directory "
                              "(results are identical to a serial run); extra "
                              "workers on any host sharing it can join with "
                              "'repro worker --queue-dir DIR'")
    compare.add_argument("--local-workers", type=int, default=1,
                         help="worker processes to spawn locally alongside the "
                              "coordinator (0 = coordinate only, workers run "
                              "elsewhere; default 1)")
    compare.add_argument("--lease-ttl", type=float, default=30.0,
                         help="seconds without a heartbeat before a worker's "
                              "cell lease is considered stale and reclaimed "
                              "(default 30)")
    compare.add_argument("--grid-timeout", type=float, default=None,
                         help="give up coordinating after this many seconds; "
                              "with --on-error skip, unfinished cells are "
                              "quarantined and the finished ones aggregated")
    compare.add_argument("--on-error", choices=["raise", "skip"], default="raise",
                         help="'skip' drops permanently failed cells from the "
                              "averages (with a warning) instead of aborting")
    compare.add_argument("--training-mode", choices=["cold", "warm"],
                         default="cold",
                         help="'cold' (default) refits each round's model from "
                              "scratch, byte-identical to historical runs; "
                              "'warm' resumes each round from the previous "
                              "round's parameters for models that support it "
                              "(much faster, same seeds, slightly different "
                              "optimisation trajectory)")
    compare.set_defaults(handler=_cmd_compare)

    run = subparsers.add_parser(
        "run",
        help="execute a declarative experiment document (see 'config show')",
    )
    run.add_argument("--config", required=True,
                     help="experiment JSON document (format 'repro.experiment')")
    run.set_defaults(handler=_cmd_run)

    config_cmd = subparsers.add_parser(
        "config", help="validate or print experiment documents"
    )
    config_sub = config_cmd.add_subparsers(dest="config_command", required=True)

    validate = config_sub.add_parser(
        "validate",
        help="build every component of a document once and report problems",
    )
    validate.add_argument("file", help="experiment JSON document to check")
    validate.set_defaults(handler=_cmd_config_validate)

    show = config_sub.add_parser(
        "show", help="print a normalised experiment document"
    )
    show.add_argument("file", nargs="?", default=None,
                      help="document to normalise and print")
    show.add_argument("--defaults", action="store_true",
                      help="print a runnable starting-point document instead")
    show.set_defaults(handler=_cmd_config_show)

    sweep_cmd = subparsers.add_parser(
        "sweep",
        help="run scenario-grid sweeps over one base experiment document",
        description="A sweep document (format 'repro.sweep') crosses a "
                    "base experiment with perturbation axes (label noise, "
                    "class imbalance, lexicon shift, annotation costs) and "
                    "reports pluggable metrics per grid cell.",
    )
    sweep_sub = sweep_cmd.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser(
        "run", help="execute every grid cell and print matrix reports"
    )
    sweep_run.add_argument("file", help="sweep JSON document (format 'repro.sweep')")
    sweep_run.add_argument("--sweep-dir", default=None,
                           help="directory holding one checkpoint (and, for "
                                "distributed bases, queue) subdirectory per "
                                "cell; required for --resume")
    sweep_run.add_argument("--resume", action="store_true",
                           help="reuse cells already checkpointed under "
                                "--sweep-dir instead of recomputing them")
    sweep_run.set_defaults(handler=_cmd_sweep_run)

    sweep_validate = sweep_sub.add_parser(
        "validate",
        help="build every transform, cell, and metric of a sweep once",
    )
    sweep_validate.add_argument("file", help="sweep JSON document to check")
    sweep_validate.set_defaults(handler=_cmd_sweep_validate)

    sweep_show = sweep_sub.add_parser(
        "show", help="print a normalised sweep document (or its cells)"
    )
    sweep_show.add_argument("file", help="sweep JSON document to print")
    sweep_show.add_argument("--cells", action="store_true",
                            help="print each derived per-cell experiment "
                                 "document instead")
    sweep_show.set_defaults(handler=_cmd_sweep_show)

    worker = subparsers.add_parser(
        "worker",
        help="join a distributed comparison grid as a worker process",
        description="Claim, execute, and commit cells of a grid "
                    "materialized by 'repro compare --queue-dir' (or "
                    "run_distributed) until every cell is settled.  Run it "
                    "on any host that shares the queue directory; workers "
                    "may join or leave (even by SIGKILL) at any time "
                    "without affecting the grid's results.",
    )
    worker.add_argument("--queue-dir", required=True,
                        help="queue directory the coordinator materialized")
    worker.add_argument("--owner", default=None,
                        help="worker identity recorded in leases and the "
                             "audit log (default: hostname-pid)")
    worker.add_argument("--poll", type=float, default=0.5,
                        help="seconds between claim attempts when no cell is "
                             "eligible (default 0.5)")
    worker.add_argument("--max-cells", type=int, default=None,
                        help="exit after completing this many cells "
                             "(default: run until the queue settles)")
    worker.add_argument("--verbose", action="store_true",
                        help="print each lifecycle event (claim, commit, "
                             "retry, ...) to stderr")
    worker.set_defaults(handler=_cmd_worker)

    train = subparsers.add_parser(
        "train-ranker", help="run Algorithm 1 and save an LHS ranker"
    )
    add_common(train)
    train.add_argument("--base", default="entropy",
                       help="base strategy whose history feeds the features")
    train.add_argument("--candidates", type=int, default=12,
                       help="candidate-set size per round")
    train.add_argument("--predictor", choices=["lstm", "ar", "none"], default="ar")
    train.add_argument("--output", required=True, help="output ranker JSON file")
    train.set_defaults(handler=_cmd_train_ranker)

    session = subparsers.add_parser(
        "session",
        help="drive one annotation session through files on disk or a "
             "session server (external-annotator workflow)",
    )
    session_sub = session.add_subparsers(dest="session_command", required=True)

    def add_target(sub, with_output=True):
        """``--dir`` (local files) / ``--server`` + ``--session`` (remote)."""
        sub.add_argument("--dir", default=None,
                         help="session directory (local file-based mode)")
        sub.add_argument("--server", default=None,
                         help="base URL of a running 'repro serve' "
                              "(e.g. http://127.0.0.1:8700)")
        sub.add_argument("--session", default=None,
                         help="session id on the server (with --server)")
        if with_output:
            sub.add_argument("--output", default=None,
                             help="with --server: write the proposal JSON "
                                  "here instead of printing it")

    init = session_sub.add_parser(
        "init", help="create a session and propose the first batch"
    )
    add_common(init)
    add_target(init)
    init.add_argument("--strategy", required=True,
                      help="one spec like: entropy, wshs:entropy, lhs:lc")
    init.add_argument("--initial-size", type=int, default=None,
                      help="random initial batch size (default: --batch-size)")
    init.add_argument("--ranker", default=None,
                      help="ranker file for an lhs:<base> strategy")
    init.add_argument("--training-mode", choices=["cold", "warm"],
                      default="cold",
                      help="'warm' resumes each round's retrain from the "
                           "previous round's parameters (faster ingest "
                           "turnaround); 'cold' (default) refits from scratch")
    init.set_defaults(handler=_cmd_session_init)

    propose = session_sub.add_parser(
        "propose", help="advance to (or re-print) the batch awaiting labels"
    )
    add_target(propose)
    propose.set_defaults(handler=_cmd_session_propose)

    ingest = session_sub.add_parser(
        "ingest", help="label the pending batch, retrain, propose the next one"
    )
    add_target(ingest)
    ingest.add_argument("--labels", default=None,
                        help="JSON file mapping sample index to label (the "
                             "proposal's labels_template, filled in)")
    ingest.add_argument("--oracle", action="store_true",
                        help="answer from the dataset's own labels instead of "
                             "a labels file (for smoke tests)")
    ingest.set_defaults(handler=_cmd_session_ingest)

    status = session_sub.add_parser(
        "status", help="print the session's state without loading any data"
    )
    add_target(status, with_output=False)
    status.set_defaults(handler=_cmd_session_status)

    result = session_sub.add_parser(
        "result", help="print or save the finished session's audit trail"
    )
    add_target(result, with_output=False)
    result.add_argument("--output", default=None,
                        help="write the audit-trail document here instead of "
                             "printing it")
    result.set_defaults(handler=_cmd_session_result)

    serve = subparsers.add_parser(
        "serve",
        help="host annotation sessions over HTTP (AL-as-a-service)",
        description="Run a multi-tenant session server.  Clients create "
                    "and drive sessions through the JSON API (or through "
                    "'repro session ... --server URL'); state persists in "
                    "one store (--json-dir or --sqlite; memory with "
                    "neither), so a durable server can be restarted "
                    "without losing sessions.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8700,
                       help="TCP port (default 8700; 0 picks a free one)")
    serve.add_argument("--json-dir", default=None,
                       help="keep sessions as one <id>.json document each "
                            "in this directory")
    serve.add_argument("--sqlite", default=None,
                       help="keep sessions in this sqlite database file "
                            "with transactional writes")
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # By the time the interrupt reaches here, the queue layer has
        # already released any held leases with an "interrupted" audit
        # annotation (run_worker / run_distributed release on the way
        # out), so the cells are instantly reclaimable — the hint only
        # has to say how to pick the grid back up.
        hint = ""
        queue_dir = getattr(args, "queue_dir", None)
        if queue_dir:
            hint = (
                f"; held leases were released — rerun with the same "
                f"--queue-dir {queue_dir} (or restart workers) to resume "
                "the grid"
            )
        elif getattr(args, "checkpoint_dir", None):
            hint = (
                f"; completed cells are checkpointed in {args.checkpoint_dir} "
                "— rerun with --resume to continue"
            )
        elif getattr(args, "sweep_dir", None):
            hint = (
                f"; completed cells are checkpointed under {args.sweep_dir} "
                "— rerun with --resume to continue"
            )
        print(f"interrupted{hint}", file=sys.stderr)
        return 130
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream reader (head, grep -q, ...) closed the pipe early;
        # redirect stdout so the interpreter's exit flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
