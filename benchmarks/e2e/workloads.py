"""The benchmark's four workloads, as the program's users run them.

Every input is derived from the seed: the synthetic corpora the dataset
specs generate, the strategy grids, and the served-session recipes.  The
program receives only those inputs, through its public entry points:
:func:`~repro.experiments.sweep.execute_experiment` (``repro run
--config``), :func:`~repro.core.ranker_training.train_lhs_ranker`
(``repro train-ranker``), ``repro serve`` and
:meth:`~repro.service.client.SessionClient.http`.

Sizes are scaled so that one unit of work (a grid, or a third of a
served run) takes 5-8 s on a 2-CPU host; ``tiny`` sizes exist for the
smoke test.  The README gives the reason for each workload.
"""

from __future__ import annotations

import hashlib
import json
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro.core.ranker_training import RankerTrainingConfig, train_lhs_ranker
from repro.core.session import SessionEngine, run_to_completion
from repro.core.strategies import create_strategy
from repro.experiments import ExperimentConfig
from repro.experiments.checkpoint import result_to_dict
from repro.experiments.sweep import execute_experiment
from repro.models import LinearSoftmax
from repro.persistence import save_lhs_ranker
from repro.service import SessionClient, build_session_components
from repro.specs import (
    ExperimentSpec,
    Spec,
    build_dataset,
    build_split,
    default_model_spec,
    parse_strategy_shorthand,
)

#: History window ``l`` of WSHS/FHS/LHS (the CLI default).
WINDOW = 3
EPOCHS = 5
TEST_FRACTION = 0.3

SIZES = {
    "full": {
        "text_grid": {
            "ranker": {"dataset": "subj", "scale": 0.5, "rounds": 8, "candidates": 12},
            "dataset": "mr", "scale": 1.0,
            "strategies": ["entropy", "wshs:entropy", "fhs:entropy", "egl", "lhs:entropy"],
            "rounds": 5, "batch_size": 25, "repeats": 1,
        },
        "ner_grid": {
            "dataset": "conll-en", "scale": 0.05,
            "strategies": ["lc", "wshs:lc", "bald"],
            "rounds": 6, "batch_size": 25, "repeats": 1,
        },
        "served_sessions": {
            "recipe": {"dataset": "mr", "scale": 0.1, "strategy": "wshs:entropy",
                       "rounds": 10, "batch_size": 25, "epochs": EPOCHS},
            "clients": 2,
        },
        "cell_grid": {
            "dataset": "mr", "scale": 0.1,
            "strategies": ["random", "entropy", "wshs:entropy", "fhs:entropy"],
            "rounds": 4, "batch_size": 10, "repeats": 25, "workers": 2,
        },
    },
    "tiny": {
        "text_grid": {
            "ranker": {"dataset": "subj", "scale": 0.05, "rounds": 2, "candidates": 3},
            "dataset": "mr", "scale": 0.05,
            "strategies": ["entropy", "wshs:entropy", "fhs:entropy", "egl", "lhs:entropy"],
            "rounds": 2, "batch_size": 10, "repeats": 1,
        },
        "ner_grid": {
            "dataset": "conll-en", "scale": 0.01,
            "strategies": ["lc", "wshs:lc", "bald"],
            "rounds": 2, "batch_size": 5, "repeats": 1,
        },
        "served_sessions": {
            "recipe": {"dataset": "mr", "scale": 0.05, "strategy": "wshs:entropy",
                       "rounds": 2, "batch_size": 10, "epochs": 2},
            "clients": 2,
        },
        "cell_grid": {
            "dataset": "mr", "scale": 0.05,
            "strategies": ["random", "entropy", "wshs:entropy", "fhs:entropy"],
            "rounds": 2, "batch_size": 5, "repeats": 2, "workers": 2,
        },
    },
}

#: Served sessions re-run in process after the measured phase, to check
#: the served bytes against a serial :class:`SessionEngine` run.
IDENTITY_SESSIONS = 2


def digest(payload) -> str:
    """sha256 of a JSON document in canonical form."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def history_stats(results) -> dict:
    """Table 2 numbers from finished runs' :class:`HistoryStore` objects.

    ``peak_bytes`` is the largest logical history (rounds x N x 8);
    ``paper_bytes`` is the paper's l x N x 8 bound for the same pool.
    """
    peak, pool, rounds = 0, 0, 0
    for result in results:
        history = result.history
        if history.nbytes() >= peak:
            peak, pool, rounds = history.nbytes(), history.n_samples, history.num_rounds
    return {
        "peak_bytes": peak,
        "bytes_per_sample_round": peak / (pool * rounds) if pool and rounds else 0.0,
        "paper_bytes": WINDOW * pool * 8,
    }


def _grid_spec(params: dict, seed: int, ranker: "str | None" = None,
               runner: "dict | None" = None) -> ExperimentSpec:
    """The document ``repro compare`` builds from the equivalent flags."""
    spec = ExperimentSpec(
        dataset=Spec(kind=params["dataset"],
                     params={"scale": params["scale"], "seed": seed}),
        split=Spec(kind="fraction", params={"test_fraction": TEST_FRACTION}),
        strategies={
            name: parse_strategy_shorthand(name, WINDOW, ranker)
            for name in params["strategies"]
        },
        config=ExperimentConfig(
            batch_size=params["batch_size"], rounds=params["rounds"],
            repeats=params["repeats"], seed=seed,
        ),
        runner=runner or {},
    )
    spec.model = default_model_spec(spec.task, EPOCHS)
    return spec


class GridWorkload:
    """A batch grid: each unit is one whole ``repro run --config``."""

    def __init__(self, params: dict, seed: int, workdir: Path) -> None:
        self.params = params
        self.seed = seed
        self.workdir = workdir
        self.spec = self.make_spec()

    def make_spec(self) -> ExperimentSpec:
        return _grid_spec(self.params, self.seed)

    def setup(self) -> None:
        """Build the inputs once, as a fresh ``repro`` process would."""
        self.spec.build_datasets()

    def expected_cells(self) -> int:
        return len(self.params["strategies"]) * self.params["repeats"]

    def execute(self) -> dict:
        return execute_experiment(self.spec)[0]

    def unit(self) -> dict:
        """Run the grid; digests per strategy plus the Table 2 numbers."""
        results = self.execute()
        runs = [run for result in results.values() for run in result.runs]
        return {
            "digests": {
                name: digest([result_to_dict(run) for run in result.runs])
                for name, result in results.items()
            },
            "cells": len(runs),
            "history": history_stats(runs),
        }


class TextGrid(GridWorkload):
    """Algorithm 1 (LHS ranker training), then the Table-5 text grid."""

    def __init__(self, params: dict, seed: int, workdir: Path) -> None:
        self.ranker_path = str(workdir / "ranker.json")
        super().__init__(params, seed, workdir)
        ranker = params["ranker"]
        self.ranker_dataset = Spec(
            kind=ranker["dataset"], params={"scale": ranker["scale"], "seed": seed}
        )

    def make_spec(self) -> ExperimentSpec:
        return _grid_spec(self.params, self.seed, ranker=self.ranker_path)

    def setup(self) -> None:
        build_dataset(self.ranker_dataset)
        super().setup()

    def execute(self) -> dict:
        ranker = self.params["ranker"]
        dataset, _task = build_dataset(self.ranker_dataset)
        train, test = build_split(
            Spec(kind="fraction", params={"test_fraction": TEST_FRACTION}), dataset
        )
        trained = train_lhs_ranker(
            LinearSoftmax(epochs=EPOCHS, batch_size=32, seed=0),
            train,
            test,
            base=create_strategy("entropy"),
            config=RankerTrainingConfig(
                rounds=ranker["rounds"],
                candidates_per_round=ranker["candidates"],
                initial_size=self.params["batch_size"],
                window=WINDOW,
                predictor="lstm",
                eval_size=min(250, len(test)),
            ),
            seed_or_rng=self.seed,
        )
        save_lhs_ranker(trained, self.ranker_path)
        return super().execute()


class CellGrid(GridWorkload):
    """Many tiny cells through the lease queue with local forked workers."""

    def make_spec(self) -> ExperimentSpec:
        return _grid_spec(
            self.params, self.seed, runner={"local_workers": self.params["workers"]}
        )

    def execute(self) -> dict:
        return execute_experiment(self.spec, queue_dir=self.workdir / "queue")[0]


class ServedSessions:
    """Closed loop: client threads drive HTTP sessions on ``repro serve``."""

    def __init__(self, params: dict, seed: int, workdir: Path,
                 server_command: "list[str]") -> None:
        self.params = params
        self.seed = seed
        self.workdir = workdir
        self.server_command = server_command
        self.server: "subprocess.Popen | None" = None
        self.url = ""

    def recipe(self, index: int) -> dict:
        return dict(self.params["recipe"], seed=self.seed + index)

    def setup(self) -> None:
        """Start the server; set-up ends when ``/healthz`` first answers."""
        log = open(self.workdir / "server.log", "wb")
        try:
            self.server = subprocess.Popen(
                self.server_command, stdout=subprocess.PIPE, stderr=log
            )
        finally:
            log.close()
        line = self.server.stdout.readline().decode()
        urls = [word for word in line.split() if word.startswith("http://")]
        if not urls:
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = urls[0]
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=5) as reply:
                    if reply.status == 200:
                        return
            except OSError:
                if self.server.poll() is not None:
                    raise RuntimeError("server exited before answering /healthz")
                time.sleep(0.01)

    def measure(self, seconds: float, recorder) -> dict:
        """Start sessions until ``seconds`` pass; finish every one started."""
        deadline = time.perf_counter() + seconds
        lock = threading.Lock()
        next_index = iter(range(1 << 30))
        sessions: list[dict] = []
        counts = {"requests": 0, "failed": 0, "client_s": 0.0}
        errors: list[str] = []

        def drive() -> None:
            client = SessionClient.http(self.url)
            while time.perf_counter() < deadline:
                with lock:
                    index = next(next_index)
                session_id = f"s{index}"
                started = time.perf_counter()
                try:
                    with recorder.span("bench.session", trace_id=session_id):
                        result = self._drive(client, session_id, index, recorder, counts,
                                             lock)
                except Exception as error:  # noqa: BLE001 - count it, keep driving
                    with lock:
                        counts["failed"] += 1
                        errors.append(f"session {session_id}: {error!r}")
                    continue
                with lock:
                    sessions.append({
                        "index": index,
                        "wall_s": time.perf_counter() - started,
                        "digest": digest(result),
                    })

        started = time.perf_counter()
        threads = [threading.Thread(target=drive) for _ in range(self.params["clients"])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {
            "elapsed_s": time.perf_counter() - started,
            "sessions": sorted(sessions, key=lambda session: session["index"]),
            "requests": counts["requests"],
            "failed": counts["failed"],
            "client_s": counts["client_s"],
            "errors": errors,
        }

    def _drive(self, client, session_id, index, recorder, counts, lock) -> dict:
        """One annotator: create, propose and ingest until finished, delete."""

        def call(samples, function, *args, **kwargs):
            start = time.perf_counter()
            payload = function(*args, **kwargs)
            elapsed = time.perf_counter() - start
            with lock:
                counts["requests"] += 1
                counts["client_s"] += elapsed
            if samples is not None:
                samples.append(elapsed * 1e3)
            return payload

        call(None, client.create, self.recipe(index), session_id=session_id)
        while True:
            payload = call(recorder.propose_ms, client.propose, session_id)
            if payload.get("finished"):
                # A finished annotator deletes the session, so the server
                # holds only live sessions and its memory stays bounded.
                call(None, client.delete, session_id)
                return payload["result"]
            call(recorder.ingest_ms, client.ingest, session_id, oracle=True)

    def close(self) -> None:
        """Stop the server the way an operator would (Ctrl-C), and wait."""
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()

    def serial_result(self, index: int):
        """The same session as a plain in-process engine run."""
        train, test, model, strategy, settings = build_session_components(
            self.recipe(index)
        )
        engine = SessionEngine(
            model, strategy, train, test,
            batch_size=settings["batch_size"],
            rounds=settings["rounds"],
            initial_size=settings["initial_size"],
            seed_or_rng=settings["seed"],
            training_mode=settings["training_mode"],
        )
        return run_to_completion(engine)


WORKLOADS = {
    "text_grid": TextGrid,
    "ner_grid": GridWorkload,
    "served_sessions": ServedSessions,
    "cell_grid": CellGrid,
}


def python_versions() -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__}
