"""Outside-in instrumentation for the end-to-end benchmark.

The benchmark measures the program's layers without editing them.
Before a workload starts, :meth:`Recorder.install` replaces each layer's
public functions with timing wrappers: methods on their classes, and
module functions at every module binding that holds them (so a function
imported with ``from x import f`` is wrapped where it is called).  A
layer missing from the program is skipped and listed in
:attr:`Recorder.missing`; its metrics then read 0.

Spans live in memory, one stack per thread, and are written out once,
as JSONL, when the process ends its part of the run (:meth:`dump`).
Forked workers inherit the wrappers; their copy of the recorder starts
empty and dumps its own file when the worker process exits.

Two kinds of wrapper exist:

* **latency probes** (always on in batch grids): each
  ``SessionEngine.propose`` call, and each ``ingest_labels`` call until
  the step that commits its labels returns, give the per-round waits an
  annotator would see;
* **spans** (``trace=True`` only): one per call into a layer in
  :data:`LAYERS`, with name, start, end, parent span and trace id (the
  grid cell or served session).

This module imports nothing from the program at import time, so the
orchestrator (``run.py``) can use the aggregation helpers without
importing the program.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import resource
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: ``(module, target, span name)``.  ``target`` is a module function, a
#: ``Class.method``, or ``Class.method+`` for the method on the class and
#: on every subclass that overrides it.
LAYERS = (
    ("repro.specs.data", "build_dataset", "data.build_dataset"),
    ("repro.data.datasets", "TextDataset.bag_of_words", "data.bag_of_words"),
    ("repro.data.datasets", "TextDataset.subset", "data.subset"),
    ("repro.data.datasets", "SequenceDataset.subset", "data.subset"),
    ("repro.models.base", "Classifier.fit+", "models.fit"),
    ("repro.models.base", "SequenceLabeler.fit+", "models.fit"),
    ("repro.models.base", "Classifier.predict_proba+", "models.predict_proba"),
    ("repro.models.base", "SequenceLabeler.token_marginal_samples+",
     "models.token_marginal_samples"),
    ("repro.models.base", "SequenceLabeler.decode+", "models.decode"),
    ("repro.models.crf_core", "crf_marginals_batch", "models.crf_marginals_batch"),
    ("repro.core.strategies.base", "QueryStrategy.select+", "core.strategies.select"),
    ("repro.core.selection", "top_k_indices", "core.selection.top_k"),
    ("repro.core.history", "HistoryStore.append", "core.history.append"),
    ("repro.core.history", "HistoryStore.window_matrix", "core.history.window"),
    ("repro.core.history", "HistoryStore.sequence_matrix", "core.history.window"),
    ("repro.core.history", "HistoryStore.padded_sequences", "core.history.window"),
    ("repro.core.history", "HistoryStore.current_scores", "core.history.window"),
    ("repro.core.history", "HistoryStore.weighted_sum", "core.history.window"),
    ("repro.core.history", "HistoryStore.fluctuation", "core.history.window"),
    ("repro.core.features", "RankingFeatureExtractor.extract", "core.features.extract"),
    ("repro.timeseries.mann_kendall", "mann_kendall_batch",
     "timeseries.mann_kendall_batch"),
    ("repro.timeseries.predictor", "NextScorePredictor.fit+", "timeseries.predictor"),
    ("repro.timeseries.predictor", "NextScorePredictor.fit_from_history+",
     "timeseries.predictor"),
    ("repro.timeseries.predictor", "NextScorePredictor.predict+", "timeseries.predictor"),
    ("repro.timeseries.predictor", "NextScorePredictor.predict_padded+",
     "timeseries.predictor"),
    ("repro.ltr.lambdamart", "LambdaMART.fit", "ltr.lambdamart.fit"),
    ("repro.ltr.lambdamart", "LambdaMART.predict", "ltr.lambdamart.predict"),
    ("repro.core.ranker_training", "train_lhs_ranker",
     "core.ranker_training.train_lhs_ranker"),
    ("repro.eval.metrics", "evaluate_model", "eval.evaluate_model"),
    ("repro.core.session", "SessionEngine.snapshot", "core.session.snapshot"),
    ("repro.core.session", "SessionEngine.restore", "core.session.restore"),
    ("repro.service.app", "dispatch", "service.dispatch"),
    ("repro.service.store", "SessionStore.save+", "service.store.save"),
    ("repro.service.store", "SessionStore.load+", "service.store.load"),
    ("repro.experiments.distributed", "CellQueue.claim+", "experiments.queue.claim"),
    ("repro.experiments.distributed", "CellQueue.commit+", "experiments.queue.commit"),
    ("repro.experiments.checkpoint", "CheckpointStore.save",
     "experiments.checkpoint.save"),
    ("repro.experiments.checkpoint", "CheckpointStore.save_session",
     "experiments.checkpoint.save"),
    ("repro.experiments.runner", "_run_cell", "experiments.cell"),
    ("repro.experiments.distributed", "run_worker", "experiments.worker"),
)

#: Integer attributes counted as they are incremented: ``(module, class,
#: attribute, counter name)``.
COUNTERS = (
    ("repro.core.prediction_cache", "PredictionCache", "hits", "prediction_cache.hits"),
    ("repro.core.prediction_cache", "PredictionCache", "misses",
     "prediction_cache.misses"),
)

#: Spans whose trace id comes from their arguments; children inherit it.
_TRACE_IDS = {
    "experiments.cell": lambda args, kwargs: (
        f"{kwargs.get('strategy_name')}/r{kwargs.get('repeat', 0)}"
    ),
    "service.dispatch": lambda args, kwargs: (
        args[2].split("/")[2] if args[2].startswith("/sessions/")
        and args[2].count("/") >= 2 else None
    ),
}


def peak_rss_kb() -> int:
    """Largest resident set of this process and its reaped children (KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


class Recorder:
    """In-memory spans, counters and latency samples of one process."""

    def __init__(self, dump_dir: "str | Path", trace: bool) -> None:
        self.dump_dir = Path(dump_dir)
        self.trace = trace
        self.missing: list[str] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked child keeps the wrappers but none of the parent's
        # spans or open stacks: its spans are roots in its own process.
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.propose_ms: list[float] = []
        self.ingest_ms: list[float] = []
        self._ingest_started: dict[int, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace_id: "str | None" = None):
        """Record ``name`` around a block (a no-op unless tracing)."""
        if not self.trace:
            yield
            return
        stack = self._stack()
        parent_id, parent_trace = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        trace_id = trace_id if trace_id is not None else parent_trace
        stack.append((span_id, trace_id))
        error = None
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (name, start, end, span_id, parent_id, trace_id,
                 threading.get_ident(), error)
            )

    def _traced(self, function, name: str):
        trace_of = _TRACE_IDS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            trace_id = trace_of(args, kwargs) if trace_of else None
            with self.span(name, trace_id):
                return function(*args, **kwargs)

        return traced

    # -- installation --------------------------------------------------------

    def install(self, latency: bool) -> None:
        """Wrap the program's layers; call after importing the program.

        ``latency`` adds the per-round propose/ingest probes on
        ``SessionEngine`` (batch grids); tracing adds every layer span
        and counter.  A forked worker process dumps its recorder when it
        exits.
        """
        if latency:
            self._install_latency_probes()
        if self.trace:
            for module, target, name in LAYERS:
                self._wrap_target(module, target, name)
            for module, cls, attribute, name in COUNTERS:
                self._count_attribute(module, cls, attribute, name)
        multiprocessing.util.register_after_fork(self, Recorder._dump_at_worker_exit)

    def _dump_at_worker_exit(self) -> None:
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def _wrap_target(self, module_name: str, target: str, name: str) -> None:
        try:
            module = importlib.import_module(module_name)
            if "." not in target:
                original = getattr(module, target)
                _rebind_everywhere(original, self._traced(original, name))
                return
            class_name, attribute = target.split(".")
            cls = getattr(module, class_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{target}")
            return
        owners = [cls, *_subclasses(cls)] if attribute.endswith("+") else [cls]
        attribute = attribute.rstrip("+")
        wrapped = 0
        for owner in owners:
            raw = owner.__dict__.get(attribute)
            descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            function = raw.__func__ if descriptor else raw
            if not callable(function) or getattr(function, "__isabstractmethod__", False):
                continue
            traced = self._traced(function, name)
            setattr(owner, attribute, descriptor(traced) if descriptor else traced)
            wrapped += 1
        if not wrapped:
            self.missing.append(f"{module_name}.{target}")

    def _count_attribute(self, module_name, class_name, attribute, name) -> None:
        """Turn an int attribute into a property that tallies increments."""
        try:
            cls = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{class_name}.{attribute}")
            return
        slot = f"_bench_{attribute}"
        recorder = self

        def get(instance):
            return instance.__dict__.get(slot, 0)

        def set_(instance, value):
            delta = value - instance.__dict__.get(slot, 0)
            instance.__dict__[slot] = value
            if delta > 0:
                with recorder._lock:
                    recorder.counters[name] = recorder.counters.get(name, 0) + delta

        setattr(cls, attribute, property(get, set_))

    def _install_latency_probes(self) -> None:
        from repro.core.session import SessionEngine, SessionState

        propose = SessionEngine.propose
        ingest = SessionEngine.ingest_labels
        step = SessionEngine.step
        recorder = self

        @functools.wraps(propose)
        def timed_propose(engine, *args, **kwargs):
            start = time.perf_counter()
            try:
                return propose(engine, *args, **kwargs)
            finally:
                recorder.propose_ms.append((time.perf_counter() - start) * 1e3)

        @functools.wraps(ingest)
        def timed_ingest(engine, *args, **kwargs):
            recorder._ingest_started[id(engine)] = time.perf_counter()
            return ingest(engine, *args, **kwargs)

        @functools.wraps(step)
        def timed_step(engine, *args, **kwargs):
            committing = engine.state is SessionState.COMMIT
            try:
                return step(engine, *args, **kwargs)
            finally:
                # An ingest ends when its labels are committed.
                started = recorder._ingest_started.pop(id(engine), None)
                if committing and started is not None:
                    recorder.ingest_ms.append((time.perf_counter() - started) * 1e3)

        SessionEngine.propose = timed_propose
        SessionEngine.ingest_labels = timed_ingest
        SessionEngine.step = timed_step

    # -- output --------------------------------------------------------------

    def dump(self) -> Path:
        """Write this process's spans and samples as JSONL."""
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        path = self.dump_dir / f"proc-{self.pid}.jsonl"
        header = {
            "kind": "process",
            "pid": self.pid,
            "counters": self.counters,
            "propose_ms": self.propose_ms,
            "ingest_ms": self.ingest_ms,
            "missing": self.missing,
            "peak_rss_kb": peak_rss_kb(),
        }
        lines = [json.dumps(header)]
        for name, start, end, span_id, parent, trace_id, tid, error in self.spans:
            lines.append(json.dumps({
                "kind": "span", "name": name, "start": start, "end": end,
                "id": span_id, "parent": parent, "trace": trace_id,
                "pid": self.pid, "tid": tid, "error": error,
            }))
        path.write_text("\n".join(lines) + "\n")
        return path


def _subclasses(cls) -> list:
    found, pending = [], list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def _rebind_everywhere(original, wrapper) -> None:
    """Point every module global bound to ``original`` at ``wrapper``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        for attribute, value in list(namespace.items()):
            if value is original:
                setattr(module, attribute, wrapper)


# -- aggregation (stdlib only; used by the orchestrator) ----------------------


def read_dumps(dump_dir: "str | Path") -> "tuple[list[dict], list[dict]]":
    """``(process headers, spans)`` from every dump in ``dump_dir``."""
    processes, spans = [], []
    for path in sorted(Path(dump_dir).glob("proc-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            (processes if record["kind"] == "process" else spans).append(record)
    return processes, spans


def self_times(spans: "list[dict]") -> "dict[tuple[str, str], dict]":
    """Aggregate spans by ``(phase, name)``: calls, self and total seconds.

    A span's self time is its duration minus its direct children's
    durations (children nest on one thread's stack, so they never
    overlap).  The phase is ``"setup"`` under a ``bench.setup`` root and
    ``"unit"`` everywhere else.
    """
    by_id = {(span["pid"], span["id"]): span for span in spans}
    child_time: dict = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + span["end"] - span["start"]
    roots: dict = {}

    def root_of(span):
        key = (span["pid"], span["id"])
        if key not in roots:
            parent = by_id.get((span["pid"], span["parent"]))
            roots[key] = span["name"] if parent is None else root_of(parent)
        return roots[key]

    table: dict = {}
    for span in spans:
        key = (span["pid"], span["id"])
        duration = span["end"] - span["start"]
        phase = "setup" if root_of(span) == "bench.setup" else "unit"
        row = table.setdefault(
            (phase, span["name"]), {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                    "errors": {}}
        )
        row["calls"] += 1
        row["self_s"] += duration - child_time.get(key, 0.0)
        row["total_s"] += duration
        if span["error"]:
            row["errors"][span["error"]] = row["errors"].get(span["error"], 0) + 1
    return table
