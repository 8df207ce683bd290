"""End-to-end benchmark: paper-shaped workloads, measured from outside.

Run every workload (or the named ones) and print each metric by name,
with its unit; the last line of standard output is one JSON object per
run::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed 7]
        [--seconds N] [--trace 0|1] [--runs N] [--size full|tiny]
        [--output FILE]
    python benchmarks/e2e/run.py compare A.json B.json

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice, untraced and then traced, and
reports the per-layer metrics, a self-time table and the tracing
overhead; the spans go to ``.bench_e2e/trace-<workload>-s<seed>.jsonl``.
``--runs N`` repeats each workload with seeds ``seed .. seed+N-1`` and
prints each metric's median and quartiles; ``--output`` keeps every run
for ``compare``, which applies the bounds in ``BENCHMARK.json``.

Each run starts fresh processes (``child.py``) against the checkout's
``src``; this script imports nothing from the program.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import read_dumps, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_e2e"
CHILD = HERE / "child.py"
#: Fresh processes per run, at least: each sets up and measures one unit,
#: so set-up is timed this many times too.
SAMPLES = 3
#: Layers whose work is set-up: reported from the set-up phase, in total.
SETUP_LAYERS = ("cli.import", "data.build_dataset")
#: Wall-clock limit of one run, every process included.
RUN_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    """A benchmark process exited non-zero or ran out of time."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, seed: int, seconds: float, size: str, tag: str,
              deadline: float, trace: bool = False) -> dict:
    """Start one fresh benchmark process and collect what it wrote.

    The process sees only the checkout's ``src`` on its path, and must end
    before ``deadline`` (``time.monotonic()``).
    """
    workdir = WORK / f"{workload}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(workdir / "tmp"), PYTHONPATH=str(ROOT / "src"))
    command = [
        sys.executable, str(CHILD), "run", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--size", size,
        "--workdir", str(workdir), "--launched-at", repr(time.monotonic()),
    ] + (["--trace"] if trace else [])
    # A session of its own, so a hung run is stopped with everything it
    # started (queue workers, the session server).
    process = subprocess.Popen(
        command, env=env, stdout=sys.stderr.fileno(), start_new_session=True
    )
    try:
        code = process.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise ChildFailed(f"{workload} ({tag}) did not finish in time") from None
    result_path = workdir / "result.json"
    if code != 0 or not result_path.exists():
        raise ChildFailed(f"{workload} ({tag}) exited with code {code}")
    result = json.loads(result_path.read_text())
    result["processes"], result["spans"] = read_dumps(workdir / "dumps")
    shutil.rmtree(workdir, ignore_errors=True)
    return result


# -- statistics ----------------------------------------------------------------


def percentile(values: "list[float]", q: int) -> float:
    """The ``q``-th percentile, interpolated between closest ranks."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def unit_walls(result: dict) -> "list[float]":
    """Wall time of each unit: a whole grid, or one served session."""
    return [unit["wall_s"] for unit in result.get("units", result.get("sessions", []))]


def measured_seconds(result: dict) -> float:
    if "units" in result:
        return sum(unit_walls(result))
    return result["elapsed_s"]


def completed_sessions(result: dict) -> int:
    """AL sessions finished: grid cells (each a full engine run) or served."""
    if "units" in result:
        return sum(unit["cells"] for unit in result["units"])
    return len(result["sessions"])


# -- metrics -------------------------------------------------------------------


def end_to_end(children: "list[dict]") -> dict:
    processes = [p for child in children for p in child["processes"]]
    propose = [v for p in processes for v in p["propose_ms"]]
    ingest = [v for p in processes for v in p["ingest_ms"]]
    rss_kb = max([c["peak_rss_kb"] for c in children] + [p["peak_rss_kb"] for p in processes])
    return {
        "setup_s": statistics.median(child["setup_s"] for child in children),
        "wall_s": statistics.median(w for child in children for w in unit_walls(child)),
        "sessions_per_s": sum(map(completed_sessions, children))
                          / sum(map(measured_seconds, children)),
        "propose_p50_ms": percentile(propose, 50),
        "propose_p97_ms": percentile(propose, 97),
        "ingest_p50_ms": percentile(ingest, 50),
        "ingest_p97_ms": percentile(ingest, 97),
        "peak_rss_mb": rss_kb / 1024,
    }


def main_process_coverage(traced: dict) -> float:
    """Self times of the measuring process's spans over its measured wall.

    The unit (or session) spans are roots, so their subtrees' self times
    must add back up to the wall time the process clocked itself.
    """
    table = self_times([span for span in traced["spans"] if span["pid"] == traced["pid"]])
    total = sum(row["self_s"] for (phase, _), row in table.items() if phase == "unit")
    return total / sum(unit_walls(traced))


def per_layer(names: "list[str]", traced: dict, plain: dict, table: dict) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced run."""
    units = len(unit_walls(traced))
    counters: dict = {}
    for process in traced["processes"]:
        for key, value in process["counters"].items():
            counters[key] = counters.get(key, 0) + value
    hits = counters.get("prediction_cache.hits", 0)
    lookups = hits + counters.get("prediction_cache.misses", 0)
    history = max(
        (unit["history"] for unit in traced.get("units", [])),
        key=lambda stats: stats["peak_bytes"],
        default=traced.get("history", {}),
    )
    wall = measured_seconds(traced)

    def row(name: str, phase: str = "unit") -> dict:
        return table.get((phase, name), {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                         "errors": {}})

    special = {
        "core.prediction_cache.lookups": lookups / units,
        "core.prediction_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "core.history.peak_bytes": history.get("peak_bytes", 0),
        "core.history.bytes_per_sample_round": history.get("bytes_per_sample_round", 0.0),
        "core.history.paper_bytes": history.get("paper_bytes", 0),
        "core.history.self_share": (
            row("core.history.append")["self_s"] + row("core.history.window")["self_s"]
        ) / wall,
        "service.store.conflicts":
            row("service.store.save")["errors"].get("StoreConflictError", 0) / units,
        "service.http.wait_s":
            (traced.get("client_s", 0.0) - row("service.dispatch")["total_s"]) / units
            if "client_s" in traced else 0.0,
        "experiments.worker.idle_s": row("experiments.worker")["self_s"] / units,
        "trace.overhead_s":
            statistics.median(unit_walls(traced)) - statistics.median(unit_walls(plain)),
        "trace.self_coverage": main_process_coverage(traced),
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
            continue
        layer, stat = name.rsplit(".", 1)
        if layer in SETUP_LAYERS:
            metrics[name] = row(layer, "setup")[stat]
        else:
            metrics[name] = row(layer)[stat] / units
    return metrics


# -- checks --------------------------------------------------------------------


def digest_checks(workload: str, seed: int, size: str, children: "list[dict]") -> dict:
    """Every process must reproduce the first one's bytes, and the pinned
    digests at the pinned seed and size."""
    checks = {"attempted": 0, "failed": 0, "errors": []}

    def check(ok: bool, message: str) -> None:
        checks["attempted"] += 1
        if not ok:
            checks["failed"] += 1
            checks["errors"].append(message)

    pinned = json.loads((HERE / "digests.json").read_text())
    pins = pinned.get(workload, {}) if (size, seed) == (pinned["size"], pinned["seed"]) else {}
    first_grid, first_session = None, {}
    for number, child in enumerate(children):
        for unit in child.get("units", []):
            first_grid = first_grid or unit["digests"]
            if number:
                check(unit["digests"] == first_grid,
                      f"process {number}: grid digests differ from process 0")
            if pins:
                check(unit["digests"] == pins,
                      f"process {number}: grid digests differ from digests.json")
        for session in child.get("sessions", []):
            index = str(session["index"])
            expected = first_session.setdefault(index, session["digest"])
            if number:
                check(session["digest"] == expected,
                      f"process {number}: session s{index} differs from process 0")
            if index in pins:
                check(session["digest"] == pins[index],
                      f"process {number}: session s{index} differs from digests.json")
    return checks


# -- one run -------------------------------------------------------------------


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(benchmark: dict, workload: str, seed: int, seconds: float,
             trace: bool, size: str) -> dict:
    """One run of one workload: a record with checks and metrics.

    Untraced, fresh processes run one after another, at least
    :data:`SAMPLES` of them and more while they fit in ``seconds``; a
    served-sessions process drives sessions for ``seconds / SAMPLES``.
    Traced, one untraced and one traced process run, for the tracing
    overhead and the digest comparison.
    """
    child_seconds = seconds / SAMPLES
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        children = [
            run_child(workload, seed, child_seconds, size, f"s{seed}-plain", deadline),
            run_child(workload, seed, child_seconds, size, f"s{seed}-traced", deadline,
                      trace=True),
        ]
        plain, traced = children
        table = self_times(traced["spans"])
        specs = benchmark["per_layer"]
        values = per_layer([m["name"] for m in specs], traced, plain, table)
        trace_path = write_trace(workload, seed, traced["spans"])
        extra = {
            "self_times": format_self_times(table, traced),
            "trace_file": str(trace_path.relative_to(ROOT)),
            "missing_layers": traced["missing"],
            "traced_digests": traced.get("units", traced.get("sessions")),
        }
    else:
        children, measured = [], 0.0
        while True:
            children.append(run_child(workload, seed, child_seconds, size,
                                      f"s{seed}-{len(children)}", deadline))
            last = measured_seconds(children[-1])
            measured += last
            if len(children) >= SAMPLES and measured + last > seconds:
                break
        specs = benchmark["end_to_end"]
        values = end_to_end(children)
        extra = {"setup_samples": [child["setup_s"] for child in children]}
    checks = {"attempted": 0, "failed": 0, "errors": []}
    for part in [child["checks"] for child in children] + [
        digest_checks(workload, seed, size, children)
    ]:
        checks["attempted"] += part["attempted"]
        checks["failed"] += part["failed"]
        checks["errors"] += part["errors"]
    if trace:
        coverage = values.get("trace.self_coverage", 1.0)
        checks["attempted"] += 1
        if abs(coverage - 1.0) > 0.05:
            checks["failed"] += 1
            checks["errors"].append(f"span self times cover {coverage:.1%} of the wall")
    first = children[0]
    return {
        "workload": workload,
        "seed": seed,
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "errors": checks["errors"],
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs
        },
        "digests": first.get("units", first.get("sessions")),
        "environment": {
            "commit": git_commit(),
            "nproc": os.cpu_count(),
            **first["versions"],
            "seed": seed,
            "mode": "traced" if trace else "untraced",
            "size": size,
            "seconds": seconds,
        },
        **extra,
    }


def write_trace(workload: str, seed: int, spans: "list[dict]") -> Path:
    path = WORK / f"trace-{workload}-s{seed}.jsonl"
    with path.open("w") as handle:
        for span in sorted(spans, key=lambda span: span["start"]):
            handle.write(json.dumps(span) + "\n")
    return path


def format_self_times(table: dict, traced: dict) -> "list[dict]":
    """Rows of the self-time table: per unit, set-up rows in total."""
    units = len(unit_walls(traced))
    wall = measured_seconds(traced)
    rows = []
    for (phase, name), row in table.items():
        per = units if phase == "unit" else 1
        rows.append({
            "phase": phase, "span": name, "calls": row["calls"] / per,
            "self_s": row["self_s"] / per, "share_of_wall": row["self_s"] / wall,
        })
    return sorted(rows, key=lambda row: (row["phase"] != "unit", -row["self_s"]))


# -- printing ------------------------------------------------------------------


def print_record(record: dict) -> None:
    err = sys.stderr
    env = record["environment"]
    print(f"\n== {record['workload']} seed={record['seed']} {env['mode']} "
          f"(commit {env['commit']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']})", file=err)
    for name, metric in record["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}", file=err)
    if "self_times" in record:
        print("  self time per unit, set-up in total (share of the traced measured "
              "wall; parallel processes can sum past 100%):", file=err)
        for row in record["self_times"]:
            print(f"    {row['phase']:<5} {row['span']:<40} {row['calls']:>10.1f} "
                  f"calls {row['self_s']:>10.4f} s {row['share_of_wall']:>7.1%}",
                  file=err)
        if record["missing_layers"]:
            print(f"  layers not found: {', '.join(record['missing_layers'])}", file=err)
        print(f"  spans: {record['trace_file']}", file=err)
    print(f"  checks: {record['attempted']} attempted, {record['failed']} failed", file=err)
    for error in record["errors"]:
        print(f"    FAILED {error}", file=err)


def summarize(records: "list[dict]") -> "dict[str, dict]":
    """Median and quartiles of every metric, per workload."""
    summary: dict = {}
    for record in records:
        for name, metric in record["metrics"].items():
            summary.setdefault(record["workload"], {}).setdefault(
                name, {"unit": metric["unit"], "values": []}
            )["values"].append(metric["value"])
    for metrics in summary.values():
        for entry in metrics.values():
            entry["q1"], entry["median"], entry["q3"] = quartiles(entry["values"])
    return summary


def print_summary(summary: dict) -> None:
    print("\nworkload          metric                          median          "
          "q1          q3  spread", file=sys.stderr)
    for workload, metrics in summary.items():
        for name, entry in metrics.items():
            spread = (entry["q3"] - entry["q1"]) / entry["median"] if entry["median"] else 0.0
            print(f"{workload:<17} {name:<26} {entry['median']:>14.6g} "
                  f"{entry['q1']:>11.6g} {entry['q3']:>11.6g} {spread:>6.1%} "
                  f"{entry['unit']}", file=sys.stderr)


# -- compare -------------------------------------------------------------------


def compare(base_path: str, head_path: str) -> int:
    """One row per workload and metric: ``ok``, ``regressed`` or ``unresolved``."""
    benchmark = load_benchmark()
    base = summarize(json.loads(Path(base_path).read_text())["runs"])
    head = summarize(json.loads(Path(head_path).read_text())["runs"])
    print(f"{'workload':<17} {'metric':<18} {'base':>12} {'head':>12} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  status")
    regressed = False
    for workload in base:
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            if name not in base[workload] or name not in head.get(workload, {}):
                continue
            a, b = base[workload][name], head[workload][name]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            change = sign * (b["median"] - a["median"]) / a["median"]
            spread = max((e["q3"] - e["q1"]) / e["median"] for e in (a, b))
            better_everywhere = all(
                sign * (x - y) < 0 for x in b["values"] for y in a["values"]
            )
            if spread > spec["bound"] and not better_everywhere:
                status = "unresolved"
            elif change > spec["bound"]:
                status, regressed = "regressed", True
            else:
                status = "ok"
            print(f"{workload:<17} {name:<18} {a['median']:>12.6g} {b['median']:>12.6g} "
                  f"{change:>+8.1%} {spread:>7.1%} {spec['bound']:>6.0%}  {status}")
    return 1 if regressed else 0


# -- entry point ---------------------------------------------------------------


def main(argv: "list[str]") -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BASE.json HEAD.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    records = []
    try:
        for workload in args.workload:
            for run in range(args.runs):
                record = run_once(benchmark, workload, args.seed + run, args.seconds,
                                  bool(args.trace), args.size)
                records.append(record)
                print_record(record)
                print(json.dumps({key: record[key] for key in
                                  ("correct", "attempted", "failed", "metrics")}),
                      flush=True)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.runs > 1:
        print_summary(summarize(records))
    if args.output:
        Path(args.output).write_text(json.dumps({"runs": records}, indent=1) + "\n")
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
