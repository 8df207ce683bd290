"""One benchmark process: set up a workload, measure it, write a result.

``run.py`` starts this script in a fresh interpreter for every sample,
with ``PYTHONPATH`` pointing at the checkout's ``src``::

    python child.py run --workload W --seed S --seconds T --size full \
        --workdir DIR --launched-at MONOTONIC [--trace]
    python child.py serve --workdir DIR --sqlite DB [--trace]

``run`` sets up one workload and measures one unit of it: a whole grid,
or a closed loop of served sessions for ``--seconds``.  Set-up is timed
from ``--launched-at``, the orchestrator's ``time.monotonic()`` just
before it started this process.  ``run`` writes ``DIR/result.json``;
every process of the run (this one, forked queue workers, the session
server) writes its spans and samples to ``DIR/dumps/proc-<pid>.jsonl``.  ``serve`` is the session server of
``served_sessions``: ``repro serve`` behind the same instrumentation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from tracer import Recorder, peak_rss_kb


def _finish(workdir: Path, recorder: Recorder, result: dict) -> None:
    import workloads

    recorder.dump()
    result.update(
        pid=recorder.pid,
        peak_rss_kb=peak_rss_kb(),
        missing=recorder.missing,
        versions=workloads.python_versions(),
    )
    (workdir / "result.json").write_text(json.dumps(result))


def run_grid(args, recorder: Recorder) -> None:
    """Set up a batch grid, then run it once."""
    workdir = Path(args.workdir)
    with recorder.span("bench.setup"):
        with recorder.span("cli.import"):
            import repro.cli  # noqa: F401  (the import every CLI run pays)
        import workloads

        recorder.install(latency=True)
        workload = workloads.WORKLOADS[args.workload](
            workloads.SIZES[args.size][args.workload], args.seed, workdir
        )
        workload.setup()
    setup_s = time.monotonic() - args.launched_at
    started = time.perf_counter()
    with recorder.span("bench.unit"):
        outcome = workload.unit()
    wall = time.perf_counter() - started
    expected = workload.expected_cells()
    checks = {"attempted": expected, "failed": expected - outcome["cells"], "errors": []}
    if checks["failed"]:
        checks["errors"].append(f"{outcome['cells']} of {expected} cells finished")
    _finish(workdir, recorder, {
        "setup_s": setup_s, "units": [{"wall_s": wall, **outcome}], "checks": checks,
    })


def run_served(args, recorder: Recorder) -> None:
    """Start ``repro serve``, drive sessions for ``--seconds``, check them."""
    import workloads
    from repro.experiments.checkpoint import result_to_dict

    workdir = Path(args.workdir)
    server_command = [
        sys.executable, str(Path(__file__).resolve()), "serve",
        "--workdir", str(workdir), "--sqlite", str(workdir / "sessions.db"),
    ] + (["--trace"] if args.trace else [])
    workload = workloads.ServedSessions(
        workloads.SIZES[args.size][args.workload], args.seed, workdir, server_command
    )
    launched = time.monotonic()
    try:
        workload.setup()
        result = {"setup_s": time.monotonic() - launched}
        result.update(workload.measure(args.seconds, recorder))
    finally:
        workload.close()
    checks = {
        "attempted": result.pop("requests"),
        "failed": result.pop("failed"),
        "errors": result.pop("errors"),
    }
    served = {session["index"]: session["digest"] for session in result["sessions"]}
    runs = []
    for index in range(workloads.IDENTITY_SESSIONS):
        checks["attempted"] += 1
        run = workload.serial_result(index)
        runs.append(run)
        if served.get(index) != workloads.digest(result_to_dict(run)):
            checks["failed"] += 1
            checks["errors"].append(
                f"session s{index}: served result differs from a serial engine run"
            )
    result["checks"] = checks
    result["history"] = workloads.history_stats(runs)
    _finish(workdir, recorder, result)


def serve(args, recorder: Recorder) -> None:
    """``repro serve --sqlite DB --port 0`` with the layers wrapped."""
    with recorder.span("bench.setup"):
        with recorder.span("cli.import"):
            import repro.cli
        recorder.install(latency=False)
    try:
        repro.cli.main(["serve", "--sqlite", args.sqlite, "--port", "0"])
    finally:
        recorder.dump()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--size", required=True)
    run.add_argument("--launched-at", type=float, required=True)
    server = commands.add_parser("serve")
    server.add_argument("--sqlite", required=True)
    for command in (run, server):
        command.add_argument("--workdir", required=True)
        command.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    recorder = Recorder(Path(args.workdir) / "dumps", trace=args.trace)
    if args.command == "serve":
        serve(args, recorder)
    elif args.workload == "served_sessions":
        run_served(args, recorder)
    else:
        run_grid(args, recorder)


if __name__ == "__main__":
    main()
