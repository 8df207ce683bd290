"""Smoke test of the end-to-end benchmark, every workload at a tiny size.

    python -m pytest benchmarks/e2e -q

Each test runs ``run.py`` as a user would, in fresh processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_bench(tmp_path: Path, *args: str, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=root,
    )


def tiny_run(tmp_path: Path, workload: str, trace: int) -> "tuple[dict, dict]":
    """``(last stdout line, full record)`` of one tiny run."""
    output = tmp_path / "out.json"
    done = run_bench(tmp_path, "--workload", workload, "--size", "tiny",
                     "--seconds", "1", "--seed", "3", "--trace", str(trace),
                     "--output", str(output))
    assert done.returncode == 0, done.stderr[-4000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return last, json.loads(output.read_text())["runs"][0]


def units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(tmp_path, workload):
    last, _record = tiny_run(tmp_path, workload, trace=0)
    assert units(last["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(metric["value"] > 0 for metric in last["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_the_wall_and_keeps_the_bytes(tmp_path, workload):
    last, record = tiny_run(tmp_path, workload, trace=1)
    assert units(last["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert abs(last["metrics"]["trace.self_coverage"]["value"] - 1.0) <= 0.05
    traced = {str(item.get("index")): item["digests" if "digests" in item else "digest"]
              for item in record["traced_digests"]}
    plain = {str(item.get("index")): item["digests" if "digests" in item else "digest"]
             for item in record["digests"]}
    common = traced.keys() & plain.keys()
    assert common and all(traced[key] == plain[key] for key in common)
    spans = (ROOT / record["trace_file"]).read_text().splitlines()
    assert spans and {"name", "start", "end", "parent", "trace"} <= set(json.loads(spans[0]))
    assert record["self_times"] and not record["missing_layers"]


def test_compare_marks_identical_runs_ok(tmp_path):
    output = tmp_path / "runs.json"
    done = run_bench(tmp_path, "--workload", "ner_grid", "--size", "tiny",
                     "--seconds", "1", "--runs", "2", "--output", str(output))
    assert done.returncode == 0, done.stderr[-4000:]
    done = run_bench(tmp_path, "compare", str(output), str(output))
    assert done.returncode == 0, done.stdout + done.stderr
    rows = done.stdout.splitlines()[1:]
    assert len(rows) == len(BENCHMARK["end_to_end"])
    assert all(row.split()[-1] in ("ok", "unresolved") for row in rows)


def test_fails_without_the_program(tmp_path):
    """With only the benchmark's own files, it fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "text_grid", "--seconds", "1",
                     root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
