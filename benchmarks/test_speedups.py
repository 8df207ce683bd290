"""Speed checks: each fast path must be no slower than what it replaced.

Six timing claims, at small sizes but for text features:

* partial top-k selection against the full lexsort (DESIGN §7);
* ``LinearSoftmax.predict_proba`` through the reused feature buffer
  against the same product over a freshly built ``bag_of_words()``
  matrix, on an MR-1.0 training split (DESIGN §7);
* ``bag_of_words()`` of an MR-1.0 pool from its kept token counts
  against counting every row with ``np.unique`` on each call
  (DESIGN §7);
* warm-start training against cold (DESIGN §12);
* a resumed scenario sweep against its cold run (DESIGN §14);
* a 2-worker queue grid whose workers quiet their idle BLAS threads
  against the same grid under OpenBLAS's default spin (DESIGN §7).

Each side is timed as the best of ``REPEATS`` ``time.perf_counter``
readings.  The top-k, scoring, featurization and queue-grid tests
assert that both paths give the same bytes before they time them;
every other correctness check runs in
the tier-1 suite, which this module is not part of (``testpaths`` is
``tests``), because wall time depends on the host.  It takes no option
and writes no file::

    PYTHONPATH=src python -m pytest benchmarks/test_speedups.py

Per-layer time of real runs comes from ``benchmarks/e2e/run.py --trace 1``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.selection import top_k_indices, top_k_reference
from repro.data.text import mr
from repro.experiments import ExperimentConfig, run_sweep
from repro.models import LinearSoftmax
from repro.models.base import params_from_jsonable
from repro.models.layers import softmax
from repro.specs import ExperimentSpec, Spec, SweepSpec, build_split
from tests.models.test_warm_start import warm_workload
from tests.oracles.data import unique_bag_of_words
from tests.test_blas import openblas_function

REPEATS = 3


def best_of(function) -> float:
    """Best wall-clock seconds of ``REPEATS`` calls."""
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("n", [20_000, 50_000])
def test_top_k_beats_the_full_sort(n):
    """k = 1,000 of ``n`` scores rounded to 6 places, so the k-th score
    has ties.  Both paths draw the same jitter, so the ratio isolates
    the sort."""
    k = 1_000
    scores = np.round(np.random.default_rng(20).random(n), 6)
    np.testing.assert_array_equal(
        top_k_indices(scores, k, np.random.default_rng(21)),
        top_k_reference(scores, k, np.random.default_rng(21)),
    )
    partial = best_of(lambda: top_k_indices(scores, k, np.random.default_rng(22)))
    full = best_of(lambda: top_k_reference(scores, k, np.random.default_rng(22)))
    assert partial <= full


def test_buffered_scoring_beats_a_fresh_matrix():
    """The MR-1.0 training split is 7,463 x 2,978, a 178 MB matrix.  A
    first call sizes the buffer, so the timed calls find it resident."""
    pool, _ = build_split(
        Spec(kind="fraction", params={"test_fraction": 0.3}), mr(1.0, seed_or_rng=7)
    )
    model = LinearSoftmax(epochs=3, seed=0).fit(pool.subset(range(250)))
    arrays = params_from_jsonable(model.get_params()["arrays"])

    def fresh():
        return softmax(pool.bag_of_words() @ arrays["W"] + arrays["b"])

    assert model.predict_proba(pool).tobytes() == fresh().tobytes()
    assert best_of(lambda: model.predict_proba(pool)) <= best_of(fresh)


def test_kept_counts_beat_counting_every_call():
    """The MR-1.0 training split less a 250-row seed set, as a pool is
    scored after the first round.  Its counts are gathered from the
    corpus at the first call, which is not timed; both sides then fill a
    fresh matrix, so the ratio isolates the counting."""
    split, _ = build_split(
        Spec(kind="fraction", params={"test_fraction": 0.3}), mr(1.0, seed_or_rng=7)
    )
    pool = split.subset(range(250, len(split)))
    assert pool.bag_of_words().tobytes() == unique_bag_of_words(pool).tobytes()
    kept = best_of(pool.bag_of_words)
    assert kept <= best_of(lambda: unique_bag_of_words(pool))


@pytest.mark.parametrize("family", ["textcnn", "mlp", "lstm"])
def test_warm_start_beats_cold(family):
    run = warm_workload(family)
    assert best_of(lambda: run("warm")) <= best_of(lambda: run("cold"))


def _sweep() -> SweepSpec:
    """A 2x2 label-noise x annotation-cost grid over a small MR experiment."""
    base = ExperimentSpec(
        dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 7}),
        split=Spec(kind="fraction", params={"test_fraction": 0.3}),
        model=Spec(kind="linear", params={"epochs": 2, "batch_size": 32, "seed": 0}),
        strategies={"random": Spec(kind="random"), "entropy": Spec(kind="entropy")},
        config=ExperimentConfig(
            batch_size=10, rounds=2, repeats=1, seed=9, track_flips=True
        ),
    )
    noisy = {"kind": "label_noise", "params": {"rate": 0.1}}
    by_length = {
        "kind": "annotation_cost",
        "params": {"model": "length", "base": 1.0, "per_token": 0.05},
    }
    return SweepSpec.from_dict({
        "format": "repro.sweep",
        "version": 1,
        "name": "speed",
        "base": base.to_dict(),
        "scenario_seed": 1,
        "axes": [
            {"name": "noise", "cells": [
                {"name": "clean"}, {"name": "p10", "transforms": [noisy]},
            ]},
            {"name": "cost", "cells": [
                {"name": "unit"}, {"name": "length", "transforms": [by_length]},
            ]},
        ],
        "metrics": [
            {"kind": "final"},
            {"kind": "auc"},
            {"kind": "speedup", "params": {"fraction": 0.9}},
            {"kind": "contradiction"},
            {"kind": "cost_auc"},
        ],
    })


def test_resumed_sweep_beats_its_cold_run(tmp_path):
    sweep = _sweep()
    directories = iter(tmp_path / f"cold-{index}" for index in range(REPEATS))
    cold = best_of(lambda: run_sweep(sweep, sweep_dir=next(directories)))
    resumed = best_of(
        lambda: run_sweep(sweep, sweep_dir=tmp_path / "cold-0", resume=True)
    )
    assert resumed <= cold


@pytest.mark.skipif(
    openblas_function("openblas_read_env") is None or len(os.sched_getaffinity(0)) < 2,
    reason="needs an OpenBLAS that exports openblas_read_env, and 2 CPUs",
)
def test_quiet_blas_threads_beat_the_default_spin(tmp_path):
    """The ``cell_grid`` shape at half its repeats: 48 cells of MR 0.1,
    4 rounds of 10, on 2 forked workers, one fresh ``repro compare``
    process per run.  ``OPENBLAS_THREAD_TIMEOUT=28`` is OpenBLAS's
    default spin, which the workers keep because a user's setting
    wins."""
    root = Path(__file__).resolve().parents[1]
    queue_dir = tmp_path / "queue"
    command = [
        sys.executable, "-m", "repro", "compare", "--dataset", "mr", "--scale", "0.1",
        "--seed", "7", "--strategies", "random", "entropy", "wshs:entropy", "fhs:entropy",
        "--rounds", "4", "--batch-size", "10", "--repeats", "12", "--epochs", "5",
        "--queue-dir", str(queue_dir), "--local-workers", "2",
    ]
    plain = {key: value for key, value in os.environ.items()
             if key != "OPENBLAS_THREAD_TIMEOUT"}
    plain["PYTHONPATH"] = str(root / "src")
    spinning = dict(plain, OPENBLAS_THREAD_TIMEOUT="28")
    digests = set()

    def run(env: dict) -> None:
        shutil.rmtree(queue_dir, ignore_errors=True)
        stdout = subprocess.run(
            command, env=env, cwd=root, capture_output=True, check=True
        ).stdout
        digests.add(hashlib.sha256(stdout).hexdigest())

    run(plain)
    run(spinning)
    assert len(digests) == 1
    assert best_of(lambda: run(plain)) <= best_of(lambda: run(spinning))
