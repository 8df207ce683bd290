"""Table 2: time and space complexity of basic vs historical strategies.

The paper's claim: WSHS/FHS/LHS add O(1) time on top of a basic
strategy's O(T) per-round evaluation, and O(l*N) space for the history
window versus O(N) for current scores only.  We measure both directly:

* time — per-round scoring cost of Entropy vs WSHS/FHS(Entropy) on the
  same model and pool (the history combination must be a small fraction
  of the base evaluation cost);
* space — HistoryStore bytes as a function of rounds recorded vs the
  bytes of a single score vector.

Only the space column is saved to ``results/table2_complexity.txt``;
the wall-clock column differs on every run, so it is printed to stdout.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.history import HistoryStore
from repro.core.strategies import Entropy, FHS, WSHS
from repro.core.strategies.base import SelectionContext
from repro.experiments.reporting import format_table

from .common import BENCH_MR, save_report, text_model, text_split


def _fresh_context(dataset, history, round_index):
    n = len(dataset)
    return SelectionContext(
        dataset=dataset,
        unlabeled=np.arange(100, n),
        labeled=np.arange(100),
        history=history,
        round_index=round_index,
        rng=np.random.default_rng(0),
    )


def _scoring_time(strategy, model, dataset, rounds=6):
    history = HistoryStore(len(dataset), strategy_name=strategy.name)
    elapsed = 0.0
    for round_index in range(1, rounds + 1):
        context = _fresh_context(dataset, history, round_index)
        start = time.perf_counter()
        strategy.scores(model, context)
        elapsed += time.perf_counter() - start
    return elapsed / rounds


def test_table2_complexity(benchmark):
    train, _ = text_split(BENCH_MR)
    model = text_model().fit(train.subset(range(200)))
    n = len(train)
    current_bytes = n * 8  # one float score per sample

    def run():
        times = {
            "Entropy (basic)": _scoring_time(Entropy(), model, train),
            "WSHS(Entropy)": _scoring_time(WSHS(Entropy(), window=3), model, train),
            "FHS(Entropy)": _scoring_time(FHS(Entropy(), window=3), model, train),
        }
        history = HistoryStore(n)
        history_bytes = {}
        for round_index in range(1, 21):
            history.append(round_index, np.arange(n), np.zeros(n))
            if round_index in (1, 3, 10, 20):
                history_bytes[round_index] = history.nbytes()
        return times, history_bytes

    times, history_bytes = benchmark.pedantic(run, rounds=1, iterations=1)
    report = format_table(
        ["strategy", "score storage"],
        [
            ["Entropy (basic)", f"{current_bytes / 1024:.0f} KiB"],
            ["WSHS(Entropy)", f"{history_bytes[3] / 1024:.0f} KiB (l=3)"],
            ["FHS(Entropy)", f"{history_bytes[3] / 1024:.0f} KiB (l=3)"],
            ["HistoryStore @20 rounds", f"{history_bytes[20] / 1024:.0f} KiB"],
        ],
        title="Table 2 (reproduced): overhead of historical strategies",
    )
    save_report("table2_complexity", report)
    print(format_table(
        ["strategy", "per-round scoring time"],
        [[name, f"{seconds * 1e3:.2f} ms"] for name, seconds in times.items()],
        title="Table 2 scoring time (this run; not saved)",
    ))

    # Shape claims: history adds a bounded constant factor, not O(rounds).
    base_time = times["Entropy (basic)"]
    assert times["WSHS(Entropy)"] < base_time * 3.0
    assert times["FHS(Entropy)"] < base_time * 3.0
    # Space grows linearly in recorded rounds and is l*N-scale, not free.
    assert history_bytes[20] == 20 * current_bytes
    assert history_bytes[3] == 3 * current_bytes
