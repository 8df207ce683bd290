"""Figure 2: the four trend shapes of historical evaluation sequences.

The paper's Figure 2 sketches the trends a sample's score sequence can
take: (a) relatively stable, (b) increasing, (c) decreasing, (d)
fluctuating.  This benchmark runs a real entropy-history-collecting AL
loop on the MR profile and classifies every surviving sample's sequence
with :func:`repro.timeseries.classify_trends`, reporting how often each
shape actually occurs — demonstrating that all four shapes arise in
practice, which is the premise of the whole paper.
"""

from __future__ import annotations

from repro.core.session import SessionEngine, run_to_completion
from repro.core.strategies import Entropy, WSHS
from repro.experiments.reporting import format_table
from repro.timeseries import TrendShape, classify_trends

from .common import BENCH_MR, BENCH_SEED, save_report, text_model, text_split


def test_figure2_trend_shapes(benchmark):
    train, test = text_split(BENCH_MR)

    def run():
        engine = SessionEngine(
            text_model(),
            WSHS(Entropy(), window=3),
            train,
            test,
            batch_size=25,
            rounds=12,
            seed_or_rng=BENCH_SEED,
        )
        history = run_to_completion(engine).history
        sequences = [
            history.sequence(i)
            for i in range(history.n_samples)
            if history.sequence_length(i) >= 5
        ]
        counts = classify_trends(sequences)
        total = len(sequences)
        rows = [
            [shape.value, counts[shape], f"{100 * counts[shape] / total:.1f}%"]
            for shape in TrendShape
        ]
        report = format_table(
            ["trend shape", "#sequences", "share"],
            rows,
            title=(
                "Figure 2 (reproduced): trend shapes of entropy history "
                f"sequences ({total} sequences, >=5 rounds each)"
            ),
        )
        return report, counts, total

    report, counts, total = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("figure2_trends", report)

    # All four shapes of Figure 2 must occur in a real run.
    assert all(counts[shape] > 0 for shape in TrendShape)
    assert total > 500
