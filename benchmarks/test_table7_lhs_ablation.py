"""Table 7: ablation study of the LHS ranking features.

The paper trains the LHS ranker with each feature group removed in turn
(historical sequence, fluctuation, sequence trend, next-score prediction,
output probability) and reports MR accuracy at 100..500 labels.  Its
finding: every removal hurts somewhere, with the historical sequence and
fluctuation groups mattering most.

An extra row ablates the design choice DESIGN.md calls out: the LSTM
next-score predictor swapped for the cheap AR(k) one.
"""

from __future__ import annotations


from repro.core.ranker_training import RankerTrainingConfig, train_lhs_ranker
from repro.core.strategies import Entropy, LHS, LeastConfidence
from repro.eval.curves import area_under_curve, mean_curve
from repro.core.session import SessionEngine, run_to_completion
from repro.experiments.reporting import format_curve_table

from .common import (
    BENCH_MR,
    BENCH_SEED,
    BENCH_SUBJ,
    save_report,
    text_model,
    text_split,
)

WINDOW = 5
REPEATS = 4

ABLATIONS = {
    "LHS (full)": {},
    "-history sequence": {"use_history": False},
    "-fluctuation": {"use_fluctuation": False},
    "-sequence trend": {"use_trend": False},
    "-next prediction": {"use_prediction": False},
    "-probability": {"use_probabilities": False},
}


def _ranker(feature_flags, predictor, seed):
    subj_train, subj_test = text_split(BENCH_SUBJ, train=900, seed=BENCH_SEED + 1)
    return train_lhs_ranker(
        text_model(), subj_train, subj_test, base=Entropy(),
        config=RankerTrainingConfig(
            rounds=5, candidates_per_round=12, initial_size=25, window=WINDOW,
            predictor=predictor, predictor_rounds=6, eval_size=250,
            feature_flags=dict(feature_flags),
        ),
        seed_or_rng=seed,
    )


def _lhs_curve(ranker, train, test):
    curves = []
    for repeat in range(REPEATS):
        engine = SessionEngine(
            text_model(),
            LHS(Entropy(), ranker, candidate_strategies=[LeastConfidence()]),
            train, test, batch_size=25, rounds=14,
            seed_or_rng=BENCH_SEED + 100 + repeat,
        )
        curves.append(run_to_completion(engine).curve())
    return mean_curve(curves)


def test_table7_lhs_ablation(benchmark):
    train, test = text_split(BENCH_MR)

    def run():
        curves = {}
        for offset, (name, flags) in enumerate(ABLATIONS.items()):
            predictor = None if flags.get("use_prediction") is False else "lstm"
            ranker = _ranker(flags, predictor, seed=BENCH_SEED + offset)
            curves[name] = _lhs_curve(ranker, train, test)
        # Design-choice ablation: AR predictor instead of the LSTM.
        ar_ranker = _ranker({}, "ar", seed=BENCH_SEED + 50)
        curves["LSTM->AR predictor"] = _lhs_curve(ar_ranker, train, test)
        # Future-work extension: add window min/max/mean/delta features.
        extended_ranker = _ranker(
            {"use_window_stats": True}, "lstm", seed=BENCH_SEED + 60
        )
        curves["+window stats (ext)"] = _lhs_curve(extended_ranker, train, test)
        return curves

    curves = benchmark.pedantic(run, rounds=1, iterations=1)
    checkpoints = [100, 175, 250, 325, 375]
    save_report(
        "table7_lhs_ablation",
        format_curve_table(
            curves, counts=checkpoints,
            title=(
                "Table 7 (reproduced): LHS feature ablation on the MR profile "
                f"(mean over {REPEATS} repeats)"
            ),
        ),
    )

    full_auc = area_under_curve(curves["LHS (full)"])
    # Paper shape: no ablation catastrophically beats the full model, and
    # the ablations stay within a plausible band of it.
    for name, curve in curves.items():
        assert area_under_curve(curve) > full_auc - 0.05, name
    ablation_aucs = {
        name: area_under_curve(curve)
        for name, curve in curves.items()
        if name.startswith("-")
    }
    # At least one feature removal must hurt (features carry signal).
    assert min(ablation_aucs.values()) < full_auc + 0.001
