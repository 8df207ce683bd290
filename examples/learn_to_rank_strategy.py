"""Train the LHS learned query strategy and transfer it across corpora.

Walks through the paper's Sec. 4.4 end to end:

1. run Algorithm 1 on a *labeled* corpus (the paper uses Subj) — collect
   (candidate, Eval(M') - Eval(M)) pairs round by round, extract the five
   historical feature groups, and fit a LambdaMART ranker;
2. inspect the learned feature usage via the trained bundle;
3. apply the ranker as an LHS query strategy on a *different* corpus of
   the same task (MR), comparing against its base strategy.

Run with:  python examples/learn_to_rank_strategy.py
"""

from repro import (
    LinearSoftmax,
    SessionEngine,
    mr,
    run_to_completion,
    subj,
    train_lhs_ranker,
)
from repro.core.ranker_training import RankerTrainingConfig
from repro.core.strategies import Entropy, LHS, LeastConfidence


def main() -> None:
    # --- 1. Algorithm 1 on the ranker-training corpus -------------------
    ranker_corpus = subj(scale=0.14, seed_or_rng=1)
    cut = 1_000
    ranker = train_lhs_ranker(
        LinearSoftmax(epochs=5),
        ranker_corpus.subset(range(cut)),
        ranker_corpus.subset(range(cut, len(ranker_corpus))),
        base=Entropy(),
        config=RankerTrainingConfig(
            rounds=5,
            candidates_per_round=12,
            initial_size=25,
            window=5,
            predictor="lstm",
            eval_size=250,
        ),
        seed_or_rng=42,
    )
    print(f"trained LHS ranker on {ranker.training_rows} candidate evaluations")
    print(f"ranking features: {ranker.extractor.feature_names()}")

    # --- 2 & 3. transfer to MR and compare against the base -------------
    target = mr(scale=0.2, seed_or_rng=2)
    train, test = target.subset(range(1_400)), target.subset(range(1_400, len(target)))
    for strategy in (
        Entropy(),
        LHS(Entropy(), ranker, candidate_strategies=[LeastConfidence()]),
    ):
        engine = SessionEngine(
            LinearSoftmax(epochs=5), strategy, train, test,
            batch_size=25, rounds=10, seed_or_rng=9,
        )
        curve = run_to_completion(engine).curve()
        print(f"{strategy.name:14s} final acc {curve.values[-1]:.3f}  "
              f"acc@250 {curve.value_at(250):.3f}")


if __name__ == "__main__":
    main()
