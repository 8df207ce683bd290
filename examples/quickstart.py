"""Quickstart: history-aware active learning in ~20 lines.

Runs pool-based active learning on a synthetic Movie-Review-like corpus,
comparing plain entropy sampling against the paper's WSHS strategy
(exponentially weighted sum of the historical evaluation sequence).

Run with:  python examples/quickstart.py
"""

from repro import LinearSoftmax, SessionEngine, mr, run_to_completion
from repro.core.strategies import Entropy, WSHS


def main() -> None:
    # A scaled-down synthetic MR corpus: 2,100 sentences, 2 classes.
    data = mr(scale=0.2, seed_or_rng=0)
    train, test = data.subset(range(1_400)), data.subset(range(1_400, len(data)))

    for strategy in (Entropy(), WSHS(Entropy(), window=3)):
        engine = SessionEngine(
            LinearSoftmax(epochs=5),
            strategy,
            train,
            test,
            batch_size=25,
            rounds=10,
            seed_or_rng=42,
        )
        curve = run_to_completion(engine).curve()
        print(f"\n{strategy.name}")
        for count, value in zip(curve.counts, curve.values):
            bar = "#" * int(40 * value)
            print(f"  {count:4d} labels  acc={value:.3f}  {bar}")


if __name__ == "__main__":
    main()
