"""Extend the library with your own history-aware query strategy.

The paper's WSHS and FHS are two points in a family: "combine the current
score with some statistic of the historical sequence".  This example
implements a third member — selecting by the *Mann-Kendall trend* of the
sequence (prefer samples whose uncertainty keeps rising) — in ~25 lines,
and drops it into the standard session engine next to the built-ins.

Run with:  python examples/custom_history_strategy.py
"""

import numpy as np

from repro import LinearSoftmax, SessionEngine, mr, run_to_completion
from repro.core.strategies import Entropy, WSHS
from repro.core.strategies.base import HistoryAwareStrategy, SelectionContext
from repro.timeseries.mann_kendall import mann_kendall_test


class RisingTrend(HistoryAwareStrategy):
    """Current score plus a bonus for an increasing historical trend."""

    trend_weight = 0.3

    @property
    def name(self) -> str:
        return f"RisingTrend({self.base.name})"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        current = self.base_scores(model, context)  # records history too
        bonus = np.zeros_like(current)
        for row, index in enumerate(context.unlabeled):
            sequence = context.history.sequence(int(index))
            if len(sequence) >= 3:
                bonus[row] = mann_kendall_test(sequence).tau
        return current + self.trend_weight * bonus


def main() -> None:
    data = mr(scale=0.18, seed_or_rng=4)
    train, test = data.subset(range(1_300)), data.subset(range(1_300, len(data)))

    for strategy in (
        Entropy(),
        WSHS(Entropy(), window=3),
        RisingTrend(Entropy(), window=3),
    ):
        engine = SessionEngine(
            LinearSoftmax(epochs=5), strategy, train, test,
            batch_size=25, rounds=10, seed_or_rng=3,
        )
        curve = run_to_completion(engine).curve()
        print(f"{strategy.name:22s} acc@150 {curve.value_at(150):.3f}  "
              f"final {curve.values[-1]:.3f}")


if __name__ == "__main__":
    main()
