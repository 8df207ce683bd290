"""Active learning for named entity recognition with a CRF.

Reproduces the flavour of the paper's NER experiments (Figure 3 row 4 and
Figure 4 row 2): a linear-chain CRF on a synthetic CoNLL-like corpus,
comparing sequence least-confidence, the length-normalised MNLP (Eq. 13),
and their WSHS history wrappers, measured by entity-level span F1.

``repro.models.BiLSTMCRF`` (the paper's actual architecture, minus the
char-CNN) is a drop-in replacement for ``LinearChainCRF`` below — slower
but with true MC-dropout BALD support.

Run with:  python examples/ner_active_learning.py
"""

from repro import LinearChainCRF, SessionEngine, conll2003_english, run_to_completion
from repro.core.strategies import LeastConfidence, MNLP, Random, WSHS


def main() -> None:
    data = conll2003_english(scale=0.04, seed_or_rng=5)  # ~600 sentences
    cut = int(len(data) * 0.7)
    train, test = data.subset(range(cut)), data.subset(range(cut, len(data)))
    print(f"pool: {len(train)} sentences, test: {len(test)} sentences, "
          f"{data.num_tags} BIOES tags")

    strategies = [
        Random(),
        LeastConfidence(),
        MNLP(),
        WSHS(LeastConfidence(), window=3),
        WSHS(MNLP(), window=3),
    ]
    for strategy in strategies:
        engine = SessionEngine(
            LinearChainCRF(epochs=3),
            strategy,
            train,
            test,
            batch_size=25,
            rounds=8,
            seed_or_rng=7,
        )
        curve = run_to_completion(engine).curve()
        checkpoints = ", ".join(
            f"{count}:{value:.3f}" for count, value in
            zip(curve.counts[::2], curve.values[::2])
        )
        print(f"{strategy.name:12s} span-F1 by #sentences -> {checkpoints}")


if __name__ == "__main__":
    main()
