"""HistAL — Active Learning with Historical Evaluation Results.

A from-scratch reproduction of Yao, Dou, Nie & Wen, *"Looking Back on the
Past: Active Learning with Historical Evaluation Results"* (TKDE 2020;
ICDE 2023 extended abstract).

Quickstart::

    from repro import mr, LinearSoftmax, SessionEngine, run_to_completion
    from repro.core.strategies import Entropy, WSHS

    data = mr(scale=0.1, seed_or_rng=0)
    train, test = data.subset(range(0, 800)), data.subset(range(800, 1000))
    result = run_to_completion(SessionEngine(
        LinearSoftmax(), WSHS(Entropy(), window=3), train, test,
        batch_size=25, rounds=10, seed_or_rng=0,
    ))
    print(result.curve())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .core import (
    ALResult,
    EventLog,
    HistoryStore,
    LHSRanker,
    Pool,
    RankingFeatureExtractor,
    RoundRecord,
    SessionEngine,
    SessionObserver,
    SessionState,
    run_to_completion,
    train_lhs_ranker,
)
from .data import (
    SequenceDataset,
    TextDataset,
    Vocabulary,
    conll2002_dutch,
    conll2002_spanish,
    conll2003_english,
    mr,
    sst2,
    subj,
    trec,
)
from .eval import LearningCurve, evaluate_model, samples_to_target, span_f1
from .exceptions import ReproError
from .experiments import ExperimentConfig, run_comparison
from .models import (
    LinearChainCRF,
    LinearSoftmax,
    LSTMRegressor,
    MLPClassifier,
    TextCNN,
)
from .specs import (
    ExperimentSpec,
    Spec,
    build_model,
    build_strategy,
    spec_of_model,
    spec_of_strategy,
)

__version__ = "1.0.0"

__all__ = [
    "ALResult",
    "EventLog",
    "ExperimentConfig",
    "ExperimentSpec",
    "HistoryStore",
    "LHSRanker",
    "LSTMRegressor",
    "LearningCurve",
    "LinearChainCRF",
    "LinearSoftmax",
    "MLPClassifier",
    "Pool",
    "RankingFeatureExtractor",
    "ReproError",
    "RoundRecord",
    "SequenceDataset",
    "SessionEngine",
    "SessionObserver",
    "SessionState",
    "Spec",
    "TextCNN",
    "TextDataset",
    "Vocabulary",
    "__version__",
    "build_model",
    "build_strategy",
    "conll2002_dutch",
    "conll2002_spanish",
    "conll2003_english",
    "evaluate_model",
    "mr",
    "run_comparison",
    "run_to_completion",
    "samples_to_target",
    "span_f1",
    "spec_of_model",
    "spec_of_strategy",
    "sst2",
    "subj",
    "train_lhs_ranker",
    "trec",
]
