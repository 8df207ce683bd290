"""Core active-learning machinery: the paper's contribution.

* :mod:`repro.core.history` — the historical-evaluation-sequence store
  (the central data structure of the paper).
* :mod:`repro.core.pool` — labeled/unlabeled pool bookkeeping.
* :mod:`repro.core.strategies` — all query strategies: classic baselines,
  the historical baselines (HUS/HKLD), and the proposed WSHS/FHS/LHS.
* :mod:`repro.core.features` — ranking-feature extraction for LHS.
* :mod:`repro.core.session` — the re-entrant session engine (state
  machine, snapshots, external-annotator workflow) and its auto-oracle
  driver ``run_to_completion``.
* :mod:`repro.core.events` — lifecycle observer seam over the engine.
* :mod:`repro.core.prediction_cache` — per-round forward-pass memoisation.
* :mod:`repro.core.selection` — partial top-k batch selection.
* :mod:`repro.core.ranker_training` — Algorithm 1 (training the LHS ranker).
"""

from .events import EventLog, SessionObserver
from .features import RankingFeatureExtractor
from .history import HistoryStore
from .pool import Pool
from .prediction_cache import PredictionCache
from .ranker_training import LHSRanker, train_lhs_ranker
from .selection import top_k_indices, top_k_reference
from .session import ALResult, RoundRecord, SessionEngine, SessionState, run_to_completion

__all__ = [
    "ALResult",
    "EventLog",
    "HistoryStore",
    "LHSRanker",
    "Pool",
    "PredictionCache",
    "RankingFeatureExtractor",
    "RoundRecord",
    "SessionEngine",
    "SessionObserver",
    "SessionState",
    "run_to_completion",
    "top_k_indices",
    "top_k_reference",
    "train_lhs_ranker",
]
