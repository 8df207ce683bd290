"""Query strategies: classic baselines and the paper's proposals.

Classic (Sec. 3.1): Random, Entropy, LeastConfidence, Margin, EGL, QBC,
Density-weighted, MMR diversity.

Historical baselines (Sec. 3.2): HUS (unweighted sum of the last k
scores), HKLD (committee of the last k models).

State of the art (Sec. 4.5): EGL-word, BALD, MNLP.

Proposed (Sec. 4): WSHS (exponentially weighted history sum), FHS
(fluctuation-augmented score), LHS (learning-to-rank over historical
features).  All three wrap an arbitrary informative base strategy.
"""

from .bald import BALD
from .base import (
    HistoryAwareStrategy,
    QueryStrategy,
    SelectionContext,
    create_strategy,
    registered_strategies,
)
from .density import DensityWeighted
from .egl import EGL
from .egl_word import EGLWord
from .fhs import FHS
from .hus import HKLD, HUS
from .lhs import LHS
from .mmr import MMR
from .mnlp import MNLP
from .qbc import QBC
from .random_ import Random
from .uncertainty import Entropy, LeastConfidence, Margin
from .wshs import WSHS

__all__ = [
    "BALD",
    "DensityWeighted",
    "EGL",
    "EGLWord",
    "Entropy",
    "FHS",
    "HKLD",
    "HUS",
    "HistoryAwareStrategy",
    "LHS",
    "LeastConfidence",
    "MMR",
    "MNLP",
    "Margin",
    "QBC",
    "QueryStrategy",
    "Random",
    "SelectionContext",
    "WSHS",
    "create_strategy",
    "registered_strategies",
]
