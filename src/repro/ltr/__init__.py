"""Learning-to-rank substrate: regression trees, NDCG and LambdaMART.

The LHS strategy uses LambdaMART (Wu et al., 2010) as its learning-to-rank
model.  This package is a from-scratch implementation: a CART regression
tree with Newton leaf values, NDCG utilities, and the LambdaMART ranker
that boosts those trees on LambdaRank gradients.
"""

from .lambdamart import LambdaMART, RankingDataset
from .ndcg import dcg_at_k, ndcg_at_k
from .trees import RegressionTree

__all__ = [
    "LambdaMART",
    "RankingDataset",
    "RegressionTree",
    "dcg_at_k",
    "ndcg_at_k",
]
