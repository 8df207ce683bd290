"""LambdaMART: boosted regression trees with LambdaRank gradients.

The learning-to-rank model the paper selects for its LHS strategy
(citing Wu, Burges, Svore & Gao 2010).  Each boosting round computes, per
query, the pairwise LambdaRank gradients

    lambda_ij = -sigma / (1 + exp(sigma (s_i - s_j))) * |delta NDCG_ij|

for every pair with ``rel_i > rel_j``, accumulates them (and the matching
second derivatives) per document, fits a regression tree to the lambdas
with Newton leaf values, and adds it with shrinkage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError
from .ndcg import discounts, gains, ndcg_at_k
from .trees import RegressionTree


@dataclass(frozen=True)
class RankingDataset:
    """Ranking training data: rows grouped into queries.

    Attributes
    ----------
    features:
        ``(n, d)`` feature matrix.
    relevance:
        Integer (or float) relevance grade per row; higher is better.
    query_ids:
        Query identifier per row; rows sharing an id form one ranking list.
    """

    features: np.ndarray
    relevance: np.ndarray
    query_ids: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        relevance = np.asarray(self.relevance, dtype=np.float64).ravel()
        query_ids = np.asarray(self.query_ids).ravel()
        if features.ndim != 2:
            raise ConfigurationError(f"features must be 2-D, got shape {features.shape}")
        if not (len(features) == len(relevance) == len(query_ids)):
            raise ConfigurationError(
                f"misaligned ranking data: {len(features)} rows, "
                f"{len(relevance)} grades, {len(query_ids)} query ids"
            )
        if len(features) == 0:
            raise ConfigurationError("ranking dataset is empty")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "relevance", relevance)
        object.__setattr__(self, "query_ids", query_ids)

    def groups(self) -> list[np.ndarray]:
        """Row-index arrays, one per query, in first-appearance order."""
        order: dict[object, list[int]] = {}
        for row, query in enumerate(self.query_ids):
            order.setdefault(query, []).append(row)
        return [np.asarray(rows, dtype=np.int64) for rows in order.values()]


def _lambda_gradients(
    scores: np.ndarray, relevance: np.ndarray, sigma: float, k: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-document lambdas and hessian weights for one query.

    Vectorized with pairwise broadcasting over the (i, j) document grid;
    :func:`_lambda_gradients_reference` is the O(n^2) double-loop oracle
    it is tested against.
    """
    n = len(scores)
    lambdas = np.zeros(n)
    hessians = np.zeros(n)
    if n < 2:
        return lambdas, hessians
    gain = gains(relevance)
    ideal = float((np.sort(gain)[::-1] * discounts(n)).sum())
    if ideal <= 0:
        return lambdas, hessians
    # Rank of each document under the current scores (1-based).
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    discount_of_rank = 1.0 / np.log2(ranks + 1.0)
    # Active pairs: rel_i > rel_j, minus the pairs the NDCG@k truncation
    # makes irrelevant (both documents ranked below k).
    active = relevance[:, None] > relevance[None, :]
    if k is not None:
        below = ranks > k
        active &= ~(below[:, None] & below[None, :])
    # |NDCG change if i and j swapped positions|.
    delta = (
        np.abs(
            (gain[:, None] - gain[None, :])
            * (discount_of_rank[:, None] - discount_of_rank[None, :])
        )
        / ideal
    )
    with np.errstate(over="ignore"):
        rho = 1.0 / (1.0 + np.exp(sigma * (scores[:, None] - scores[None, :])))
    step = np.where(active, sigma * delta * rho, 0.0)
    lambdas = step.sum(axis=1) - step.sum(axis=0)
    weight = np.where(active, sigma**2 * delta * rho * (1.0 - rho), 0.0)
    hessians = weight.sum(axis=1) + weight.sum(axis=0)
    return lambdas, hessians


def _lambda_gradients_reference(
    scores: np.ndarray, relevance: np.ndarray, sigma: float, k: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Double-loop reference for :func:`_lambda_gradients` (oracle)."""
    n = len(scores)
    lambdas = np.zeros(n)
    hessians = np.zeros(n)
    if n < 2:
        return lambdas, hessians
    ideal = float((np.sort(gains(relevance))[::-1] * discounts(n)).sum())
    if ideal <= 0:
        return lambdas, hessians
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    discount_of_rank = 1.0 / np.log2(ranks + 1.0)
    gain = gains(relevance)
    for i in range(n):
        for j in range(n):
            if relevance[i] <= relevance[j]:
                continue
            delta = abs(
                (gain[i] - gain[j]) * (discount_of_rank[i] - discount_of_rank[j])
            ) / ideal
            if k is not None and ranks[i] > k and ranks[j] > k:
                continue
            rho = 1.0 / (1.0 + np.exp(sigma * (scores[i] - scores[j])))
            step = sigma * delta * rho
            lambdas[i] += step
            lambdas[j] -= step
            weight = sigma**2 * delta * rho * (1.0 - rho)
            hessians[i] += weight
            hessians[j] += weight
    return lambdas, hessians


class LambdaMART:
    """Gradient-boosted LambdaRank ranker.

    Parameters
    ----------
    n_estimators:
        Boosting rounds.
    learning_rate:
        Shrinkage per tree.
    max_depth, min_samples_leaf:
        Weak-learner shape.
    sigma:
        Steepness of the pairwise logistic.
    ndcg_k:
        Truncation of the optimised NDCG (``None`` = whole list).
    """

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.15,
        max_depth: int = 3,
        min_samples_leaf: int = 4,
        sigma: float = 1.0,
        ndcg_k: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ConfigurationError(f"n_estimators must be >= 1, got {n_estimators}")
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {sigma}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.sigma = sigma
        self.ndcg_k = ndcg_k
        self._trees: list[RegressionTree] = []

    def _boost_round(
        self, data: RankingDataset, groups: list[np.ndarray], scores: np.ndarray
    ) -> None:
        """Fit one tree against LambdaRank gradients and advance ``scores``."""
        lambdas = np.zeros_like(scores)
        hessians = np.zeros_like(scores)
        for rows in groups:
            g, h = _lambda_gradients(
                scores[rows], data.relevance[rows], self.sigma, self.ndcg_k
            )
            lambdas[rows] = g
            hessians[rows] = h
        tree = RegressionTree(
            max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
        ).fit(data.features, lambdas, hessians=hessians)
        scores += self.learning_rate * tree.predict(data.features)
        self._trees.append(tree)

    def fit(self, data: RankingDataset) -> "LambdaMART":
        """Boost trees against LambdaRank gradients on ``data``."""
        groups = data.groups()
        scores = np.zeros(len(data.features))
        self._trees = []
        for _ in range(self.n_estimators):
            self._boost_round(data, groups, scores)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Ranking scores (higher = ranked earlier)."""
        if not self._trees:
            raise NotFittedError("LambdaMART used before fit()")
        features = np.asarray(features, dtype=np.float64)
        scores = np.zeros(len(features))
        for tree in self._trees:
            scores += self.learning_rate * tree.predict(features)
        return scores

    def mean_ndcg(self, data: RankingDataset, k: int | None = None) -> float:
        """Mean NDCG@k across the queries of ``data``."""
        scores = self.predict(data.features)
        values = [
            ndcg_at_k(data.relevance[rows], scores[rows], k or self.ndcg_k)
            for rows in data.groups()
        ]
        return float(np.mean(values))
