"""Scalar oracles for the learning-to-rank kernels.

``RegressionTree.predict`` routes all rows level by level through its
preorder node arrays, and ``_lambda_gradients`` broadcasts over the
(i, j) document grid; the per-row node walk and the O(n^2) double loop
below are what they replaced.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError
from repro.ltr.ndcg import discounts, gains
from repro.ltr.trees import RegressionTree


def tree_predict_reference(tree: RegressionTree, features: np.ndarray) -> np.ndarray:
    """Per-row node-walk reference for ``RegressionTree.predict``: each row
    follows its own path from the root until a node points at itself."""
    if tree.value is None:
        raise NotFittedError("RegressionTree used before fit()")
    features = np.asarray(features, dtype=np.float64)
    output = np.empty(len(features))
    for index, row in enumerate(features):
        node = 0
        while tree.left[node] != node:
            goes_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if goes_left else tree.right[node]
        output[index] = tree.value[node]
    return output


def lambda_gradients_reference(
    scores: np.ndarray, relevance: np.ndarray, sigma: float, k: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Double-loop reference for ``repro.ltr.lambdamart._lambda_gradients``."""
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
