"""CART regression tree with optional Newton leaf values.

Used as the weak learner of both the plain gradient-boosting regressor and
LambdaMART.  Splits greedily on squared-error reduction of the gradient
targets; when per-row ``hessians`` are given, leaf predictions are the
Newton step ``sum(gradients) / (sum(hessians) + ridge)`` as in the
LambdaMART algorithm, otherwise the leaf mean.

Split search is the vectorized sort-and-cumsum scan (every cut point of a
feature is evaluated in one pass of array arithmetic).  Prediction routes
all rows level by level through a flattened array form of the tree —
O(depth) vectorized steps instead of a Python node walk per row; the node
walk is the test suite's oracle (``tests/oracles``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError


@dataclass
class _Node:
    """A tree node: internal (feature/threshold set) or leaf (value set)."""

    value: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """Greedy depth-limited CART regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (a depth-0 tree is a single leaf).
    min_samples_leaf:
        Each child of a split must keep at least this many rows.
    min_gain:
        Minimum squared-error reduction to accept a split.
    newton_ridge:
        Additive constant on the hessian sum for Newton leaf values.
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        min_gain: float = 1e-12,
        newton_ridge: float = 1e-6,
    ) -> None:
        if max_depth < 0:
            raise ConfigurationError(f"max_depth must be >= 0, got {max_depth}")
        if min_samples_leaf < 1:
            raise ConfigurationError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.newton_ridge = newton_ridge
        self._root: _Node | None = None
        self._flat_value: np.ndarray | None = None

    # -- fitting -----------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        hessians: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Fit the tree to ``targets`` (gradients, for boosting).

        Raises
        ------
        ConfigurationError
            On empty or misaligned input.
        """
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if features.ndim != 2:
            raise ConfigurationError(f"features must be 2-D, got shape {features.shape}")
        if len(features) == 0 or len(features) != len(targets):
            raise ConfigurationError(
                f"{len(features)} feature rows vs {len(targets)} targets"
            )
        if hessians is not None:
            hessians = np.asarray(hessians, dtype=np.float64).ravel()
            if len(hessians) != len(targets):
                raise ConfigurationError(
                    f"{len(hessians)} hessians vs {len(targets)} targets"
                )
        self._root = self._build(
            features, targets, hessians, np.arange(len(targets)), depth=0
        )
        self._flatten()
        return self

    def _leaf_value(
        self, targets: np.ndarray, hessians: np.ndarray | None, rows: np.ndarray
    ) -> float:
        if hessians is None:
            return float(targets[rows].mean())
        return float(targets[rows].sum() / (hessians[rows].sum() + self.newton_ridge))

    def _build(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        hessians: np.ndarray | None,
        rows: np.ndarray,
        depth: int,
    ) -> _Node:
        node = _Node(value=self._leaf_value(targets, hessians, rows))
        if depth >= self.max_depth or len(rows) < 2 * self.min_samples_leaf:
            return node
        split = self._best_split(features, targets, rows)
        if split is None:
            return node
        feature, threshold, left_rows, right_rows = split
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(features, targets, hessians, left_rows, depth + 1)
        node.right = self._build(features, targets, hessians, right_rows, depth + 1)
        return node

    def _best_split(
        self, features: np.ndarray, targets: np.ndarray, rows: np.ndarray
    ) -> tuple[int, float, np.ndarray, np.ndarray] | None:
        """Exact greedy search over all features and cut points."""
        y = targets[rows]
        n = len(rows)
        total_sum = y.sum()
        best_gain = self.min_gain
        best: tuple[int, float, np.ndarray, np.ndarray] | None = None
        for feature in range(features.shape[1]):
            column = features[rows, feature]
            order = np.argsort(column, kind="stable")
            sorted_x = column[order]
            sorted_y = y[order]
            prefix = np.cumsum(sorted_y)
            counts = np.arange(1, n + 1, dtype=np.float64)
            # Gain of splitting after position i (0-based, left has i+1 rows):
            # sum_l^2/n_l + sum_r^2/n_r - total^2/n (constant dropped later).
            left_sum = prefix[:-1]
            left_n = counts[:-1]
            right_sum = total_sum - left_sum
            right_n = n - left_n
            gains = left_sum**2 / left_n + right_sum**2 / right_n
            # Disallow cuts between equal feature values and tiny children.
            valid = sorted_x[:-1] < sorted_x[1:]
            valid &= (left_n >= self.min_samples_leaf) & (right_n >= self.min_samples_leaf)
            if not valid.any():
                continue
            gains = np.where(valid, gains, -np.inf)
            cut = int(gains.argmax())
            gain = gains[cut] - total_sum**2 / n
            if gain > best_gain:
                threshold = 0.5 * (sorted_x[cut] + sorted_x[cut + 1])
                left_rows = rows[order[: cut + 1]]
                right_rows = rows[order[cut + 1 :]]
                best = (feature, float(threshold), left_rows, right_rows)
                best_gain = gain
        return best

    # -- prediction -----------------------------------------------------------

    def _flatten(self) -> None:
        """Lay the fitted tree out as parallel arrays for batch routing.

        Leaves are encoded as self-loops (both children point back at the
        leaf itself, split feature 0, threshold 0), so the routing loop
        needs no per-level leaf masking: after ``depth`` steps every row
        sits at its leaf.
        """
        index_of: dict[int, int] = {}
        stack = [self._root]
        ordered: list[_Node] = []
        while stack:
            node = stack.pop()
            index_of[id(node)] = len(ordered)
            ordered.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        count = len(ordered)
        self._flat_feature = np.zeros(count, dtype=np.int64)
        self._flat_threshold = np.zeros(count)
        self._flat_left = np.arange(count, dtype=np.int64)
        self._flat_right = np.arange(count, dtype=np.int64)
        self._flat_value = np.array([node.value for node in ordered])
        self._flat_depth = 0
        for index, node in enumerate(ordered):
            if node.is_leaf:
                continue
            self._flat_feature[index] = node.feature
            self._flat_threshold[index] = node.threshold
            self._flat_left[index] = index_of[id(node.left)]
            self._flat_right[index] = index_of[id(node.right)]
        self._flat_depth = self.depth()

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict one value per row (vectorized level-by-level routing)."""
        if self._root is None:
            raise NotFittedError("RegressionTree used before fit()")
        if self._flat_value is None:
            # Trees deserialized from JSON get _root assigned directly.
            self._flatten()
        features = np.asarray(features, dtype=np.float64)
        rows = np.arange(len(features))
        node_index = np.zeros(len(features), dtype=np.int64)
        for _ in range(self._flat_depth):
            go_left = (
                features[rows, self._flat_feature[node_index]]
                <= self._flat_threshold[node_index]
            )
            node_index = np.where(
                go_left,
                self._flat_left[node_index],
                self._flat_right[node_index],
            )
        return self._flat_value[node_index]

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self._root is None:
            raise NotFittedError("RegressionTree used before fit()")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)

    def leaf_count(self) -> int:
        """Number of leaves in the fitted tree."""
        if self._root is None:
            raise NotFittedError("RegressionTree used before fit()")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self._root)
