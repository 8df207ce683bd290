"""CART regression tree with optional Newton leaf values.

Used as the weak learner of both the plain gradient-boosting regressor and
LambdaMART.  Splits greedily on squared-error reduction of the gradient
targets; when per-row ``hessians`` are given, leaf predictions are the
Newton step ``sum(gradients) / (sum(hessians) + ridge)`` as in the
LambdaMART algorithm, otherwise the leaf mean.

Split search is the vectorized sort-and-cumsum scan (every cut point of a
feature is evaluated in one pass of array arithmetic).  The tree exists
only as preorder node arrays: ``fit`` appends to them as it grows, saved
rankers are installed into them with :meth:`RegressionTree.set_nodes`, and
prediction routes all rows through them level by level — O(depth)
vectorized steps instead of a Python node walk per row; the node walk is
the test suite's oracle (``tests/oracles``).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError


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

    Attributes
    ----------
    feature, threshold, left, right, value:
        The fitted tree as preorder node arrays (``None`` before
        :meth:`fit`): node 0 is the root, a row at an internal node goes
        to ``left`` when its ``feature`` column is ``<= threshold`` and to
        ``right`` otherwise, and a leaf points at itself on both sides and
        predicts its ``value``.
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
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None
        self._depth = 0

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
        # Grown in preorder as [feature, threshold, left, right, value] rows:
        # a split's left child is the next node, and its right child, popped
        # after the whole left subtree, fills in the split's ``right``.
        nodes: list[list] = []
        stack = [(np.arange(len(targets)), 0, -1)]
        while stack:
            rows, depth, parent = stack.pop()
            node = len(nodes)
            if parent >= 0:
                nodes[parent][3] = node
            split = None
            if depth < self.max_depth and len(rows) >= 2 * self.min_samples_leaf:
                split = self._best_split(features, targets, rows)
            if split is None:
                nodes.append([0, 0.0, node, node, self._leaf_value(targets, hessians, rows)])
                continue
            split_feature, cut, left_rows, right_rows = split
            nodes.append([split_feature, cut, node + 1, -1, 0.0])
            stack.append((right_rows, depth + 1, node))
            stack.append((left_rows, depth + 1, -1))
        return self.set_nodes(*zip(*nodes))

    def _leaf_value(
        self, targets: np.ndarray, hessians: np.ndarray | None, rows: np.ndarray
    ) -> float:
        if hessians is None:
            return float(targets[rows].mean())
        return float(targets[rows].sum() / (hessians[rows].sum() + self.newton_ridge))

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

    # -- the node arrays --------------------------------------------------------

    def set_nodes(self, feature, threshold, left, right, value) -> "RegressionTree":
        """Install a tree given as node arrays (see the class attributes).

        :meth:`fit` stores the tree it grows this way, and a saved tree is
        rebuilt through it without fitting.

        Raises
        ------
        ConfigurationError
            If the arrays are empty or of different lengths, a split is on
            a negative feature, or a node other than the root does not have
            exactly one parent numbered before it.
        """
        try:
            feature, left, right = (
                np.asarray(array, dtype=np.int64) for array in (feature, left, right)
            )
        except OverflowError as error:  # an index past int64
            raise ConfigurationError(f"node arrays: {error}") from None
        threshold, value = (np.asarray(array, dtype=np.float64) for array in (threshold, value))
        count = len(value)
        if count == 0 or any(len(a) != count for a in (feature, threshold, left, right)):
            raise ConfigurationError("node arrays must be non-empty and of one length")
        nodes = np.arange(count)
        parents = nodes[(left != nodes) | (right != nodes)]
        children = np.concatenate([left[parents], right[parents]])
        if (
            np.any(feature[parents] < 0)
            or np.any(children <= np.tile(parents, 2))
            or not np.array_equal(np.bincount(children, minlength=count), nodes > 0)
        ):
            raise ConfigurationError(
                "node arrays must describe one tree: splits on features >= 0, and "
                "one parent per node but the root, numbered before it"
            )
        levels = np.zeros(count, dtype=np.int64)
        for node in parents:  # in order, so a parent's level is final
            levels[left[node]] = levels[right[node]] = levels[node] + 1
        self.feature, self.threshold, self.value = feature, threshold, value
        self.left, self.right = left, right
        self._depth = int(levels.max())
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict one value per row (vectorized level-by-level routing)."""
        self._check_fitted()
        features = np.asarray(features, dtype=np.float64)
        rows = np.arange(len(features))
        node_index = np.zeros(len(features), dtype=np.int64)
        # A leaf points at itself, so after ``depth`` steps every row sits
        # at its leaf without per-level masking.
        for _ in range(self._depth):
            go_left = features[rows, self.feature[node_index]] <= self.threshold[node_index]
            node_index = np.where(go_left, self.left[node_index], self.right[node_index])
        return self.value[node_index]

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted()
        return self._depth

    def leaf_count(self) -> int:
        """Number of leaves in the fitted tree."""
        self._check_fitted()
        return int(np.count_nonzero(self.left == np.arange(len(self.left))))

    def _check_fitted(self) -> None:
        if self.value is None:
            raise NotFittedError("RegressionTree used before fit()")
