"""Labeled/unlabeled pool bookkeeping for pool-based active learning."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# ``np.unique`` (see :meth:`Pool.label`) imports ``numpy.ma`` on its
# first call, about 15 ms.  Importing it here puts that one-off cost at
# startup instead of inside the first committed round of every run.
import numpy.ma  # noqa: F401

from ..exceptions import ConfigurationError, PoolError


class Pool:
    """Index sets of labeled and unlabeled samples over ``range(n)``.

    Parameters
    ----------
    n:
        Size of the sample universe.
    initial_labeled:
        Indices labeled before active learning starts.
    """

    def __init__(self, n: int, initial_labeled: Sequence[int] = ()) -> None:
        if n <= 0:
            raise ConfigurationError(f"pool size must be positive, got {n}")
        self.n = int(n)
        self._labeled = np.zeros(self.n, dtype=bool)
        initial = np.asarray(list(initial_labeled), dtype=np.int64)
        if initial.size:
            self.label(initial)

    # -- views ---------------------------------------------------------------

    @property
    def labeled_indices(self) -> np.ndarray:
        """Sorted indices of labeled samples."""
        return np.flatnonzero(self._labeled)

    @property
    def unlabeled_indices(self) -> np.ndarray:
        """Sorted indices of unlabeled samples."""
        return np.flatnonzero(~self._labeled)

    @property
    def num_labeled(self) -> int:
        """Number of labeled samples."""
        return int(self._labeled.sum())

    @property
    def num_unlabeled(self) -> int:
        """Number of unlabeled samples."""
        return self.n - self.num_labeled

    def is_labeled(self, index: int) -> bool:
        """Whether ``index`` is labeled."""
        if not 0 <= index < self.n:
            raise PoolError(f"index {index} out of range [0, {self.n})")
        return bool(self._labeled[index])

    # -- snapshots -------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible snapshot of the pool (size + labeled indices)."""
        return {"n": self.n, "labeled": self.labeled_indices.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "Pool":
        """Rebuild a pool written by :meth:`to_dict`."""
        return cls(int(payload["n"]), initial_labeled=payload["labeled"])

    # -- transitions -----------------------------------------------------------

    def label(self, indices: "Sequence[int] | np.ndarray") -> None:
        """Move ``indices`` from the unlabeled to the labeled set.

        Raises
        ------
        PoolError
            If any index is out of range, duplicated, or already labeled —
            double-labeling always indicates a strategy bug, so it is loud.
        """
        indices = np.asarray(list(np.atleast_1d(indices)), dtype=np.int64)
        if indices.size == 0:
            return
        if indices.min() < 0 or indices.max() >= self.n:
            raise PoolError(f"index out of range [0, {self.n})")
        if len(np.unique(indices)) != len(indices):
            raise PoolError("duplicate indices in one labeling call")
        already = indices[self._labeled[indices]]
        if already.size:
            raise PoolError(f"indices already labeled: {already[:5].tolist()}")
        self._labeled[indices] = True

    def __repr__(self) -> str:
        return f"Pool(n={self.n}, labeled={self.num_labeled})"
