"""Next-score predictor protocol and implementations.

The LHS strategy trains a predictor on historical evaluation sequences
"generated on a labeled dataset by a specific query strategy" and uses its
next-step prediction as a ranking feature (Sec. 4.4.2).  The protocol here
decouples the strategy from the backing model so the paper's LSTM and the
cheaper AR alternative are interchangeable (an ablation compares them).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from ..exceptions import ConfigurationError, NotFittedError
from ..models.batching import check_padded
from ..models.lstm import LSTMRegressor
from .autoregressive import fit_ar_coefficients, lag_vector


class NextScorePredictor(ABC):
    """Predicts the next evaluation score from a historical sequence."""

    @abstractmethod
    def fit(
        self, sequences: Sequence[np.ndarray], targets: Sequence[float]
    ) -> "NextScorePredictor":
        """Train on (sequence, observed next score) pairs."""

    @abstractmethod
    def predict(self, sequences: Sequence[np.ndarray]) -> np.ndarray:
        """Predict the next score of each sequence."""

    #: Sequences dropped by the most recent :meth:`fit_from_history` call
    #: because they were shorter than 2 steps (no prediction pair).
    last_skipped_count: int = 0

    def predict_padded(self, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Predict from an already padded ``(N, T)`` batch.

        ``values`` rows are left-aligned with ``lengths`` valid entries
        each (the layout
        :meth:`repro.core.history.HistoryStore.padded_sequences`
        produces).  The default unpacks back to ragged sequences; batched
        implementations override this to skip the round trip.

        Raises
        ------
        ConfigurationError
            If the shapes disagree or a length is outside ``[1, T]``.
        """
        values, lengths = check_padded(values, lengths)
        return self.predict([row[:n] for row, n in zip(values, lengths)])

    def fit_from_history(self, sequences: Sequence[np.ndarray]) -> "NextScorePredictor":
        """Train from full sequences by holding out each last element.

        Convenience used by Algorithm 1: a sequence ``[s1..st]`` becomes
        the pair ``([s1..s(t-1)], st)``.  Sequences shorter than 2 steps
        yield no pair; they are counted in :attr:`last_skipped_count` so
        callers can surface the data loss instead of it happening
        silently.  Raises if nothing remains.
        """
        inputs = []
        targets = []
        skipped = 0
        for sequence in sequences:
            array = np.asarray(sequence, dtype=np.float64).ravel()
            if len(array) >= 2:
                inputs.append(array[:-1])
                targets.append(float(array[-1]))
            else:
                skipped += 1
        self.last_skipped_count = skipped
        if not inputs:
            raise ConfigurationError(
                f"no sequence of length >= 2 ({skipped} too short); "
                "cannot build prediction pairs"
            )
        return self.fit(inputs, targets)


class LSTMNextScorePredictor(NextScorePredictor):
    """Paper's choice: a simple LSTM over the score sequence."""

    def __init__(self, hidden_dim: int = 8, epochs: int = 60, seed: int = 0) -> None:
        self._model = LSTMRegressor(hidden_dim=hidden_dim, epochs=epochs, seed=seed)

    def fit(
        self, sequences: Sequence[np.ndarray], targets: Sequence[float]
    ) -> "LSTMNextScorePredictor":
        self._model.fit(sequences, targets)
        return self

    def predict(self, sequences: Sequence[np.ndarray]) -> np.ndarray:
        return self._model.predict(sequences)

    def predict_padded(self, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return self._model.predict_padded(values, lengths)

    def __repr__(self) -> str:
        return f"LSTMNextScorePredictor({self._model!r})"


class ARNextScorePredictor(NextScorePredictor):
    """Cheap alternative: AR(k) ridge regression (ARIMA-lite).

    Predicts ``c + a_1 s_(t-k+1) + ... + a_k s_t`` from the last ``order``
    scores (a shorter sequence is left-padded with its first score), with
    ``coefficients = [c, a_1..a_k]`` fit by :func:`fit_ar_coefficients`.

    Parameters
    ----------
    order:
        Number of lags.
    ridge:
        Ridge regularisation for the least-squares fit.
    """

    def __init__(self, order: int = 3, ridge: float = 1e-6) -> None:
        if order < 1:
            raise ConfigurationError(f"order must be >= 1, got {order}")
        self.order = order
        self.ridge = ridge
        self.coefficients: np.ndarray | None = None

    def fit(
        self, sequences: Sequence[np.ndarray], targets: Sequence[float]
    ) -> "ARNextScorePredictor":
        self.coefficients = fit_ar_coefficients(sequences, targets, self.order, self.ridge)
        return self

    def predict(self, sequences: Sequence[np.ndarray]) -> np.ndarray:
        if self.coefficients is None:
            raise NotFittedError("ARNextScorePredictor used before fit()")
        rows = [lag_vector(sequence, self.order) for sequence in sequences]
        design = np.column_stack(
            [np.ones(len(rows)), np.reshape(rows, (len(rows), self.order))]
        )
        return design @ self.coefficients

    def __repr__(self) -> str:
        state = "fitted" if self.coefficients is not None else "unfitted"
        return f"ARNextScorePredictor(order={self.order}, {state})"
