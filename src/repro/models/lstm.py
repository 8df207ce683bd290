"""Single-layer numpy LSTM for next-value prediction on short sequences.

The LHS strategy (Sec. 4.4.2 of the paper) treats a sample's historical
evaluation sequence as a time series and uses "a simple LSTM" to predict
the next evaluation score, which becomes one of the ranking features.
Historical sequences are at most a few tens of steps long, so a
from-scratch LSTM with full BPTT is entirely adequate.

The regressor maps a 1-D input sequence to a scalar prediction of the next
value: scores are fed one per time step, the final hidden state goes
through a linear head, and training minimises squared error.

Both training and inference run *batched*: ragged sequences are packed
into one padded ``(N, T)`` tensor and the recurrence advances all rows per
time step with length masking, so predicting over an entire unlabeled pool
is a handful of matrix products instead of a Python loop per sample.  The
per-sequence scalar path is the test suite's oracle (``tests/oracles``);
the two agree to float reduction order (tested at 1e-10).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import ensure_rng
from .base import NumpyModel, bump_fit_generation, resolve_warm_epochs
from .batching import pad_sequences
from .layers import Adam, glorot_init, sigmoid


class LSTMRegressor(NumpyModel):
    """Predict the next value of a scalar sequence with an LSTM.

    Parameters
    ----------
    hidden_dim:
        LSTM state size.
    epochs, learning_rate, seed:
        Optimisation hyper-parameters (Adam, full-batch BPTT).

    Notes
    -----
    :meth:`fit` takes ``sequences`` (list of 1-D arrays) and ``targets``
    (the value following each sequence).  Sequences may have different
    lengths; they are padded into one batch and masked per time step.
    """

    def __init__(
        self,
        hidden_dim: int = 8,
        epochs: int = 60,
        learning_rate: float = 0.02,
        seed: int = 0,
        warm_epochs: "int | None" = None,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self.warm_epochs = warm_epochs
        self._check_arguments()
        self._params: dict[str, np.ndarray] | None = None

    # -- parameter layout: gates stacked [i, f, g, o] -----------------------

    def _init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        h = self.hidden_dim
        params = {
            "Wx": glorot_init(rng, 1 + h, 4 * h, 1, 4 * h),
            "Wh": glorot_init(rng, 1 + h, 4 * h, h, 4 * h),
            "b": np.zeros(4 * h),
            "Wy": glorot_init(rng, h, 1, h, 1),
            "by": np.zeros(1),
        }
        params["b"][h : 2 * h] = 1.0  # forget-gate bias trick
        return params

    # -- batched kernels -----------------------------------------------------

    def _forward_batch(
        self,
        params: dict[str, np.ndarray],
        values: np.ndarray,
        lengths: np.ndarray,
        want_caches: bool = False,
    ) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
        """Advance all ``N`` padded sequences one time step at a time.

        Rows whose sequence has ended keep their last hidden/cell state
        frozen, so the returned ``(N, H)`` matrix holds each sequence's
        final state regardless of padding.
        """
        h = self.hidden_dim
        n, t_max = values.shape
        h_state = np.zeros((n, h))
        c_state = np.zeros((n, h))
        caches: list[dict[str, np.ndarray]] = []
        for t in range(t_max):
            active = lengths > t
            pre = (
                values[:, t : t + 1] * params["Wx"][0]
                + h_state @ params["Wh"]
                + params["b"]
            )
            i = sigmoid(pre[:, :h])
            f = sigmoid(pre[:, h : 2 * h])
            g = np.tanh(pre[:, 2 * h : 3 * h])
            o = sigmoid(pre[:, 3 * h :])
            c_new = f * c_state + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            if want_caches:
                caches.append({
                    "i": i, "f": f, "g": g, "o": o, "tanh_c": tanh_c,
                    "c_prev": c_state, "h_prev": h_state,
                    "x": values[:, t], "active": active,
                })
            mask = active[:, None]
            h_state = np.where(mask, h_new, h_state)
            c_state = np.where(mask, c_new, c_state)
        return h_state, caches

    def _bptt_batch(
        self,
        params: dict[str, np.ndarray],
        caches: list[dict[str, np.ndarray]],
        dh_last: np.ndarray,
        lengths: np.ndarray,
        grads: dict[str, np.ndarray],
    ) -> None:
        """Masked batched BPTT, equal per row to one sequence's BPTT.

        ``dh_last`` (N, H) is each sequence's loss gradient at its final
        hidden state; it is injected at each row's last active step, and
        rows past their length contribute exactly zero.
        """
        dh = np.zeros_like(dh_last)
        dc = np.zeros_like(dh_last)
        for t in range(len(caches) - 1, -1, -1):
            cache = caches[t]
            starting = (lengths - 1 == t)[:, None]
            dh = np.where(starting, dh_last, dh)
            dc = np.where(starting, 0.0, dc)
            do = dh * cache["tanh_c"]
            dc = dc + dh * cache["o"] * (1.0 - cache["tanh_c"] ** 2)
            di = dc * cache["g"]
            df = dc * cache["c_prev"]
            dg = dc * cache["i"]
            dc_prev = dc * cache["f"]
            dpre = np.concatenate([
                di * cache["i"] * (1 - cache["i"]),
                df * cache["f"] * (1 - cache["f"]),
                dg * (1 - cache["g"] ** 2),
                do * cache["o"] * (1 - cache["o"]),
            ], axis=1)
            grads["Wx"][0] += cache["x"] @ dpre
            grads["Wh"] += cache["h_prev"].T @ dpre
            grads["b"] += dpre.sum(axis=0)
            dh = dpre @ params["Wh"].T
            dc = dc_prev

    # -- validation ----------------------------------------------------------

    @staticmethod
    def _validate_fit_inputs(
        sequences: Sequence[np.ndarray], targets: Sequence[float]
    ) -> tuple[list[np.ndarray], np.ndarray]:
        arrays = [np.asarray(s, dtype=np.float64).ravel() for s in sequences]
        target_array = np.asarray(list(targets), dtype=np.float64)
        if not arrays or len(arrays) != len(target_array):
            raise ConfigurationError(
                f"{len(arrays)} sequences vs {len(target_array)} targets"
            )
        if any(len(s) == 0 for s in arrays):
            raise ConfigurationError("sequences must be non-empty")
        return arrays, target_array

    # -- public API ----------------------------------------------------------

    def fit(
        self,
        sequences: Sequence[np.ndarray],
        targets: Sequence[float],
        init_from: "LSTMRegressor | None" = None,
    ) -> "LSTMRegressor":
        """Train on (sequence, next value) pairs with batched BPTT.

        When ``init_from`` is a fitted regressor with the same
        ``hidden_dim``, training resumes from its parameters for
        ``warm_epochs`` (default ``epochs // 4``) instead of a full cold
        fit.

        Raises
        ------
        ConfigurationError
            If the inputs are empty, misaligned, or contain an empty
            sequence.
        """
        arrays, target_array = self._validate_fit_inputs(sequences, targets)
        values, lengths = pad_sequences(arrays)
        rng = ensure_rng(self.seed)
        if init_from is None:
            epochs = self.epochs
            params = self._init_params(rng)
        else:
            epochs = resolve_warm_epochs(self.epochs, self.warm_epochs)
            previous = self._warm_source(init_from)
            if init_from.hidden_dim != self.hidden_dim:
                raise ConfigurationError(
                    f"warm-start hidden_dim mismatch: {init_from.hidden_dim} "
                    f"vs {self.hidden_dim}"
                )
            params = {name: value.copy() for name, value in previous.items()}
        optimizer = Adam(learning_rate=self.learning_rate)
        n = len(arrays)
        for _ in range(epochs):
            grads = {name: np.zeros_like(value) for name, value in params.items()}
            h_last, caches = self._forward_batch(
                params, values, lengths, want_caches=True
            )
            predictions = h_last @ params["Wy"][:, 0] + params["by"][0]
            derr = 2.0 * (predictions - target_array) / n
            grads["Wy"][:, 0] += h_last.T @ derr
            grads["by"][0] += derr.sum()
            dh_last = derr[:, None] * params["Wy"][:, 0][None, :]
            self._bptt_batch(params, caches, dh_last, lengths, grads)
            optimizer.update(params, grads)
        self._params = params
        bump_fit_generation(self)
        return self

    def predict(self, sequences: Sequence[np.ndarray]) -> np.ndarray:
        """Predict the next value of every sequence in one batched pass."""
        self._require_fitted()
        if not len(sequences):
            return np.empty(0)
        arrays = [np.asarray(s, dtype=np.float64).ravel() for s in sequences]
        if any(len(a) == 0 for a in arrays):
            raise ConfigurationError("cannot predict from an empty sequence")
        values, lengths = pad_sequences(arrays)
        return self.predict_padded(values, lengths)

    def predict_padded(self, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Predict from an already padded ``(N, T)`` batch.

        ``values`` rows are left-aligned with ``lengths`` valid entries
        each (the layout :meth:`repro.core.history.HistoryStore.padded_sequences`
        produces); padding content is ignored.
        """
        params = self._require_fitted()
        values = np.asarray(values, dtype=np.float64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if values.ndim != 2 or len(values) != len(lengths):
            raise ConfigurationError(
                f"padded values {values.shape} and lengths {lengths.shape} misaligned"
            )
        if len(values) == 0:
            return np.empty(0)
        if lengths.min() < 1:
            raise ConfigurationError("cannot predict from an empty sequence")
        h_last, _ = self._forward_batch(params, values, lengths)
        return h_last @ params["Wy"][:, 0] + params["by"][0]

    def mse(self, sequences: Sequence[np.ndarray], targets: Sequence[float]) -> float:
        """Mean squared error of next-value predictions."""
        predictions = self.predict(sequences)
        return float(np.mean((predictions - np.asarray(list(targets))) ** 2))

    def __repr__(self) -> str:
        state = "fitted" if self._params is not None else "unfitted"
        return f"LSTMRegressor(hidden={self.hidden_dim}, epochs={self.epochs}, {state})"
