"""The numpy LSTM: one masked, batched recurrence and its BPTT.

The LHS strategy (Sec. 4.4.2 of the paper) predicts each sample's next
evaluation score with "a simple LSTM" (:class:`LSTMRegressor`: a linear
head on the final state, trained on squared error), and the NER model
encodes sentences with a bidirectional LSTM (:mod:`repro.models.bilstm_crf`).
Both run :func:`lstm_forward`, over right-padded ``(B, T, D)`` inputs
with each row's state held past its length, and :func:`lstm_backward`.
Their per-sequence predecessors are the test suite's oracles
(``tests/oracles``): a one-row batch matches the BiLSTM-CRF's
per-sentence pair bit for bit, a wider batch matches per row to float
reduction order (tested at 1e-10).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import ensure_rng
from .base import (
    NumpyModel, bump_fit_generation, params_from_jsonable, resolve_warm_epochs,
)
from .batching import check_padded, pad_sequences
from .layers import Adam, glorot_init, sigmoid


def lstm_forward(
    inputs: np.ndarray, lengths: np.ndarray, w_input: np.ndarray,
    w_hidden: np.ndarray, bias: np.ndarray, keep_caches: bool = False,
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Run the LSTM over right-padded ``inputs`` ``(B, T, D)``.

    Gates are stacked ``[i, f, g, o]`` along the ``4H`` axis of
    ``w_input`` ``(D, 4H)``, ``w_hidden`` ``(H, 4H)`` and ``bias``.  Row
    ``b`` steps through its first ``lengths[b]`` inputs (each length in
    ``[1, T]``), then holds its ``h`` and ``c``, so ``states[:, -1]`` is
    every row's final state.  Returns the hidden states ``(B, T, H)``
    and, with ``keep_caches``, the per-step caches :func:`lstm_backward`
    reads (else ``[]``).
    """
    batch, steps, _ = inputs.shape
    hidden_dim = w_hidden.shape[0]
    h_state = np.zeros((batch, hidden_dim))
    c_state = np.zeros((batch, hidden_dim))
    states = np.empty((batch, steps, hidden_dim))
    caches: list[dict[str, np.ndarray]] = []
    for t in range(steps):
        x = inputs[:, t]
        pre = x @ w_input + h_state @ w_hidden + bias
        i = sigmoid(pre[:, :hidden_dim])
        f = sigmoid(pre[:, hidden_dim : 2 * hidden_dim])
        g = np.tanh(pre[:, 2 * hidden_dim : 3 * hidden_dim])
        o = sigmoid(pre[:, 3 * hidden_dim :])
        c_new = f * c_state + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        if keep_caches:
            caches.append({
                "x": x, "h_prev": h_state, "c_prev": c_state,
                "i": i, "f": f, "g": g, "o": o, "tanh_c": tanh_c,
            })
        active = (lengths > t)[:, None]  # rows that have ended hold their states
        h_state = np.where(active, h_new, h_state)
        c_state = np.where(active, c_new, c_state)
        states[:, t] = h_state
    return states, caches


def lstm_backward(
    d_states: np.ndarray, caches: list[dict[str, np.ndarray]], w_input: np.ndarray,
    w_hidden: np.ndarray, grads: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """BPTT through the caches of one :func:`lstm_forward` call.

    ``d_states`` ``(B, T, H)`` is the loss gradient at each hidden state,
    zero past each row's length.  The gradients of ``w_input``,
    ``w_hidden`` and ``bias`` are added one step at a time into
    ``grads``, the caller's three arrays of their shapes.  Returns the
    input gradients ``(B, T, D)``.
    """
    d_w_input, d_w_hidden, d_bias = grads
    batch, steps, hidden_dim = d_states.shape
    d_inputs = np.empty((batch, steps, w_input.shape[0]))
    dh = np.zeros((batch, hidden_dim))
    dc = np.zeros((batch, hidden_dim))
    for t in range(steps - 1, -1, -1):
        cache = caches[t]
        dh = dh + d_states[:, t]
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
        d_w_input += cache["x"].T @ dpre
        d_w_hidden += cache["h_prev"].T @ dpre
        d_bias += dpre.sum(axis=0)
        d_inputs[:, t] = dpre @ w_input.T
        dh = dpre @ w_hidden.T
        dc = dc_prev
    return d_inputs


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
    lengths; they are padded into one batch of ``D = 1`` inputs to
    :func:`lstm_forward`, and the loss gradient enters each row's last step.
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
            states, caches = lstm_forward(
                values[:, :, None], lengths, params["Wx"], params["Wh"], params["b"],
                keep_caches=True,
            )
            h_last = states[:, -1]
            predictions = h_last @ params["Wy"][:, 0] + params["by"][0]
            derr = 2.0 * (predictions - target_array) / n
            grads["Wy"][:, 0] += h_last.T @ derr
            grads["by"][0] += derr.sum()
            d_states = np.zeros_like(states)  # the head reads each row's last step
            d_states[np.arange(n), lengths - 1] = derr[:, None] * params["Wy"][:, 0]
            lstm_backward(
                d_states, caches, params["Wx"], params["Wh"],
                (grads["Wx"], grads["Wh"], grads["b"]),
            )
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

        Raises
        ------
        ConfigurationError
            If the shapes disagree or a length is outside ``[1, T]``.
        """
        params = self._require_fitted()
        values, lengths = check_padded(values, lengths)
        if len(values) == 0:
            return np.empty(0)
        states, _ = lstm_forward(
            values[:, :, None], lengths, params["Wx"], params["Wh"], params["b"]
        )
        return states[:, -1] @ params["Wy"][:, 0] + params["by"][0]

    def set_params(self, state: dict) -> "LSTMRegressor":
        """Restore the state produced by :meth:`get_params` and return ``self``.

        Raises ``ConfigurationError`` naming the first of ``Wx``, ``Wh``,
        ``b``, ``Wy`` and ``by`` that is missing or not the shape
        ``hidden_dim`` gives it.
        """
        params = params_from_jsonable(state["arrays"])
        # The layout a fit starts from; only the shapes are read.
        for name, initial in self._init_params(np.random.default_rng(0)).items():
            if params[name].shape != initial.shape:  # a missing array raises here
                raise ConfigurationError(
                    f"arrays.{name} must have shape {initial.shape}, "
                    f"got {params[name].shape}"
                )
        self._params = params
        bump_fit_generation(self)
        return self

    def mse(self, sequences: Sequence[np.ndarray], targets: Sequence[float]) -> float:
        """Mean squared error of next-value predictions."""
        predictions = self.predict(sequences)
        return float(np.mean((predictions - np.asarray(list(targets))) ** 2))

    def __repr__(self) -> str:
        state = "fitted" if self._params is not None else "unfitted"
        return f"LSTMRegressor(hidden={self.hidden_dim}, epochs={self.epochs}, {state})"
