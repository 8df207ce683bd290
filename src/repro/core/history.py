"""The historical evaluation sequence store.

This is the paper's central data structure: during pool-based active
learning, every unlabeled sample is scored in every iteration, and the
per-sample score sequence ``H_t(x) = [phi_1(x), ..., phi_t(x)]`` (Sec. 2)
carries the level / trend / fluctuation signal the proposed strategies
exploit.

:class:`HistoryStore` is a dense ``(rounds, n_samples)`` float matrix with
NaN for "not evaluated that round" (samples leave the pool once labeled).
All window operations are right-aligned on the *recorded* entries of each
sample, so a sample evaluated in rounds 1..t yields the same window
whether or not other samples were skipped in between.

Storage is a preallocated buffer grown geometrically (doubling), so a run
of ``R`` appends costs O(R*N) amortized instead of the O(R^2*N) total a
per-append reallocation would: reallocation happens O(log R) times and
every append is an in-place row write.  :meth:`nbytes` reports the
*logical* footprint (recorded rounds only, the quantity Table 2's space
claim is about); :meth:`capacity_nbytes` reports the allocation.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError, HistoryError
from ..ioutil import decode_array, encode_array

#: Smallest number of rows allocated once the store is first written to.
_MIN_CAPACITY = 8


class HistoryStore:
    """Per-sample historical evaluation sequences.

    Parameters
    ----------
    n_samples:
        Size of the full (labeled + unlabeled) sample universe; sample
        indices passed to every method are positions in this universe.
    strategy_name:
        Optional label of the base strategy whose scores are stored
        (diagnostic only).
    """

    def __init__(self, n_samples: int, strategy_name: str = "") -> None:
        if n_samples <= 0:
            raise ConfigurationError(f"n_samples must be positive, got {n_samples}")
        self.n_samples = int(n_samples)
        self.strategy_name = strategy_name
        self._buffer = np.empty((0, self.n_samples), dtype=np.float64)
        self._round_ids = np.empty(0, dtype=np.int64)
        self._size = 0
        # Fast path for current_scores(): most recent score per sample.
        self._last_score = np.full(self.n_samples, np.nan)
        # Reusable scratch for the O(N) duplicate-index check in append()
        # (kept all-False between calls; avoids a per-append sort/unique).
        self._index_seen = np.zeros(self.n_samples, dtype=bool)
        # Optional per-round predicted-label records (contradiction-rate
        # metric).  Sparse (round, indices, labels) triples; empty unless
        # the engine runs with track_flips.
        self._label_rounds: "list[tuple[int, np.ndarray, np.ndarray]]" = []

    @property
    def _matrix(self) -> np.ndarray:
        """Recorded rounds as a (num_rounds, n_samples) view of the buffer."""
        return self._buffer[: self._size]

    def _ensure_capacity(self, rows: int) -> None:
        if rows <= len(self._buffer):
            return
        capacity = max(rows, 2 * len(self._buffer), _MIN_CAPACITY)
        buffer = np.empty((capacity, self.n_samples), dtype=np.float64)
        buffer[: self._size] = self._buffer[: self._size]
        self._buffer = buffer
        round_ids = np.empty(capacity, dtype=np.int64)
        round_ids[: self._size] = self._round_ids[: self._size]
        self._round_ids = round_ids

    def _recompute_last_scores(self) -> None:
        """Rebuild the last-observation cache from the recorded matrix."""
        matrix = self._matrix
        observed = ~np.isnan(matrix)
        any_observed = observed.any(axis=0)
        # Row index of each sample's most recent observation.
        last_row = matrix.shape[0] - 1 - observed[::-1].argmax(axis=0)
        self._last_score = np.where(
            any_observed,
            matrix[last_row, np.arange(self.n_samples)],
            np.nan,
        )

    # -- writing -----------------------------------------------------------

    def append(self, round_index: int, indices: np.ndarray, scores: np.ndarray) -> None:
        """Record ``scores`` for ``indices`` at ``round_index``.

        Rounds must be appended in strictly increasing order and only once
        each — re-recording a round would silently corrupt the sequences,
        so it raises instead.

        Raises
        ------
        HistoryError
            On out-of-order or duplicate rounds, misaligned inputs, or
            out-of-range indices.
        """
        indices = np.asarray(indices, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        if indices.shape != scores.shape or indices.ndim != 1:
            raise HistoryError(
                f"indices {indices.shape} and scores {scores.shape} must be "
                "1-D and aligned"
            )
        if self._size and round_index <= self._round_ids[self._size - 1]:
            raise HistoryError(
                f"round {round_index} not after last recorded round "
                f"{self._round_ids[self._size - 1]}"
            )
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.n_samples:
                raise HistoryError("sample index out of range")
            self._index_seen[indices] = True
            distinct = int(np.count_nonzero(self._index_seen))
            self._index_seen[indices] = False
            if distinct != len(indices):
                raise HistoryError("duplicate sample indices in one round")
        self._ensure_capacity(self._size + 1)
        row = self._buffer[self._size]
        row.fill(np.nan)
        row[indices] = scores
        self._round_ids[self._size] = int(round_index)
        self._last_score[indices] = scores
        self._size += 1

    def append_labels(
        self, round_index: int, indices: np.ndarray, labels: np.ndarray
    ) -> None:
        """Record predicted ``labels`` for ``indices`` at ``round_index``.

        The label record is a sparse side channel next to the score
        matrix: the contradiction-rate metric compares consecutive
        rounds' predictions per sample (a "flip" is a changed label).
        Label rounds follow the same strictly-increasing, record-once
        discipline as :meth:`append`, but are otherwise independent —
        a round may record scores, labels, both, or neither.

        Raises
        ------
        HistoryError
            On out-of-order or duplicate label rounds, misaligned
            inputs, or out-of-range indices.
        """
        indices = np.asarray(indices, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if indices.shape != labels.shape or indices.ndim != 1:
            raise HistoryError(
                f"indices {indices.shape} and labels {labels.shape} must be "
                "1-D and aligned"
            )
        if self._label_rounds and round_index <= self._label_rounds[-1][0]:
            raise HistoryError(
                f"label round {round_index} not after last recorded label "
                f"round {self._label_rounds[-1][0]}"
            )
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.n_samples:
                raise HistoryError("sample index out of range")
            self._index_seen[indices] = True
            distinct = int(np.count_nonzero(self._index_seen))
            self._index_seen[indices] = False
            if distinct != len(indices):
                raise HistoryError("duplicate sample indices in one label round")
        self._label_rounds.append((int(round_index), indices.copy(), labels.copy()))

    # -- introspection --------------------------------------------------------

    @property
    def num_label_rounds(self) -> int:
        """Number of predicted-label rounds recorded so far."""
        return len(self._label_rounds)

    def label_rounds(self):
        """Yield ``(round_index, indices, labels)`` per label round."""
        for round_index, indices, labels in self._label_rounds:
            yield round_index, indices, labels

    @property
    def num_rounds(self) -> int:
        """Number of rounds recorded so far."""
        return self._size

    @property
    def capacity(self) -> int:
        """Rows currently allocated (>= :attr:`num_rounds`)."""
        return len(self._buffer)

    @property
    def rounds(self) -> list[int]:
        """The recorded round indices, in order."""
        return self._round_ids[: self._size].tolist()

    def has_round(self, round_index: int) -> bool:
        """Whether ``round_index`` was recorded.

        Round indices are strictly increasing, so this is a binary search
        rather than a linear scan.
        """
        recorded = self._round_ids[: self._size]
        position = int(np.searchsorted(recorded, round_index))
        return position < self._size and recorded[position] == round_index

    def sequence(self, index: int) -> np.ndarray:
        """Full recorded sequence of sample ``index`` (NaNs dropped)."""
        if not 0 <= index < self.n_samples:
            raise HistoryError(f"sample index {index} out of range")
        column = self._matrix[:, index]
        return column[~np.isnan(column)]

    def sequence_length(self, index: int) -> int:
        """Number of recorded scores for sample ``index``."""
        return len(self.sequence(index))

    def iter_rounds(self):
        """Yield ``(round_index, indices, scores)`` per recorded round.

        Each triple holds the recorded (non-NaN) entries of one round's
        row in ascending index order — exactly what :meth:`append` was
        given — so replaying the triples into an empty store reconstructs
        this one.  NaN encodes "not evaluated", so a literal NaN score
        would not survive the round trip; strategies never record NaN.
        """
        for row in range(self._size):
            data = self._buffer[row]
            indices = np.flatnonzero(~np.isnan(data))
            yield int(self._round_ids[row]), indices, data[indices]

    def to_dict(self) -> dict:
        """Serialise the store as per-round sparse ``(indices, scores)`` rows.

        The payload is plain JSON-compatible data; :meth:`from_dict`
        rebuilds an identical store by replaying the rounds through
        :meth:`append`, so the round trip preserves sequences bit for
        bit (floats survive JSON via ``repr`` serialisation).  Results
        keep this form; session snapshots use :meth:`to_snapshot`.
        """
        payload = {
            "n_samples": self.n_samples,
            "strategy_name": self.strategy_name,
            "rounds": [
                {
                    "round": round_index,
                    "indices": indices.tolist(),
                    "scores": scores.tolist(),
                }
                for round_index, indices, scores in self.iter_rounds()
            ],
        }
        return self._with_labels(payload)

    def to_snapshot(self) -> dict:
        """Serialise the store as its round ids plus one encoded matrix.

        ``scores`` is the ``(rounds, n_samples)`` matrix through
        :func:`repro.ioutil.encode_array`, NaN where a sample was not
        scored that round: the form session snapshots carry, since it
        costs one base64 pass instead of printing every float.
        :meth:`from_dict` reads it.
        """
        payload = {
            "n_samples": self.n_samples,
            "strategy_name": self.strategy_name,
            "rounds": self.rounds,
            "scores": encode_array(self._matrix),
        }
        return self._with_labels(payload)

    def _with_labels(self, payload: dict) -> dict:
        # Only present when label tracking ran: stores without label
        # rounds keep the exact document shape they have always had.
        if self._label_rounds:
            payload["labels"] = [
                {
                    "round": round_index,
                    "indices": indices.tolist(),
                    "labels": labels.tolist(),
                }
                for round_index, indices, labels in self._label_rounds
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "HistoryStore":
        """Rebuild a store written by :meth:`to_dict` or :meth:`to_snapshot`.

        Either form is replayed round by round through :meth:`append`,
        so every order, range and duplicate check runs.

        Raises
        ------
        HistoryError
            If the encoded ``scores`` are malformed or their shape is not
            ``[len(rounds), n_samples]``, or a replayed round is rejected.
        """
        history = cls(
            int(payload["n_samples"]), strategy_name=str(payload["strategy_name"])
        )
        if "scores" in payload:
            matrix = decode_array(payload["scores"], HistoryError, "scores")
            expected = (len(payload["rounds"]), history.n_samples)
            if matrix.shape != expected:
                raise HistoryError(
                    f"scores has shape {list(matrix.shape)}, expected {list(expected)}"
                )
            for round_index, row in zip(payload["rounds"], matrix):
                indices = np.flatnonzero(~np.isnan(row))
                history.append(int(round_index), indices, row[indices])
        else:
            for row in payload["rounds"]:
                history.append(
                    int(row["round"]),
                    np.asarray(row["indices"], dtype=np.int64),
                    np.asarray(row["scores"], dtype=np.float64),
                )
        for row in payload.get("labels") or []:
            history.append_labels(
                int(row["round"]),
                np.asarray(row["indices"], dtype=np.int64),
                np.asarray(row["labels"], dtype=np.int64),
            )
        return history

    def nbytes(self) -> int:
        """Logical memory footprint: recorded rounds only.

        This is the O(rounds * N) quantity of the paper's Table 2 space
        analysis; the preallocated growth headroom is reported separately
        by :meth:`capacity_nbytes`.
        """
        return int(self._size * self.n_samples * self._buffer.itemsize)

    def capacity_nbytes(self) -> int:
        """Bytes actually allocated (buffer + round ids + caches)."""
        return int(
            self._buffer.nbytes + self._round_ids.nbytes + self._last_score.nbytes
        )

    def as_of(self, round_index: int) -> "HistoryStore":
        """A copy containing only rounds recorded up to ``round_index``.

        Used to reconstruct, after a run, what a windowed statistic was
        at selection time in an earlier round (e.g. Table 6's average
        WSHS/FHS scores of the selected samples).
        """
        truncated = HistoryStore(self.n_samples, strategy_name=self.strategy_name)
        keep = int(
            np.searchsorted(self._round_ids[: self._size], round_index, side="right")
        )
        if keep:
            truncated._buffer = self._buffer[:keep].copy()
            truncated._round_ids = self._round_ids[:keep].copy()
            truncated._size = keep
            truncated._recompute_last_scores()
        for recorded, indices, labels in self._label_rounds:
            if recorded <= round_index:
                truncated.append_labels(recorded, indices, labels)
        return truncated

    # -- windowed views ----------------------------------------------------------

    def window_matrix(self, indices: np.ndarray, window: int) -> np.ndarray:
        """Last ``window`` recorded scores per sample, right-aligned.

        Returns a ``(len(indices), window)`` matrix whose last column is
        each sample's most recent score; positions before a short
        sequence's start are NaN.
        """
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        indices = np.asarray(indices, dtype=np.int64)
        output = np.full((len(indices), window), np.nan)
        if self._size == 0 or len(indices) == 0:
            return output
        columns = self._matrix[:, indices]  # (rounds, k)
        observed = ~np.isnan(columns)
        counts = observed.sum(axis=0)
        # Position of each observation counted from the end of its sequence.
        from_end = counts[None, :] - observed.cumsum(axis=0)
        target = window - 1 - from_end  # right-aligned output column
        valid = observed & (target >= 0)
        round_idx, sample_idx = np.nonzero(valid)
        output[sample_idx, target[valid]] = columns[round_idx, sample_idx]
        return output

    def sequence_matrix(self, indices: np.ndarray) -> np.ndarray:
        """Full recorded sequences as a left-aligned NaN-padded matrix.

        Returns a ``(len(indices), num_rounds)`` matrix whose row ``r``
        holds ``sequence(indices[r])`` in columns ``0..len-1`` and NaN
        after; the batched Mann-Kendall test consumes this directly.
        """
        indices = np.asarray(indices, dtype=np.int64)
        output = np.full((len(indices), self._size), np.nan)
        if self._size == 0 or len(indices) == 0:
            return output
        columns = self._matrix[:, indices]  # (rounds, k)
        observed = ~np.isnan(columns)
        target = observed.cumsum(axis=0) - 1  # left-aligned output column
        round_idx, sample_idx = np.nonzero(observed)
        output[sample_idx, target[round_idx, sample_idx]] = columns[
            round_idx, sample_idx
        ]
        return output

    def padded_sequences(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Recorded sequences as a zero-padded matrix plus lengths.

        Returns ``(values, lengths)`` where row ``r`` of ``values`` holds
        ``sequence(indices[r])`` left-aligned and zero-padded to the
        longest sequence among ``indices`` — the input layout of
        :meth:`repro.models.lstm.LSTMRegressor.predict_padded`, so LHS
        feature extraction feeds the whole candidate pool to the
        next-score predictor in one batched call.
        """
        matrix = self.sequence_matrix(indices)
        lengths = (~np.isnan(matrix)).sum(axis=1).astype(np.int64)
        width = int(lengths.max()) if len(lengths) else 0
        return np.nan_to_num(matrix[:, :width], nan=0.0), lengths

    def current_scores(self, indices: np.ndarray) -> np.ndarray:
        """Most recent recorded score per sample (NaN if never recorded).

        O(len(indices)) via the last-observation cache — no window matrix
        is built.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_samples):
            raise HistoryError("sample index out of range")
        return self._last_score[indices]

    def weighted_sum(self, indices: np.ndarray, window: int) -> np.ndarray:
        """Eq. (9)-(10): exponentially weighted sum over the window.

        The most recent score has weight 1, the one before 1/2, then 1/4,
        etc.; missing positions contribute nothing.
        """
        matrix = self.window_matrix(indices, window)
        weights = np.exp2(np.arange(window, dtype=np.float64) - (window - 1))
        return np.nansum(matrix * weights, axis=1)

    def fluctuation(self, indices: np.ndarray, window: int) -> np.ndarray:
        """Variance of the windowed sequence (Sec. 4.3).

        Samples with fewer than two recorded scores get fluctuation 0.
        """
        matrix = self.window_matrix(indices, window)
        counts = (~np.isnan(matrix)).sum(axis=1)
        with np.errstate(invalid="ignore"):
            variances = np.nanvar(matrix, axis=1)
        variances[counts < 2] = 0.0
        return variances

    def __repr__(self) -> str:
        label = f", strategy={self.strategy_name!r}" if self.strategy_name else ""
        return f"HistoryStore(n={self.n_samples}, rounds={self.num_rounds}{label})"
