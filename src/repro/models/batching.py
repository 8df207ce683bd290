"""Padding and length-bucketing utilities for the batched sequence kernels.

The numpy sequence models (``LSTMRegressor``, ``LinearChainCRF``,
``BiLSTMCRF``) run dense tensors through their kernels, never one
sequence at a time:

* ragged 1-D score sequences are packed into a right-padded ``(N, T)``
  matrix plus a length vector (:func:`pad_sequences`, checked by
  :func:`check_padded`), and the LSTM recurrence
  (:func:`repro.models.lstm.lstm_forward`) holds each row's state past
  its length;
* variable-length sentences are grouped into exact-length buckets
  (:func:`length_buckets`) so each bucket runs through the lattice
  recursions as one ``(B, L, T)`` tensor with no masking at all, which
  keeps the batched CRF kernels bit-for-bit identical to the per-sentence
  recursions.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import ConfigurationError


def pad_sequences(
    sequences: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Pack ragged 1-D float sequences into a padded matrix.

    Returns ``(values, lengths)`` where ``values`` is ``(N, T)`` with
    ``T = max(len(s))``, each row left-aligned and zero-padded on the
    right, and ``lengths`` the original sequence lengths.  An empty input
    yields a ``(0, 0)`` matrix.

    Raises
    ------
    ConfigurationError
        If any sequence is empty or not 1-D.
    """
    arrays = [np.asarray(s, dtype=np.float64).ravel() for s in sequences]
    lengths = np.array([len(a) for a in arrays], dtype=np.int64)
    if len(arrays) == 0:
        return np.zeros((0, 0)), lengths
    if lengths.min() == 0:
        raise ConfigurationError("sequences must be non-empty")
    values = np.zeros((len(arrays), int(lengths.max())))
    for row, array in enumerate(arrays):
        values[row, : len(array)] = array
    return values, lengths


def check_padded(
    values: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A padded batch as a float ``(N, T)`` matrix and ``N`` int lengths.

    Raises
    ------
    ConfigurationError
        If ``values`` is not 2-D, there is not one length per row, or a
        length is outside ``[1, T]``.
    """
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.ndim != 2 or lengths.ndim != 1 or len(values) != len(lengths):
        raise ConfigurationError(
            f"padded values {values.shape} and lengths {lengths.shape} misaligned"
        )
    if len(lengths) and lengths.min() < 1:
        raise ConfigurationError("cannot predict from an empty sequence")
    if len(lengths) and lengths.max() > values.shape[1]:
        raise ConfigurationError(
            f"length {lengths.max()} exceeds the padded width {values.shape[1]}"
        )
    return values, lengths


def length_buckets(lengths: Sequence[int]) -> list[tuple[int, np.ndarray]]:
    """Group positions by exact sequence length.

    Returns ``(length, positions)`` pairs in ascending length order;
    ``positions`` are indices into ``lengths`` (ascending within each
    bucket, so refilling an output list preserves input order).
    """
    length_array = np.asarray(lengths, dtype=np.int64)
    if length_array.size == 0:
        return []
    unique = np.unique(length_array)
    return [(int(value), np.flatnonzero(length_array == value)) for value in unique]
