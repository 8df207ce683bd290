"""Per-sample oracles for the batched model kernels.

The batched paths (padded-tensor LSTM, length-bucketed CRF lattices,
MC-dropout subgraph reuse) replaced the per-sequence, per-sentence and
per-draw loops below.  The CRF lattice kernels reduce the tag axis the
same way batched or not, so the CRF oracles must match bit for bit; the
LSTM and BiLSTM paths route matrix products through a different BLAS
kernel (gemm vs gemv) and match to 1e-10.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.datasets import SequenceDataset, TextDataset
from repro.exceptions import ConfigurationError
from repro.models.base import bump_fit_generation
from repro.models.bilstm_crf import BiLSTMCRF
from repro.models.crf import LinearChainCRF
from repro.models.crf_core import CRFTagger, crf_backward, crf_forward
from repro.models.layers import Adam, dropout_mask, sigmoid
from repro.models.lstm import LSTMRegressor
from repro.models.textcnn import TextCNN
from repro.rng import ensure_rng

# -- LSTMRegressor: one sequence at a time ------------------------------------


def lstm_step(
    model: LSTMRegressor,
    params: dict[str, np.ndarray],
    x_t: float,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """One recurrence step of one sequence; gates stacked [i, f, g, o]."""
    h = model.hidden_dim
    pre = x_t * params["Wx"][0] + h_prev @ params["Wh"] + params["b"]
    i = sigmoid(pre[:h])
    f = sigmoid(pre[h : 2 * h])
    g = np.tanh(pre[2 * h : 3 * h])
    o = sigmoid(pre[3 * h :])
    c = f * c_prev + i * g
    h_new = o * np.tanh(c)
    cache = {"i": i, "f": f, "g": g, "o": o, "c": c, "c_prev": c_prev,
             "h_prev": h_prev, "x": np.array([x_t]), "tanh_c": np.tanh(c)}
    return h_new, c, cache


def lstm_unroll(
    model: LSTMRegressor, params: dict[str, np.ndarray], sequence: np.ndarray
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Final hidden state of one sequence, plus every step's cache."""
    h_state = np.zeros(model.hidden_dim)
    c_state = np.zeros(model.hidden_dim)
    caches: list[dict[str, np.ndarray]] = []
    for x_t in sequence:
        h_state, c_state, cache = lstm_step(model, params, float(x_t), h_state, c_state)
        caches.append(cache)
    return h_state, caches


def lstm_bptt(
    model: LSTMRegressor,
    params: dict[str, np.ndarray],
    caches: list[dict[str, np.ndarray]],
    dh_last: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Backpropagate ``dh_last`` through one sequence's steps into ``grads``."""
    h = model.hidden_dim
    dh = dh_last
    dc = np.zeros(h)
    for cache in reversed(caches):
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
        ])
        grads["Wx"][0] += cache["x"][0] * dpre
        grads["Wh"] += np.outer(cache["h_prev"], dpre)
        grads["b"] += dpre
        dh = params["Wh"] @ dpre
        dc = dc_prev


def lstm_fit_reference(
    model: LSTMRegressor, sequences: Sequence[np.ndarray], targets: Sequence[float]
) -> LSTMRegressor:
    """Per-sequence scalar training loop (oracle for ``LSTMRegressor.fit``)."""
    arrays, target_array = model._validate_fit_inputs(sequences, targets)
    rng = ensure_rng(model.seed)
    params = model._init_params(rng)
    optimizer = Adam(learning_rate=model.learning_rate)
    n = len(arrays)
    for _ in range(model.epochs):
        grads = {name: np.zeros_like(value) for name, value in params.items()}
        for sequence, target in zip(arrays, target_array):
            h_last, caches = lstm_unroll(model, params, sequence)
            prediction = float(h_last @ params["Wy"][:, 0] + params["by"][0])
            derr = 2.0 * (prediction - target) / n
            grads["Wy"][:, 0] += derr * h_last
            grads["by"][0] += derr
            lstm_bptt(model, params, caches, derr * params["Wy"][:, 0], grads)
        optimizer.update(params, grads)
    model._params = params
    bump_fit_generation(model)
    return model


def lstm_predict_reference(
    model: LSTMRegressor, sequences: Sequence[np.ndarray]
) -> np.ndarray:
    """Per-sequence scalar prediction loop (oracle for ``LSTMRegressor.predict``)."""
    params = model._require_fitted()
    predictions = np.empty(len(sequences))
    for index, sequence in enumerate(sequences):
        array = np.asarray(sequence, dtype=np.float64).ravel()
        if len(array) == 0:
            raise ConfigurationError("cannot predict from an empty sequence")
        h_last, _ = lstm_unroll(model, params, array)
        predictions[index] = h_last @ params["Wy"][:, 0] + params["by"][0]
    return predictions


# -- CRF taggers: one sentence at a time --------------------------------------


def crf_viterbi(
    emissions: np.ndarray, transitions: np.ndarray,
    start: np.ndarray, end: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Best tag path and its unnormalised score."""
    length, num_tags = emissions.shape
    delta = start + emissions[0]
    backpointers = np.empty((length, num_tags), dtype=np.int64)
    for position in range(1, length):
        candidate = delta[:, None] + transitions
        backpointers[position] = candidate.argmax(axis=0)
        delta = candidate.max(axis=0) + emissions[position]
    delta = delta + end
    best_last = int(delta.argmax())
    path = np.empty(length, dtype=np.int64)
    path[-1] = best_last
    for position in range(length - 1, 0, -1):
        path[position - 1] = backpointers[position, path[position]]
    return path, float(delta[best_last])


def crf_marginals(
    emissions: np.ndarray, transitions: np.ndarray,
    start: np.ndarray, end: np.ndarray,
) -> np.ndarray:
    """Token marginal distributions ``(L, T)``."""
    alpha, log_z = crf_forward(emissions, transitions, start, end)
    beta = crf_backward(emissions, transitions, end)
    return np.exp(alpha + beta - log_z)


def linear_crf_sentence_emissions(
    model: LinearChainCRF,
    sentence: np.ndarray,
    component_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Emission scores of one sentence, shape ``(length, num_tags)``.

    ``component_mask`` (length 3, values 0/scale) implements feature
    dropout over the current/previous/next word components.
    """
    params = model._require_fitted()
    prev_ids = np.concatenate([[0], sentence[:-1]])
    next_ids = np.concatenate([sentence[1:], [0]])
    parts = (
        params["U_curr"][sentence],
        params["U_prev"][prev_ids],
        params["U_next"][next_ids],
    )
    if component_mask is None:
        emissions = parts[0] + parts[1] + parts[2]
    else:
        emissions = sum(m * p for m, p in zip(component_mask, parts))
    return emissions + params["b"]


def sentence_emissions(model: CRFTagger, sentence: np.ndarray) -> np.ndarray:
    """Dropout-free emission matrix ``(L, T)`` of one sentence, either tagger."""
    if isinstance(model, BiLSTMCRF):
        return model._encode(sentence, None)[0]
    return linear_crf_sentence_emissions(model, sentence)


def crf_predict_tags_reference(
    model: CRFTagger, dataset: SequenceDataset
) -> list[np.ndarray]:
    """Per-sentence Viterbi (oracle for ``CRFTagger.predict_tags``)."""
    transitions = model._transitions()
    return [
        crf_viterbi(sentence_emissions(model, sentence), *transitions)[0]
        for sentence in dataset.sentences
    ]


def crf_best_path_log_proba_reference(
    model: CRFTagger, dataset: SequenceDataset
) -> np.ndarray:
    """Per-sentence ``log p(y*|x)`` (oracle for ``best_path_log_proba``)."""
    transitions = model._transitions()
    log_probas = np.empty(len(dataset))
    for index, sentence in enumerate(dataset.sentences):
        emissions = sentence_emissions(model, sentence)
        _, best_score = crf_viterbi(emissions, *transitions)
        _, log_z = crf_forward(emissions, *transitions)
        log_probas[index] = best_score - log_z
    return log_probas


def crf_token_marginals_reference(
    model: CRFTagger, dataset: SequenceDataset
) -> list[np.ndarray]:
    """Per-sentence forward-backward (oracle for ``token_marginals``)."""
    transitions = model._transitions()
    return [
        crf_marginals(sentence_emissions(model, sentence), *transitions)
        for sentence in dataset.sentences
    ]


def linear_crf_token_marginal_samples_reference(
    model: LinearChainCRF,
    dataset: SequenceDataset,
    n_samples: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Per-draw feature-dropout marginals (oracle for the bucketed sampler)."""
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
    params = model._require_fitted()
    results: list[np.ndarray] = []
    num_tags = int(model._num_tags or 0)
    for sentence in dataset.sentences:
        draws = np.empty((n_samples, len(sentence), num_tags))
        for t in range(n_samples):
            keep = rng.random(3) >= model.feature_dropout
            if not keep.any():
                keep[rng.integers(3)] = True  # never drop every component
            mask = keep / max(keep.mean(), 1e-12)
            emissions = linear_crf_sentence_emissions(
                model, sentence, component_mask=mask
            )
            draws[t] = crf_marginals(
                emissions, params["A"], params["start"], params["end"]
            )
        results.append(draws)
    return results


def bilstm_crf_token_marginal_samples_reference(
    model: BiLSTMCRF,
    dataset: SequenceDataset,
    n_samples: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Per-draw MC-dropout marginals, re-encoding the sentence every draw."""
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
    params = model._require_fitted()
    num_tags = int(model._num_tags or 0)
    results = []
    for sentence in dataset.sentences:
        draws = np.empty((n_samples, len(sentence), num_tags))
        for t in range(n_samples):
            mask = dropout_mask(
                rng, (len(sentence), 2 * model.hidden_dim), model.dropout
            )
            emissions, _ = model._encode(sentence, mask)
            draws[t] = crf_marginals(
                emissions, params["A"], params["start"], params["end"]
            )
        results.append(draws)
    return results


# -- TextCNN: a full forward pass per draw ------------------------------------


def textcnn_predict_proba_samples_reference(
    model: TextCNN, dataset: TextDataset, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-draw full forward passes (oracle for the reuse path)."""
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
    model._require_fitted()
    ids = model._padded_ids(dataset)
    draws = np.empty((n_samples, len(ids), int(model._num_classes or 0)))
    for t in range(n_samples):
        outputs = []
        for start in range(0, len(ids), 256):
            chunk = ids[start : start + 256]
            mask = dropout_mask(rng, (len(chunk), model._hidden_dim), model.dropout)
            outputs.append(model._forward(chunk, mask).probabilities)
        draws[t] = np.concatenate(outputs)
    return draws
