"""Per-sample oracles for the batched model kernels.

The batched paths (the padded, masked LSTM recurrence, length-bucketed
CRF lattices, the padded CRF training kernel, MC-dropout subgraph reuse)
replaced the per-sequence, per-sentence and per-draw loops below.  The
CRF lattice kernels reduce the tag axis the same way batched or not, so
the CRF oracles must match bit for bit.  The shared LSTM recurrence
(``repro.models.lstm.lstm_forward``/``lstm_backward``) on a one-row
batch runs the same numpy matrix-vector products (BLAS gemv) as the
per-sentence unroll and BPTT below (:func:`lstm_run`,
:func:`lstm_back`), so it must match them bit for bit; a batch of
several rows runs matrix-matrix products (gemm) that BLAS may reduce in
another order, and matches the per-row oracles to
:data:`GEMM_TOLERANCE`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.datasets import SequenceDataset, TextDataset
from repro.exceptions import ConfigurationError
from repro.models.base import bump_fit_generation
from repro.models.bilstm_crf import BiLSTMCRF
from repro.models.crf import LinearChainCRF
from repro.models.crf_core import CRFTagger, logsumexp_axis
from repro.models.layers import Adam, dropout_mask, sigmoid
from repro.models.lstm import LSTMRegressor
from repro.models.textcnn import TextCNN
from repro.rng import ensure_rng

#: Largest absolute difference allowed between a batched (gemm) LSTM or
#: BiLSTM result and its per-sequence (gemv) oracle; measured ~1e-15.
GEMM_TOLERANCE = 1e-10

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


# -- BiLSTM-CRF's recurrence: one sentence at a time ---------------------------


def lstm_run(
    inputs: np.ndarray, w_input: np.ndarray, w_hidden: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Unroll an LSTM over ``inputs`` (L, D); gates stacked [i, f, g, o]."""
    length = inputs.shape[0]
    hidden_dim = w_hidden.shape[0]
    h_state = np.zeros(hidden_dim)
    c_state = np.zeros(hidden_dim)
    states = np.empty((length, hidden_dim))
    caches: list[dict[str, np.ndarray]] = []
    for t in range(length):
        pre = inputs[t] @ w_input + h_state @ w_hidden + bias
        i = sigmoid(pre[:hidden_dim])
        f = sigmoid(pre[hidden_dim : 2 * hidden_dim])
        g = np.tanh(pre[2 * hidden_dim : 3 * hidden_dim])
        o = sigmoid(pre[3 * hidden_dim :])
        c_new = f * c_state + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        caches.append({
            "x": inputs[t], "h_prev": h_state, "c_prev": c_state,
            "i": i, "f": f, "g": g, "o": o, "tanh_c": tanh_c,
        })
        h_state, c_state = h_new, c_new
        states[t] = h_new
    return states, caches


def lstm_back(
    d_states: np.ndarray,
    caches: list[dict[str, np.ndarray]],
    w_input: np.ndarray,
    w_hidden: np.ndarray,
    grads: dict[str, np.ndarray],
    prefix: str,
) -> np.ndarray:
    """BPTT: accumulate parameter grads, return input gradients (L, D)."""
    hidden_dim = w_hidden.shape[0]
    d_inputs = np.zeros((len(caches), w_input.shape[0]))
    dh = np.zeros(hidden_dim)
    dc = np.zeros(hidden_dim)
    for t in range(len(caches) - 1, -1, -1):
        cache = caches[t]
        dh = dh + d_states[t]
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
        grads[f"Wx{prefix}"] += np.outer(cache["x"], dpre)
        grads[f"Wh{prefix}"] += np.outer(cache["h_prev"], dpre)
        grads[f"b{prefix}"] += dpre
        d_inputs[t] = w_input @ dpre
        dh = w_hidden @ dpre
        dc = dc_prev
    return d_inputs


# -- CRF taggers: one sentence at a time --------------------------------------


def crf_forward(
    emissions: np.ndarray, transitions: np.ndarray,
    start: np.ndarray, end: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Forward recursion: alpha table ``(L, T)`` and log partition."""
    length = emissions.shape[0]
    alpha = np.empty_like(emissions)
    alpha[0] = start + emissions[0]
    for position in range(1, length):
        alpha[position] = emissions[position] + logsumexp_axis(
            alpha[position - 1][:, None] + transitions, axis=0
        )
    log_z = float(logsumexp_axis((alpha[length - 1] + end)[None, :], axis=1)[0])
    return alpha, log_z


def crf_backward(
    emissions: np.ndarray, transitions: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Backward recursion: beta table ``(L, T)``."""
    length = emissions.shape[0]
    beta = np.empty_like(emissions)
    beta[length - 1] = end
    for position in range(length - 2, -1, -1):
        beta[position] = logsumexp_axis(
            transitions + (emissions[position + 1] + beta[position + 1])[None, :],
            axis=1,
        )
    return beta


def crf_path_score(
    emissions: np.ndarray, tags: np.ndarray, transitions: np.ndarray,
    start: np.ndarray, end: np.ndarray,
) -> float:
    """Unnormalised log score of one tag path."""
    score = float(start[tags[0]] + emissions[0, tags[0]])
    for position in range(1, len(tags)):
        score += float(transitions[tags[position - 1], tags[position]])
        score += float(emissions[position, tags[position]])
    return score + float(end[tags[-1]])


def crf_sentence_gradients(
    emissions: np.ndarray,
    tags: np.ndarray,
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """NLL gradients of one sentence.

    Returns ``(d_emissions, d_transitions, d_start, d_end, nll)`` where
    ``d_emissions`` has the emission matrix's shape; all gradients are of
    the *negative* log likelihood, ready for gradient descent.
    """
    length = emissions.shape[0]
    alpha, log_z = crf_forward(emissions, transitions, start, end)
    beta = crf_backward(emissions, transitions, end)
    marginals = np.exp(alpha + beta - log_z)
    d_emissions = marginals.copy()
    d_emissions[np.arange(length), tags] -= 1.0
    d_transitions = np.zeros_like(transitions)
    if length > 1:
        pairwise = (
            alpha[:-1, :, None]
            + transitions[None, :, :]
            + (emissions[1:] + beta[1:])[:, None, :]
            - log_z
        )
        d_transitions += np.exp(pairwise).sum(axis=0)
        np.add.at(d_transitions, (tags[:-1], tags[1:]), -1.0)
    d_start = marginals[0].copy()
    d_start[tags[0]] -= 1.0
    d_end = marginals[-1].copy()
    d_end[tags[-1]] -= 1.0
    nll = log_z - crf_path_score(emissions, tags, transitions, start, end)
    return d_emissions, d_transitions, d_start, d_end, nll


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
