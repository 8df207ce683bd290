"""Batched kernels vs per-sample oracles: equivalence and determinism.

The batched sequence-model paths (padded-tensor LSTM, length-bucketed
CRF lattice kernels, the padded CRF training kernel, MC-dropout subgraph
reuse) keep their original per-sample implementations as oracles: the
functions in :mod:`tests.oracles.models`, and here
:func:`accumulate_sentence_grads` with :class:`PerSentenceCRF`.  The CRF
lattice kernels reduce the tag axis identically batched or not, so those
paths must be bit-for-bit equal; LSTM/BiLSTM paths route matrix products
through a different BLAS kernel (gemm vs gemv), so they get a 1e-10
tolerance instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data.datasets import SequenceDataset, TextDataset
from repro.data.vocab import Vocabulary
from repro.exceptions import ConfigurationError
from repro.models.batching import length_buckets, pad_sequences
from repro.models.bilstm_crf import BiLSTMCRF
from repro.models.crf import LinearChainCRF
from repro.models.crf_core import crf_padded_gradients, crf_sentence_gradients
from repro.models.lstm import LSTMRegressor
from repro.models.textcnn import TextCNN
from tests.oracles.models import (
    bilstm_crf_token_marginal_samples_reference,
    crf_best_path_log_proba_reference,
    crf_predict_tags_reference,
    crf_token_marginals_reference,
    linear_crf_sentence_emissions,
    linear_crf_token_marginal_samples_reference,
    lstm_fit_reference,
    lstm_predict_reference,
    textcnn_predict_proba_samples_reference,
)

TOL = 1e-10


def assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal dtype, shape and bytes (so -0.0 and 0.0 differ)."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def accumulate_sentence_grads(model, sentence, tags, grads, scale):
    """Add one sentence's NLL gradient into ``grads``: the per-sentence
    path ``LinearChainCRF`` trained through before its padded kernel."""
    params = model._require_fitted()
    emissions = linear_crf_sentence_emissions(model, sentence)
    d_emissions, d_transitions, d_start, d_end, _ = crf_sentence_gradients(
        emissions, tags, params["A"], params["start"], params["end"]
    )
    d_emissions = d_emissions * scale
    prev_ids = np.concatenate([[0], sentence[:-1]])
    next_ids = np.concatenate([sentence[1:], [0]])
    np.add.at(grads["U_curr"], sentence, d_emissions)
    np.add.at(grads["U_prev"], prev_ids, d_emissions)
    np.add.at(grads["U_next"], next_ids, d_emissions)
    grads["b"] += d_emissions.sum(axis=0)
    grads["A"] += scale * d_transitions
    grads["start"] += scale * d_start
    grads["end"] += scale * d_end


class PerSentenceCRF(LinearChainCRF):
    """``LinearChainCRF`` trained one sentence at a time (the oracle)."""

    def _training_data(self, dataset):
        self._num_tags = dataset.num_tags
        return dataset.sentences, dataset.tag_sequences

    def _gradients(self, data, batch, rng):
        sentences, tag_sequences = data
        grads = {name: np.zeros_like(v) for name, v in self._params.items()}
        for index in batch:
            accumulate_sentence_grads(
                self, sentences[index], tag_sequences[index], grads,
                scale=1.0 / len(batch),
            )
        for name, value in self._params.items():
            grads[name] += self.l2 * value
        return grads


def _ragged_sequences(rng, count, min_len=1, max_len=9):
    """Ragged 1-D float sequences, lengths spanning [min_len, max_len]."""
    return [
        rng.normal(size=rng.integers(min_len, max_len + 1)) for _ in range(count)
    ]


def _sequence_dataset(rng, count=40, vocab_size=30, num_tags=4, max_len=8):
    vocab = Vocabulary([f"t{i}" for i in range(vocab_size)])
    sentences = [
        rng.integers(1, vocab_size, size=rng.integers(1, max_len + 1)).tolist()
        for _ in range(count)
    ]
    tags = [rng.integers(0, num_tags, size=len(s)).tolist() for s in sentences]
    return SequenceDataset(sentences, tags, vocab, [f"T{i}" for i in range(num_tags)])


@pytest.fixture(scope="module")
def seq_dataset():
    return _sequence_dataset(np.random.default_rng(0))


@pytest.fixture(scope="module")
def fitted_crf(seq_dataset):
    return LinearChainCRF(epochs=3, seed=1).fit(seq_dataset)


@pytest.fixture(scope="module")
def fitted_bilstm(seq_dataset):
    return BiLSTMCRF(epochs=2, seed=1).fit(seq_dataset)


class TestPaddingUtils:
    def test_pad_sequences_layout(self, rng):
        values, lengths = pad_sequences([np.array([1.0, 2.0]), np.array([3.0])])
        assert values.shape == (2, 2)
        assert lengths.tolist() == [2, 1]
        assert values[1].tolist() == [3.0, 0.0]

    def test_pad_sequences_empty_input(self):
        values, lengths = pad_sequences([])
        assert values.shape == (0, 0)
        assert lengths.size == 0

    def test_pad_sequences_rejects_empty_sequence(self):
        with pytest.raises(ConfigurationError):
            pad_sequences([np.array([1.0]), np.array([])])

    def test_length_buckets_cover_all_positions(self):
        lengths = [3, 1, 3, 2, 1, 1]
        buckets = length_buckets(lengths)
        assert [b[0] for b in buckets] == [1, 2, 3]
        recovered = np.concatenate([b[1] for b in buckets])
        assert sorted(recovered.tolist()) == list(range(len(lengths)))

    def test_length_buckets_empty(self):
        assert length_buckets([]) == []


class TestLSTMBatched:
    def test_fit_matches_reference(self, rng):
        sequences = _ragged_sequences(rng, 25)
        targets = rng.normal(size=25)
        batched = LSTMRegressor(hidden_dim=6, epochs=20, seed=3).fit(
            sequences, targets
        )
        oracle = lstm_fit_reference(
            LSTMRegressor(hidden_dim=6, epochs=20, seed=3), sequences, targets
        )
        for name in batched._params:
            np.testing.assert_allclose(
                batched._params[name], oracle._params[name], atol=TOL, rtol=0
            )

    def test_predict_matches_reference(self, rng):
        sequences = _ragged_sequences(rng, 25)
        model = LSTMRegressor(hidden_dim=6, epochs=10, seed=3).fit(
            sequences, rng.normal(size=25)
        )
        queries = _ragged_sequences(rng, 40)
        np.testing.assert_allclose(
            model.predict(queries),
            lstm_predict_reference(model, queries),
            atol=TOL,
            rtol=0,
        )

    def test_fit_deterministic(self, rng):
        sequences = _ragged_sequences(rng, 15)
        targets = rng.normal(size=15)
        first = LSTMRegressor(hidden_dim=5, epochs=8, seed=7).fit(sequences, targets)
        second = LSTMRegressor(hidden_dim=5, epochs=8, seed=7).fit(sequences, targets)
        for name in first._params:
            np.testing.assert_array_equal(first._params[name], second._params[name])

    def test_single_step_sequences(self, rng):
        """Length-1 sequences exercise the masking edge at t=0."""
        sequences = [np.array([float(i)]) for i in range(8)]
        model = LSTMRegressor(hidden_dim=4, epochs=6, seed=0).fit(
            sequences, np.arange(8.0)
        )
        np.testing.assert_allclose(
            model.predict(sequences),
            lstm_predict_reference(model, sequences),
            atol=TOL,
            rtol=0,
        )

    def test_all_equal_scores(self):
        """Constant sequences must not produce NaN or diverge from oracle."""
        sequences = [np.full(k, 0.5) for k in (1, 2, 3, 4)]
        targets = [0.5, 0.5, 0.5, 0.5]
        model = LSTMRegressor(hidden_dim=4, epochs=10, seed=2).fit(sequences, targets)
        predictions = model.predict(sequences)
        assert np.all(np.isfinite(predictions))
        np.testing.assert_allclose(
            predictions, lstm_predict_reference(model, sequences), atol=TOL, rtol=0
        )

    def test_predict_empty_input(self, rng):
        model = LSTMRegressor(hidden_dim=4, epochs=2, seed=0).fit(
            _ragged_sequences(rng, 5), rng.normal(size=5)
        )
        assert model.predict([]).shape == (0,)

    def test_predict_rejects_empty_sequence(self, rng):
        model = LSTMRegressor(hidden_dim=4, epochs=2, seed=0).fit(
            _ragged_sequences(rng, 5), rng.normal(size=5)
        )
        with pytest.raises(ConfigurationError):
            model.predict([np.array([])])

    def test_predict_padded_ignores_extra_padding(self, rng):
        """Wider padding (e.g. a full history matrix) changes nothing."""
        model = LSTMRegressor(hidden_dim=4, epochs=4, seed=0).fit(
            _ragged_sequences(rng, 10), rng.normal(size=10)
        )
        queries = _ragged_sequences(rng, 12, max_len=5)
        values, lengths = pad_sequences(queries)
        wide = np.hstack([values, np.zeros((len(values), 3))])
        np.testing.assert_array_equal(
            model.predict_padded(values, lengths),
            model.predict_padded(wide, lengths),
        )


class TestCRFBatchedBitwise:
    """The lattice kernels must match the scalar recursions exactly."""

    def test_emissions(self, fitted_crf, seq_dataset):
        batched = fitted_crf.emissions(seq_dataset)
        for sentence, matrix in zip(seq_dataset.sentences, batched):
            np.testing.assert_array_equal(
                matrix, linear_crf_sentence_emissions(fitted_crf, sentence)
            )

    def test_predict_tags(self, fitted_crf, seq_dataset):
        batched = fitted_crf.predict_tags(seq_dataset)
        reference = crf_predict_tags_reference(fitted_crf, seq_dataset)
        for a, b in zip(batched, reference):
            np.testing.assert_array_equal(a, b)

    def test_best_path_log_proba(self, fitted_crf, seq_dataset):
        np.testing.assert_array_equal(
            fitted_crf.best_path_log_proba(seq_dataset),
            crf_best_path_log_proba_reference(fitted_crf, seq_dataset),
        )

    def test_token_marginals(self, fitted_crf, seq_dataset):
        batched = fitted_crf.token_marginals(seq_dataset)
        reference = crf_token_marginals_reference(fitted_crf, seq_dataset)
        for a, b in zip(batched, reference):
            np.testing.assert_array_equal(a, b)

    def test_marginal_samples_same_rng_stream(self, fitted_crf, seq_dataset):
        batched = fitted_crf.token_marginal_samples(
            seq_dataset, 5, np.random.default_rng(7)
        )
        reference = linear_crf_token_marginal_samples_reference(
            fitted_crf, seq_dataset, 5, np.random.default_rng(7)
        )
        for a, b in zip(batched, reference):
            np.testing.assert_array_equal(a, b)

    def test_single_token_sentences(self):
        """An L=1 bucket skips every recursion step yet must still agree."""
        dataset = _sequence_dataset(np.random.default_rng(3), count=12, max_len=1)
        model = LinearChainCRF(epochs=2, seed=0).fit(dataset)
        for a, b in zip(
            model.predict_tags(dataset), crf_predict_tags_reference(model, dataset)
        ):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            model.best_path_log_proba(dataset),
            crf_best_path_log_proba_reference(model, dataset),
        )

    def test_emissions_kwarg_reused(self, fitted_crf, seq_dataset):
        emissions = fitted_crf.emissions(seq_dataset)
        direct = fitted_crf.predict_tags(seq_dataset)
        shared = fitted_crf.predict_tags(seq_dataset, emissions=emissions)
        for a, b in zip(direct, shared):
            np.testing.assert_array_equal(a, b)

    def test_deterministic(self, fitted_crf, seq_dataset):
        first = fitted_crf.token_marginals(seq_dataset)
        second = fitted_crf.token_marginals(seq_dataset)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


@st.composite
def padded_lattices(draw):
    """A right-padded CRF minibatch: T = 1-20 tags, B = 1-6 rows of
    L = 1-40 real positions, padding up to 4 columns past the longest
    row, emission scales 0.1-50 and random values in the padding."""
    num_tags = draw(st.integers(1, 20))
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    width = max(lengths) + draw(st.integers(0, 4))
    scale = draw(st.floats(0.1, 50.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (
        rng.normal(scale=scale, size=(len(lengths), width, num_tags)),
        np.array(lengths),
        rng.integers(0, num_tags, size=(len(lengths), width)),
        rng.normal(size=(num_tags, num_tags)),
        rng.normal(size=num_tags),
        rng.normal(size=num_tags),
    )


def _one_tag_lattice():
    """One tag and rows long enough that numpy sums their positions
    pairwise: summing across the padding would regroup ``d_transitions``."""
    rng = np.random.default_rng(0)
    return (
        rng.normal(size=(5, 36, 1)), np.array([1, 11, 14, 21, 35]),
        np.zeros((5, 36), dtype=np.int64),
        rng.normal(size=(1, 1)), rng.normal(size=1), rng.normal(size=1),
    )


class TestCRFPaddedTraining:
    """The padded minibatch kernel and the fit built on it are bit-for-bit
    the per-sentence path."""

    @settings(max_examples=150, deadline=None)
    @given(padded_lattices())
    @example(_one_tag_lattice())
    def test_kernel_rows_match_sentence_gradients(self, lattice):
        emissions, lengths, tags, transitions, start, end = lattice
        padded = crf_padded_gradients(emissions, lengths, tags, transitions, start, end)
        for row, length in enumerate(lengths):
            expected = crf_sentence_gradients(
                emissions[row, :length], tags[row, :length], transitions, start, end
            )
            assert_same_bytes(padded[0][row, :length], expected[0])
            assert not padded[0][row, length:].any()
            for got, want in zip(padded[1:], expected[1:4]):
                assert_same_bytes(got[row], want)

    @settings(max_examples=40, deadline=None)
    @given(
        num_tags=st.integers(1, 5),
        batch_size=st.integers(1, 19),
        count=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    def test_fit_matches_per_sentence_path_cold_and_warm(
        self, num_tags, batch_size, count, seed
    ):
        rng = np.random.default_rng(seed)
        first = _sequence_dataset(rng, count=count, num_tags=num_tags, max_len=12)
        second = _sequence_dataset(rng, count=count + 5, num_tags=num_tags, max_len=12)
        options = dict(epochs=2, batch_size=batch_size, seed=seed, warm_epochs=2)
        cold = LinearChainCRF(**options).fit(first)
        cold_oracle = PerSentenceCRF(**options).fit(first)
        warm = LinearChainCRF(**options).fit(second, init_from=cold)
        warm_oracle = PerSentenceCRF(**options).fit(second, init_from=cold_oracle)
        for fitted, oracle in ((cold, cold_oracle), (warm, warm_oracle)):
            assert fitted._params.keys() == oracle._params.keys()
            for name, value in oracle._params.items():
                assert_same_bytes(fitted._params[name], value)

    def test_fit_on_the_ner_corpus_matches(self, ner_dataset):
        train = ner_dataset.subset(range(90))
        fitted = LinearChainCRF(epochs=2, seed=5).fit(train)
        oracle = PerSentenceCRF(epochs=2, seed=5).fit(train)
        for name, value in oracle._params.items():
            assert_same_bytes(fitted._params[name], value)


class TestCRFBucketedBALD:
    """Draw-first, distinct-pattern sampling is the per-draw path."""

    @pytest.mark.parametrize("num_tags", [1, 4])
    @pytest.mark.parametrize("dropout", [0.0, 0.25, 0.6, 0.95])
    @pytest.mark.parametrize("n_samples", [1, 6])
    def test_matches_reference_and_generator_state(self, num_tags, dropout, n_samples):
        dataset = _sequence_dataset(
            np.random.default_rng(num_tags), count=30, num_tags=num_tags, max_len=12
        )
        model = LinearChainCRF(epochs=2, seed=1, feature_dropout=dropout).fit(dataset)
        rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        draws = model.token_marginal_samples(dataset, n_samples, rng)
        expected = linear_crf_token_marginal_samples_reference(
            model, dataset, n_samples, reference_rng
        )
        assert len(draws) == len(expected)
        for got, want in zip(draws, expected):
            assert_same_bytes(got, want)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_empty_pool_draws_nothing(self, fitted_crf, seq_dataset):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        assert fitted_crf.token_marginal_samples(seq_dataset.subset([]), 8, rng) == []
        assert rng.bit_generator.state == before


class TestBiLSTMCRFBatched:
    """Viterbi paths must match; scores carry the gemm/gemv tolerance."""

    def test_predict_tags(self, fitted_bilstm, seq_dataset):
        batched = fitted_bilstm.predict_tags(seq_dataset)
        reference = crf_predict_tags_reference(fitted_bilstm, seq_dataset)
        for a, b in zip(batched, reference):
            np.testing.assert_array_equal(a, b)

    def test_best_path_log_proba(self, fitted_bilstm, seq_dataset):
        np.testing.assert_allclose(
            fitted_bilstm.best_path_log_proba(seq_dataset),
            crf_best_path_log_proba_reference(fitted_bilstm, seq_dataset),
            atol=TOL,
            rtol=0,
        )

    def test_token_marginals(self, fitted_bilstm, seq_dataset):
        batched = fitted_bilstm.token_marginals(seq_dataset)
        reference = crf_token_marginals_reference(fitted_bilstm, seq_dataset)
        for a, b in zip(batched, reference):
            np.testing.assert_allclose(a, b, atol=TOL, rtol=0)

    def test_marginal_samples_same_rng_stream(self, fitted_bilstm, seq_dataset):
        batched = fitted_bilstm.token_marginal_samples(
            seq_dataset, 4, np.random.default_rng(11)
        )
        reference = bilstm_crf_token_marginal_samples_reference(
            fitted_bilstm, seq_dataset, 4, np.random.default_rng(11)
        )
        for a, b in zip(batched, reference):
            np.testing.assert_allclose(a, b, atol=TOL, rtol=0)

    def test_single_token_sentences(self):
        dataset = _sequence_dataset(np.random.default_rng(5), count=10, max_len=1)
        model = BiLSTMCRF(epochs=1, seed=0).fit(dataset)
        for a, b in zip(
            model.predict_tags(dataset), crf_predict_tags_reference(model, dataset)
        ):
            np.testing.assert_array_equal(a, b)


class TestTextCNNMCReuse:
    @pytest.fixture(scope="class")
    def text_dataset_multi_chunk(self):
        rng = np.random.default_rng(0)
        vocab = Vocabulary([f"w{i}" for i in range(50)])
        sentences = [
            rng.integers(1, 50, size=rng.integers(4, 15)).tolist()
            for _ in range(300)
        ]
        labels = rng.integers(0, 3, size=300).tolist()
        return TextDataset(sentences, labels, vocab, 3)

    def test_samples_bitwise_identical(self, text_dataset_multi_chunk):
        """300 samples span two 256-chunks; draw order must be preserved."""
        model = TextCNN(epochs=2, seed=1).fit(text_dataset_multi_chunk)
        reuse = model.predict_proba_samples(
            text_dataset_multi_chunk, 5, np.random.default_rng(9)
        )
        reference = textcnn_predict_proba_samples_reference(
            model, text_dataset_multi_chunk, 5, np.random.default_rng(9)
        )
        np.testing.assert_array_equal(reuse, reference)

    def test_samples_deterministic(self, text_dataset_multi_chunk):
        model = TextCNN(epochs=1, seed=1).fit(text_dataset_multi_chunk)
        first = model.predict_proba_samples(
            text_dataset_multi_chunk, 3, np.random.default_rng(4)
        )
        second = model.predict_proba_samples(
            text_dataset_multi_chunk, 3, np.random.default_rng(4)
        )
        np.testing.assert_array_equal(first, second)
