"""Batched kernels vs per-sample oracles: equivalence and determinism.

The batched sequence-model paths (padded-tensor LSTM, length-bucketed
CRF lattice kernels, MC-dropout subgraph reuse) keep their original
per-sample implementations as ``_*_reference`` oracles.  The CRF lattice
kernels reduce the tag axis identically batched or not, so those paths
must be bit-for-bit equal; LSTM/BiLSTM paths route matrix products
through a different BLAS kernel (gemm vs gemv), so they get a 1e-10
tolerance instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import SequenceDataset, TextDataset
from repro.data.vocab import Vocabulary
from repro.exceptions import ConfigurationError
from repro.models.batching import length_buckets, pad_sequences
from repro.models.bilstm_crf import BiLSTMCRF
from repro.models.crf import LinearChainCRF
from repro.models.lstm import LSTMRegressor
from repro.models.textcnn import TextCNN

TOL = 1e-10


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
        oracle = LSTMRegressor(hidden_dim=6, epochs=20, seed=3)._fit_reference(
            sequences, targets
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
            model._predict_reference(queries),
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
            model._predict_reference(sequences),
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
            predictions, model._predict_reference(sequences), atol=TOL, rtol=0
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
                matrix, fitted_crf._sentence_emissions(sentence)
            )

    def test_predict_tags(self, fitted_crf, seq_dataset):
        batched = fitted_crf.predict_tags(seq_dataset)
        reference = fitted_crf._predict_tags_reference(seq_dataset)
        for a, b in zip(batched, reference):
            np.testing.assert_array_equal(a, b)

    def test_best_path_log_proba(self, fitted_crf, seq_dataset):
        np.testing.assert_array_equal(
            fitted_crf.best_path_log_proba(seq_dataset),
            fitted_crf._best_path_log_proba_reference(seq_dataset),
        )

    def test_token_marginals(self, fitted_crf, seq_dataset):
        batched = fitted_crf.token_marginals(seq_dataset)
        reference = fitted_crf._token_marginals_reference(seq_dataset)
        for a, b in zip(batched, reference):
            np.testing.assert_array_equal(a, b)

    def test_marginal_samples_same_rng_stream(self, fitted_crf, seq_dataset):
        batched = fitted_crf.token_marginal_samples(
            seq_dataset, 5, np.random.default_rng(7)
        )
        reference = fitted_crf._token_marginal_samples_reference(
            seq_dataset, 5, np.random.default_rng(7)
        )
        for a, b in zip(batched, reference):
            np.testing.assert_array_equal(a, b)

    def test_single_token_sentences(self):
        """An L=1 bucket skips every recursion step yet must still agree."""
        dataset = _sequence_dataset(np.random.default_rng(3), count=12, max_len=1)
        model = LinearChainCRF(epochs=2, seed=0).fit(dataset)
        for a, b in zip(
            model.predict_tags(dataset), model._predict_tags_reference(dataset)
        ):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            model.best_path_log_proba(dataset),
            model._best_path_log_proba_reference(dataset),
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


class TestBiLSTMCRFBatched:
    """Viterbi paths must match; scores carry the gemm/gemv tolerance."""

    def test_predict_tags(self, fitted_bilstm, seq_dataset):
        batched = fitted_bilstm.predict_tags(seq_dataset)
        reference = fitted_bilstm._predict_tags_reference(seq_dataset)
        for a, b in zip(batched, reference):
            np.testing.assert_array_equal(a, b)

    def test_best_path_log_proba(self, fitted_bilstm, seq_dataset):
        np.testing.assert_allclose(
            fitted_bilstm.best_path_log_proba(seq_dataset),
            fitted_bilstm._best_path_log_proba_reference(seq_dataset),
            atol=TOL,
            rtol=0,
        )

    def test_token_marginals(self, fitted_bilstm, seq_dataset):
        batched = fitted_bilstm.token_marginals(seq_dataset)
        reference = fitted_bilstm._token_marginals_reference(seq_dataset)
        for a, b in zip(batched, reference):
            np.testing.assert_allclose(a, b, atol=TOL, rtol=0)

    def test_marginal_samples_same_rng_stream(self, fitted_bilstm, seq_dataset):
        batched = fitted_bilstm.token_marginal_samples(
            seq_dataset, 4, np.random.default_rng(11)
        )
        reference = fitted_bilstm._token_marginal_samples_reference(
            seq_dataset, 4, np.random.default_rng(11)
        )
        for a, b in zip(batched, reference):
            np.testing.assert_allclose(a, b, atol=TOL, rtol=0)

    def test_single_token_sentences(self):
        dataset = _sequence_dataset(np.random.default_rng(5), count=10, max_len=1)
        model = BiLSTMCRF(epochs=1, seed=0).fit(dataset)
        for a, b in zip(
            model.predict_tags(dataset), model._predict_tags_reference(dataset)
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
        reference = model._predict_proba_samples_reference(
            text_dataset_multi_chunk, 5, np.random.default_rng(9)
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
