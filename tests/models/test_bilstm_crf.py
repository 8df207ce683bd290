"""Tests for the BiLSTM-CRF, including a full-network gradient check."""

import itertools

import numpy as np
import pytest

from repro.data.datasets import SequenceDataset
from repro.data.vocab import Vocabulary
from repro.exceptions import ConfigurationError, NotFittedError
from repro.ioutil import encode_array
from repro.models.bilstm_crf import BiLSTMCRF
from tests.oracles.models import (
    crf_forward,
    crf_marginals,
    crf_path_score,
    crf_sentence_gradients,
    crf_viterbi,
)


@pytest.fixture(scope="module")
def tiny_model_and_data():
    """A minuscule BiLSTM-CRF fitted briefly (for gradient checks)."""
    rng = np.random.default_rng(0)
    vocab = Vocabulary([f"t{i}" for i in range(10)])
    sentences = [rng.integers(2, 12, size=rng.integers(3, 6)) for _ in range(12)]
    tags = [rng.integers(0, 3, size=len(s)) for s in sentences]
    dataset = SequenceDataset(sentences, tags, vocab, ["O", "B-X", "E-X"])
    model = BiLSTMCRF(
        embedding_dim=4, hidden_dim=3, dropout=0.0, epochs=1, seed=0,
        embedding_matrix=rng.normal(size=(12, 4)) * 0.4,
    ).fit(dataset)
    return model, dataset


class TestCRFCore:
    def test_forward_matches_brute_force(self, tiny_model_and_data):
        model, dataset = tiny_model_and_data
        params = model._params
        sentence = dataset.sentences[0]
        emissions, _ = model._encode(sentence, None)
        _, log_z = crf_forward(emissions, params["A"], params["start"], params["end"])
        brute = -np.inf
        for path in itertools.product(range(3), repeat=len(sentence)):
            brute = np.logaddexp(
                brute,
                crf_path_score(
                    emissions, np.array(path), params["A"],
                    params["start"], params["end"],
                ),
            )
        assert np.isclose(log_z, brute, atol=1e-9)

    def test_viterbi_matches_brute_force(self, tiny_model_and_data):
        model, dataset = tiny_model_and_data
        params = model._params
        sentence = dataset.sentences[1]
        emissions, _ = model._encode(sentence, None)
        path, score = crf_viterbi(
            emissions, params["A"], params["start"], params["end"]
        )
        best = max(
            (
                crf_path_score(
                    emissions, np.array(p), params["A"],
                    params["start"], params["end"],
                ),
                p,
            )
            for p in itertools.product(range(3), repeat=len(sentence))
        )
        assert np.isclose(score, best[0], atol=1e-9)
        assert tuple(path) == best[1]

    def test_marginals_are_distributions(self, tiny_model_and_data):
        model, dataset = tiny_model_and_data
        params = model._params
        emissions, _ = model._encode(dataset.sentences[0], None)
        marginals = crf_marginals(
            emissions, params["A"], params["start"], params["end"]
        )
        assert np.allclose(marginals.sum(axis=1), 1.0)


class TestFullGradient:
    def test_backprop_matches_finite_differences(self, tiny_model_and_data):
        """End-to-end NLL gradient: CRF -> projection -> BiLSTM -> embeddings."""
        model, dataset = tiny_model_and_data
        params = model._params
        sentence = dataset.sentences[0]
        tags = dataset.tag_sequences[0]

        def nll() -> float:
            emissions, _ = model._encode(sentence, None)
            _, log_z = crf_forward(
                emissions, params["A"], params["start"], params["end"]
            )
            return log_z - crf_path_score(
                emissions, tags, params["A"], params["start"], params["end"]
            )

        grads = {name: np.zeros_like(v) for name, v in params.items()}
        emissions, cache = model._encode(sentence, None)
        d_em, d_a, d_start, d_end, _ = crf_sentence_gradients(
            emissions, tags, params["A"], params["start"], params["end"]
        )
        model._backprop(cache, d_em, grads)
        grads["A"] += d_a
        grads["start"] += d_start
        grads["end"] += d_end

        rng = np.random.default_rng(1)
        epsilon = 1e-6
        for name, value in params.items():
            flat = value.reshape(-1)
            flat_grad = grads[name].reshape(-1)
            probe = rng.choice(len(flat), size=min(8, len(flat)), replace=False)
            for k in probe:
                if name == "E" and k < params["E"].shape[1]:
                    continue  # PAD row gradient is zeroed by design
                original = flat[k]
                flat[k] = original + epsilon
                up = nll()
                flat[k] = original - epsilon
                down = nll()
                flat[k] = original
                numeric = (up - down) / (2 * epsilon)
                assert np.isclose(flat_grad[k], numeric, rtol=5e-4, atol=1e-7), (
                    f"{name}[{k}]: analytic {flat_grad[k]} vs numeric {numeric}"
                )


class TestTraining:
    def test_learns_synthetic_ner(self, ner_dataset):
        train = ner_dataset.subset(range(120))
        test = ner_dataset.subset(range(120, 180))
        model = BiLSTMCRF(
            embedding_dim=12, hidden_dim=10, epochs=3, seed=0
        ).fit(train)
        assert model.token_accuracy(test) > 0.8

    def test_deterministic(self, ner_dataset):
        train = ner_dataset.subset(range(40))
        probe = ner_dataset.subset(range(40, 50))
        a = BiLSTMCRF(epochs=1, hidden_dim=6, embedding_dim=8, seed=3).fit(train)
        b = BiLSTMCRF(epochs=1, hidden_dim=6, embedding_dim=8, seed=3).fit(train)
        assert np.allclose(a.best_path_log_proba(probe), b.best_path_log_proba(probe))

    def test_clone_unfitted(self, tiny_model_and_data):
        model, dataset = tiny_model_and_data
        with pytest.raises(NotFittedError):
            model.clone().predict_tags(dataset)

    def test_not_fitted(self, ner_dataset):
        with pytest.raises(NotFittedError):
            BiLSTMCRF().predict_tags(ner_dataset)

    def test_empty_fit_rejected(self, ner_dataset):
        with pytest.raises(ConfigurationError):
            BiLSTMCRF().fit(ner_dataset.subset([]))


class TestProbabilisticInterface:
    def test_log_probas_nonpositive(self, tiny_model_and_data):
        model, dataset = tiny_model_and_data
        assert (model.best_path_log_proba(dataset) <= 1e-9).all()

    def test_mc_samples_vary_and_normalise(self, tiny_model_and_data, rng):
        model, dataset = tiny_model_and_data
        sampler = BiLSTMCRF(
            embedding_dim=4, hidden_dim=3, dropout=0.4, epochs=1, seed=0,
            embedding_matrix=model.embedding_matrix,
        ).fit(dataset)
        draws = sampler.token_marginal_samples(dataset.subset([0]), 4, rng)[0]
        assert draws.shape[0] == 4
        assert np.allclose(draws.sum(axis=2), 1.0)
        assert not np.allclose(draws[0], draws[1])

    def test_zero_draws_rejected(self, tiny_model_and_data, rng):
        model, dataset = tiny_model_and_data
        with pytest.raises(ConfigurationError):
            model.token_marginal_samples(dataset, 0, rng)


class TestValidation:
    def test_bad_dims(self):
        with pytest.raises(ConfigurationError):
            BiLSTMCRF(hidden_dim=0)

    def test_bad_dropout(self):
        with pytest.raises(ConfigurationError):
            BiLSTMCRF(dropout=1.0)

    def test_embedding_mismatch(self, ner_dataset):
        model = BiLSTMCRF(embedding_matrix=np.zeros((3, 4)))
        with pytest.raises(ConfigurationError):
            model.fit(ner_dataset.subset(range(10)))


class TestSetParams:
    @pytest.mark.parametrize("name, shape, message", [
        ("A", (3, 4), r"arrays.A must have shape \(3, 3\)"),
        ("start", (4,), r"arrays.start must have shape \(3,\)"),
        ("end", (), r"arrays.end must have shape \(3,\) .*got \(\)"),
    ])
    def test_misshaped_transitions_are_a_configuration_error(
        self, tiny_model_and_data, name, shape, message
    ):
        model, dataset = tiny_model_and_data
        state = model.get_params()
        state["arrays"][name] = encode_array(np.zeros(shape))
        restored = model.clone()
        with pytest.raises(ConfigurationError, match=message):
            restored.set_params(state)
        with pytest.raises(NotFittedError):
            restored.predict_tags(dataset)
