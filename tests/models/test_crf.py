"""Tests for the linear-chain CRF: brute-force checks and behaviour."""

import itertools

import numpy as np
import pytest

from repro.data.datasets import SequenceDataset
from repro.data.vocab import Vocabulary
from repro.exceptions import ConfigurationError, NotFittedError
from repro.ioutil import encode_array
from repro.models.crf import LinearChainCRF
from tests.models.test_batched_equivalence import accumulate_sentence_grads
from tests.oracles.models import (
    crf_forward,
    crf_path_score,
    crf_viterbi,
    linear_crf_sentence_emissions,
)


@pytest.fixture(scope="module")
def tiny_crf():
    """A CRF with random (non-zero) parameters over 3 tags, 8 tokens."""
    vocab = Vocabulary([f"t{i}" for i in range(8)])
    dataset = SequenceDataset(
        [[2, 3, 4], [5, 6]], [[0, 1, 2], [0, 0]], vocab, ["O", "B-X", "E-X"]
    )
    model = LinearChainCRF(epochs=1, seed=0).fit(dataset)
    rng = np.random.default_rng(0)
    for value in model._params.values():
        value += rng.normal(scale=0.5, size=value.shape)
    return model, dataset


def brute_force_log_z(model, sentence):
    emissions = linear_crf_sentence_emissions(model, sentence)
    params = model._params
    num_tags = emissions.shape[1]
    total = -np.inf
    for path in itertools.product(range(num_tags), repeat=len(sentence)):
        score = crf_path_score(emissions, np.array(path), *model._transitions())
        total = np.logaddexp(total, score)
    return total


class TestInference:
    def test_partition_matches_brute_force(self, tiny_crf):
        model, dataset = tiny_crf
        for sentence in dataset.sentences:
            emissions = linear_crf_sentence_emissions(model, sentence)
            _, log_z = crf_forward(emissions, *model._transitions())
            assert np.isclose(log_z, brute_force_log_z(model, sentence), atol=1e-9)

    def test_viterbi_matches_brute_force(self, tiny_crf):
        model, dataset = tiny_crf
        for sentence in dataset.sentences:
            emissions = linear_crf_sentence_emissions(model, sentence)
            path, score = crf_viterbi(emissions, *model._transitions())
            best = max(
                (crf_path_score(emissions, np.array(p), *model._transitions()), p)
                for p in itertools.product(range(3), repeat=len(sentence))
            )
            assert np.isclose(score, best[0], atol=1e-9)
            assert tuple(path) == best[1]

    def test_marginals_match_brute_force(self, tiny_crf):
        model, dataset = tiny_crf
        sentence = dataset.sentences[0]
        emissions = linear_crf_sentence_emissions(model, sentence)
        _, log_z = crf_forward(emissions, *model._transitions())
        marginals = model.token_marginals(dataset.subset([0]))[0]
        brute = np.zeros_like(marginals)
        for path in itertools.product(range(3), repeat=len(sentence)):
            score = crf_path_score(emissions, np.array(path), *model._transitions())
            weight = np.exp(score - log_z)
            for position, tag in enumerate(path):
                brute[position, tag] += weight
        assert np.allclose(marginals, brute, atol=1e-9)

    def test_marginals_are_distributions(self, tiny_crf):
        model, dataset = tiny_crf
        for marginals in model.token_marginals(dataset):
            assert np.allclose(marginals.sum(axis=1), 1.0)
            assert (marginals >= 0).all()

    def test_best_path_log_proba_upper_bound(self, tiny_crf):
        model, dataset = tiny_crf
        log_probas = model.best_path_log_proba(dataset)
        assert (log_probas <= 1e-12).all()


def assert_matches_finite_differences(model, grads, nll):
    """Probe up to 10 entries of every table against central differences."""
    rng = np.random.default_rng(2)
    epsilon = 1e-6
    for name, value in model._params.items():
        flat = value.reshape(-1)
        flat_grad = grads[name].reshape(-1)
        probe = rng.choice(len(flat), size=min(10, len(flat)), replace=False)
        for k in probe:
            original = flat[k]
            flat[k] = original + epsilon
            up = nll()
            flat[k] = original - epsilon
            down = nll()
            flat[k] = original
            numeric = (up - down) / (2 * epsilon)
            assert np.isclose(flat_grad[k], numeric, rtol=1e-4, atol=1e-8), (
                f"{name}[{k}]"
            )


def sentence_nll(model, sentence, tags) -> float:
    emissions = linear_crf_sentence_emissions(model, sentence)
    _, log_z = crf_forward(emissions, *model._transitions())
    return log_z - crf_path_score(emissions, tags, *model._transitions())


class TestGradient:
    def test_nll_gradient_matches_finite_differences(self, tiny_crf):
        model, dataset = tiny_crf
        sentence, tags = dataset.sentences[0], dataset.tag_sequences[0]
        grads = {name: np.zeros_like(v) for name, v in model._params.items()}
        accumulate_sentence_grads(model, sentence, tags, grads, scale=1.0)
        assert_matches_finite_differences(
            model, grads, lambda: sentence_nll(model, sentence, tags)
        )

    def test_minibatch_gradient_matches_finite_differences(self, tiny_crf):
        """The production gradient of a padded minibatch (lengths 3 and 2)
        is the mean NLL's, once its L2 term is taken off."""
        model, dataset = tiny_crf
        batch = np.array([1, 0])
        grads = model._gradients(model._training_data(dataset), batch, rng=None)
        for name, value in model._params.items():
            grads[name] -= model.l2 * value

        def mean_nll() -> float:
            return np.mean([
                sentence_nll(model, dataset.sentences[i], dataset.tag_sequences[i])
                for i in batch
            ])

        assert_matches_finite_differences(model, grads, mean_nll)


class TestTraining:
    def test_learns_synthetic_ner(self, ner_dataset):
        train = ner_dataset.subset(range(150))
        test = ner_dataset.subset(range(150, 250))
        model = LinearChainCRF(epochs=4, seed=0).fit(train)
        assert model.token_accuracy(test) > 0.80

    def test_deterministic(self, ner_dataset):
        train = ner_dataset.subset(range(60))
        a = LinearChainCRF(epochs=2, seed=1).fit(train)
        b = LinearChainCRF(epochs=2, seed=1).fit(train)
        assert np.allclose(a._params["U_curr"], b._params["U_curr"])

    def test_empty_fit_rejected(self, ner_dataset):
        with pytest.raises(ConfigurationError):
            LinearChainCRF().fit(ner_dataset.subset([]))

    def test_not_fitted(self, ner_dataset):
        with pytest.raises(NotFittedError):
            LinearChainCRF().predict_tags(ner_dataset)

    def test_clone_unfitted(self, tiny_crf):
        model, dataset = tiny_crf
        with pytest.raises(NotFittedError):
            model.clone().predict_tags(dataset)


class TestLengthBias:
    def test_longer_sentences_less_confident(self, ner_dataset):
        """The LC length bias that motivates MNLP (Eq. 13)."""
        model = LinearChainCRF(epochs=3, seed=0).fit(ner_dataset.subset(range(150)))
        test = ner_dataset.subset(range(150, 250))
        log_probas = model.best_path_log_proba(test)
        lengths = test.lengths()
        short = lengths <= np.quantile(lengths, 0.3)
        long_ = lengths >= np.quantile(lengths, 0.7)
        assert log_probas[short].mean() > log_probas[long_].mean()


class TestStochasticMarginals:
    def test_shapes(self, tiny_crf, rng):
        model, dataset = tiny_crf
        draws = model.token_marginal_samples(dataset, 4, rng)
        assert len(draws) == len(dataset)
        assert draws[0].shape == (4, 3, 3)

    def test_draws_vary(self, tiny_crf, rng):
        model, dataset = tiny_crf
        draws = model.token_marginal_samples(dataset, 6, rng)[0]
        assert not np.allclose(draws[0], draws[1])

    def test_each_draw_normalised(self, tiny_crf, rng):
        model, dataset = tiny_crf
        draws = model.token_marginal_samples(dataset, 3, rng)[0]
        assert np.allclose(draws.sum(axis=2), 1.0)

    def test_zero_draws_rejected(self, tiny_crf, rng):
        model, dataset = tiny_crf
        with pytest.raises(ConfigurationError):
            model.token_marginal_samples(dataset, 0, rng)


class TestValidation:
    def test_bad_epochs(self):
        with pytest.raises(ConfigurationError):
            LinearChainCRF(epochs=0)

    def test_bad_dropout(self):
        with pytest.raises(ConfigurationError):
            LinearChainCRF(feature_dropout=1.0)


def reshaped(name: str, shape: tuple):
    """A change to a stored state: array ``name`` replaced by zeros."""
    return lambda arrays, meta: arrays.update({name: encode_array(np.zeros(shape))})


class TestSetParams:
    """A stored state must fit ``meta.num_tags`` (3 here) and one
    vocabulary (10 words) before it is installed."""

    @pytest.mark.parametrize("change, message", [
        (reshaped("A", (3, 4)), r"arrays.A must have shape \(3, 3\)"),
        (reshaped("start", (5,)), r"arrays.start must have shape \(3,\)"),
        (reshaped("end", (3, 1)), r"arrays.end must have shape \(3,\)"),
        (lambda arrays, meta: meta.update(num_tags=4),
         r"arrays.A must have shape \(4, 4\) for meta.num_tags \(4\)"),
        (reshaped("U_curr", (10, 4)), r"arrays.U_curr must be a matrix with meta.num_tags"),
        (reshaped("U_curr", (10,)), r"arrays.U_curr must be a matrix"),
        (reshaped("U_prev", (9, 3)), r"arrays.U_prev .* rows of arrays.U_curr, got shape \(9, 3\)"),
        (reshaped("U_next", (10, 3, 1)), r"arrays.U_next must be a matrix"),
        (reshaped("b", (4,)), r"arrays.b must have shape \(3,\), got \(4,\)"),
    ])
    def test_a_misshaped_state_is_a_configuration_error(self, tiny_crf, change, message):
        model, dataset = tiny_crf
        state = model.get_params()
        change(state["arrays"], state["meta"])
        restored = model.clone()
        with pytest.raises(ConfigurationError, match=message):
            restored.set_params(state)
        with pytest.raises(NotFittedError):
            restored.predict_tags(dataset)

    def test_tables_narrower_than_the_vocabulary_are_a_mismatch(self, tiny_crf, rng):
        model, dataset = tiny_crf
        state = model.get_params()
        for name in ("U_curr", "U_prev", "U_next"):
            reshaped(name, (7, 3))(state["arrays"], state["meta"])
        restored = model.clone().set_params(state)
        for score in (
            restored.emissions,
            restored.predict_tags,
            lambda data: restored.token_marginal_samples(data, 2, rng),
        ):
            with pytest.raises(ConfigurationError, match="vocabulary mismatch: model has 7"):
                score(dataset)

    def test_a_wider_vocabulary_is_a_mismatch(self, tiny_crf):
        model, dataset = tiny_crf
        wider = SequenceDataset(
            dataset.sentences, dataset.tag_sequences,
            Vocabulary([f"t{i}" for i in range(12)]), dataset.tag_names,
        )
        with pytest.raises(ConfigurationError, match="dataset has 14 words"):
            model.best_path_log_proba(wider)
