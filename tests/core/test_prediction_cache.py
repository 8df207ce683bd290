"""PredictionCache behaviour and its wiring through the session engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prediction_cache import PredictionCache
from repro.core.session import SessionEngine, run_to_completion
from repro.core.strategies.mnlp import MNLP
from repro.data.ner import NERCorpusSpec, make_ner_corpus
from repro.eval.metrics import evaluate_model
from repro.models import LinearSoftmax
from repro.models.crf import LinearChainCRF

from .helpers import make_context


@pytest.fixture(scope="module")
def small_ner():
    spec = NERCorpusSpec(
        name="cache-ner", size=120, background_vocab=120, gazetteer_size=15,
        mean_length=8.0, length_spread=2.0,
    )
    return make_ner_corpus(spec, seed_or_rng=7)


@pytest.fixture(scope="module")
def fitted_crf(small_ner):
    return LinearChainCRF(epochs=2, seed=0).fit(small_ner)


class TestCache:
    def test_classifier_proba_memoised(self, fitted_classifier, text_dataset):
        cache = PredictionCache()
        first = cache.predict_proba(fitted_classifier, text_dataset)
        second = cache.predict_proba(fitted_classifier, text_dataset)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_predict_derived_from_proba(self, fitted_classifier, text_dataset):
        cache = PredictionCache()
        predicted = cache.predict(fitted_classifier, text_dataset)
        np.testing.assert_array_equal(
            predicted, cache.predict_proba(fitted_classifier, text_dataset).argmax(axis=1)
        )

    def test_emissions_shared_across_sequence_passes(self, fitted_crf, small_ner):
        cache = PredictionCache()
        cache.predict_tags(fitted_crf, small_ner)
        cache.best_path_log_proba(fitted_crf, small_ner)
        cache.token_marginals(fitted_crf, small_ner)
        emission_entries = [k for k in cache._store if k[0] == "emissions"]
        assert len(emission_entries) == 1

    def test_cached_sequence_passes_match_uncached(self, fitted_crf, small_ner):
        cache = PredictionCache()
        for cached, direct in zip(
            cache.predict_tags(fitted_crf, small_ner),
            fitted_crf.predict_tags(small_ner),
        ):
            np.testing.assert_array_equal(cached, direct)
        np.testing.assert_array_equal(
            cache.best_path_log_proba(fitted_crf, small_ner),
            fitted_crf.best_path_log_proba(small_ner),
        )

    def test_tags_and_logp_share_one_decode(self, fitted_crf, small_ner, monkeypatch):
        """predict_tags runs the Viterbi pass only; best_path_log_proba
        scores those paths with one forward pass (decode).  In either
        order each pass runs once, and later asks are hits."""
        passes = []
        for method in ("emissions", "predict_tags", "decode"):
            run = getattr(fitted_crf, method)
            monkeypatch.setattr(fitted_crf, method, lambda *args, _run=run, _name=method,
                                **kwargs: passes.append(_name) or _run(*args, **kwargs))
        for first in ("predict_tags", "best_path_log_proba"):
            passes.clear()
            cache = PredictionCache()
            getattr(cache, first)(fitted_crf, small_ner)
            assert passes == ["emissions", "predict_tags"] + (
                ["decode"] if first == "best_path_log_proba" else []
            )
            tags = cache.predict_tags(fitted_crf, small_ner)
            log_probas = cache.best_path_log_proba(fitted_crf, small_ner)
            assert sorted(passes) == ["decode", "emissions", "predict_tags"]
            assert sorted(k[0] for k in cache._store) == ["decode", "emissions"]
            misses_before = cache.misses
            assert cache.predict_tags(fitted_crf, small_ner) is tags
            assert cache.best_path_log_proba(fitted_crf, small_ner) is log_probas
            assert cache.misses == misses_before and len(passes) == 3

    def test_clear_empties_store(self, fitted_classifier, text_dataset):
        cache = PredictionCache()
        cache.predict_proba(fitted_classifier, text_dataset)
        assert len(cache)
        cache.clear()
        assert len(cache) == 0

    def test_advance_round_evicts_aged_entries(self, fitted_classifier, text_dataset):
        cache = PredictionCache()  # keep_rounds=1
        cache.advance_round(1)
        cache.predict_proba(fitted_classifier, text_dataset)
        assert len(cache) == 1
        # Same round again (a restore, say): entries survive.
        assert cache.advance_round(1) == 0
        assert len(cache) == 1
        # Next round: the round-1 entry aged out.
        assert cache.advance_round(2) == 1
        assert len(cache) == 0

    def test_keep_rounds_window_retains_entries(self, fitted_classifier, text_dataset):
        cache = PredictionCache(keep_rounds=2)
        cache.advance_round(1)
        first = cache.predict_proba(fitted_classifier, text_dataset)
        cache.advance_round(2)
        assert len(cache) == 1
        # Still a hit: the model objects (and ids) are pinned alive.
        assert cache.predict_proba(fitted_classifier, text_dataset) is first
        assert cache.advance_round(3) == 1
        assert len(cache) == 0

    def test_keep_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            PredictionCache(keep_rounds=0)

    def test_distinct_models_do_not_collide(self, text_dataset):
        cache = PredictionCache()
        first = LinearSoftmax(epochs=3, seed=0).fit(text_dataset.subset(range(80)))
        second = LinearSoftmax(epochs=3, seed=1).fit(text_dataset.subset(range(80)))
        proba_first = cache.predict_proba(first, text_dataset)
        proba_second = cache.predict_proba(second, text_dataset)
        assert cache.misses == 2
        assert not np.array_equal(proba_first, proba_second)

    def test_inplace_refit_invalidates_entries(self, text_dataset):
        """A refit (same object identity) must not serve stale predictions.

        Warm-started and ``set_params``-restored models mutate their
        parameters without changing ``id(model)``; the fit-generation
        counter in the cache key makes the old entry unreachable.
        """
        model = LinearSoftmax(epochs=3, seed=0).fit(text_dataset.subset(range(80)))
        cache = PredictionCache()
        stale = cache.predict_proba(model, text_dataset).copy()
        model.fit(text_dataset.subset(range(160)), init_from=model)
        fresh = cache.predict_proba(model, text_dataset)
        assert cache.misses == 2  # the refit forced a recompute
        assert not np.array_equal(stale, fresh)
        np.testing.assert_array_equal(fresh, model.predict_proba(text_dataset))

    def test_set_params_restore_invalidates_entries(self, text_dataset):
        model = LinearSoftmax(epochs=3, seed=0).fit(text_dataset.subset(range(80)))
        other = LinearSoftmax(epochs=3, seed=1).fit(text_dataset.subset(range(80)))
        cache = PredictionCache()
        cache.predict_proba(model, text_dataset)
        model.set_params(other.get_params())
        restored = cache.predict_proba(model, text_dataset)
        assert cache.misses == 2
        np.testing.assert_array_equal(
            restored, other.predict_proba(text_dataset)
        )


class TestMetricCaching:
    def test_evaluate_model_cached_equals_uncached(self, fitted_classifier, text_dataset):
        cache = PredictionCache()
        assert evaluate_model(
            fitted_classifier, text_dataset, cache=cache
        ) == evaluate_model(fitted_classifier, text_dataset)

    def test_sequence_metric_cached_equals_uncached(self, fitted_crf, small_ner):
        cache = PredictionCache()
        assert evaluate_model(fitted_crf, small_ner, cache=cache) == evaluate_model(
            fitted_crf, small_ner
        )


class TestContextDelegation:
    def test_context_uses_shared_cache(self, fitted_classifier, text_dataset):
        cache = PredictionCache()
        context = make_context(text_dataset)
        context.cache = cache
        context.probabilities(fitted_classifier)
        assert cache.misses == 1
        context.probabilities(fitted_classifier)
        assert cache.hits == 1

    def test_memoize_scores_runs_compute_once(self, text_dataset):
        context = make_context(text_dataset)
        calls = []

        def compute():
            calls.append(1)
            return np.zeros(len(context.unlabeled))

        context.memoize_scores(("k",), compute)
        context.memoize_scores(("k",), compute)
        assert len(calls) == 1


class TestLoopWiring:
    def test_sequence_loop_deterministic(self, small_ner):
        def run():
            return run_to_completion(SessionEngine(
                model_prototype=LinearChainCRF(epochs=1, seed=0),
                strategy=MNLP(),
                train_dataset=small_ner.subset(range(90)),
                test_dataset=small_ner.subset(range(90, 120)),
                batch_size=10,
                rounds=2,
                seed_or_rng=3,
            ))

        first, second = run(), run()
        assert [r.metric for r in first.records] == [r.metric for r in second.records]
        for a, b in zip(first.selection_order, second.selection_order):
            np.testing.assert_array_equal(a, b)
