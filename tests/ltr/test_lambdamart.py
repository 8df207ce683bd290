"""Tests for the LambdaMART ranker."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError
from repro.ltr.lambdamart import LambdaMART, RankingDataset, _lambda_gradients
from repro.ltr.ndcg import ndcg_at_k


def synthetic_ranking_data(n_queries=25, per_query=10, seed=0, noise=0.2):
    rng = np.random.default_rng(seed)
    features, relevance, query_ids = [], [], []
    for query in range(n_queries):
        f = rng.normal(size=(per_query, 5))
        latent = f[:, 0] + 0.5 * f[:, 1] + noise * rng.normal(size=per_query)
        grades = np.digitize(latent, np.quantile(latent, [0.5, 0.8]))
        features.append(f)
        relevance.append(grades)
        query_ids.append(np.full(per_query, query))
    return RankingDataset(
        np.vstack(features), np.concatenate(relevance), np.concatenate(query_ids)
    )


class TestRankingDataset:
    def test_groups_partition_rows(self):
        data = synthetic_ranking_data(n_queries=4, per_query=6)
        rows = np.concatenate(data.groups())
        assert sorted(rows.tolist()) == list(range(24))

    def test_group_order_is_first_appearance(self):
        data = RankingDataset(np.zeros((4, 1)), np.zeros(4), np.array([7, 3, 7, 3]))
        groups = data.groups()
        assert groups[0].tolist() == [0, 2]
        assert groups[1].tolist() == [1, 3]

    def test_misaligned_rejected(self):
        with pytest.raises(ConfigurationError):
            RankingDataset(np.zeros((3, 2)), np.zeros(2), np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            RankingDataset(np.zeros((0, 2)), np.zeros(0), np.zeros(0))

    def test_1d_features_rejected(self):
        with pytest.raises(ConfigurationError):
            RankingDataset(np.zeros(3), np.zeros(3), np.zeros(3))


class TestLambdaGradients:
    def test_zero_for_uniform_relevance(self):
        lambdas, hessians = _lambda_gradients(
            np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0]), sigma=1.0, k=None
        )
        assert (lambdas == 0).all() and (hessians == 0).all()

    def test_relevant_doc_pushed_up(self):
        # Doc 0 is relevant but scored below doc 1.
        lambdas, _ = _lambda_gradients(
            np.array([0.0, 1.0]), np.array([2.0, 0.0]), sigma=1.0, k=None
        )
        assert lambdas[0] > 0 and lambdas[1] < 0

    def test_lambdas_sum_to_zero(self):
        rng = np.random.default_rng(0)
        lambdas, _ = _lambda_gradients(
            rng.normal(size=8), rng.integers(0, 3, 8).astype(float), sigma=1.0, k=None
        )
        assert np.isclose(lambdas.sum(), 0.0)

    def test_hessians_nonnegative(self):
        rng = np.random.default_rng(1)
        _, hessians = _lambda_gradients(
            rng.normal(size=8), rng.integers(0, 3, 8).astype(float), sigma=1.0, k=None
        )
        assert (hessians >= 0).all()

    def test_single_doc_query(self):
        lambdas, hessians = _lambda_gradients(
            np.array([1.0]), np.array([2.0]), sigma=1.0, k=None
        )
        assert lambdas.tolist() == [0.0]


class TestTraining:
    def test_beats_random_ranking(self):
        data = synthetic_ranking_data()
        model = LambdaMART(n_estimators=40).fit(data)
        trained = model.mean_ndcg(data)
        rng = np.random.default_rng(7)
        random_ndcg = np.mean([
            ndcg_at_k(data.relevance[rows], rng.random(len(rows)))
            for rows in data.groups()
        ])
        assert trained > random_ndcg + 0.15

    def test_generalises_to_new_queries(self):
        train = synthetic_ranking_data(seed=0)
        test = synthetic_ranking_data(seed=99)
        model = LambdaMART(n_estimators=40).fit(train)
        scores = model.predict(test.features)
        test_ndcg = np.mean([
            ndcg_at_k(test.relevance[rows], scores[rows]) for rows in test.groups()
        ])
        assert test_ndcg > 0.8

    def test_more_rounds_help_training_ndcg(self):
        data = synthetic_ranking_data(seed=2)
        small = LambdaMART(n_estimators=3).fit(data).mean_ndcg(data)
        big = LambdaMART(n_estimators=60).fit(data).mean_ndcg(data)
        assert big >= small

    def test_ndcg_k_truncation_accepted(self):
        data = synthetic_ranking_data(n_queries=5)
        model = LambdaMART(n_estimators=5, ndcg_k=3).fit(data)
        assert 0 <= model.mean_ndcg(data) <= 1


class TestValidation:
    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LambdaMART().predict(np.zeros((2, 2)))

    def test_bad_estimators(self):
        with pytest.raises(ConfigurationError):
            LambdaMART(n_estimators=0)

    def test_bad_sigma(self):
        with pytest.raises(ConfigurationError):
            LambdaMART(sigma=0)


class TestLambdaGradientEquivalence:
    """The broadcast lambdas must match the double-loop oracle."""

    def _compare(self, scores, relevance, sigma=1.0, k=None):
        from repro.ltr.lambdamart import _lambda_gradients_reference

        lambdas, hessians = _lambda_gradients(scores, relevance, sigma, k)
        ref_lambdas, ref_hessians = _lambda_gradients_reference(
            scores, relevance, sigma, k
        )
        np.testing.assert_allclose(lambdas, ref_lambdas, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(hessians, ref_hessians, rtol=1e-12, atol=1e-14)

    def test_random_queries(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            self._compare(rng.normal(size=n), rng.integers(0, 4, size=n).astype(float))

    def test_with_ndcg_truncation(self):
        rng = np.random.default_rng(1)
        for k in (1, 3, 5):
            n = 20
            self._compare(
                rng.normal(size=n), rng.integers(0, 3, size=n).astype(float), k=k
            )

    def test_with_sigma_variants(self):
        rng = np.random.default_rng(2)
        for sigma in (0.5, 1.0, 2.0):
            self._compare(
                rng.normal(size=15),
                rng.integers(0, 4, size=15).astype(float),
                sigma=sigma,
            )

    def test_degenerate_queries(self):
        # Single doc, all-equal relevance, all-zero relevance: no pairs.
        self._compare(np.array([0.3]), np.array([1.0]))
        self._compare(np.zeros(5), np.full(5, 2.0))
        self._compare(np.zeros(5), np.zeros(5))

    def test_fit_unchanged_by_vectorization(self):
        # End-to-end: a fitted model ranks a holdout identically whether
        # gradients come from the broadcast or the loop implementation.
        import repro.ltr.lambdamart as lm

        data = synthetic_ranking_data(n_queries=6, per_query=8, seed=3)
        fast = LambdaMART(n_estimators=5, ndcg_k=5).fit(data)
        original = lm._lambda_gradients
        lm._lambda_gradients = lm._lambda_gradients_reference
        try:
            slow = LambdaMART(n_estimators=5, ndcg_k=5).fit(data)
        finally:
            lm._lambda_gradients = original
        probe = np.random.default_rng(4).normal(size=(30, data.features.shape[1]))
        np.testing.assert_allclose(
            fast.predict(probe), slow.predict(probe), rtol=1e-9, atol=1e-12
        )
