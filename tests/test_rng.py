"""Tests for deterministic RNG helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.rng import DEFAULT_SEED, choice_cdf, choose, ensure_rng, spawn


class TestEnsureRng:
    def test_none_uses_default_seed(self):
        a = ensure_rng(None)
        b = ensure_rng(DEFAULT_SEED)
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_int_seed_is_deterministic(self):
        assert ensure_rng(5).random() == ensure_rng(5).random()

    def test_different_seeds_differ(self):
        assert ensure_rng(1).random() != ensure_rng(2).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_numpy_integer_seed_accepted(self):
        seed = np.int64(17)
        assert ensure_rng(seed).random() == ensure_rng(17).random()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            ensure_rng(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigurationError):
            ensure_rng("seed")  # type: ignore[arg-type]


class TestSpawn:
    def test_spawn_count(self):
        children = spawn(ensure_rng(0), 4)
        assert len(children) == 4

    def test_children_are_independent(self):
        children = spawn(ensure_rng(0), 3)
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3

    def test_spawn_deterministic(self):
        a = [c.random() for c in spawn(ensure_rng(9), 3)]
        b = [c.random() for c in spawn(ensure_rng(9), 3)]
        assert a == b

    def test_spawn_zero(self):
        assert spawn(ensure_rng(0), 0) == []

    def test_spawn_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            spawn(ensure_rng(0), -1)


class TestChoose:
    """``choose`` is ``Generator.choice`` with the CDF computed once."""

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30).filter(
            lambda w: sum(w) > 0
        ),
        size=st.one_of(
            st.none(), st.integers(0, 40), st.tuples(st.integers(0, 4), st.integers(0, 4))
        ),
        uniform=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_generator_choice(self, weights, size, uniform, seed):
        items = np.arange(100, 100 + len(weights), dtype=np.int64)
        p = np.asarray(weights) / np.sum(weights)
        ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # consecutive draws stay in step
            if uniform:
                got = choose(ours, items, size=size)
                want = numpy_rng.choice(items, size=size)
            else:
                got = choose(ours, items, size=size, cdf=choice_cdf(p))
                want = numpy_rng.choice(items, size=size, p=p)
            assert type(got) is type(want)
            assert got.dtype == want.dtype and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
            assert ours.bit_generator.state == numpy_rng.bit_generator.state
