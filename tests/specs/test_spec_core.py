"""Tests for the Spec value type and the per-layer registries."""

import pytest

from repro.core.strategies import Entropy, Random
from repro.exceptions import SpecError
from repro.specs import SPEC_VERSION, Spec, SpecRegistry, as_spec, is_spec_like


class TestSpec:
    def test_kind_is_lowered(self):
        assert Spec(kind="WSHS").kind == "wshs"

    def test_to_dict_from_dict_roundtrip(self):
        spec = Spec(kind="entropy", params={"window": 5})
        assert Spec.from_dict(spec.to_dict()) == spec

    def test_dict_carries_version(self):
        assert Spec(kind="random").to_dict()["version"] == SPEC_VERSION

    def test_tuples_become_lists(self):
        spec = Spec(kind="textcnn", params={"widths": (3, 4, 5)})
        assert spec.params["widths"] == [3, 4, 5]

    def test_non_json_params_rejected(self):
        with pytest.raises(SpecError):
            Spec(kind="x", params={"fn": len})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            Spec.from_dict({"kind": "random", "params": {}, "extra": 1})

    def test_version_mismatch_rejected(self):
        with pytest.raises(SpecError, match="version"):
            Spec.from_dict({"kind": "random", "params": {}, "version": 99})

    def test_as_spec_accepts_strings_and_dicts(self):
        assert as_spec("entropy") == Spec(kind="entropy")
        assert as_spec({"kind": "entropy"}) == Spec(kind="entropy")
        spec = Spec(kind="entropy", params={"a": 1})
        assert as_spec(spec) == spec

    def test_is_spec_like(self):
        assert is_spec_like(Spec(kind="x"))
        assert is_spec_like({"kind": "x"})
        assert not is_spec_like({"params": {}})
        assert not is_spec_like(lambda: None)


class TestSpecRegistry:
    def _registry(self):
        registry = SpecRegistry("demo")
        registry.register(
            "random",
            lambda params: Random(**params),
            cls=Random,
            params_of=lambda strategy: {},
        )
        return registry

    def test_unknown_kind_lists_known(self):
        registry = self._registry()
        with pytest.raises(SpecError, match="unknown demo kind 'nope'.*random"):
            registry.build({"kind": "nope"})

    def test_bad_params_raise_spec_error(self):
        registry = self._registry()
        with pytest.raises(SpecError, match="bad params"):
            registry.build({"kind": "random", "params": {"bogus": 1}})

    def test_spec_of_unregistered_class(self):
        registry = self._registry()
        with pytest.raises(SpecError, match="can serialise"):
            registry.spec_of(Entropy())

    def test_can_describe(self):
        registry = self._registry()
        assert registry.can_describe(Random())
        assert not registry.can_describe(Entropy())

    def test_reregister_same_builder_is_noop(self):
        registry = SpecRegistry("demo")

        def build(params):
            return Random(**params)

        registry.register("random", build, cls=Random, params_of=lambda s: {})
        registry.register("random", build, cls=Random, params_of=lambda s: {})
        assert registry.kinds() == ["random"]

    def test_reregister_reloaded_equivalent_is_noop(self):
        # A module reload recreates function objects; same module+qualname
        # must still count as the same recipe.
        registry = SpecRegistry("demo")

        def make():
            def build(params):
                return Random(**params)

            def params_of(strategy):
                return {}

            return build, params_of

        build_a, params_a = make()
        build_b, params_b = make()
        assert build_a is not build_b
        registry.register("random", build_a, cls=Random, params_of=params_a)
        registry.register("random", build_b, cls=Random, params_of=params_b)

    def test_conflicting_registration_raises(self):
        registry = self._registry()
        with pytest.raises(SpecError, match="already registered"):
            registry.register(
                "random",
                lambda params: Entropy(),
                cls=Entropy,
                params_of=lambda strategy: {},
            )
