"""Scenario specs: perturbation recipes as pure JSON.

A *scenario* names an ordered list of transform specs plus the seed of
the perturbation RNG family::

    {
        "name": "noise10",
        "seed": 0,
        "transforms": [
            {"kind": "label_noise", "params": {"rate": 0.1}, "version": 1}
        ]
    }

Scenarios ride inside an experiment document's optional ``scenario``
section (:mod:`repro.specs.experiment`), so every consumer that rebuilds
datasets from a spec — the serial runner, local and remote
``repro worker`` queue processes, the session service — applies the identical
perturbation with zero protocol changes.

RNG discipline (see :mod:`repro.data.transforms`): transform ``i`` draws
from ``np.random.default_rng([seed, i])``, a stream family independent
of the experiment's run RNG.  The position-indexed streams are why a
scenario's *fingerprint* keeps identity transforms in place: dropping
them would alias two scenarios whose later transforms draw from
different streams.  A scenario whose transforms are all identity (or
absent) fingerprints as ``None`` — such a scenario is byte-identical to
no scenario at all, which is the degenerate-sweep contract.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..data.transforms import (
    AnnotationCost,
    ClassImbalance,
    IdentityTransform,
    LabelNoise,
    LexiconShift,
    ScenarioTransform,
)
from ..exceptions import SpecError
from .core import Spec, SpecRegistry, as_spec

TRANSFORM_REGISTRY = SpecRegistry("transform")


def _transform_builder(cls):
    def build(params: dict) -> ScenarioTransform:
        return cls(**params)

    return build


def _transform_params(transform: ScenarioTransform) -> dict:
    return transform.params()


for _cls in (IdentityTransform, LabelNoise, ClassImbalance, LexiconShift, AnnotationCost):
    TRANSFORM_REGISTRY.register(
        _cls.kind, _transform_builder(_cls), cls=_cls, params_of=_transform_params
    )


def build_transform(spec) -> ScenarioTransform:
    """Build one transform from its spec."""
    return TRANSFORM_REGISTRY.build(spec)


def transform_kinds() -> list[str]:
    """Sorted registered transform kinds."""
    return TRANSFORM_REGISTRY.kinds()


class ScenarioSpec:
    """One named perturbation scenario: seed + ordered transform specs."""

    def __init__(self, name: str = "", seed: int = 0, transforms=()) -> None:
        self.name = str(name)
        self.seed = int(seed)
        self.transforms: tuple[Spec, ...] = tuple(as_spec(t) for t in transforms)

    # -- serialisation ------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize the scenario to its document form."""
        return {
            "name": self.name,
            "seed": self.seed,
            "transforms": [spec.to_dict() for spec in self.transforms],
        }

    @classmethod
    def from_dict(cls, payload) -> "ScenarioSpec":
        if isinstance(payload, ScenarioSpec):
            payload = payload.to_dict()
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"a scenario must be a dict, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"name", "seed", "transforms"}
        if unknown:
            raise SpecError(f"unknown scenario keys: {sorted(unknown)}")
        transforms = payload.get("transforms", [])
        if not isinstance(transforms, (list, tuple)):
            raise SpecError("scenario transforms must be a list of transform specs")
        return cls(
            name=payload.get("name", ""),
            seed=payload.get("seed", 0),
            transforms=transforms,
        )

    def validate(self) -> None:
        """Build every transform once, surfacing bad kinds/params early."""
        for spec in self.transforms:
            build_transform(spec)

    # -- semantics ----------------------------------------------------

    def is_identity(self) -> bool:
        """Whether this scenario provably leaves the experiment unchanged."""
        return all(spec.kind == IdentityTransform.kind for spec in self.transforms)

    def fingerprint(self) -> "dict | None":
        """Checkpoint-fingerprint contribution, or ``None`` for identity.

        Identity scenarios fingerprint as ``None`` so their checkpoints
        stay byte-identical to scenario-free runs; any effective
        transform list fingerprints whole (identity entries included,
        because RNG streams are position-indexed).
        """
        if self.is_identity():
            return None
        return {
            "seed": self.seed,
            "transforms": [spec.to_dict() for spec in self.transforms],
        }

    def built_transforms(self) -> "list[ScenarioTransform]":
        """Build all transform instances, in position order."""
        return [build_transform(spec) for spec in self.transforms]

    def apply(self, train, test):
        """Apply every transform in order; returns perturbed (train, test).

        Transform ``i`` draws from ``default_rng([seed, i])`` — every
        cell, worker, and resume sees the identical perturbed data.
        """
        for position, transform in enumerate(self.built_transforms()):
            rng = np.random.default_rng([self.seed, position])
            train, test = transform.apply(train, test, rng)
        return train, test

    def costs(self, train) -> "np.ndarray | None":
        """Per-sample annotation costs for the (perturbed) train pool.

        The last transform defining a cost model wins; ``None`` means
        the implicit unit-cost model.
        """
        costs = None
        for transform in self.built_transforms():
            vector = transform.costs(train)
            if vector is not None:
                costs = vector
        return costs

    def __repr__(self) -> str:
        kinds = ", ".join(spec.kind for spec in self.transforms) or "identity"
        return f"ScenarioSpec(name={self.name!r}, seed={self.seed}, [{kinds}])"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()
