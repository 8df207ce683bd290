"""Dataset and split specs: corpora and train/test cuts as pure JSON.

A dataset spec names a registered corpus generator plus its generation
params (``scale``, ``seed``)::

    {"kind": "mr", "params": {"scale": 0.1, "seed": 7}, "version": 1}

Generators are deterministic given those params, so two processes
building the same dataset spec hold byte-identical corpora — which is
what lets spawn-started experiment workers rebuild their cell from data
alone.

A *split spec* is the (deliberately tiny) JSON description of how the
corpus divides into annotation pool and held-out test set; today the
single kind is the head/tail fraction cut the CLI has always used::

    {"kind": "fraction", "params": {"test_fraction": 0.3}, "version": 1}
"""

from __future__ import annotations

from ..data import (
    conll2002_dutch,
    conll2002_spanish,
    conll2003_english,
    mr,
    sst2,
    subj,
    trec,
)
from ..exceptions import SpecError
from .core import SpecRegistry, as_spec

DATASET_REGISTRY = SpecRegistry("dataset")
SPLIT_REGISTRY = SpecRegistry("split")

#: Task family per dataset kind ("text" -> classifiers + accuracy,
#: "ner" -> sequence labelers + span F1).
DATASET_TASKS: dict[str, str] = {}


def _number(value, name: str) -> float:
    """``value`` as a float; a :class:`SpecError` if it is not numeric."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SpecError(f"{name} must be a number, got {value!r}") from None


def register_dataset(kind: str, generator, task: str) -> None:
    """Register a corpus generator under ``kind`` for task family ``task``."""

    def build(params: dict) -> object:
        scale = _number(params.pop("scale", 1.0), "dataset scale")
        seed = params.pop("seed", None)
        if params:
            raise SpecError(
                f"unknown dataset params for kind {kind!r}: {sorted(params)}"
            )
        return generator(scale=scale, seed_or_rng=seed)

    DATASET_REGISTRY.register(kind, build)
    DATASET_TASKS[kind.lower()] = task


for _kind, _generator in (("mr", mr), ("sst2", sst2), ("subj", subj), ("trec", trec)):
    register_dataset(_kind, _generator, "text")
for _kind, _generator in (
    ("conll-en", conll2003_english),
    ("conll-es", conll2002_spanish),
    ("conll-nl", conll2002_dutch),
):
    register_dataset(_kind, _generator, "ner")


def _build_fraction_split(params: dict):
    test_fraction = _number(params.pop("test_fraction", 0.3), "test_fraction")
    if params:
        raise SpecError(f"unknown split params: {sorted(params)}")
    if not 0.0 < test_fraction < 1.0:
        raise SpecError(f"test_fraction must be in (0, 1), got {test_fraction}")

    def split(dataset):
        cut = int(len(dataset) * (1.0 - test_fraction))
        return dataset.subset(range(cut)), dataset.subset(range(cut, len(dataset)))

    return split


SPLIT_REGISTRY.register("fraction", _build_fraction_split)


def build_dataset(spec) -> tuple[object, str]:
    """Build ``(dataset, task)`` from a dataset spec."""
    parsed = as_spec(spec)
    dataset = DATASET_REGISTRY.build(parsed)
    return dataset, DATASET_TASKS[parsed.kind]


def build_split(spec, dataset) -> tuple[object, object]:
    """Apply a split spec to ``dataset``; returns ``(train, test)``."""
    return SPLIT_REGISTRY.build(spec)(dataset)
