"""Declarative specs: build strategies, models, datasets, and experiments
from pure JSON — and serialise them back.

The construction paths used to be ad-hoc lambdas (closures that neither
pickle nor checkpoint).  This package replaces them with small, versioned
:class:`~repro.specs.core.Spec` values and per-layer registries, so:

* experiment workers can be started with ``spawn`` (only data crosses
  the process boundary),
* checkpoints embed the specs that produced them and staleness checks
  compare specs rather than repr strings,
* the paper's full comparison grid is one reviewable ``experiment.json``
  (``repro run --config``).

See DESIGN.md §10 for the schema, versioning, and extension points.
"""

from .core import SPEC_VERSION, Spec, SpecRegistry, as_spec, is_spec_like
from .data import (
    DATASET_REGISTRY,
    SPLIT_REGISTRY,
    build_dataset,
    build_split,
    register_dataset,
)
from .experiment import (
    EXPERIMENT_FORMAT,
    EXPERIMENT_VERSION,
    ExperimentSpec,
    default_experiment_spec,
    default_model_spec,
    shorthand_experiment,
)
from .metrics import (
    METRIC_REGISTRY,
    build_metric,
    build_pipeline,
    default_metric_specs,
    metric_kinds,
)
from .models import (
    MODEL_REGISTRY,
    build_model,
    register_model,
    spec_of_model,
)
from .strategies import (
    STRATEGY_REGISTRY,
    build_strategy,
    parse_strategy_shorthand,
    register_simple_strategy,
    register_wrapper_strategy,
    spec_of_strategy,
    strategy_kinds,
)
from .sweep import SweepAxis, SweepCell, SweepSpec
from .transforms import (
    TRANSFORM_REGISTRY,
    ScenarioSpec,
    build_transform,
    transform_kinds,
)

__all__ = [
    "DATASET_REGISTRY",
    "EXPERIMENT_FORMAT",
    "EXPERIMENT_VERSION",
    "ExperimentSpec",
    "METRIC_REGISTRY",
    "MODEL_REGISTRY",
    "SPEC_VERSION",
    "SPLIT_REGISTRY",
    "STRATEGY_REGISTRY",
    "ScenarioSpec",
    "Spec",
    "SpecRegistry",
    "SweepAxis",
    "SweepCell",
    "SweepSpec",
    "TRANSFORM_REGISTRY",
    "as_spec",
    "build_metric",
    "build_pipeline",
    "build_dataset",
    "build_model",
    "build_split",
    "build_strategy",
    "build_transform",
    "default_experiment_spec",
    "default_metric_specs",
    "default_model_spec",
    "is_spec_like",
    "metric_kinds",
    "parse_strategy_shorthand",
    "register_dataset",
    "register_model",
    "register_simple_strategy",
    "register_wrapper_strategy",
    "shorthand_experiment",
    "spec_of_model",
    "spec_of_strategy",
    "strategy_kinds",
    "transform_kinds",
]
