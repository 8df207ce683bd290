"""The top-level experiment document: a whole comparison grid as one JSON file.

An *experiment spec* bundles everything ``repro compare`` used to take as
flags — corpus, split, model, the strategy grid, the experiment shape,
and runner/report options — into a single versioned document::

    {
      "format": "repro.experiment",
      "version": 1,
      "dataset": {"kind": "mr", "params": {"scale": 0.1, "seed": 7}},
      "split": {"kind": "fraction", "params": {"test_fraction": 0.3}},
      "model": {"kind": "linear", "params": {"epochs": 5, ...}},
      "strategies": {
        "entropy": {"kind": "entropy", "params": {}},
        "wshs:entropy": {"kind": "wshs",
                          "params": {"base": {"kind": "entropy", "params": {}},
                                     "window": 3}}
      },
      "experiment": {"batch_size": 25, "rounds": 10, "repeats": 3, "seed": 7},
      "runner": {"queue_dir": "q/", "local_workers": 2, ...},
      "report": {"targets": [], "plot": false}
    }

``repro run --config file.json`` executes it; because the flag path
builds the identical spec internally (:func:`shorthand_experiment`), a
config run is byte-identical to the equivalent flag invocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..core.strategies.base import strategy_capabilities
from ..exceptions import ConfigurationError, SpecError
from ..experiments.config import ExperimentConfig
from ..formats import EXPERIMENT_FORMAT, EXPERIMENT_VERSION
from ..ioutil import atomic_write_json, read_json
from .core import Spec, as_spec
from .data import DATASET_TASKS, build_dataset, build_split
from .models import build_model
from .strategies import build_strategy, parse_strategy_shorthand
from .transforms import ScenarioSpec

# EXPERIMENT_FORMAT / EXPERIMENT_VERSION come from :mod:`repro.formats`
# (the single source of truth for schema versions).

#: Runner options an experiment document may set (with their defaults).
RUNNER_DEFAULTS = {
    "checkpoint_dir": None,
    "resume": False,
    "max_retries": 0,
    "on_error": "raise",
    # A non-null queue_dir runs the grid in parallel through the
    # broker-less work queue (repro.experiments.distributed) with
    # local_workers processes on this host; null runs it serially.
    "queue_dir": None,
    "local_workers": 1,
    "lease_ttl": 30.0,
    "timeout": None,
}

#: Settings earlier versions wrote that no longer select anything:
#: ``(section, key) -> (value of the path that stayed, what replaces it)``.
#: A document may still carry a key with that value — ``repro config
#: show --defaults`` used to emit every one of them — and it is dropped;
#: any other value is a :class:`SpecError`.
RETIRED_KEYS = {
    ("runner", "n_jobs"): (
        1, "run parallel grids on the work queue: set runner.queue_dir and "
        "runner.local_workers",
    ),
    ("runner", "start_method"): (
        None, "queue workers are forked; spawned workers join with "
        "'repro worker --queue-dir DIR'",
    ),
    ("runner", "queue_backend"): (
        "file", "the file-lease queue is the only queue backend",
    ),
    ("runner", "backoff"): (
        0.0, "a failed cell runs again at once, up to runner.max_retries times",
    ),
    ("experiment", "history_backend"): (
        "local", "history scores always live in a process-local array",
    ),
}

#: Report options an experiment document may set (with their defaults).
REPORT_DEFAULTS = {"targets": [], "plot": False}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _count(value) -> bool:
    return type(value) is int and value >= 0


#: What each runner and report option must hold: ``key -> (rule, test)``.
OPTION_RULES = {
    "checkpoint_dir": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "queue_dir": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "resume": ("a bool", lambda v: isinstance(v, bool)),
    "plot": ("a bool", lambda v: isinstance(v, bool)),
    "max_retries": ("an int >= 0", _count),
    "local_workers": ("an int >= 0", _count),
    "lease_ttl": ("a number > 0", lambda v: _number(v) and v > 0),
    "timeout": ("a number > 0 or null", lambda v: v is None or (_number(v) and v > 0)),
    "on_error": ("'raise' or 'skip'", lambda v: v in ("raise", "skip")),
    "targets": (
        "a list of numbers", lambda v: isinstance(v, list) and all(map(_number, v))
    ),
}


def check_option(name: str, value) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` obeys its rule.

    For the runners' keyword arguments (``max_retries``, ``lease_ttl``),
    which take the same values as the document options of that name.
    """
    rule, valid = OPTION_RULES[name]
    if not valid(value):
        raise ConfigurationError(f"{name} must be {rule}, got {value!r}")


def default_model_spec(task: str, epochs: int = 5) -> Spec:
    """The CLI's historical default model for a task family, as a spec."""
    if task == "text":
        return Spec(
            kind="linear", params={"epochs": epochs, "batch_size": 32, "seed": 0}
        )
    return Spec(kind="crf", params={"epochs": max(1, epochs // 2), "seed": 0})


def _without_retired(key: str, section: dict) -> dict:
    """``section`` minus the retired settings it carries (see above).

    Raises
    ------
    SpecError
        When a retired setting holds a value other than the one the
        remaining code path implements.
    """
    section = dict(section)
    for (owner, name), (kept, replacement) in RETIRED_KEYS.items():
        if owner != key or name not in section:
            continue
        value = section.pop(name)
        if value != kept:
            raise SpecError(
                f"{key}.{name} = {value!r} is no longer supported: {replacement}"
            )
    return section


def _options(key: str, section: dict, defaults: dict) -> dict:
    """``section`` over its defaults, each value checked by its rule.

    Raises
    ------
    SpecError
        For a retired setting's other values (see :data:`RETIRED_KEYS`)
        or a value that breaks its :data:`OPTION_RULES` entry.
    """
    options = {**defaults, **_without_retired(key, section)}
    for name in defaults:
        rule, valid = OPTION_RULES[name]
        if not valid(options[name]):
            raise SpecError(f"{key}.{name} must be {rule}, got {options[name]!r}")
    return options


def _section(payload: dict, key: str, defaults: dict) -> dict:
    """One options section of ``payload``, refused if it names an unknown key."""
    section = payload.get(key, {})
    if not isinstance(section, dict):
        raise SpecError(f"experiment {key!r} section must be a dict")
    section = _without_retired(key, section)
    unknown = set(section) - set(defaults)
    if unknown:
        raise SpecError(f"unknown {key} option(s): {sorted(unknown)}")
    return section


@dataclass
class ExperimentSpec:
    """One declarative comparison grid (see module docstring)."""

    dataset: Spec
    strategies: "dict[str, Spec]"
    split: Spec = field(default_factory=lambda: Spec(kind="fraction"))
    model: "Spec | None" = None
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    runner: dict = field(default_factory=lambda: dict(RUNNER_DEFAULTS))
    report: dict = field(default_factory=lambda: dict(REPORT_DEFAULTS))
    #: Optional perturbation scenario applied by :meth:`build_datasets`.
    #: ``None`` (the default) keeps the document — and every artifact —
    #: byte-identical to pre-sweep experiments.
    scenario: "ScenarioSpec | None" = None

    def __post_init__(self) -> None:
        if not self.strategies:
            raise SpecError("experiment spec has no strategies")
        self.dataset = as_spec(self.dataset)
        self.split = as_spec(self.split)
        self.model = None if self.model is None else as_spec(self.model)
        self.strategies = {
            str(name): as_spec(spec) for name, spec in self.strategies.items()
        }
        self.runner = _options("runner", self.runner, RUNNER_DEFAULTS)
        self.report = _options("report", self.report, REPORT_DEFAULTS)
        if self.scenario is not None:
            self.scenario = ScenarioSpec.from_dict(self.scenario)

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        """The experiment as a plain JSON-compatible document."""
        document = {
            "format": EXPERIMENT_FORMAT,
            "version": EXPERIMENT_VERSION,
            "dataset": self.dataset.to_dict(),
            "split": self.split.to_dict(),
            "model": None if self.model is None else self.model.to_dict(),
            "strategies": {
                name: spec.to_dict() for name, spec in self.strategies.items()
            },
            "experiment": self.config.to_dict(),
            "runner": dict(self.runner),
            "report": dict(self.report),
        }
        if self.scenario is not None:
            document["scenario"] = self.scenario.to_dict()
        return document

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        if not isinstance(payload, dict) or payload.get("format") != EXPERIMENT_FORMAT:
            raise SpecError(f"not a {EXPERIMENT_FORMAT!r} document")
        if payload.get("version") != EXPERIMENT_VERSION:
            raise SpecError(
                f"unsupported experiment version {payload.get('version')!r} "
                f"(this build reads version {EXPERIMENT_VERSION})"
            )
        known = {
            "format", "version", "dataset", "split", "model", "strategies",
            "experiment", "runner", "report", "scenario",
        }
        unknown = set(payload) - known
        if unknown:
            raise SpecError(f"unknown experiment key(s): {sorted(unknown)}")
        if "dataset" not in payload:
            raise SpecError("experiment spec has no 'dataset'")
        strategies = payload.get("strategies")
        if not isinstance(strategies, dict) or not strategies:
            raise SpecError(
                "experiment 'strategies' must be a non-empty object mapping "
                "display names to strategy specs"
            )
        shape = payload.get("experiment", {})
        if not isinstance(shape, dict):
            raise SpecError("experiment 'experiment' section must be a dict")
        config = ExperimentConfig.from_dict(_without_retired("experiment", shape))
        scenario = payload.get("scenario")
        return cls(
            dataset=as_spec(payload["dataset"]),
            split=as_spec(payload.get("split", {"kind": "fraction"})),
            model=None if payload.get("model") is None else as_spec(payload["model"]),
            strategies={name: as_spec(spec) for name, spec in strategies.items()},
            config=config,
            runner=_section(payload, "runner", RUNNER_DEFAULTS),
            report=_section(payload, "report", REPORT_DEFAULTS),
            scenario=None if scenario is None else ScenarioSpec.from_dict(scenario),
        )

    @classmethod
    def from_file(cls, path: "str | Path") -> "ExperimentSpec":
        """Load and validate an ``experiment.json`` document."""
        return cls.from_dict(read_json(path, SpecError, "cannot read experiment file"))

    def save(self, path: "str | Path") -> None:
        """Atomically write the document to ``path``."""
        atomic_write_json(path, self.to_dict())

    # -- building ----------------------------------------------------------

    @property
    def task(self) -> str:
        """The dataset's task family ("text" or "ner")."""
        kind = self.dataset.kind
        if kind not in DATASET_TASKS:
            known = ", ".join(sorted(DATASET_TASKS))
            raise SpecError(f"unknown dataset kind {kind!r}; known: {known}")
        return DATASET_TASKS[kind]

    def resolved_model(self) -> Spec:
        """The model spec, defaulted from the task family when omitted."""
        return self.model if self.model is not None else default_model_spec(self.task)

    def build_datasets(self) -> tuple[object, object, str]:
        """Build ``(train, test, task)`` from the dataset + split specs.

        When the document carries a ``scenario`` section, its transforms
        are applied (deterministically, from the scenario's own RNG
        streams) after the split — so every consumer that rebuilds data
        from the spec (serial runner, queue workers, the session
        service) sees the identical perturbed datasets.
        """
        dataset, task = build_dataset(self.dataset)
        train, test = build_split(self.split, dataset)
        if self.scenario is not None:
            train, test = self.scenario.apply(train, test)
        return train, test, task

    def scenario_fingerprint(self) -> "dict | None":
        """The scenario's checkpoint-fingerprint dict (``None`` if inert)."""
        if self.scenario is None:
            return None
        return self.scenario.fingerprint()

    def annotation_costs(self, train) -> "object | None":
        """Per-sample annotation costs for the (perturbed) train pool."""
        if self.scenario is None:
            return None
        return self.scenario.costs(train)

    def validate(self) -> list[str]:
        """Build every component once; returns human-readable notes.

        Raises the first construction problem as
        :class:`~repro.exceptions.SpecError` (or the constructor's own
        :class:`~repro.exceptions.ConfigurationError`), so a bad document
        fails here instead of mid-grid.
        """
        train, test, task = self.build_datasets()
        notes = [
            f"dataset: {self.dataset.kind} ({task}), "
            f"{len(train)} pool / {len(test)} test samples"
        ]
        if self.scenario is not None:
            self.scenario.validate()
            kinds = ", ".join(s.kind for s in self.scenario.transforms) or "identity"
            notes.append(
                f"scenario: {self.scenario.name or '(unnamed)'} "
                f"(seed {self.scenario.seed}): {kinds}"
            )
        model = build_model(self.resolved_model())
        notes.append(f"model: {type(model).__name__}")
        for name, spec in self.strategies.items():
            strategy = build_strategy(spec)
            tags = []
            capabilities = strategy_capabilities(strategy)
            if capabilities["model_only_scores"] or (
                capabilities.get("base", {}).get("model_only_scores")
            ):
                tags.append("model-only scores")
            if capabilities["requires_model_history"]:
                tags.append(
                    f"retains {capabilities['requires_model_history']} models"
                )
            suffix = f" [{', '.join(tags)}]" if tags else ""
            notes.append(f"strategy {name!r}: {strategy.name}{suffix}")
        needed = self.config.labels_needed
        if needed > len(train):
            raise SpecError(
                f"experiment needs {needed} pool samples "
                f"(initial_size + rounds * batch_size) but the training "
                f"pool has only {len(train)}"
            )
        notes.append(
            f"grid: {len(self.strategies)} strategies x {self.config.repeats} "
            f"repeats, {self.config.rounds} rounds of {self.config.batch_size} "
            f"({needed} of {len(train)} pool samples per run)"
        )
        return notes


def default_experiment_spec() -> ExperimentSpec:
    """A small, runnable starting-point document for ``config show``."""
    return ExperimentSpec(
        dataset=Spec(kind="mr", params={"scale": 0.2, "seed": 7}),
        split=Spec(kind="fraction", params={"test_fraction": 0.3}),
        model=default_model_spec("text"),
        strategies={
            "random": Spec(kind="random"),
            "entropy": Spec(kind="entropy"),
            "wshs:entropy": Spec(
                kind="wshs",
                params={"base": {"kind": "entropy", "params": {}}, "window": 3},
            ),
        },
        config=ExperimentConfig(batch_size=25, rounds=10, repeats=3, seed=7),
    )


def shorthand_experiment(
    dataset: str,
    strategies,
    *,
    scale: float,
    seed: int,
    test_fraction: float,
    window: int,
    ranker: "str | None",
    epochs: int,
    config: ExperimentConfig,
    runner: "dict | None" = None,
    report: "dict | None" = None,
) -> ExperimentSpec:
    """The experiment a flag-style shorthand describes.

    ``repro compare`` flags and a flat session recipe both name an
    experiment this way: a dataset kind generated at ``scale`` from
    ``seed``, the ``fraction`` split, ``name`` / ``wrapper:base``
    strategy strings (keyed by their text; see
    :func:`~repro.specs.strategies.parse_strategy_shorthand`), and the
    task family's default model trained for ``epochs``.
    """
    for name, value in (("window", window), ("epochs", epochs)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise SpecError(f"{name} must be an integer, got {value!r}")
    spec = ExperimentSpec(
        dataset=Spec(kind=dataset, params={"scale": scale, "seed": seed}),
        split=Spec(kind="fraction", params={"test_fraction": test_fraction}),
        strategies={
            text: parse_strategy_shorthand(text, window, ranker) for text in strategies
        },
        config=config,
        runner=runner or {},
        report=report or {},
    )
    spec.model = default_model_spec(spec.task, epochs)
    return spec
