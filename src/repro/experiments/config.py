"""Experiment configuration shared by the runner and the benchmarks."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from ..exceptions import ConfigurationError, SpecError


@dataclass(frozen=True)
class ExperimentConfig:
    """One active-learning experiment's shape.

    Attributes
    ----------
    batch_size:
        Samples annotated per round (paper: 25 binary text, 100 TREC/NER).
    rounds:
        Strategy-driven rounds (paper: 20).
    initial_size:
        Random warm-start labeled set (defaults to ``batch_size``).
    repeats:
        Independent repetitions averaged into the reported curve (the
        paper averages over cross-validation folds / repeated runs).
    seed:
        Master seed; repetition ``r`` derives its own child stream.
    training_mode:
        ``"cold"`` (default) refits every round's model from scratch —
        byte-identical to historical behaviour.  ``"warm"`` resumes each
        round's fit from the previous round's parameters for model
        families that support it.  Part of the experiment's identity:
        warm runs follow a different (faster) optimisation trajectory.
    track_flips:
        Record each round's predicted labels for the unlabeled pool in
        the history store, feeding the contradiction-rate metric.
        Prediction consumes no RNG, so curves are byte-identical either
        way — but the recorded artifacts differ, so this is part of the
        experiment's identity (and checkpoint fingerprint).
    """

    batch_size: int = 25
    rounds: int = 20
    initial_size: "int | None" = None
    repeats: int = 3
    seed: int = 7
    training_mode: str = "cold"
    track_flips: bool = False

    def __post_init__(self) -> None:
        from ..core.session import TRAINING_MODES

        optional = () if self.initial_size is None else ("initial_size",)
        for name in ("batch_size", "rounds", "repeats", "seed", *optional):
            value = getattr(self, name)
            # JSON true/false decode to bools, which are ints in Python.
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.track_flips, bool):
            raise ConfigurationError(
                f"track_flips must be true or false, got {self.track_flips!r}"
            )
        if self.training_mode not in TRAINING_MODES:
            raise ConfigurationError(
                f"training_mode must be one of {TRAINING_MODES}, "
                f"got {self.training_mode!r}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if self.repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {self.repeats}")

    def to_dict(self) -> dict:
        """The shape as the ``experiment`` section of a document.

        ``track_flips`` is emitted only when set, so documents and
        checkpoint fingerprints of non-tracking runs keep their
        historical bytes.
        """
        shape = asdict(self)
        if not self.track_flips:
            del shape["track_flips"]
        return shape

    @classmethod
    def from_dict(cls, shape: dict) -> "ExperimentConfig":
        """Parse an ``experiment`` section (:class:`SpecError` on unknown keys)."""
        unknown = set(shape) - SHAPE_KEYS
        if unknown:
            raise SpecError(f"unknown experiment option(s): {sorted(unknown)}")
        return cls(**shape)

    @property
    def labels_needed(self) -> int:
        """Pool size the experiment consumes."""
        initial = self.initial_size if self.initial_size is not None else self.batch_size
        return initial + self.rounds * self.batch_size


#: The experiment-shape keys a document's ``experiment`` section may set.
SHAPE_KEYS = frozenset(field.name for field in fields(ExperimentConfig))
