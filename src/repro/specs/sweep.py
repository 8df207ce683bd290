"""The sweep document: a scenario grid over one base experiment.

A *sweep spec* (format ``repro.sweep`` v1) crosses a base experiment
document with perturbation axes::

    {
      "format": "repro.sweep",
      "version": 1,
      "name": "noise_grid",
      "base": { ...a "repro.experiment" v1 document, no scenario... },
      "scenario_seed": 0,
      "axes": [
        {"name": "noise", "cells": [
          {"name": "clean"},
          {"name": "p10",
           "transforms": [{"kind": "label_noise", "params": {"rate": 0.1}}]}
        ]},
        {"name": "shape", "cells": [
          {"name": "b25", "experiment": {"batch_size": 25}},
          {"name": "b50", "experiment": {"batch_size": 50}}
        ]}
      ],
      "metrics": [{"kind": "final"}, {"kind": "speedup"}]
    }

The grid is the cross-product of the axes.  Each grid cell derives a
full :class:`~repro.specs.experiment.ExperimentSpec` from the base
document: ``experiment`` shape overrides merge (later axes win) and
``transforms`` lists concatenate in axis order into one scenario whose
seed is the sweep's ``scenario_seed``.  A cell whose combined transform
list is empty gets **no** scenario section at all, so the degenerate
1x1 sweep with no perturbations derives a document byte-identical to
the base — and therefore reproduces ``repro run --config`` exactly.

The base document must not carry its own ``scenario`` section: the
sweep owns the perturbation layer, and a hidden base scenario would
silently compose under every cell.
"""

from __future__ import annotations

import copy
import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import SpecError
from ..experiments.config import SHAPE_KEYS
from ..formats import SWEEP_FORMAT, SWEEP_VERSION
from ..ioutil import atomic_write_json, read_json
from .core import Spec, as_spec
from .experiment import ExperimentSpec
from .metrics import build_pipeline
from .transforms import build_transform


@dataclass(frozen=True)
class SweepAxisCell:
    """One value on one axis: a name plus its patches to the base."""

    name: str
    transforms: "tuple[dict, ...]" = ()
    experiment: "Mapping | None" = None

    @classmethod
    def from_dict(cls, payload, axis: str) -> "SweepAxisCell":
        if not isinstance(payload, Mapping):
            raise SpecError(f"axis {axis!r}: each cell must be a dict")
        unknown = set(payload) - {"name", "transforms", "experiment"}
        if unknown:
            raise SpecError(f"axis {axis!r}: unknown cell key(s): {sorted(unknown)}")
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise SpecError(f"axis {axis!r}: every cell needs a non-empty 'name'")
        transforms = payload.get("transforms", [])
        if not isinstance(transforms, (list, tuple)):
            raise SpecError(f"axis {axis!r} cell {name!r}: 'transforms' must be a list")
        experiment = payload.get("experiment", {})
        if not isinstance(experiment, Mapping):
            raise SpecError(f"axis {axis!r} cell {name!r}: 'experiment' must be a dict")
        unknown_shape = set(experiment) - SHAPE_KEYS
        if unknown_shape:
            raise SpecError(
                f"axis {axis!r} cell {name!r}: unknown experiment "
                f"override(s): {sorted(unknown_shape)}"
            )
        return cls(
            name=name,
            transforms=tuple(as_spec(t).to_dict() for t in transforms),
            experiment=dict(experiment),
        )

    def to_dict(self) -> dict:
        """Serialize the cell to its document form."""
        payload: dict = {"name": self.name}
        if self.transforms:
            payload["transforms"] = [dict(t) for t in self.transforms]
        if self.experiment:
            payload["experiment"] = dict(self.experiment)
        return payload


@dataclass(frozen=True)
class SweepAxis:
    """One named axis of the grid."""

    name: str
    cells: "tuple[SweepAxisCell, ...]"

    @classmethod
    def from_dict(cls, payload) -> "SweepAxis":
        if not isinstance(payload, Mapping):
            raise SpecError("each sweep axis must be a dict")
        unknown = set(payload) - {"name", "cells"}
        if unknown:
            raise SpecError(f"unknown axis key(s): {sorted(unknown)}")
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise SpecError("every sweep axis needs a non-empty 'name'")
        cells = payload.get("cells")
        if not isinstance(cells, (list, tuple)) or not cells:
            raise SpecError(f"axis {name!r} needs a non-empty 'cells' list")
        parsed = tuple(SweepAxisCell.from_dict(cell, name) for cell in cells)
        names = [cell.name for cell in parsed]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SpecError(f"axis {name!r}: duplicate cell name(s): {sorted(duplicates)}")
        return cls(name=name, cells=parsed)

    def to_dict(self) -> dict:
        """Serialize the axis to its document form."""
        return {"name": self.name, "cells": [cell.to_dict() for cell in self.cells]}


def _slugify(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "._-" else "-" for ch in text)


class SweepCell:
    """One grid cell: coordinates, axis names, and the derived experiment."""

    def __init__(self, coords: "tuple[int, ...]", names: "tuple[str, ...]",
                 document: dict) -> None:
        self.coords = tuple(coords)
        self.names = tuple(names)
        self.document = document
        self._spec: "ExperimentSpec | None" = None

    @property
    def key(self) -> str:
        """Human-readable cell id, e.g. ``p10/b50`` (empty for 0 axes)."""
        return "/".join(self.names)

    @property
    def slug(self) -> str:
        """Filesystem-safe unique cell directory name.

        The short hash covers the full derived document, so two cells
        whose names sanitise identically (or whose patches changed
        between sweep versions) never share a checkpoint directory.
        """
        digest = hashlib.sha256(
            json.dumps(self.document, sort_keys=True).encode()
        ).hexdigest()[:8]
        base = "__".join(_slugify(name) for name in self.names) or "cell"
        return f"{base}-{digest}"

    @property
    def spec(self) -> ExperimentSpec:
        if self._spec is None:
            self._spec = ExperimentSpec.from_dict(self.document)
        return self._spec

    def __repr__(self) -> str:
        return f"SweepCell({self.key!r} @ {self.coords})"


class SweepSpec:
    """One declarative scenario grid (see module docstring)."""

    def __init__(
        self,
        base: dict,
        axes: "tuple[SweepAxis, ...]" = (),
        name: str = "",
        scenario_seed: int = 0,
        metrics: "list[Spec] | None" = None,
    ) -> None:
        if not isinstance(base, Mapping):
            raise SpecError("sweep 'base' must be an experiment document (dict)")
        if base.get("scenario") is not None:
            raise SpecError(
                "the sweep base document must not carry a 'scenario' section "
                "(scenarios come from the sweep axes)"
            )
        self.base = copy.deepcopy(dict(base))
        self.axes = tuple(axes)
        self.name = str(name)
        self.scenario_seed = int(scenario_seed)
        self.metrics = None if metrics is None else [as_spec(m) for m in metrics]
        names = [axis.name for axis in self.axes]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SpecError(f"duplicate axis name(s): {sorted(duplicates)}")

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize the sweep to its JSON document form."""
        document = {
            "format": SWEEP_FORMAT,
            "version": SWEEP_VERSION,
            "name": self.name,
            "base": copy.deepcopy(self.base),
            "scenario_seed": self.scenario_seed,
            "axes": [axis.to_dict() for axis in self.axes],
        }
        if self.metrics is not None:
            document["metrics"] = [spec.to_dict() for spec in self.metrics]
        return document

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        if not isinstance(payload, dict) or payload.get("format") != SWEEP_FORMAT:
            raise SpecError(f"not a {SWEEP_FORMAT!r} document")
        if payload.get("version") != SWEEP_VERSION:
            raise SpecError(
                f"unsupported sweep version {payload.get('version')!r} "
                f"(this build reads version {SWEEP_VERSION})"
            )
        known = {"format", "version", "name", "base", "scenario_seed", "axes", "metrics"}
        unknown = set(payload) - known
        if unknown:
            raise SpecError(f"unknown sweep key(s): {sorted(unknown)}")
        if "base" not in payload:
            raise SpecError("sweep spec has no 'base' experiment document")
        axes = payload.get("axes", [])
        if not isinstance(axes, (list, tuple)):
            raise SpecError("sweep 'axes' must be a list")
        metrics = payload.get("metrics")
        if metrics is not None and not isinstance(metrics, (list, tuple)):
            raise SpecError("sweep 'metrics' must be a list of metric specs")
        return cls(
            base=payload["base"],
            axes=tuple(SweepAxis.from_dict(axis) for axis in axes),
            name=payload.get("name", ""),
            scenario_seed=payload.get("scenario_seed", 0),
            metrics=None if metrics is None else list(metrics),
        )

    @classmethod
    def from_file(cls, path: "str | Path") -> "SweepSpec":
        """Load and validate a ``sweep.json`` document."""
        return cls.from_dict(read_json(path, SpecError, "cannot read sweep file"))

    def save(self, path: "str | Path") -> None:
        """Atomically write the document to ``path``."""
        atomic_write_json(path, self.to_dict())

    # -- the grid ----------------------------------------------------------

    @property
    def shape(self) -> "tuple[int, ...]":
        return tuple(len(axis.cells) for axis in self.axes)

    def __len__(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    def cell(self, coords: "tuple[int, ...]") -> SweepCell:
        """Derive the grid cell at ``coords`` (one index per axis)."""
        if len(coords) != len(self.axes):
            raise SpecError(
                f"cell coords {coords} do not match {len(self.axes)} axes"
            )
        document = copy.deepcopy(self.base)
        names: list[str] = []
        transforms: list[dict] = []
        overrides: dict = {}
        for axis, index in zip(self.axes, coords):
            picked = axis.cells[index]
            names.append(picked.name)
            transforms.extend(copy.deepcopy(list(picked.transforms)))
            overrides.update(picked.experiment or {})
        if overrides:
            shape = dict(document.get("experiment", {}))
            shape.update(overrides)
            document["experiment"] = shape
        if transforms:
            scenario_name = "/".join(names)
            document["scenario"] = {
                "name": scenario_name,
                "seed": self.scenario_seed,
                "transforms": transforms,
            }
        return SweepCell(tuple(coords), tuple(names), document)

    def cells(self) -> "list[SweepCell]":
        """Every grid cell, last axis fastest (row-major)."""
        coords_list: "list[tuple[int, ...]]" = [()]
        for extent in self.shape:
            coords_list = [
                coords + (index,)
                for coords in coords_list
                for index in range(extent)
            ]
        return [self.cell(coords) for coords in coords_list]

    # -- validation --------------------------------------------------------

    def metric_pipeline(self):
        """The sweep's :class:`~repro.eval.pipeline.MetricPipeline`."""
        return build_pipeline(self.metrics)

    def validate(self) -> list[str]:
        """Validate the base, every transform, every cell, and the metrics.

        Returns human-readable notes; raises
        :class:`~repro.exceptions.SpecError` on the first problem.
        """
        pipeline = self.metric_pipeline()
        notes = [
            f"sweep: {self.name or '(unnamed)'}, "
            f"{'x'.join(map(str, self.shape)) or '1'} grid "
            f"({len(self)} cell{'s' if len(self) != 1 else ''})",
            f"metrics: {', '.join(pipeline.labels())}",
        ]
        for axis in self.axes:
            for picked in axis.cells:
                for transform in picked.transforms:
                    build_transform(transform)
        base = ExperimentSpec.from_dict(copy.deepcopy(self.base))
        notes.append(f"base dataset: {base.dataset.kind}")
        for cell in self.cells():
            cell.spec.validate()
            notes.append(f"cell {cell.key or '(degenerate)'}: ok [{cell.slug}]")
        return notes
