"""Deterministic fault injection for exercising the runner's failure paths.

The comparison runner and the work queue promise retry, checkpoint/
resume, crash recovery, and graceful degradation — all paths that only
execute when something fails.  This module makes cells fail *on purpose* and
*deterministically* so those paths run in CI without flakiness:

* :class:`FaultSpec` decides when a fault fires: on the Nth call of the
  instrumented operation (``fail_on_call``), at most ``times`` times
  across the whole run.  The "at most ``times``" budget is claimed
  through one-shot token files created with ``O_CREAT | O_EXCL``, so it
  is atomic across processes — a fault armed once fires exactly once no
  matter how many queue workers race for it, and a retried or resumed
  cell sees the budget already spent and succeeds.
* ``mode="raise"`` raises :class:`InjectedFault` (an
  :class:`~repro.exceptions.ExecutionError`), modelling an in-worker
  exception; ``mode="exit"`` kills the process with ``os._exit``,
  modelling an OOM kill / segfault of a queue worker.  Never use
  ``"exit"`` in the test process itself — it terminates the run.
* :class:`FaultInjectingModel` counts ``fit`` calls (shared across the
  per-round clones of one cell, so "the Nth retrain of a cell"); pass an
  external counter to count across cells instead ("the Nth retrain of
  the whole serial grid").  :class:`FaultInjectingStrategy` counts
  ``scores`` calls and targets a single strategy's cells precisely.

Both wrappers are behaviourally transparent when the fault does not
fire: they delegate everything — including ``seed`` reads/writes, which
the loop uses for per-round reseeding — so a run with an exhausted fault
budget is byte-identical to a run without the wrapper.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ExecutionError
from repro.models.base import Classifier
from repro.core.strategies.base import QueryStrategy


class InjectedFault(ExecutionError):
    """The deliberate failure raised by ``mode="raise"`` fault injection."""


@dataclass(frozen=True)
class FaultSpec:
    """When and how an injected fault fires.

    Attributes
    ----------
    token_dir:
        Directory holding the one-shot claim tokens (created if missing).
    fail_on_call:
        1-based call number of the instrumented operation at which the
        fault triggers.
    mode:
        ``"raise"`` raises :class:`InjectedFault`; ``"exit"`` kills the
        current process (worker processes only); ``"interrupt"`` raises
        :class:`KeyboardInterrupt`, modelling a Ctrl-C mid-operation.
    times:
        Total fires allowed across all processes; ``None`` means
        unlimited (an always-failing fault site).
    """

    token_dir: Path
    fail_on_call: int = 1
    mode: str = "raise"
    times: "int | None" = 1

    def __post_init__(self) -> None:
        Path(self.token_dir).mkdir(parents=True, exist_ok=True)

    def claim(self) -> bool:
        """Atomically claim one fire from the budget (cross-process)."""
        if self.times is None:
            return True
        for slot in range(self.times):
            try:
                (Path(self.token_dir) / f"claimed-{slot}").touch(exist_ok=False)
            except FileExistsError:
                continue
            return True
        return False

    def maybe_fire(self, call_number: int) -> None:
        """Fire if ``call_number`` matches and the budget allows it."""
        if call_number == self.fail_on_call and self.claim():
            if self.mode == "exit":
                os._exit(23)
            if self.mode == "interrupt":
                raise KeyboardInterrupt(
                    f"injected interrupt at call {call_number}"
                )
            raise InjectedFault(
                f"injected fault at call {call_number} (mode={self.mode})"
            )


class WorkerFault:
    """An ``on_event`` hook for ``run_worker`` that fires at a lifecycle event.

    The distributed worker loop reports every protocol step through its
    ``on_event(event, cell_id)`` callback; installing this hook turns one
    of those steps into a deterministic crash site.  ``event="claimed"``
    with ``mode="exit"`` models a worker SIGKILLed between claiming a
    cell and committing it; ``event="saved"`` kills between the
    checkpoint write and the done marker; ``event="heartbeat"`` kills
    mid-renewal (the event is emitted from the heartbeat thread, so
    ``os._exit`` takes the whole worker down mid-cell).  ``cell_id``
    narrows the fault to one cell — e.g. to poison exactly one repeat —
    and the :class:`FaultSpec` budget keeps it cross-process one-shot.
    """

    def __init__(
        self, event: str, spec: FaultSpec, cell_id: "str | None" = None
    ) -> None:
        self.event = event
        self.spec = spec
        self.cell_id = cell_id
        self.calls = 0
        self.seen: list[tuple[str, str]] = []

    def __call__(self, event: str, cell_id: str) -> None:
        self.seen.append((event, cell_id))
        if event != self.event:
            return
        if self.cell_id is not None and cell_id != self.cell_id:
            return
        self.calls += 1
        self.spec.maybe_fire(self.calls)


class FaultInjectingModel(Classifier):
    """A classifier wrapper whose ``fit`` fails per a :class:`FaultSpec`.

    The call counter is shared with every clone, so with the default
    per-instance counter the Nth *retrain of one cell* fails (the loop
    clones the prototype each round).  Pass a shared ``counter`` list to
    count fits across cells instead.
    """

    def __init__(self, inner, spec: FaultSpec, counter: "list | None" = None) -> None:
        self._inner = inner
        self._spec = spec
        self._counter = counter if counter is not None else [0]

    def fit(self, dataset, init_from=None):
        self._counter[0] += 1
        self._spec.maybe_fire(self._counter[0])
        self._inner.fit(dataset, init_from=None if init_from is None else init_from._inner)
        return self

    def predict_proba(self, dataset):
        return self._inner.predict_proba(dataset)

    def get_params(self):
        return self._inner.get_params()

    def set_params(self, state):
        self._inner.set_params(state)
        return self

    def clone(self):
        return FaultInjectingModel(self._inner.clone(), self._spec, self._counter)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_inner"), name)

    def __setattr__(self, name, value):
        # The loop reseeds models via ``model.seed = ...``; forward every
        # public attribute write so the wrapper stays transparent.
        if name.startswith("_"):
            object.__setattr__(self, name, value)
        else:
            setattr(self._inner, name, value)


class FaultInjectingStrategy(QueryStrategy):
    """A strategy wrapper whose ``scores`` fails per a :class:`FaultSpec`.

    Wrapping a single strategy of the grid targets exactly that
    strategy's cells, which is how tests make one specific cell (with
    ``repeats=1``) or one strategy column fail.
    """

    def __init__(self, inner, spec: FaultSpec, counter: "list | None" = None) -> None:
        self._inner = inner
        self._spec = spec
        self._counter = counter if counter is not None else [0]

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def requires_model_history(self) -> int:  # type: ignore[override]
        return self._inner.requires_model_history

    def scores(self, model, context):
        self._counter[0] += 1
        self._spec.maybe_fire(self._counter[0])
        return self._inner.scores(model, context)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_inner"), name)
