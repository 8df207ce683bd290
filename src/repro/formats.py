"""Every on-disk document format marker and schema version, in one place.

All persistent artifacts of this package — saved rankers, experiment
documents, session snapshots, per-cell checkpoints, queue envelopes, and
stored service sessions — share the same JSON envelope: an object with
``format`` (a stable ``repro.*`` marker naming the document kind) and
``version`` (an integer schema version readers refuse to misread).

Historically each module declared its own pair of constants, so a schema
bump meant hunting literals across layers.  This module is now the single
source of truth: the owning modules import (and re-export) their
constants from here, and the next version bump touches exactly one file.

Version history lives with the code that reads each document (e.g. the
snapshot-layout notes in :mod:`repro.core.session`); this module only
states the *current* schema of each kind.
"""

from __future__ import annotations

#: Declarative component/spec documents (:mod:`repro.specs.core`).
SPEC_VERSION = 1

#: Whole-experiment documents (:mod:`repro.specs.experiment`).
EXPERIMENT_FORMAT = "repro.experiment"
EXPERIMENT_VERSION = 1

#: Saved LHS rankers (:mod:`repro.persistence`).
RANKER_FORMAT = "repro.lhs_ranker"
RANKER_VERSION = 1

#: Mid-run engine snapshots (:meth:`repro.core.session.SessionEngine.snapshot`).
SNAPSHOT_FORMAT = "repro.al_session"
SNAPSHOT_VERSION = 4

#: Completed comparison-grid cells (:mod:`repro.experiments.checkpoint`).
CHECKPOINT_FORMAT = "repro.al_cell"
CHECKPOINT_VERSION = 2

#: In-flight round-level cell snapshots (:mod:`repro.experiments.checkpoint`).
SESSION_CHECKPOINT_FORMAT = "repro.al_cell_session"
SESSION_CHECKPOINT_VERSION = 2

#: One stored annotation session: recipe + engine snapshot.  Written by
#: the ``repro session`` directory workflow and by every
#: :class:`repro.service.SessionStore` backend — the service and the
#: file-based CLI persist the identical document.
SESSION_DIR_FORMAT = "repro.session_dir"
SESSION_DIR_VERSION = 1

#: Finished-session audit trails (``result.json`` / ``session result``).
SESSION_RESULT_FORMAT = "repro.session_result"
SESSION_RESULT_VERSION = 1

#: Distributed queue envelope (:mod:`repro.experiments.distributed`).
QUEUE_FORMAT = "repro.cell_queue"
QUEUE_VERSION = 1

#: Scenario-grid sweep documents (:mod:`repro.specs.sweep`).
SWEEP_FORMAT = "repro.sweep"
SWEEP_VERSION = 1

#: Current version of every named document format, for introspection.
DOCUMENT_VERSIONS = {
    EXPERIMENT_FORMAT: EXPERIMENT_VERSION,
    RANKER_FORMAT: RANKER_VERSION,
    SNAPSHOT_FORMAT: SNAPSHOT_VERSION,
    CHECKPOINT_FORMAT: CHECKPOINT_VERSION,
    SESSION_CHECKPOINT_FORMAT: SESSION_CHECKPOINT_VERSION,
    SESSION_DIR_FORMAT: SESSION_DIR_VERSION,
    SESSION_RESULT_FORMAT: SESSION_RESULT_VERSION,
    QUEUE_FORMAT: QUEUE_VERSION,
    SWEEP_FORMAT: SWEEP_VERSION,
}
