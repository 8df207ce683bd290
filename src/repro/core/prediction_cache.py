"""Round-scoped memoisation of model forward passes.

One active-learning round runs the same fitted model over the same
datasets several times: ``evaluate_model`` decodes the test split,
strategy scoring reads probabilities or marginals on the candidate pool,
and multi-pass strategies (BALD, QBC, combined scores) revisit the same
predictions.  :class:`PredictionCache` keys each forward pass by
``(kind, model identity, model fit generation, dataset identity)`` so
every pass happens once.

Identity is ``id()`` with the model/dataset objects pinned inside the
cache entry, so an id cannot be recycled while its entry is alive.  The
fit generation (see :func:`repro.models.base.fit_generation`) guards
against in-place refits: warm-started or ``set_params``-restored models
mutate their parameters without changing identity, and the bumped
counter makes any entry from the previous fit unreachable.  That
pinning is also why entries must not live forever: each entry is tagged
with the round it was inserted in, and
:class:`~repro.core.session.SessionEngine` calls :meth:`advance_round`
when a new model is fitted — evicting entries older than
``keep_rounds`` rounds instead of clearing wholesale.  With the default
``keep_rounds=1`` that reproduces the historical clear-per-round
behaviour exactly; committee strategies that retain past models can run
with a larger window so the retained models' passes survive alongside
them.

For a sequence labeler, the emission matrices
(:meth:`~repro.models.base.SequenceLabeler.emissions`) are cached once
and shared by Viterbi decoding, path log-probabilities and token
marginals, so e.g. span-F1 evaluation plus an MNLP score reuse the same
encoder pass.  ``predict_tags`` runs the Viterbi pass only, and
``best_path_log_proba`` scores those cached paths with one forward pass
(``decode``): in either order, each pass runs once.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..data.datasets import SequenceDataset, TextDataset
from ..models.base import Classifier, SequenceLabeler, fit_generation


class PredictionCache:
    """Memoise deterministic forward passes within a rolling round window.

    Stochastic passes (MC-dropout draws) are never cached — they must
    consume the round RNG exactly as often as the uncached code would.

    Parameters
    ----------
    keep_rounds:
        How many rounds an entry survives after the round it was
        inserted in; ``1`` (default) evicts each round's entries when
        the next round's model is fitted.
    """

    def __init__(self, keep_rounds: int = 1) -> None:
        if keep_rounds < 1:
            raise ValueError(f"keep_rounds must be >= 1, got {keep_rounds}")
        self._store: dict = {}
        self._round = 0
        self.keep_rounds = keep_rounds
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop all entries (and the model/dataset pins keeping them alive)."""
        self._store.clear()

    def advance_round(self, round_index: int) -> int:
        """Start round ``round_index``: evict entries that aged out.

        An entry inserted in round ``r`` survives while
        ``round_index - r < keep_rounds``.  Returns the number of
        entries evicted.
        """
        self._round = int(round_index)
        cutoff = self._round - self.keep_rounds
        stale = [
            key for key, entry in self._store.items() if entry[3] <= cutoff
        ]
        for key in stale:
            del self._store[key]
        return len(stale)

    def _memo(self, kind: str, model, dataset, compute: Callable):
        key = (kind, id(model), fit_generation(model), id(dataset))
        if key in self._store:
            self.hits += 1
            return self._store[key][2]
        self.misses += 1
        value = compute()
        self._store[key] = (model, dataset, value, self._round)
        return value

    # -- classifier passes -------------------------------------------------

    def predict_proba(self, model: Classifier, dataset: TextDataset) -> np.ndarray:
        """Cached ``model.predict_proba(dataset)``."""
        return self._memo(
            "proba", model, dataset, lambda: model.predict_proba(dataset)
        )

    def predict(self, model: Classifier, dataset: TextDataset) -> np.ndarray:
        """Argmax classes, derived from the cached probability matrix."""
        return self._memo(
            "predict",
            model,
            dataset,
            lambda: self.predict_proba(model, dataset).argmax(axis=1),
        )

    # -- sequence-labeler passes -------------------------------------------

    def _emissions(self, model: SequenceLabeler, dataset: SequenceDataset):
        """Cached emission matrices."""
        return self._memo(
            "emissions", model, dataset, lambda: model.emissions(dataset)
        )

    def _decoded(self, model: SequenceLabeler, dataset: SequenceDataset, emissions):
        """The cached ``[paths, log_probas]`` record of one dataset.

        The Viterbi pass fills ``paths`` when the record is made;
        ``log_probas`` stays ``None`` until :meth:`best_path_log_proba`
        scores those paths.
        """
        return self._memo(
            "decode",
            model,
            dataset,
            lambda: [model.predict_tags(dataset, emissions=emissions), None],
        )

    def predict_tags(
        self, model: SequenceLabeler, dataset: SequenceDataset
    ) -> list[np.ndarray]:
        """Cached Viterbi paths: the Viterbi pass only."""
        emissions = self._emissions(model, dataset)
        return self._decoded(model, dataset, emissions)[0]

    def best_path_log_proba(
        self, model: SequenceLabeler, dataset: SequenceDataset
    ) -> np.ndarray:
        """Cached Viterbi-path log-probabilities: the cached paths, scored
        by one forward pass (``decode``)."""
        emissions = self._emissions(model, dataset)
        record = self._decoded(model, dataset, emissions)
        if record[1] is None:
            record[1] = model.decode(dataset, record[0], emissions=emissions)
        return record[1]

    def token_marginals(
        self, model: SequenceLabeler, dataset: SequenceDataset
    ) -> list[np.ndarray]:
        """Cached token marginals over the cached emissions."""
        emissions = self._emissions(model, dataset)
        return self._memo(
            "marginals",
            model,
            dataset,
            lambda: model.token_marginals(dataset, emissions=emissions),
        )
