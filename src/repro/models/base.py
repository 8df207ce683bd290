"""Model protocols used by query strategies and the AL loop.

Two abstract families cover the paper's two tasks:

* :class:`Classifier` — text classification; exposes class probabilities.
* :class:`SequenceLabeler` — NER; exposes best-path log-probabilities and
  per-token marginals, which is all LC/entropy/MNLP need.

Optional capabilities (expected gradient lengths for EGL, embedding
gradients for EGL-word, stochastic predictions for BALD) are discovered
with the ``supports_*`` helpers so strategies can fail fast with a clear
error when paired with an incapable model.

Two further capabilities power the warm-start training layer:

* ``fit(dataset, init_from=prev_model)`` — models that accept an
  ``init_from`` keyword resume from the previous round's parameters and
  train :func:`resolve_warm_epochs` epochs instead of a full cold fit.
  Probe with :func:`supports_warm_start`.  ``init_from=None`` must remain
  byte-identical to the historical cold fit (same RNG draw order).
* ``get_params()`` / ``set_params(state)`` — a pure-JSON round trip of
  the fitted parameter state, so snapshot restore is O(params) instead
  of O(retrain).  Probe with :func:`supports_param_state`.

Every fit (cold or warm) and every ``set_params`` bumps a monotonically
increasing ``_fit_generation`` counter (see :func:`fit_generation`); the
prediction cache keys on it so a model refitted in place can never serve
stale forward passes.

:class:`NumpyModel` is the skeleton every numpy family in this package
builds on: a constructor-argument ``clone``, the parameter-state codec,
the not-fitted and warm-start-source checks, and the construction-time
:data:`ARGUMENT_RULES`.
"""

from __future__ import annotations

import functools
import inspect
from abc import ABC, abstractmethod

import numpy as np

from ..data.datasets import SequenceDataset, TextDataset
from ..exceptions import ConfigurationError, NotFittedError
from ..ioutil import is_int, is_number


class Classifier(ABC):
    """A trainable multi-class text classifier."""

    @abstractmethod
    def fit(self, dataset: TextDataset) -> "Classifier":
        """Train (from scratch) on ``dataset`` and return ``self``."""

    @abstractmethod
    def predict_proba(self, dataset: TextDataset) -> np.ndarray:
        """Return an ``(n, num_classes)`` matrix of class probabilities."""

    @abstractmethod
    def clone(self) -> "Classifier":
        """Return an unfitted copy with the same hyper-parameters."""

    def predict(self, dataset: TextDataset) -> np.ndarray:
        """Return the argmax class per sample."""
        return self.predict_proba(dataset).argmax(axis=1)

    def accuracy(self, dataset: TextDataset) -> float:
        """Fraction of samples whose argmax class matches the gold label."""
        if not len(dataset):
            return 0.0
        return float((self.predict(dataset) == dataset.labels).mean())

    # -- optional capabilities, overridden by capable subclasses ---------

    def expected_gradient_lengths(self, dataset: TextDataset) -> np.ndarray:
        """Eq. (5): per-sample expected loss-gradient norm.

        Raises :class:`NotImplementedError` unless the subclass is
        EGL-capable; use :func:`supports_gradient_lengths` to probe.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support EGL")

    def expected_embedding_gradients(self, dataset: TextDataset) -> np.ndarray:
        """Eq. (12): per-sample max-over-words expected embedding-gradient norm."""
        raise NotImplementedError(f"{type(self).__name__} does not support EGL-word")

    def predict_proba_samples(
        self, dataset: TextDataset, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Return ``(n_samples, n, num_classes)`` MC-dropout probability draws."""
        raise NotImplementedError(f"{type(self).__name__} does not support MC sampling")

    def get_params(self) -> dict:
        """Return the fitted parameter state as a pure-JSON document."""
        raise NotImplementedError(f"{type(self).__name__} does not support get_params")

    def set_params(self, state: dict) -> "Classifier":
        """Restore the state produced by :meth:`get_params` and return ``self``."""
        raise NotImplementedError(f"{type(self).__name__} does not support set_params")


class SequenceLabeler(ABC):
    """A trainable sequence tagger with probabilistic outputs."""

    @abstractmethod
    def fit(self, dataset: SequenceDataset) -> "SequenceLabeler":
        """Train (from scratch) on ``dataset`` and return ``self``."""

    @abstractmethod
    def predict_tags(self, dataset: SequenceDataset) -> list[np.ndarray]:
        """Return the Viterbi tag-id sequence for every sentence."""

    @abstractmethod
    def best_path_log_proba(self, dataset: SequenceDataset) -> np.ndarray:
        """Return ``log p(y* | x)`` of the Viterbi path, per sentence."""

    @abstractmethod
    def token_marginals(self, dataset: SequenceDataset) -> list[np.ndarray]:
        """Return per-sentence ``(length, num_tags)`` marginal matrices."""

    @abstractmethod
    def clone(self) -> "SequenceLabeler":
        """Return an unfitted copy with the same hyper-parameters."""

    def token_marginal_samples(
        self, dataset: SequenceDataset, n_samples: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Return per-sentence ``(n_samples, length, num_tags)`` stochastic marginals."""
        raise NotImplementedError(f"{type(self).__name__} does not support MC sampling")

    def get_params(self) -> dict:
        """Return the fitted parameter state as a pure-JSON document."""
        raise NotImplementedError(f"{type(self).__name__} does not support get_params")

    def set_params(self, state: dict) -> "SequenceLabeler":
        """Restore the state produced by :meth:`get_params` and return ``self``."""
        raise NotImplementedError(f"{type(self).__name__} does not support set_params")


def supports_gradient_lengths(model: object) -> bool:
    """Whether ``model`` overrides :meth:`Classifier.expected_gradient_lengths`."""
    return type(model).expected_gradient_lengths is not Classifier.expected_gradient_lengths


def supports_embedding_gradients(model: object) -> bool:
    """Whether ``model`` overrides :meth:`Classifier.expected_embedding_gradients`."""
    return (
        type(model).expected_embedding_gradients
        is not Classifier.expected_embedding_gradients
    )


def supports_stochastic_predictions(model: object) -> bool:
    """Whether ``model`` supports MC-dropout sampling (classifier or labeler)."""
    if isinstance(model, Classifier):
        return type(model).predict_proba_samples is not Classifier.predict_proba_samples
    if isinstance(model, SequenceLabeler):
        return (
            type(model).token_marginal_samples is not SequenceLabeler.token_marginal_samples
        )
    return False


def supports_warm_start(model: object) -> bool:
    """Whether ``model.fit`` accepts an ``init_from`` previous model."""
    fit = getattr(type(model), "fit", None)
    if fit is None:
        return False
    try:
        signature = inspect.signature(fit)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return False
    return "init_from" in signature.parameters


def supports_param_state(model: object) -> bool:
    """Whether ``model`` implements the ``get_params``/``set_params`` round trip."""
    if isinstance(model, Classifier):
        return (
            type(model).get_params is not Classifier.get_params
            and type(model).set_params is not Classifier.set_params
        )
    if isinstance(model, SequenceLabeler):
        return (
            type(model).get_params is not SequenceLabeler.get_params
            and type(model).set_params is not SequenceLabeler.set_params
        )
    return callable(getattr(model, "get_params", None)) and callable(
        getattr(model, "set_params", None)
    )


def fit_generation(model: object) -> int:
    """Monotonic fit counter; 0 for a model that has never been fitted."""
    return int(getattr(model, "_fit_generation", 0))


def bump_fit_generation(model: object) -> None:
    """Advance ``model``'s fit generation (call at the end of fit/set_params)."""
    model._fit_generation = fit_generation(model) + 1


def resolve_warm_epochs(epochs: int, warm_epochs: "int | None") -> int:
    """Epoch budget for a warm fit: explicit override or ``epochs // 4``."""
    if warm_epochs is not None:
        return int(warm_epochs)
    return max(1, int(epochs) // 4)


def params_to_jsonable(arrays: "dict[str, np.ndarray]") -> dict:
    """Serialize named float arrays to nested lists (exact ``repr`` round trip)."""
    return {name: np.asarray(value).tolist() for name, value in arrays.items()}


def params_from_jsonable(payload: dict) -> "dict[str, np.ndarray]":
    """Rebuild float64 arrays from :func:`params_to_jsonable` output."""
    return {
        name: np.asarray(value, dtype=np.float64) for name, value in payload.items()
    }


_POSITIVE_INT = (lambda value: is_int(value) and value > 0, "a positive integer")
_POSITIVE_INT_OR_NULL = (
    lambda value: value is None or _POSITIVE_INT[0](value),
    "a positive integer or null",
)
_POSITIVE = (lambda value: is_number(value) and value > 0, "a positive number")
_NON_NEGATIVE = (
    lambda value: is_number(value) and value >= 0, "a non-negative number"
)
_FRACTION = (lambda value: is_number(value) and 0 <= value < 1, "a number in [0, 1)")

#: Construction-time rules for the hyper-parameters the families share:
#: constructor argument -> (check, the rule as error messages state it).
ARGUMENT_RULES = {
    "epochs": _POSITIVE_INT,
    "batch_size": _POSITIVE_INT,
    "hidden_dim": _POSITIVE_INT,
    "embedding_dim": _POSITIVE_INT,
    "filters": _POSITIVE_INT,
    "warm_epochs": _POSITIVE_INT_OR_NULL,
    "max_length": _POSITIVE_INT_OR_NULL,
    "learning_rate": _POSITIVE,
    "l2": _NON_NEGATIVE,
    "dropout": _FRACTION,
    "feature_dropout": _FRACTION,
}


@functools.cache
def init_arguments(cls: type) -> "tuple[str, ...]":
    """Names of ``cls``'s constructor arguments, in signature order."""
    return tuple(inspect.signature(cls).parameters)


class NumpyModel:
    """Shared skeleton of the numpy model families.

    A subclass stores every constructor argument under its own name and
    calls :meth:`_check_arguments` once they are stored; keeps its
    fitted arrays in ``self._params``; and names in :attr:`STATE_META`
    the integer attributes (each stored as ``_<name>``) that its
    parameter state carries beside the arrays.
    """

    #: Integer attributes saved in the ``meta`` of :meth:`get_params`.
    STATE_META: "tuple[str, ...]" = ()
    _params: "dict[str, np.ndarray] | None"

    def _check_arguments(self) -> None:
        """Apply :data:`ARGUMENT_RULES` to the stored constructor arguments.

        Raises
        ------
        ConfigurationError
            Naming the class, the argument and its rule.
        """
        for name in init_arguments(type(self)):
            check, rule = ARGUMENT_RULES.get(name, (None, None))
            value = getattr(self, name)
            if check is not None and not check(value):
                raise ConfigurationError(
                    f"{type(self).__name__} {name} must be {rule}, got {value!r}"
                )

    def clone(self):
        """Return an unfitted copy with the same constructor arguments."""
        cls = type(self)
        return cls(**{name: getattr(self, name) for name in init_arguments(cls)})

    def _require_fitted(self) -> "dict[str, np.ndarray]":
        if self._params is None:
            raise NotFittedError(f"{type(self).__name__} used before fit()")
        return self._params

    def _warm_source(self, init_from) -> "dict[str, np.ndarray]":
        """The fitted arrays of ``init_from``, which must be of this class."""
        if not isinstance(init_from, type(self)):
            raise ConfigurationError(
                f"cannot warm-start {type(self).__name__} from "
                f"{type(init_from).__name__}"
            )
        return init_from._require_fitted()

    def get_params(self) -> dict:
        """The fitted parameter state as a pure-JSON document."""
        return {
            "arrays": params_to_jsonable(self._require_fitted()),
            "meta": {name: int(getattr(self, f"_{name}")) for name in self.STATE_META},
        }

    def set_params(self, state: dict):
        """Restore the state produced by :meth:`get_params` and return ``self``."""
        self._params = params_from_jsonable(state["arrays"])
        for name in self.STATE_META:
            setattr(self, f"_{name}", int(state["meta"][name]))
        bump_fit_generation(self)
        return self
