"""Model protocols used by query strategies and the AL loop.

Two abstract families cover the paper's two tasks:

* :class:`Classifier` — text classification; exposes class probabilities.
* :class:`SequenceLabeler` — NER; exposes best-path log-probabilities and
  per-token marginals, which is all LC/entropy/MNLP need.

Every model keeps one contract, so no caller probes for it:
``fit(dataset, init_from=None)`` trains from scratch, or with
``init_from`` (the previous round's fitted model) resumes from its
parameters for :func:`resolve_warm_epochs` epochs; ``get_params()`` /
``set_params(state)`` round-trip the fitted parameter state as pure
JSON (arrays through :func:`repro.ioutil.encode_array`; ``set_params``
also takes nested lists), which is how snapshots restore models, in
O(params).  The capabilities that really vary between families
(expected gradient lengths for EGL, embedding gradients for EGL-word,
stochastic predictions for BALD) are discovered with the
``supports_*`` helpers so strategies can fail fast with a clear error
when paired with an incapable model.

Every fit (cold or warm) and every ``set_params`` bumps a monotonically
increasing ``_fit_generation`` counter (see :func:`fit_generation`); the
prediction cache keys on it so a model refitted in place can never serve
stale forward passes.

:class:`NumpyModel` is the skeleton every numpy family in this package
builds on: a constructor-argument ``clone``, the one minibatch training
loop, the parameter-state codec, the not-fitted and warm-start-source
checks, and the construction-time :data:`ARGUMENT_RULES`.
"""

from __future__ import annotations

import functools
import inspect
from abc import ABC, abstractmethod

import numpy as np

from ..data.datasets import SequenceDataset, TextDataset
from ..exceptions import ConfigurationError, NotFittedError
from ..ioutil import decode_array, encode_array, is_int, is_number
from ..rng import ensure_rng
from .layers import Adam, minibatches


class Classifier(ABC):
    """A trainable multi-class text classifier."""

    @abstractmethod
    def fit(self, dataset: TextDataset, init_from: "Classifier | None" = None) -> "Classifier":
        """Train on ``dataset`` (warm-started from ``init_from``) and return ``self``."""

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

    @abstractmethod
    def get_params(self) -> dict:
        """Return the fitted parameter state as a pure-JSON document."""

    @abstractmethod
    def set_params(self, state: dict) -> "Classifier":
        """Restore the state produced by :meth:`get_params` and return ``self``."""


class SequenceLabeler(ABC):
    """A trainable sequence tagger with probabilistic outputs.

    Every decode takes the :meth:`emissions` of its dataset as an
    optional ``emissions`` keyword, so a caller can compute them once.
    The Viterbi pass is :meth:`predict_tags` and the forward pass is
    :meth:`decode`, which scores given tag paths; a caller holding the
    Viterbi paths gets their log-probabilities without a second Viterbi
    pass.
    """

    @abstractmethod
    def fit(
        self, dataset: SequenceDataset, init_from: "SequenceLabeler | None" = None
    ) -> "SequenceLabeler":
        """Train on ``dataset`` (warm-started from ``init_from``) and return ``self``."""

    @abstractmethod
    def emissions(self, dataset: SequenceDataset) -> list[np.ndarray]:
        """Return per-sentence dropout-free ``(length, num_tags)`` emission scores."""

    @abstractmethod
    def decode(
        self, dataset: SequenceDataset, tags: "list[np.ndarray]", *,
        emissions: "list | None" = None,
    ) -> np.ndarray:
        """Return ``log p(tags | x)`` per sentence, from one forward pass.

        ``tags`` holds one tag-id sequence per sentence, one tag per
        token (:meth:`predict_tags` gives the Viterbi ones).
        """

    @abstractmethod
    def predict_tags(
        self, dataset: SequenceDataset, *, emissions: "list | None" = None
    ) -> list[np.ndarray]:
        """Return the Viterbi tag-id sequence for every sentence (the Viterbi pass)."""

    @abstractmethod
    def best_path_log_proba(
        self, dataset: SequenceDataset, *, emissions: "list | None" = None
    ) -> np.ndarray:
        """Return ``log p(y* | x)`` of the Viterbi path, per sentence."""

    @abstractmethod
    def token_marginals(
        self, dataset: SequenceDataset, *, emissions: "list | None" = None
    ) -> list[np.ndarray]:
        """Return per-sentence ``(length, num_tags)`` marginal matrices."""

    @abstractmethod
    def clone(self) -> "SequenceLabeler":
        """Return an unfitted copy with the same hyper-parameters."""

    def token_marginal_samples(
        self, dataset: SequenceDataset, n_samples: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Return per-sentence ``(n_samples, length, num_tags)`` stochastic marginals."""
        raise NotImplementedError(f"{type(self).__name__} does not support MC sampling")

    @abstractmethod
    def get_params(self) -> dict:
        """Return the fitted parameter state as a pure-JSON document."""

    @abstractmethod
    def set_params(self, state: dict) -> "SequenceLabeler":
        """Restore the state produced by :meth:`get_params` and return ``self``."""


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
    """Serialize named float arrays with :func:`repro.ioutil.encode_array`
    (base64 float64 bytes: an exact round trip)."""
    return {name: encode_array(value) for name, value in arrays.items()}


class _StoredArrays(dict):
    """Arrays from a stored state: reading one it lacks is a typed error."""

    def __missing__(self, name: str):
        raise ConfigurationError(f"stored parameter state has no array {name!r}")


def params_from_jsonable(payload: dict) -> "dict[str, np.ndarray]":
    """Rebuild float64 arrays from :func:`params_to_jsonable` output or
    from nested lists; a malformed array is a ``ConfigurationError``."""
    return _StoredArrays(
        (name, decode_array(value, ConfigurationError, f"arrays.{name}"))
        for name, value in payload.items()
    )


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

    A minibatch family trains through :meth:`_train` over four hooks:
    ``_training_data(dataset)`` (what every step reads, built once per
    fit; it also records ``_num_classes``/``_num_tags``),
    ``_initial_params(dataset, data, rng)`` (the cold arrays),
    ``_check_warm(previous, dataset, data)`` (reject warm-start arrays
    that do not fit) and ``_gradients(data, batch, rng)``.
    """

    #: Integer attributes saved in the ``meta`` of :meth:`get_params`.
    STATE_META: "tuple[str, ...]" = ()
    #: Word vectors of the families built on them; ``None`` for the others.
    embedding_matrix: "np.ndarray | None" = None
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

    def _train(self, dataset, init_from):
        """Cold fit or warm start: Adam over shuffled minibatches.

        Every random draw (init, shuffles, the hooks' dropout masks)
        comes from one generator seeded with ``self.seed``, in a fixed
        order, so a fit is reproducible from its seed.
        """
        if not len(dataset):
            raise ConfigurationError("cannot fit on an empty dataset")
        rng = ensure_rng(self.seed)
        previous = None
        if init_from is not None:
            previous = self._warm_source(init_from)
            if self.embedding_matrix is None:
                # Inherit the frozen embedding so features stay in the same space.
                self.embedding_matrix = init_from.embedding_matrix
        data = self._training_data(dataset)
        if previous is None:
            epochs = self.epochs
            self._params = self._initial_params(dataset, data, rng)
        else:
            self._check_warm(previous, dataset, data)
            epochs = resolve_warm_epochs(self.epochs, self.warm_epochs)
            self._params = {name: value.copy() for name, value in previous.items()}
        optimizer = Adam(learning_rate=self.learning_rate)
        for _ in range(epochs):
            for batch in minibatches(len(dataset), self.batch_size, rng):
                optimizer.update(self._params, self._gradients(data, batch, rng))
        bump_fit_generation(self)
        return self

    def get_params(self) -> dict:
        """The fitted parameter state as a pure-JSON document."""
        return {
            "arrays": params_to_jsonable(self._require_fitted()),
            "meta": {name: int(getattr(self, f"_{name}")) for name in self.STATE_META},
        }

    def set_params(self, state: dict):
        """Restore the state produced by :meth:`get_params` and return ``self``."""
        params = params_from_jsonable(state["arrays"])
        meta = {name: int(state["meta"][name]) for name in self.STATE_META}
        self._check_params(params, meta)
        self._params = params
        for name, value in meta.items():
            setattr(self, f"_{name}", value)
        bump_fit_generation(self)
        return self

    def _check_params(self, params: dict, meta: dict) -> None:
        """Reject stored arrays that cannot be this model's, with a
        ``ConfigurationError`` naming the array (no check by default)."""
