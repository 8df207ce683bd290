"""Save and load trained LHS rankers as plain JSON.

A ranker trained by Algorithm 1 is expensive (it retrains the task model
once per candidate), and the paper's deployment story is explicitly to
train once on a labeled corpus and reuse the ranker on other datasets of
the same task.  This module persists the whole
:class:`~repro.core.ranker_training.LHSRanker` bundle — LambdaMART trees,
feature-extractor configuration, and the fitted next-score predictor — as
a single JSON document.  JSON (not pickle) keeps the artifact inspectable
and safe to load from untrusted sources.
"""

from __future__ import annotations

import json
import reprlib
from pathlib import Path

from .core.features import RankingFeatureExtractor
from .core.ranker_training import LHSRanker
from .exceptions import ConfigurationError, DataError
from .formats import RANKER_FORMAT, RANKER_VERSION
from .ioutil import atomic_write_text, decode_array, is_int, is_number, read_json
from .ltr.lambdamart import LambdaMART
from .ltr.trees import RegressionTree
from .models.lstm import LSTMRegressor
from .timeseries.predictor import ARNextScorePredictor, LSTMNextScorePredictor


# -- typed reads ---------------------------------------------------------------


class _FieldError(Exception):
    """A ranker document field that is missing or malformed."""


#: Field kinds of a ranker document: kind -> (rule, test, conversion).
_KINDS = {
    "int": ("an int", is_int, int),
    "int or null": ("an int or null", lambda v: v is None or is_int(v), lambda v: v),
    "number": ("a number", is_number, float),
    "bool": ("a bool", lambda v: isinstance(v, bool), bool),
    "string": ("a string", lambda v: isinstance(v, str), str),
    "list": ("a list", lambda v: isinstance(v, list), lambda v: v),
    "object": ("an object", lambda v: isinstance(v, dict), lambda v: v),
    "object or null": ("an object or null", lambda v: v is None or isinstance(v, dict),
                       lambda v: v),
}

_REQUIRED = object()


def _check(value, name: str, kind: str):
    """``value`` converted to ``kind``; a ``_FieldError`` naming ``name`` if it
    is not of that kind."""
    rule, valid, convert = _KINDS[kind]
    if not valid(value):
        raise _FieldError(f"{name} must be {rule}, got {reprlib.repr(value)}")
    return convert(value)


def _read(payload: dict, where: str, key: str, kind: str, default=_REQUIRED):
    """``payload[key]`` checked as ``kind``; ``where`` is ``payload``'s dotted path."""
    name = f"{where}.{key}" if where else key
    if key not in payload:
        if default is _REQUIRED:
            raise _FieldError(f"{name} is missing")
        return default
    return _check(payload[key], name, kind)


def _build(where: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, its ``ConfigurationError`` naming ``where``."""
    try:
        return factory(*args, **kwargs)
    except ConfigurationError as error:
        raise _FieldError(f"{where}: {error}") from None


# -- trees -------------------------------------------------------------------


def _tree_to_dict(tree: RegressionTree) -> dict:
    if tree.value is None:
        raise DataError("cannot serialise an unfitted tree")
    # Iterative walks here and in _tree_from_dict: a tree loaded from JSON
    # can be deeper than the interpreter's recursion limit allows.
    root: dict = {}
    stack = [(0, root)]
    while stack:
        node, payload = stack.pop()
        if tree.left[node] == node:
            payload["value"] = float(tree.value[node])
        else:
            payload["feature"] = int(tree.feature[node])
            payload["threshold"] = float(tree.threshold[node])
            payload["left"] = {}
            payload["right"] = {}
            stack.append((tree.right[node], payload["right"]))
            stack.append((tree.left[node], payload["left"]))
    return {
        "max_depth": tree.max_depth,
        "min_samples_leaf": tree.min_samples_leaf,
        "root": root,
    }


def _tree_from_dict(payload, where: str = "tree") -> RegressionTree:
    payload = _check(payload, where, "object")
    tree = _build(
        where, RegressionTree,
        max_depth=_read(payload, where, "max_depth", "int"),
        min_samples_leaf=_read(payload, where, "min_samples_leaf", "int"),
    )
    # Laid out in preorder, as RegressionTree.fit grows it.
    nodes: list[list] = []
    stack = [(_read(payload, where, "root", "object"), 0, -1)]
    while stack:
        data, depth, parent = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node  # the right child its split waited for
        # A node is named by its depth below the root: a left/right path
        # per node would cost O(depth) on the deep chains this walk is for.
        at = f"{where}.root[depth {depth}]"
        if "feature" not in data:
            nodes.append([0, 0.0, node, node, _read(data, at, "value", "number")])
            continue
        nodes.append([
            _read(data, at, "feature", "int"), _read(data, at, "threshold", "number"),
            node + 1, -1, 0.0,
        ])
        stack.append((_read(data, at, "right", "object"), depth + 1, node))
        stack.append((_read(data, at, "left", "object"), depth + 1, -1))
    return _build(where, tree.set_nodes, *zip(*nodes))


# -- LambdaMART ---------------------------------------------------------------


def _ranker_model_to_dict(model: LambdaMART) -> dict:
    if not model._trees:
        raise DataError("cannot serialise an unfitted LambdaMART model")
    return {
        "n_estimators": model.n_estimators,
        "learning_rate": model.learning_rate,
        "max_depth": model.max_depth,
        "min_samples_leaf": model.min_samples_leaf,
        "sigma": model.sigma,
        "ndcg_k": model.ndcg_k,
        "trees": [_tree_to_dict(tree) for tree in model._trees],
    }


def _ranker_model_from_dict(payload: dict) -> LambdaMART:
    model = _build(
        "model", LambdaMART,
        n_estimators=_read(payload, "model", "n_estimators", "int"),
        learning_rate=_read(payload, "model", "learning_rate", "number"),
        max_depth=_read(payload, "model", "max_depth", "int"),
        min_samples_leaf=_read(payload, "model", "min_samples_leaf", "int"),
        sigma=_read(payload, "model", "sigma", "number"),
        ndcg_k=_read(payload, "model", "ndcg_k", "int or null"),
    )
    model._trees = [
        _tree_from_dict(tree, f"model.trees[{index}]")
        for index, tree in enumerate(_read(payload, "model", "trees", "list"))
    ]
    return model


# -- predictors ------------------------------------------------------------------


def _predictor_to_dict(predictor) -> "dict | None":
    if predictor is None:
        return None
    if isinstance(predictor, ARNextScorePredictor):
        if predictor.coefficients is None:
            raise DataError("cannot serialise an unfitted AR predictor")
        return {
            "kind": "ar",
            "order": predictor.order,
            "ridge": predictor.ridge,
            "coefficients": predictor.coefficients.tolist(),
        }
    if isinstance(predictor, LSTMNextScorePredictor):
        inner = predictor._model
        if inner._params is None:
            raise DataError("cannot serialise an unfitted LSTM predictor")
        return {
            "kind": "lstm",
            "hidden_dim": inner.hidden_dim,
            "epochs": inner.epochs,
            "learning_rate": inner.learning_rate,
            "seed": inner.seed,
            # Nested lists, not get_params' encoded arrays: ranker
            # bundles keep the list form they were first written in.
            "params": {name: value.tolist() for name, value in inner._params.items()},
        }
    raise DataError(f"cannot serialise predictor of type {type(predictor).__name__}")


def _predictor_from_dict(payload: "dict | None"):
    if payload is None:
        return None
    where = "extractor.predictor"
    kind = _read(payload, where, "kind", "string")
    if kind == "ar":
        predictor = _build(
            where, ARNextScorePredictor,
            order=_read(payload, where, "order", "int"),
            ridge=_read(payload, where, "ridge", "number"),
        )
        coefficients = decode_array(
            _read(payload, where, "coefficients", "list"),
            _FieldError, f"{where}.coefficients",
        )
        if coefficients.shape != (predictor.order + 1,):
            raise _FieldError(
                f"{where}.coefficients must hold order + 1 = {predictor.order + 1} "
                f"numbers, got shape {coefficients.shape}"
            )
        predictor.coefficients = coefficients
        return predictor
    if kind == "lstm":
        predictor = _build(
            where, LSTMNextScorePredictor,
            hidden_dim=_read(payload, where, "hidden_dim", "int"),
            epochs=_read(payload, where, "epochs", "int"),
            seed=_read(payload, where, "seed", "int"),
        )
        inner: LSTMRegressor = predictor._model
        inner.learning_rate = _read(payload, where, "learning_rate", "number")
        params = _read(payload, where, "params", "object")
        _build(f"{where}.params", inner.set_params, {"arrays": params, "meta": {}})
        return predictor
    raise _FieldError(f"{where}.kind must be 'ar' or 'lstm', got {kind!r}")


# -- extractor + bundle --------------------------------------------------------------


def _extractor_to_dict(extractor: RankingFeatureExtractor) -> dict:
    return {
        "window": extractor.window,
        "use_history": extractor.use_history,
        "use_fluctuation": extractor.use_fluctuation,
        "use_trend": extractor.use_trend,
        "use_prediction": extractor.use_prediction,
        "use_probabilities": extractor.use_probabilities,
        "use_window_stats": extractor.use_window_stats,
        "predictor": _predictor_to_dict(extractor.predictor),
    }


def _extractor_from_dict(payload: dict) -> RankingFeatureExtractor:
    def flag(key: str, default=_REQUIRED) -> bool:
        return _read(payload, "extractor", key, "bool", default)

    return _build(
        "extractor", RankingFeatureExtractor,
        window=_read(payload, "extractor", "window", "int"),
        predictor=_predictor_from_dict(
            _read(payload, "extractor", "predictor", "object or null")
        ),
        use_history=flag("use_history"),
        use_fluctuation=flag("use_fluctuation"),
        use_trend=flag("use_trend"),
        use_prediction=flag("use_prediction"),
        use_probabilities=flag("use_probabilities"),
        use_window_stats=flag("use_window_stats", False),
    )


def save_lhs_ranker(ranker: LHSRanker, path: "str | Path") -> None:
    """Write ``ranker`` to ``path`` as a single JSON document.

    The write is atomic (temp file + ``os.replace``): a crash mid-write
    leaves any existing file at ``path`` intact rather than truncated.
    """
    payload = {
        "format": RANKER_FORMAT,
        "version": RANKER_VERSION,
        "base_name": ranker.base_name,
        "training_rows": ranker.training_rows,
        "model": _ranker_model_to_dict(ranker.model),
        "extractor": _extractor_to_dict(ranker.extractor),
    }
    atomic_write_text(path, json.dumps(payload))


def load_lhs_ranker(path: "str | Path") -> LHSRanker:
    """Load a ranker written by :func:`save_lhs_ranker`.

    Raises
    ------
    DataError
        If the file is not a ranker document, has an unknown version, or
        has a section or field that is missing, of the wrong type or
        rejected by the class it builds; the message names the file and
        the field.
    """
    payload = read_json(path, DataError, "cannot read ranker file")
    if not isinstance(payload, dict) or payload.get("format") != RANKER_FORMAT:
        raise DataError(f"{path} is not an LHS ranker document")
    if payload.get("version") != RANKER_VERSION:
        raise DataError(
            f"unsupported ranker format version {payload.get('version')!r}"
        )
    try:
        return LHSRanker(
            model=_ranker_model_from_dict(_read(payload, "", "model", "object")),
            extractor=_extractor_from_dict(_read(payload, "", "extractor", "object")),
            base_name=_read(payload, "", "base_name", "string"),
            training_rows=_read(payload, "", "training_rows", "int"),
            source=str(path),
        )
    except _FieldError as error:
        raise DataError(f"{path}: {error}") from None
