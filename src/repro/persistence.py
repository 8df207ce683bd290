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
from pathlib import Path

import numpy as np

from .core.features import RankingFeatureExtractor
from .core.ranker_training import LHSRanker
from .exceptions import DataError
from .formats import RANKER_FORMAT, RANKER_VERSION
from .ioutil import atomic_write_text
from .ltr.lambdamart import LambdaMART
from .ltr.trees import RegressionTree, _Node
from .models.lstm import LSTMRegressor
from .timeseries.autoregressive import ARPredictor
from .timeseries.predictor import ARNextScorePredictor, LSTMNextScorePredictor


# -- trees -------------------------------------------------------------------


def _node_to_dict(node: _Node) -> dict:
    # Iterative traversal: trees loaded from JSON can be deeper than the
    # interpreter's recursion limit allows.
    root_payload: dict = {}
    stack = [(node, root_payload)]
    while stack:
        current, payload = stack.pop()
        if current.is_leaf:
            payload["value"] = current.value
        else:
            payload["feature"] = current.feature
            payload["threshold"] = current.threshold
            payload["left"] = {}
            payload["right"] = {}
            stack.append((current.right, payload["right"]))
            stack.append((current.left, payload["left"]))
    return root_payload


def _node_from_dict(payload: dict) -> _Node:
    root = _Node()
    stack = [(payload, root)]
    while stack:
        data, node = stack.pop()
        if "feature" not in data:
            node.value = float(data["value"])
        else:
            node.feature = int(data["feature"])
            node.threshold = float(data["threshold"])
            node.left = _Node()
            node.right = _Node()
            stack.append((data["right"], node.right))
            stack.append((data["left"], node.left))
    return root


def _tree_to_dict(tree: RegressionTree) -> dict:
    if tree._root is None:
        raise DataError("cannot serialise an unfitted tree")
    return {
        "max_depth": tree.max_depth,
        "min_samples_leaf": tree.min_samples_leaf,
        "root": _node_to_dict(tree._root),
    }


def _tree_from_dict(payload: dict) -> RegressionTree:
    tree = RegressionTree(
        max_depth=int(payload["max_depth"]),
        min_samples_leaf=int(payload["min_samples_leaf"]),
    )
    tree._root = _node_from_dict(payload["root"])
    return tree


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
    model = LambdaMART(
        n_estimators=int(payload["n_estimators"]),
        learning_rate=float(payload["learning_rate"]),
        max_depth=int(payload["max_depth"]),
        min_samples_leaf=int(payload["min_samples_leaf"]),
        sigma=float(payload["sigma"]),
        ndcg_k=payload["ndcg_k"],
    )
    model._trees = [_tree_from_dict(tree) for tree in payload["trees"]]
    return model


# -- predictors ------------------------------------------------------------------


def _predictor_to_dict(predictor) -> "dict | None":
    if predictor is None:
        return None
    if isinstance(predictor, ARNextScorePredictor):
        inner = predictor._model
        if inner._coefficients is None:
            raise DataError("cannot serialise an unfitted AR predictor")
        return {
            "kind": "ar",
            "order": inner.order,
            "ridge": inner.ridge,
            "coefficients": inner._coefficients.tolist(),
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
    if payload["kind"] == "ar":
        predictor = ARNextScorePredictor(
            order=int(payload["order"]), ridge=float(payload["ridge"])
        )
        inner: ARPredictor = predictor._model
        inner._coefficients = np.asarray(payload["coefficients"], dtype=np.float64)
        return predictor
    if payload["kind"] == "lstm":
        predictor = LSTMNextScorePredictor(
            hidden_dim=int(payload["hidden_dim"]),
            epochs=int(payload["epochs"]),
            seed=int(payload["seed"]),
        )
        inner: LSTMRegressor = predictor._model
        inner.learning_rate = float(payload["learning_rate"])
        inner.set_params({"arrays": payload["params"], "meta": {}})
        return predictor
    raise DataError(f"unknown predictor kind {payload['kind']!r}")


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
    return RankingFeatureExtractor(
        window=int(payload["window"]),
        predictor=_predictor_from_dict(payload["predictor"]),
        use_history=bool(payload["use_history"]),
        use_fluctuation=bool(payload["use_fluctuation"]),
        use_trend=bool(payload["use_trend"]),
        use_prediction=bool(payload["use_prediction"]),
        use_probabilities=bool(payload["use_probabilities"]),
        use_window_stats=bool(payload.get("use_window_stats", False)),
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
        If the file is not a ranker document or has an unknown version.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise DataError(f"cannot read ranker file {path}: {error}") from error
    if not isinstance(payload, dict) or payload.get("format") != RANKER_FORMAT:
        raise DataError(f"{path} is not an LHS ranker document")
    if payload.get("version") != RANKER_VERSION:
        raise DataError(
            f"unsupported ranker format version {payload.get('version')!r}"
        )
    return LHSRanker(
        model=_ranker_model_from_dict(payload["model"]),
        extractor=_extractor_from_dict(payload["extractor"]),
        base_name=str(payload["base_name"]),
        training_rows=int(payload["training_rows"]),
        source=str(path),
    )
