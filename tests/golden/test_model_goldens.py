"""Golden digests of the bytes the model layer writes.

Each case runs short active-learning sessions (or fits, or ranker
trainings) and hashes the JSON the run would persist: every round's
``snapshot()``, the final ``result_to_dict``, a run resumed from the
round-1 snapshot, directly fitted ``get_params()`` state (cold and
warm-started), the clone's spec, and saved LHS rankers.  A refactor of
the models must leave every digest unchanged.

Snapshots and parameter states are hashed through :func:`as_v3`, their
version-3 list form, so the digests pinned before snapshot version 4
encoded its arrays still pin every value; ``snapshots_v4`` pins the raw
version-4 bytes of each session case as well.

Float bytes depend on BLAS summation order, so ``models.json`` records
the numpy version it was generated with and the cases skip under any
other.  Regenerate the file only for a change that is meant to move
bytes::

    PYTHONPATH=src python -m tests.golden.test_model_goldens --write
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.ranker_training import RankerTrainingConfig, train_lhs_ranker
from repro.core.session import SessionEngine, result_to_dict, run_to_completion
from repro.core.strategies import Entropy
from repro.data.ner import NERCorpusSpec, make_ner_corpus
from repro.data.text import TextCorpusSpec, make_text_corpus
from repro.models import LinearSoftmax, LSTMRegressor
from repro.persistence import load_lhs_ranker, save_lhs_ranker
from repro.specs import Spec, build_model, build_strategy, spec_of_model
from repro.specs.strategies import parse_strategy_shorthand

GOLDEN_PATH = Path(__file__).with_name("models.json")

#: kind -> (task, small hyper-parameters, strategy shorthands).
FAMILIES = {
    "linear": ("text", {"epochs": 6}, ("random", "entropy", "wshs:entropy", "egl")),
    "mlp": (
        "text",
        {"hidden_dim": 8, "embedding_dim": 8, "epochs": 6},
        ("entropy", "wshs:entropy", "bald", "egl"),
    ),
    "textcnn": (
        "text",
        {"embedding_dim": 8, "filters": 4, "epochs": 2},
        ("entropy", "bald", "egl-word"),
    ),
    "crf": ("ner", {"epochs": 3}, ("lc", "wshs:lc", "bald", "mnlp")),
    "bilstm-crf": (
        "ner",
        {"embedding_dim": 8, "hidden_dim": 6, "epochs": 2},
        ("lc", "bald"),
    ),
}
MODES = ("cold", "warm")
SESSION = dict(batch_size=8, rounds=2, initial_size=8)


@functools.cache
def _splits(task: str):
    if task == "text":
        dataset = make_text_corpus(
            TextCorpusSpec(
                name="golden-text", num_classes=3, size=160, background_vocab=120,
                facets_per_class=4, facet_vocab=6, min_length=4, max_length=14,
            ),
            seed_or_rng=5,
        )
        return dataset.subset(range(110)), dataset.subset(range(110, 160))
    dataset = make_ner_corpus(
        NERCorpusSpec(
            name="golden-ner", size=80, background_vocab=90, gazetteer_size=12,
            mean_length=7.0, length_spread=2.0,
        ),
        seed_or_rng=6,
    )
    return dataset.subset(range(55)), dataset.subset(range(55, 80))


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _decoded(array: dict) -> np.ndarray:
    raw = base64.b64decode(array["data"])
    return np.frombuffer(raw, dtype=array["dtype"]).reshape(array["shape"])


def _as_lists(value):
    """``value`` with every encoded array replaced by its nested list."""
    if isinstance(value, dict):
        if set(value) == {"dtype", "shape", "data"}:
            return _decoded(value).tolist()
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_as_lists(item) for item in value]
    return value


def _v3_config(config: dict) -> dict:
    """Version 3 wrote the retired keys around ``training_mode``."""
    v3 = {}
    for key, value in config.items():
        if key == "training_mode":
            v3.update(reseed_model=True, history_limit=None)
        v3[key] = value
    v3["default_metric"] = True
    return v3


def _v3_history(history: dict) -> dict:
    """Version 3's sparse ``{round, indices, scores}`` row per round."""
    rows = []
    for round_index, row in zip(history["rounds"], _decoded(history["scores"])):
        indices = np.flatnonzero(~np.isnan(row))
        rows.append(
            {"round": round_index, "indices": indices.tolist(), "scores": row[indices].tolist()}
        )
    v3 = {"n_samples": history["n_samples"], "strategy_name": history["strategy_name"]}
    v3["rounds"] = rows
    if "labels" in history:
        v3["labels"] = history["labels"]
    return v3


def as_v3(document: dict) -> dict:
    """The version-3 list form of a version-4 snapshot or a ``get_params`` state.

    Encoded arrays become nested lists; a snapshot also gets version 3's
    history rows, its retired config keys and ``version: 3``.
    """
    if document.get("format") != "repro.al_session":
        return _as_lists(document)
    v3 = _as_lists(document)
    v3.update(
        version=3,
        config=_v3_config(document["config"]),
        history=_v3_history(document["history"]),
    )
    return v3


def _model(kind: str, mode: str):
    params = dict(FAMILIES[kind][1])
    if mode == "warm":
        params["warm_epochs"] = 1
    return build_model(Spec(kind=kind, params=params))


def _strategy(shorthand: str):
    return build_strategy(parse_strategy_shorthand(shorthand))


def _session_digests(kind: str, mode: str) -> dict:
    task, _, shorthands = FAMILIES[kind]
    train, test = _splits(task)
    snapshots, results, resumed = [], [], []
    for seed, shorthand in enumerate(shorthands):
        engine = SessionEngine(
            _model(kind, mode), _strategy(shorthand), train, test,
            seed_or_rng=seed, training_mode=mode, **SESSION,
        )
        rounds: list = []
        result = run_to_completion(
            engine, on_round_committed=lambda e: rounds.append(e.snapshot())
        )
        snapshots.append(rounds)
        results.append(result_to_dict(result))
        restored = SessionEngine.restore(
            rounds[0], _model(kind, mode), _strategy(shorthand), train, test
        )
        tail: list = []
        final = run_to_completion(
            restored, on_round_committed=lambda e: tail.append(e.snapshot())
        )
        resumed.append([[as_v3(s) for s in tail], result_to_dict(final)])
    return {
        "snapshots": _digest([[as_v3(s) for s in rounds] for rounds in snapshots]),
        "snapshots_v4": _digest(snapshots),
        "results": _digest(results),
        "resumed": _digest(resumed),
    }


def _fit_digests(kind: str) -> dict:
    task = FAMILIES[kind][0]
    train, _ = _splits(task)
    prototype = _model(kind, "warm")
    cold = prototype.clone().fit(train.subset(range(20)))
    warm = prototype.clone().fit(train.subset(range(30)), init_from=cold)
    return {
        "cold_params": _digest(as_v3(cold.get_params())),
        "warm_params": _digest(as_v3(warm.get_params())),
        "clone_spec": _digest(spec_of_model(prototype.clone()).to_dict()),
    }


def _lstm_regressor_digests() -> dict:
    rng = np.random.default_rng(3)
    sequences = [rng.random(int(n)) for n in rng.integers(1, 7, size=24)]
    targets = rng.random(24)
    cold = LSTMRegressor(hidden_dim=4, epochs=10, warm_epochs=3).fit(sequences, targets)
    warm = cold.clone().fit(sequences[:12], targets[:12], init_from=cold)
    return {
        "cold_params": _digest(as_v3(cold.get_params())),
        "warm_params": _digest(as_v3(warm.get_params())),
        "predictions": _digest(warm.predict(sequences).tolist()),
    }


def _ranker_digests(predictor: "str | None") -> dict:
    train, test = _splits("text")
    ranker = train_lhs_ranker(
        LinearSoftmax(epochs=4, seed=0),
        train,
        test,
        base=Entropy(),
        config=RankerTrainingConfig(
            rounds=2, candidates_per_round=4, initial_size=10,
            predictor=predictor, predictor_rounds=3, eval_size=40,
        ),
        seed_or_rng=1,
    )
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "ranker.json"
        save_lhs_ranker(ranker, path)
        saved = path.read_bytes()
        save_lhs_ranker(load_lhs_ranker(path), path)
        reloaded = path.read_bytes()
    return {
        "saved": hashlib.sha256(saved).hexdigest(),
        "reloaded": hashlib.sha256(reloaded).hexdigest(),
    }


def _cases() -> dict:
    cases = {}
    for kind in FAMILIES:
        for mode in MODES:
            cases[f"{kind}-{mode}"] = functools.partial(_session_digests, kind, mode)
        cases[f"{kind}-fit"] = functools.partial(_fit_digests, kind)
    cases["lstm-regressor"] = _lstm_regressor_digests
    for predictor in ("lstm", "ar", None):
        cases[f"ranker-{predictor or 'none'}"] = functools.partial(
            _ranker_digests, predictor
        )
    return cases


CASES = _cases()


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", list(CASES))
def test_digests_match_golden(case):
    golden = _golden()
    if golden["numpy"] != np.__version__:
        pytest.skip(
            f"goldens were generated with numpy {golden['numpy']}, "
            f"this is numpy {np.__version__}"
        )
    assert CASES[case]() == golden["digests"][case]


def main(argv: "list[str]") -> int:
    if argv != ["--write"]:
        print(f"usage: python -m {__spec__.name} --write", file=sys.stderr)
        return 2
    document = {
        "numpy": np.__version__,
        "digests": {name: compute() for name, compute in CASES.items()},
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {len(document['digests'])} cases to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
