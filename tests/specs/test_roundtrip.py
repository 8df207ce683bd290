"""Round-trip tests: ``build(spec_of(x))`` behaves byte-identically to ``x``.

Every registered strategy kind is built from a canonical spec, serialised
back, rebuilt, and asked for a selection under identical conditions; the
two selections must match exactly.  Every registered model kind is built
twice the same way, fitted on the same data, and must produce identical
predictions.  A coverage guard fails the suite when a newly registered
kind has no canonical spec here.
"""

import numpy as np
import pytest

from repro.core.ranker_training import RankerTrainingConfig, train_lhs_ranker
from repro.core.strategies import Entropy
from repro.exceptions import SpecError
from repro.models import LinearSoftmax, MLPClassifier, TextCNN
from repro.persistence import load_lhs_ranker, save_lhs_ranker
from repro.specs import (
    MODEL_REGISTRY,
    STRATEGY_REGISTRY,
    build_model,
    build_strategy,
    spec_of_model,
    spec_of_strategy,
)

from ..core.helpers import make_context

ENTROPY = {"kind": "entropy", "params": {}}

#: Canonical spec and task family for every registered strategy kind.
STRATEGY_CASES = {
    "random": ({"kind": "random"}, "text"),
    "entropy": ({"kind": "entropy"}, "text"),
    "lc": ({"kind": "lc"}, "text"),
    "margin": ({"kind": "margin"}, "text"),
    "egl": ({"kind": "egl"}, "text"),
    "egl-word": ({"kind": "egl-word"}, "cnn"),
    "mnlp": ({"kind": "mnlp"}, "ner"),
    "bald": ({"kind": "bald", "params": {"n_draws": 4}}, "mc"),
    "qbc": ({"kind": "qbc", "params": {"committee_size": 2}}, "text"),
    "hkld": ({"kind": "hkld", "params": {"committee_size": 2}}, "text"),
    "density": ({"kind": "density", "params": {"base": ENTROPY, "beta": 0.5}}, "text"),
    "mmr": ({"kind": "mmr", "params": {"base": ENTROPY, "balance": 0.6}}, "text"),
    "hus": ({"kind": "hus", "params": {"base": ENTROPY, "window": 2}}, "text"),
    "wshs": ({"kind": "wshs", "params": {"base": ENTROPY, "window": 2}}, "text"),
    "fhs": ({"kind": "fhs", "params": {"base": ENTROPY, "window": 2}}, "text"),
    "lhs": (None, "text"),  # needs a trained ranker file; dedicated test below
}

#: Canonical spec and task family for every registered model kind.
MODEL_CASES = {
    "linear": ({"kind": "linear", "params": {"epochs": 2, "seed": 0}}, "text"),
    "mlp": ({"kind": "mlp", "params": {"epochs": 2, "hidden_dim": 8,
                                       "embedding_dim": 8, "seed": 0}}, "text"),
    "textcnn": ({"kind": "textcnn", "params": {"epochs": 1, "embedding_dim": 8,
                                               "filters": 4, "seed": 0}}, "text"),
    "crf": ({"kind": "crf", "params": {"epochs": 1, "seed": 0}}, "ner"),
    "bilstm-crf": ({"kind": "bilstm-crf",
                    "params": {"epochs": 1, "embedding_dim": 8, "hidden_dim": 8,
                               "seed": 0}}, "ner"),
}


def test_every_strategy_kind_has_a_case():
    assert set(STRATEGY_CASES) == set(STRATEGY_REGISTRY.kinds())


def test_every_model_kind_has_a_case():
    assert set(MODEL_CASES) == set(MODEL_REGISTRY.kinds())


def _fitted_model(task, text_dataset, ner_dataset):
    if task == "ner":
        model = build_model({"kind": "crf", "params": {"epochs": 1, "seed": 0}})
        return model.fit(ner_dataset.subset(range(40))), ner_dataset.subset(range(120))
    if task == "mc":  # needs MC-dropout support
        model = MLPClassifier(epochs=2, hidden_dim=8, embedding_dim=8,
                              dropout=0.3, seed=0)
        return model.fit(text_dataset.subset(range(60))), text_dataset.subset(range(200))
    if task == "cnn":  # needs embedding gradients
        model = TextCNN(epochs=1, embedding_dim=8, filters=4, seed=0)
        return model.fit(text_dataset.subset(range(60))), text_dataset.subset(range(200))
    model = LinearSoftmax(epochs=2, seed=0)
    return model.fit(text_dataset.subset(range(60))), text_dataset.subset(range(200))


@pytest.mark.parametrize(
    "kind", [kind for kind, (spec, _) in STRATEGY_CASES.items() if spec is not None]
)
def test_strategy_selections_survive_roundtrip(kind, text_dataset, ner_dataset):
    spec, task = STRATEGY_CASES[kind]
    original = build_strategy(spec)
    rebuilt = build_strategy(spec_of_strategy(original).to_dict())
    assert rebuilt.name == original.name
    model, dataset = _fitted_model(task, text_dataset, ner_dataset)
    picks = []
    for strategy in (original, rebuilt):
        context = make_context(dataset, n_labeled=40, seed=5)
        picks.append(strategy.select(model, context, batch_size=6))
    assert np.array_equal(picks[0], picks[1])


@pytest.mark.parametrize("kind", list(MODEL_CASES))
def test_warm_epochs_survive_roundtrip(kind):
    spec, _task = MODEL_CASES[kind]
    assert "warm_epochs" not in spec_of_model(build_model(spec)).params
    warm = {**spec, "params": {**spec["params"], "warm_epochs": 1}}
    roundtrip_spec = spec_of_model(build_model(warm))
    assert roundtrip_spec.params["warm_epochs"] == 1
    assert build_model(roundtrip_spec.to_dict()).warm_epochs == 1


@pytest.mark.parametrize("kind", list(MODEL_CASES))
def test_model_predictions_survive_roundtrip(kind, text_dataset, ner_dataset):
    spec, task = MODEL_CASES[kind]
    original = build_model(spec)
    roundtrip_spec = spec_of_model(original)
    rebuilt = build_model(roundtrip_spec.to_dict())
    assert spec_of_model(rebuilt) == roundtrip_spec
    if task == "ner":
        fit_set = ner_dataset.subset(range(30))
        eval_set = ner_dataset.subset(range(30, 60))
        outputs = [
            model.fit(fit_set).predict_tags(eval_set) for model in (original, rebuilt)
        ]
        for left, right in zip(outputs[0], outputs[1]):
            assert np.array_equal(left, right)
    else:
        fit_set = text_dataset.subset(range(50))
        eval_set = text_dataset.subset(range(50, 120))
        outputs = [
            model.fit(fit_set).predict_proba(eval_set)
            for model in (original, rebuilt)
        ]
        assert np.array_equal(outputs[0], outputs[1])


class TestLHSRoundtrip:
    @pytest.fixture(scope="class")
    def ranker_path(self, text_dataset, tmp_path_factory):
        ranker = train_lhs_ranker(
            LinearSoftmax(epochs=3, seed=0),
            text_dataset.subset(range(200)),
            text_dataset.subset(range(200, 280)),
            base=Entropy(),
            config=RankerTrainingConfig(
                rounds=2, candidates_per_round=5, initial_size=12,
                predictor=None, eval_size=60,
            ),
            seed_or_rng=3,
        )
        path = tmp_path_factory.mktemp("ranker") / "ranker.json"
        save_lhs_ranker(ranker, path)
        return str(path)

    def test_selections_survive_roundtrip(self, ranker_path, text_dataset):
        spec = {"kind": "lhs", "params": {"base": ENTROPY, "ranker": ranker_path}}
        original = build_strategy(spec)
        serialised = spec_of_strategy(original)
        assert serialised.params["ranker"] == ranker_path
        rebuilt = build_strategy(serialised.to_dict())
        model = LinearSoftmax(epochs=2, seed=0).fit(text_dataset.subset(range(60)))
        dataset = text_dataset.subset(range(200))
        picks = []
        for strategy in (original, rebuilt):
            context = make_context(dataset, n_labeled=40, seed=5)
            picks.append(strategy.select(model, context, batch_size=6))
        assert np.array_equal(picks[0], picks[1])

    def test_in_memory_ranker_is_not_serialisable(self, ranker_path):
        ranker = load_lhs_ranker(ranker_path)
        ranker.source = None  # as if built in memory, never saved
        strategy = build_strategy(
            {"kind": "lhs", "params": {"base": ENTROPY, "ranker": ranker_path}}
        )
        strategy.ranker = ranker
        with pytest.raises(SpecError, match="ranker"):
            spec_of_strategy(strategy)

    def test_lhs_spec_requires_ranker(self):
        with pytest.raises(SpecError, match="ranker"):
            build_strategy({"kind": "lhs", "params": {"base": ENTROPY}})
