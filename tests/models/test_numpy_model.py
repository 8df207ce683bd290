"""The shared model skeleton: construction checks, clone, specs, CRF head."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.models import (
    BiLSTMCRF,
    LinearChainCRF,
    LinearSoftmax,
    LSTMRegressor,
    MLPClassifier,
    SequenceLabeler,
    TextCNN,
)
from repro.models.base import ARGUMENT_RULES, init_arguments
from repro.models.crf_core import CRFTagger
from repro.specs import SpecRegistry, spec_of_model
from repro.specs import models as model_specs

FAMILIES = (
    LinearSoftmax, MLPClassifier, TextCNN, LinearChainCRF, BiLSTMCRF, LSTMRegressor,
)

#: Values each rule must refuse.
BAD_VALUES = {
    "a positive integer": (0, -3, 2.5, "5", None, True),
    "a positive integer or null": (0, -1, 2.5, "5", False),
    "a positive number": (0, -0.1, "0.1", None, True, float("nan")),
    "a non-negative number": (-1e-4, "0", None, True),
    "a number in [0, 1)": (1.0, -0.1, "0.3", None, True),
}

CHECKED = [
    (cls, name)
    for cls in FAMILIES
    for name in init_arguments(cls)
    if name in ARGUMENT_RULES
]


@pytest.mark.parametrize(
    "cls,name", CHECKED, ids=[f"{cls.__name__}-{name}" for cls, name in CHECKED]
)
def test_bad_argument_rejected_at_construction(cls, name):
    rule = ARGUMENT_RULES[name][1]
    for value in BAD_VALUES[rule]:
        with pytest.raises(ConfigurationError) as caught:
            cls(**{name: value})
        message = f"{cls.__name__} {name} must be {rule}, got {value!r}"
        assert str(caught.value) == message


#: Non-default constructor arguments per family.
CUSTOM = {
    LinearSoftmax: dict(
        epochs=3, learning_rate=0.1, l2=0.0, batch_size=8, seed=4, warm_epochs=2,
    ),
    MLPClassifier: dict(
        hidden_dim=5, embedding_dim=6, dropout=0.1, epochs=3, learning_rate=0.2,
        batch_size=8, l2=0.01, seed=4, warm_epochs=2,
    ),
    TextCNN: dict(
        embedding_dim=6, filters=3, widths=(2, 5), dropout=0.0, epochs=3,
        learning_rate=0.2, batch_size=8, l2=0.01, seed=4, max_length=9, warm_epochs=2,
    ),
    LinearChainCRF: dict(
        epochs=3, learning_rate=0.1, l2=0.0, batch_size=8, feature_dropout=0.5, seed=4,
        warm_epochs=2,
    ),
    BiLSTMCRF: dict(
        embedding_dim=6, hidden_dim=5, dropout=0.1, epochs=3, learning_rate=0.2,
        batch_size=8, l2=0.01, seed=4, warm_epochs=2,
    ),
    LSTMRegressor: dict(
        hidden_dim=5, epochs=3, learning_rate=0.2, seed=4, warm_epochs=2,
    ),
}


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda cls: cls.__name__)
def test_clone_copies_every_constructor_argument(cls):
    arguments = dict(CUSTOM[cls])
    if "embedding_matrix" in init_arguments(cls):
        arguments["embedding_matrix"] = np.ones((4, 6))
    assert set(arguments) == set(init_arguments(cls))
    model = cls(**arguments)
    clone = model.clone()
    assert type(clone) is cls and clone is not model
    for name, value in arguments.items():
        assert getattr(clone, name) is getattr(model, name), name
    if cls is not LSTMRegressor:
        assert spec_of_model(clone) == spec_of_model(model)


#: Spec param names of every kind, in the order specs are written.
SPEC_PARAMS = {
    "linear": ["epochs", "learning_rate", "l2", "batch_size", "seed"],
    "mlp": [
        "hidden_dim", "embedding_dim", "dropout", "epochs", "learning_rate",
        "batch_size", "l2", "seed",
    ],
    "textcnn": [
        "embedding_dim", "filters", "widths", "dropout", "epochs", "learning_rate",
        "batch_size", "l2", "seed", "max_length",
    ],
    "crf": ["epochs", "learning_rate", "l2", "batch_size", "feature_dropout", "seed"],
    "bilstm-crf": [
        "embedding_dim", "hidden_dim", "dropout", "epochs", "learning_rate",
        "batch_size", "l2", "seed",
    ],
}
KIND_CLASSES = {
    "linear": LinearSoftmax,
    "mlp": MLPClassifier,
    "textcnn": TextCNN,
    "crf": LinearChainCRF,
    "bilstm-crf": BiLSTMCRF,
}


@pytest.mark.parametrize("kind", list(SPEC_PARAMS))
def test_register_model_takes_params_from_the_constructor(kind, monkeypatch):
    registry = SpecRegistry("model")
    monkeypatch.setattr(model_specs, "MODEL_REGISTRY", registry)
    cls = KIND_CLASSES[kind]
    model_specs.register_model(kind, cls)
    assert list(registry.spec_of(cls()).params) == SPEC_PARAMS[kind]
    warm = registry.spec_of(cls(warm_epochs=2))
    assert list(warm.params) == SPEC_PARAMS[kind] + ["warm_epochs"]
    assert registry.build(warm).warm_epochs == 2


DECODERS = ("decode", "predict_tags", "best_path_log_proba", "token_marginals")


@pytest.mark.parametrize("method", [*DECODERS, "token_accuracy"])
def test_crf_decoding_is_defined_once(method):
    assert issubclass(CRFTagger, SequenceLabeler)
    for tagger in (LinearChainCRF, BiLSTMCRF):
        owners = [
            cls
            for cls in tagger.__mro__
            if method in vars(cls)
            and not getattr(vars(cls)[method], "__isabstractmethod__", False)
        ]
        assert owners == [CRFTagger]
