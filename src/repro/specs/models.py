"""Model specs: every task model buildable from (kind, hyperparams).

Each registered kind maps a JSON params dict straight onto the model
constructor, and ``params_of`` reads the constructor's arguments back
off the instance (each is stored under its own name; ``warm_epochs``,
the warm-start epoch budget, only when it is set), so
``build_model(spec_of_model(m))`` reproduces a model whose training and
predictions are byte-identical to ``m``'s (training in this package is
deterministic given the constructor arguments).

The ``embedding_matrix`` escape hatch of the embedding models is *not*
part of the spec (it is an in-memory array, not configuration); models
built from specs derive their embeddings from the dataset as usual.
"""

from __future__ import annotations

from ..models import BiLSTMCRF, LinearChainCRF, LinearSoftmax, MLPClassifier, TextCNN
from ..models.base import init_arguments
from .core import Spec, SpecRegistry

MODEL_REGISTRY = SpecRegistry("model")


def register_model(kind: str, cls: type) -> None:
    """Register a model class whose spec params are its constructor arguments."""
    names = [name for name in init_arguments(cls) if name != "embedding_matrix"]

    def build(params: dict) -> object:
        return cls(**params)

    def params_of(model: object) -> dict:
        params = {name: getattr(model, name) for name in names}
        if params.get("warm_epochs") is None:
            # Emitted only when set, so default specs keep their bytes.
            params.pop("warm_epochs", None)
        return params

    MODEL_REGISTRY.register(kind, build, cls=cls, params_of=params_of)


register_model("linear", LinearSoftmax)
register_model("mlp", MLPClassifier)
register_model("textcnn", TextCNN)
register_model("crf", LinearChainCRF)
register_model("bilstm-crf", BiLSTMCRF)


def build_model(spec) -> object:
    """Build a fresh unfitted model from its spec."""
    return MODEL_REGISTRY.build(spec)


def spec_of_model(model: object) -> Spec:
    """The spec that rebuilds ``model`` (raises :class:`SpecError` if none)."""
    return MODEL_REGISTRY.spec_of(model)
