"""Model specs: every task model buildable from (kind, hyperparams).

Each registered kind maps a JSON params dict straight onto the model
constructor, and ``params_of`` reads the same names back off the
instance (plus ``warm_epochs``, the warm-start epoch budget, when it is
set), so ``build_model(spec_of_model(m))`` reproduces a model whose
training and predictions are byte-identical to ``m``'s (training in this
package is deterministic given the constructor arguments).

The ``embedding_matrix`` escape hatch of the embedding models is *not*
part of the spec (it is an in-memory array, not configuration); models
built from specs derive their embeddings from the dataset as usual.
"""

from __future__ import annotations

from ..models import BiLSTMCRF, LinearChainCRF, LinearSoftmax, MLPClassifier, TextCNN
from .core import Spec, SpecRegistry

MODEL_REGISTRY = SpecRegistry("model")


def register_model(kind: str, cls: type, param_names: "tuple[str, ...]") -> None:
    """Register a model class whose spec params mirror its attributes."""

    def build(params: dict) -> object:
        return cls(**params)

    def params_of(model: object) -> dict:
        params = {name: getattr(model, name) for name in param_names}
        warm_epochs = getattr(model, "warm_epochs", None)
        if warm_epochs is not None:
            # Emitted only when set, so default specs keep their bytes.
            params["warm_epochs"] = warm_epochs
        return params

    MODEL_REGISTRY.register(kind, build, cls=cls, params_of=params_of)


register_model(
    "linear",
    LinearSoftmax,
    ("epochs", "learning_rate", "l2", "batch_size", "seed"),
)
register_model(
    "mlp",
    MLPClassifier,
    (
        "hidden_dim",
        "embedding_dim",
        "dropout",
        "epochs",
        "learning_rate",
        "batch_size",
        "l2",
        "seed",
    ),
)
register_model(
    "textcnn",
    TextCNN,
    (
        "embedding_dim",
        "filters",
        "widths",
        "dropout",
        "epochs",
        "learning_rate",
        "batch_size",
        "l2",
        "seed",
        "max_length",
    ),
)
register_model(
    "crf",
    LinearChainCRF,
    ("epochs", "learning_rate", "l2", "batch_size", "feature_dropout", "seed"),
)
register_model(
    "bilstm-crf",
    BiLSTMCRF,
    (
        "embedding_dim",
        "hidden_dim",
        "dropout",
        "epochs",
        "learning_rate",
        "batch_size",
        "l2",
        "seed",
    ),
)


def build_model(spec) -> object:
    """Build a fresh unfitted model from its spec."""
    return MODEL_REGISTRY.build(spec)


def spec_of_model(model: object) -> Spec:
    """The spec that rebuilds ``model`` (raises :class:`SpecError` if none)."""
    return MODEL_REGISTRY.spec_of(model)


def model_kinds() -> list[str]:
    """Sorted registered model kinds."""
    return MODEL_REGISTRY.kinds()
