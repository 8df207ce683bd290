"""EGL-word: expected gradient length on word embeddings (Eq. 12).

Zhang, Lease & Wallace (2017): for models whose text representation
hinges on word embeddings, select samples with the largest expected
gradient on the embedding layer, max-pooled over the sentence's words.
The gradient computation lives in the model (see
:meth:`repro.models.textcnn.TextCNN.expected_embedding_gradients`).
"""

from __future__ import annotations

import numpy as np

from ...exceptions import StrategyError
from ...models.base import Classifier, supports_embedding_gradients
from .base import QueryStrategy, SelectionContext


class EGLWord(QueryStrategy):
    """Max-over-words expected embedding gradient."""

    model_only_scores = True

    @property
    def name(self) -> str:
        return "EGL-word"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        if not isinstance(model, Classifier) or not supports_embedding_gradients(model):
            raise StrategyError(
                f"EGL-word requires a Classifier with expected_embedding_gradients; "
                f"{type(model).__name__} does not provide it"
            )
        return np.asarray(model.expected_embedding_gradients(context.candidates))
