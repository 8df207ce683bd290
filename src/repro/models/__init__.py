"""Model substrates: numpy classifiers and sequence labelers.

The paper trains a PyTorch TextCNN (text classification) and a
BiLSTM-CNNs-CRF (NER) on a GPU.  This package reimplements laptop-scale
equivalents from scratch in numpy:

* :class:`~repro.models.linear.LinearSoftmax` — softmax regression over
  bag-of-words features; the fast default classifier for experiments.
* :class:`~repro.models.mlp.MLPClassifier` — one-hidden-layer network over
  mean-embedding features with MC dropout (BALD-capable).
* :class:`~repro.models.textcnn.TextCNN` — Kim (2014) CNN with manual
  backprop (EGL-word- and BALD-capable).
* :class:`~repro.models.crf.LinearChainCRF` — feature-based linear-chain
  CRF sequence labeler (LC/MNLP-capable).
* :class:`~repro.models.bilstm_crf.BiLSTMCRF` — BiLSTM encoder with a CRF
  output layer and true MC dropout (the higher-fidelity NER model).
* :class:`~repro.models.lstm.LSTMRegressor` — tiny LSTM used by the LHS
  strategy to predict the next evaluation score.

All six share one skeleton, :class:`~repro.models.base.NumpyModel`
(clone, parameter state, construction-time argument checks); the two
CRF taggers also share one decoding head,
:class:`~repro.models.crf_core.CRFTagger`.
"""

from .base import (
    Classifier,
    SequenceLabeler,
    fit_generation,
    supports_embedding_gradients,
    supports_gradient_lengths,
    supports_param_state,
    supports_stochastic_predictions,
    supports_warm_start,
)
from .bilstm_crf import BiLSTMCRF
from .crf import LinearChainCRF
from .embeddings import pretrained_for_dataset, structured_embeddings
from .linear import LinearSoftmax
from .lstm import LSTMRegressor
from .mlp import MLPClassifier
from .textcnn import TextCNN

__all__ = [
    "BiLSTMCRF",
    "Classifier",
    "LSTMRegressor",
    "LinearChainCRF",
    "LinearSoftmax",
    "MLPClassifier",
    "SequenceLabeler",
    "TextCNN",
    "fit_generation",
    "pretrained_for_dataset",
    "structured_embeddings",
    "supports_embedding_gradients",
    "supports_gradient_lengths",
    "supports_param_state",
    "supports_stochastic_predictions",
    "supports_warm_start",
]
