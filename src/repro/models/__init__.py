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

Every classifier and tagger keeps one contract
(:class:`~repro.models.base.Classifier`,
:class:`~repro.models.base.SequenceLabeler`): ``fit(dataset,
init_from=None)`` trains cold or warm-starts, and
``get_params``/``set_params`` round-trip the fitted state.  All six
families share one skeleton, :class:`~repro.models.base.NumpyModel`
(clone, parameter state, construction-time argument checks); the five
minibatch families train through its one loop, and the two CRF taggers
also share one decoding head, :class:`~repro.models.crf_core.CRFTagger`.
"""

from .base import (
    Classifier,
    SequenceLabeler,
    fit_generation,
    supports_embedding_gradients,
    supports_gradient_lengths,
    supports_stochastic_predictions,
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
    "supports_stochastic_predictions",
]
