"""Scalar reference implementations the production kernels are tested against.

Every hot path in ``repro`` was vectorized or batched after a simple
per-sample version of it existed.  Those simple versions live here, not
in ``src``: they keep the original arithmetic and RNG draw order, and
the equivalence tests compare the production path against them, bit for
bit or at a stated tolerance.  Each is written as a function over the
object it checks (a fitted model, a strategy, a tree) or over plain
arrays.

* :mod:`tests.oracles.models` — the LSTM regressor's per-sequence
  recurrence and BPTT, the BiLSTM-CRF's per-sentence unroll and BPTT
  (``lstm_run``, ``lstm_back``), the per-sentence CRF lattice
  (forward, backward, path score, NLL gradients, Viterbi, marginals)
  and decodes of both CRF taggers, their per-draw BALD samplers, and
  TextCNN's full forward pass per MC-dropout draw.
* :mod:`tests.oracles.ltr` — the per-row regression-tree walk and the
  double-loop LambdaRank gradients.
* :mod:`tests.oracles.core` — the full-sort strategy ``select`` and the
  row-loop history backfill.
* :mod:`tests.oracles.timeseries` — the scalar Mann-Kendall test (S from
  the pairwise sign matrix, the tie correction from ``np.unique``).
* :mod:`tests.oracles.data` — the per-row ``np.add.at`` bag-of-words and
  density vectors, and the per-call ``np.unique`` bag-of-words that kept
  token counts replaced.

``repro.core.selection.top_k_reference`` stays in ``src``: it is also
the production fallback of ``top_k_indices`` for NaN scores and
``k >= n``.  ``tests/test_source_tree.py`` fails if any other
``*_reference`` function, or any function named like one defined here
(leading underscores aside), appears in ``src``.
"""
