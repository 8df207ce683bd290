"""Hot-path micro-benchmarks for the simulation stack.

Times the layers the per-round cost of an active-learning run is made
of — history append/window ops, LHS feature extraction, LambdaMART fit,
a small end-to-end comparison, the sequence-model kernels (batched
LSTM predictor inference, bucketed CRF/BiLSTM-CRF tagging, MC-dropout
reuse, the per-round prediction cache), the million-sample pool
path (partial top-k selection), and the broker-less distributed grid
(cells/sec at 1/2/4 workers, stale-lease reclaim latency) — against the
retained ``_*_reference``/oracle implementations of the per-sample
code paths, and writes the measurements to ``BENCH_hotpaths.json``,
``BENCH_seqmodels.json``, ``BENCH_poolscale.json``,
``BENCH_distscale.json``, ``BENCH_warmstart.json`` (cold-vs-warm
end-to-end training per model family), and
``BENCH_sweep.json`` (scenario-grid sweeps: cells/sec cold vs resumed,
per-cell transform and metric-pipeline overhead) at the repo root so
later PRs can track the perf trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full sizes
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick    # perf smoke

``--quick`` shrinks every workload to seconds-scale; the speedup ratios
stay meaningful (same asymptotic gap, smaller constants), which makes it
usable as a CI smoke check that the vectorized paths have not regressed
to their Python-loop cost shape.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.features import (
    RankingFeatureExtractor,
    _backfill_reference,
)
from repro.core.history import HistoryStore
from repro.core.loop import ActiveLearningLoop
from repro.core.prediction_cache import PredictionCache
from repro.core.selection import top_k_indices, top_k_reference
from repro.core.strategies import Entropy, Random, WSHS
from repro.core.strategies.base import SelectionContext
from repro.data.ner import NERCorpusSpec, make_ner_corpus
from repro.data.text import TextCorpusSpec, make_text_corpus
from repro.experiments import (
    ExperimentConfig,
    metric_matrices,
    run_comparison,
    run_sweep,
)
from repro.experiments.distributed import (
    LeaseConfig,
    create_queue,
    run_distributed,
)
from repro.specs import ExperimentSpec, Spec, SweepSpec
from repro.ltr.lambdamart import (
    LambdaMART,
    RankingDataset,
    _lambda_gradients,
    _lambda_gradients_reference,
)
from repro.ltr.trees import RegressionTree
from repro.models.bilstm_crf import BiLSTMCRF
from repro.models.crf import LinearChainCRF
from repro.models.linear import LinearSoftmax
from repro.models.lstm import LSTMRegressor
from repro.models.mlp import MLPClassifier
from repro.models.textcnn import TextCNN
from repro.timeseries.mann_kendall import mann_kendall_test

OUTPUT_DEFAULT = Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json"
SEQ_OUTPUT_DEFAULT = Path(__file__).resolve().parent.parent / "BENCH_seqmodels.json"
POOL_OUTPUT_DEFAULT = Path(__file__).resolve().parent.parent / "BENCH_poolscale.json"
DIST_OUTPUT_DEFAULT = Path(__file__).resolve().parent.parent / "BENCH_distscale.json"
WARM_OUTPUT_DEFAULT = Path(__file__).resolve().parent.parent / "BENCH_warmstart.json"
SWEEP_OUTPUT_DEFAULT = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


class _LegacyHistoryStore:
    """The pre-PR append path, verbatim: validation with ``np.unique``
    plus an ``np.vstack`` reallocation per round (O(rounds^2 * N) total).
    """

    def __init__(self, n_samples: int) -> None:
        self.n_samples = n_samples
        self._matrix = np.full((0, n_samples), np.nan)

    def append(self, indices: np.ndarray, scores: np.ndarray) -> None:
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.n_samples:
                raise ValueError("sample index out of range")
            if len(np.unique(indices)) != len(indices):
                raise ValueError("duplicate sample indices in one round")
        row = np.full(self.n_samples, np.nan)
        row[indices] = scores
        self._matrix = np.vstack([self._matrix, row])


def _best_of(function, repeats: int) -> float:
    """Best wall-clock seconds of ``repeats`` calls."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _round_indices(rng: np.random.Generator, n: int, rounds: int) -> list[np.ndarray]:
    """Per-round evaluated index sets: the pool shrinks as samples label."""
    batch = max(1, n // (2 * rounds))
    order = rng.permutation(n)
    return [np.sort(order[round_index * batch :]) for round_index in range(rounds)]


def bench_history_append(rounds: int, n: int, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    per_round = _round_indices(rng, n, rounds)
    score_rows = [rng.random(len(indices)) for indices in per_round]

    def run_new() -> None:
        store = HistoryStore(n)
        for round_index, (indices, scores) in enumerate(zip(per_round, score_rows), 1):
            store.append(round_index, indices, scores)

    def run_legacy() -> None:
        store = _LegacyHistoryStore(n)
        for indices, scores in zip(per_round, score_rows):
            store.append(indices, scores)

    new_seconds = _best_of(run_new, repeats)
    legacy_seconds = _best_of(run_legacy, max(1, repeats - 1))
    return {
        "rounds": rounds,
        "n_samples": n,
        "new_seconds": new_seconds,
        "reference_seconds": legacy_seconds,
        "speedup": legacy_seconds / new_seconds,
    }


def bench_history_windows(rounds: int, n: int, window: int, repeats: int) -> dict:
    rng = np.random.default_rng(1)
    store = HistoryStore(n)
    for round_index, indices in enumerate(_round_indices(rng, n, rounds), 1):
        store.append(round_index, indices, rng.random(len(indices)))
    indices = np.arange(n)

    window_seconds = _best_of(lambda: store.window_matrix(indices, window), repeats)
    weighted_seconds = _best_of(lambda: store.weighted_sum(indices, window), repeats)
    current_seconds = _best_of(lambda: store.current_scores(indices), repeats)
    # Pre-PR current_scores built a full one-column window matrix.
    reference_current = _best_of(lambda: store.window_matrix(indices, 1)[:, 0], repeats)
    return {
        "rounds": rounds,
        "n_samples": n,
        "window": window,
        "window_matrix_seconds": window_seconds,
        "weighted_sum_seconds": weighted_seconds,
        "current_scores_seconds": current_seconds,
        "current_scores_reference_seconds": reference_current,
        "current_scores_speedup": reference_current / current_seconds,
    }


def _legacy_trend_features(history: HistoryStore, indices: np.ndarray) -> np.ndarray:
    """The pre-PR per-sample scalar Mann-Kendall loop."""
    features = np.zeros((len(indices), 2))
    for row, index in enumerate(indices):
        sequence = history.sequence(int(index))
        if len(sequence) >= 3:
            result = mann_kendall_test(sequence)
            features[row, 0] = result.z
            features[row, 1] = result.tau
    return features


def _legacy_extract(
    history: HistoryStore, indices: np.ndarray, window: int
) -> np.ndarray:
    """The pre-PR LHS feature path: loop backfill + scalar MK per sample."""
    window_matrix = history.window_matrix(indices, window)
    filled = _backfill_reference(window_matrix)
    columns = [
        filled,
        history.fluctuation(indices, window)[:, None],
        _legacy_trend_features(history, indices),
        filled[:, -1][:, None],  # persistence prediction fallback
    ]
    return np.hstack(columns)


def bench_lhs_features(rounds: int, n: int, window: int, repeats: int) -> dict:
    rng = np.random.default_rng(2)
    store = HistoryStore(n)
    for round_index, indices in enumerate(_round_indices(rng, n, rounds), 1):
        store.append(round_index, indices, rng.random(len(indices)))
    indices = np.arange(n)
    extractor = RankingFeatureExtractor(window=window, use_probabilities=False)
    context = SelectionContext(
        dataset=None,
        unlabeled=indices,
        labeled=np.empty(0, dtype=np.int64),
        history=store,
        round_index=rounds + 1,
        rng=rng,
    )

    new_seconds = _best_of(
        lambda: extractor.extract(None, context, np.arange(n)), repeats
    )
    reference_seconds = _best_of(
        lambda: _legacy_extract(store, indices, window), max(1, repeats - 1)
    )
    # The two paths must agree before the timing means anything.
    np.testing.assert_allclose(
        extractor.extract(None, context, np.arange(n)),
        _legacy_extract(store, indices, window),
        rtol=1e-12,
        atol=1e-14,
    )
    return {
        "rounds": rounds,
        "n_samples": n,
        "window": window,
        "new_seconds": new_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / new_seconds,
    }


def bench_lambdamart(
    n_queries: int, query_size: int, n_features: int, n_estimators: int, repeats: int
) -> dict:
    rng = np.random.default_rng(3)
    features = rng.normal(size=(n_queries * query_size, n_features))
    relevance = rng.integers(0, 4, size=len(features)).astype(np.float64)
    query_ids = np.repeat(np.arange(n_queries), query_size)
    data = RankingDataset(features=features, relevance=relevance, query_ids=query_ids)
    groups = data.groups()
    scores = rng.normal(size=len(features))

    def gradient_pass(gradient_function) -> None:
        for rows in groups:
            gradient_function(scores[rows], relevance[rows], 1.0, None)

    new_grad = _best_of(lambda: gradient_pass(_lambda_gradients), repeats)
    reference_grad = _best_of(
        lambda: gradient_pass(_lambda_gradients_reference), max(1, repeats - 1)
    )

    fit_seconds = _best_of(
        lambda: LambdaMART(n_estimators=n_estimators, max_depth=3).fit(data),
        max(1, repeats - 1),
    )

    tree = RegressionTree(max_depth=4, min_samples_leaf=4).fit(
        features, rng.normal(size=len(features))
    )
    predict_rows = rng.normal(size=(max(20_000, len(features)), n_features))
    new_predict = _best_of(lambda: tree.predict(predict_rows), repeats)
    reference_predict = _best_of(
        lambda: tree._predict_reference(predict_rows), max(1, repeats - 1)
    )
    return {
        "n_queries": n_queries,
        "query_size": query_size,
        "n_features": n_features,
        "gradient_new_seconds": new_grad,
        "gradient_reference_seconds": reference_grad,
        "gradient_speedup": reference_grad / new_grad,
        "fit_seconds": fit_seconds,
        "tree_predict_new_seconds": new_predict,
        "tree_predict_reference_seconds": reference_predict,
        "tree_predict_speedup": reference_predict / new_predict,
    }


def bench_end_to_end(quick: bool) -> dict:
    spec = TextCorpusSpec(
        name="bench-e2e",
        num_classes=2,
        size=400 if quick else 900,
        background_vocab=200,
        facets_per_class=8,
        facet_vocab=6,
        min_length=5,
        max_length=20,
    )
    dataset = make_text_corpus(spec, seed_or_rng=0)
    cut = int(len(dataset) * 0.7)
    train = dataset.subset(range(cut))
    test = dataset.subset(range(cut, len(dataset)))
    config = ExperimentConfig(
        batch_size=15, rounds=3 if quick else 6, repeats=2 if quick else 4, seed=7
    )
    factories = {
        "Entropy": Entropy,
        "WSHS(Entropy)": lambda: WSHS(Entropy(), window=3),
    }

    def run() -> None:
        run_comparison(
            lambda: LinearSoftmax(epochs=4, seed=0),
            factories,
            train,
            test,
            config=config,
        )

    return {
        "pool_size": cut,
        "rounds": config.rounds,
        "repeats": config.repeats,
        "serial_seconds": _best_of(run, 1),
    }


# -- sequence-model kernels (BENCH_seqmodels.json) ---------------------------


def _ner_dataset(size: int, seed: int = 11):
    spec = NERCorpusSpec(
        name="bench-ner",
        size=size,
        background_vocab=150,
        gazetteer_size=20,
        mean_length=10.0,
        length_spread=4.0,
    )
    return make_ner_corpus(spec, seed_or_rng=seed)


def bench_lstm_predictor(n_sequences: int, repeats: int) -> dict:
    """Batched LSTM next-score inference vs the per-sequence reference."""
    rng = np.random.default_rng(4)
    train = [rng.random(int(k)) for k in rng.integers(3, 12, size=60)]
    model = LSTMRegressor(hidden_dim=12, epochs=10, seed=0).fit(
        [s[:-1] for s in train], [s[-1] for s in train]
    )
    queries = [rng.random(int(k)) for k in rng.integers(2, 30, size=n_sequences)]

    new_seconds = _best_of(lambda: model.predict(queries), repeats)
    reference_seconds = _best_of(
        lambda: model._predict_reference(queries), max(1, repeats - 1)
    )
    np.testing.assert_allclose(
        model.predict(queries), model._predict_reference(queries), atol=1e-10
    )
    return {
        "n_sequences": n_sequences,
        "hidden_dim": model.hidden_dim,
        "new_seconds": new_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / new_seconds,
    }


def bench_crf_tagging(n_sentences: int, repeats: int) -> dict:
    """Bucketed CRF Viterbi + marginals vs the per-sentence reference."""
    dataset = _ner_dataset(n_sentences)
    model = LinearChainCRF(epochs=2, seed=0).fit(dataset)

    tags_new = _best_of(lambda: model.predict_tags(dataset), repeats)
    tags_reference = _best_of(
        lambda: model._predict_tags_reference(dataset), max(1, repeats - 1)
    )
    marginals_new = _best_of(lambda: model.token_marginals(dataset), repeats)
    marginals_reference = _best_of(
        lambda: model._token_marginals_reference(dataset), max(1, repeats - 1)
    )
    for batched, scalar in zip(
        model.predict_tags(dataset), model._predict_tags_reference(dataset)
    ):
        np.testing.assert_array_equal(batched, scalar)
    return {
        "n_sentences": n_sentences,
        "tags_new_seconds": tags_new,
        "tags_reference_seconds": tags_reference,
        "tags_speedup": tags_reference / tags_new,
        "marginals_new_seconds": marginals_new,
        "marginals_reference_seconds": marginals_reference,
        "marginals_speedup": marginals_reference / marginals_new,
    }


def bench_bilstm_tagging(n_sentences: int, repeats: int) -> dict:
    """Batched BiLSTM-CRF decoding vs the per-sentence encoder reference."""
    dataset = _ner_dataset(n_sentences, seed=12)
    model = BiLSTMCRF(epochs=1, seed=0).fit(dataset)

    new_seconds = _best_of(lambda: model.predict_tags(dataset), repeats)
    reference_seconds = _best_of(
        lambda: model._predict_tags_reference(dataset), max(1, repeats - 1)
    )
    for batched, scalar in zip(
        model.predict_tags(dataset), model._predict_tags_reference(dataset)
    ):
        np.testing.assert_array_equal(batched, scalar)
    return {
        "n_sentences": n_sentences,
        "new_seconds": new_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / new_seconds,
    }


def bench_mc_dropout(n_texts: int, n_draws: int, repeats: int) -> dict:
    """MC-dropout reuse (frozen sub-graph) vs full re-forward per draw."""
    spec = TextCorpusSpec(
        name="bench-mc",
        num_classes=3,
        size=n_texts,
        background_vocab=200,
        facets_per_class=6,
        facet_vocab=5,
        min_length=5,
        max_length=18,
    )
    dataset = make_text_corpus(spec, seed_or_rng=13)
    model = TextCNN(epochs=2, seed=0).fit(dataset)

    # Fresh generators per call so both paths consume identical streams.
    new_seconds = _best_of(
        lambda: model.predict_proba_samples(
            dataset, n_draws, np.random.default_rng(0)
        ),
        repeats,
    )
    reference_seconds = _best_of(
        lambda: model._predict_proba_samples_reference(
            dataset, n_draws, np.random.default_rng(0)
        ),
        max(1, repeats - 1),
    )
    np.testing.assert_array_equal(
        model.predict_proba_samples(dataset, n_draws, np.random.default_rng(0)),
        model._predict_proba_samples_reference(
            dataset, n_draws, np.random.default_rng(0)
        ),
    )
    return {
        "n_texts": n_texts,
        "n_draws": n_draws,
        "new_seconds": new_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / new_seconds,
    }


def bench_prediction_cache(n_sentences: int, repeats: int) -> dict:
    """One round's sequence passes through the cache vs recomputed."""
    dataset = _ner_dataset(n_sentences, seed=14)
    model = LinearChainCRF(epochs=2, seed=0).fit(dataset)

    def round_cached() -> None:
        cache = PredictionCache()
        cache.predict_tags(model, dataset)
        cache.best_path_log_proba(model, dataset)
        cache.token_marginals(model, dataset)
        cache.predict_tags(model, dataset)  # e.g. metric + strategy overlap

    def round_uncached() -> None:
        model.predict_tags(dataset)
        model.best_path_log_proba(dataset)
        model.token_marginals(dataset)
        model.predict_tags(dataset)

    cached_seconds = _best_of(round_cached, repeats)
    uncached_seconds = _best_of(round_uncached, max(1, repeats - 1))
    return {
        "n_sentences": n_sentences,
        "cached_seconds": cached_seconds,
        "uncached_seconds": uncached_seconds,
        "speedup": uncached_seconds / cached_seconds,
    }


def run_seqmodels(quick: bool, repeats: int, output: Path) -> dict:
    """Run the sequence-model suite and write ``BENCH_seqmodels.json``."""
    results: dict[str, dict] = {}
    print(f"[bench_seqmodels] mode={'quick' if quick else 'full'}")

    results["lstm_predictor"] = bench_lstm_predictor(
        n_sequences=400 if quick else 3_000, repeats=repeats
    )
    print(
        "  LSTM predictor:       "
        f"{results['lstm_predictor']['speedup']:6.1f}x vs per-sequence forward "
        f"({results['lstm_predictor']['new_seconds'] * 1e3:.1f} ms new)"
    )

    results["crf_tagging"] = bench_crf_tagging(
        n_sentences=150 if quick else 1_500, repeats=repeats
    )
    print(
        "  CRF tagging:          "
        f"{results['crf_tagging']['tags_speedup']:6.1f}x Viterbi, "
        f"{results['crf_tagging']['marginals_speedup']:.1f}x marginals "
        "vs per-sentence lattices"
    )

    results["bilstm_crf_tagging"] = bench_bilstm_tagging(
        n_sentences=100 if quick else 500, repeats=repeats
    )
    print(
        "  BiLSTM-CRF tagging:   "
        f"{results['bilstm_crf_tagging']['speedup']:6.1f}x vs per-sentence encoder"
    )

    results["mc_dropout_reuse"] = bench_mc_dropout(
        n_texts=200 if quick else 800,
        n_draws=5 if quick else 10,
        repeats=repeats,
    )
    print(
        "  MC-dropout reuse:     "
        f"{results['mc_dropout_reuse']['speedup']:6.1f}x vs full forward per draw"
    )

    results["prediction_cache"] = bench_prediction_cache(
        n_sentences=120 if quick else 400, repeats=repeats
    )
    print(
        "  prediction cache:     "
        f"{results['prediction_cache']['speedup']:6.1f}x on one round's "
        "sequence passes"
    )

    payload = {
        "benchmark": "seqmodels",
        "mode": "quick" if quick else "full",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
        "results": results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_seqmodels] wrote {output}")
    return results


# -- million-sample pool paths (BENCH_poolscale.json) ------------------------


def bench_pool_selection(n: int, k: int, repeats: int) -> dict:
    """Partial top-k (``np.argpartition``) vs the full-lexsort oracle.

    Both paths include the jitter draw, so the ratio isolates the sort:
    O(n + c log c) candidate work against O(n log n) over the whole pool.
    The batches are asserted bit-for-bit identical before timing counts.
    """
    rng = np.random.default_rng(20)
    # Entropy-like scores: bounded, heavy mid-range ties after rounding.
    scores = np.round(rng.random(n), 6)

    fast = top_k_indices(scores, k, np.random.default_rng(21))
    slow = top_k_reference(scores, k, np.random.default_rng(21))
    np.testing.assert_array_equal(fast, slow)

    new_seconds = _best_of(
        lambda: top_k_indices(scores, k, np.random.default_rng(22)), repeats
    )
    reference_seconds = _best_of(
        lambda: top_k_reference(scores, k, np.random.default_rng(22)),
        max(1, repeats - 1),
    )
    return {
        "n_samples": n,
        "batch_size": k,
        "new_seconds": new_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / new_seconds,
        "identical": True,
    }


def run_pool_scale(quick: bool, repeats: int, output: Path) -> dict:
    """Run the pool-scale suite and write ``BENCH_poolscale.json``."""
    results: dict[str, dict] = {}
    print(f"[bench_poolscale] mode={'quick' if quick else 'full'}")

    pool_sizes = [20_000, 50_000] if quick else [100_000, 1_000_000]
    selection = []
    for n in pool_sizes:
        entry = bench_pool_selection(n=n, k=1_000, repeats=repeats)
        selection.append(entry)
        print(
            f"  selection n={n:>9,}: "
            f"{entry['speedup']:6.1f}x vs full lexsort "
            f"({entry['new_seconds'] * 1e3:.1f} ms new), batches identical"
        )
    results["selection"] = {"sizes": selection}

    payload = {
        "benchmark": "pool_scale",
        "mode": "quick" if quick else "full",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
        "results": results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_poolscale] wrote {output}")
    return results


# -- distributed grid scaling (BENCH_distscale.json) -------------------------


def _dist_spec(repeats: int, rounds: int, scale: float, epochs: int) -> ExperimentSpec:
    """A self-contained grid spec: 2 strategies x ``repeats`` cells."""
    return ExperimentSpec(
        dataset=Spec(kind="mr", params={"scale": scale, "seed": 7}),
        split=Spec(kind="fraction", params={"test_fraction": 0.3}),
        model=Spec(
            kind="linear", params={"epochs": epochs, "batch_size": 32, "seed": 0}
        ),
        strategies={"random": Spec(kind="random"), "entropy": Spec(kind="entropy")},
        config=ExperimentConfig(batch_size=15, rounds=rounds, repeats=repeats, seed=9),
    )


def bench_dist_throughput(spec: ExperimentSpec, worker_counts: "list[int]") -> dict:
    """Grid cells/sec through the work queue at 1/2/4 local workers.

    Each run gets a fresh queue directory (a settled queue would just
    aggregate), so the timing includes materialization, worker startup,
    per-worker dataset rebuild, and coordinator polling — the real cost
    of ``repro compare --queue-dir``.  The scaling across worker counts
    is the number to watch; the absolute rate depends on cell size.
    """
    cells = len(spec.strategies) * spec.config.repeats
    runs = []
    for workers in worker_counts:
        with tempfile.TemporaryDirectory(prefix="bench-dist-") as scratch:
            start = time.perf_counter()
            run_distributed(
                spec, Path(scratch) / "queue", workers=workers, poll=0.05
            )
            seconds = time.perf_counter() - start
        runs.append(
            {
                "workers": workers,
                "seconds": seconds,
                "cells_per_second": cells / seconds,
            }
        )
    baseline = runs[0]["seconds"]
    for entry in runs:
        entry["speedup_vs_one_worker"] = baseline / entry["seconds"]
    return {
        "cells": cells,
        "rounds": spec.config.rounds,
        "repeats": spec.config.repeats,
        "worker_counts": runs,
    }


def _backdate_leases(queue, seconds: float) -> None:
    """Age every held lease by ``seconds`` — a worker census that died.

    Sets the lease files' mtime (the heartbeat) so the bench can make
    leases stale instantly instead of using a TTL so short the
    successor's *own* claims would expire mid-measurement.
    """
    past = time.time() - seconds
    for lease in (queue.directory / "leases").glob("*.json"):
        os.utime(lease, (past, past))


def bench_dist_reclaim(repeats_per_strategy: int) -> dict:
    """Latency for a successor to reap a dead worker's lease and reclaim.

    Pure queue protocol, no model training: materialize a grid, claim
    every cell as a worker that then "dies" (never heartbeats), age the
    leases past the TTL, and time each successor ``claim()`` that must
    detect the stale lease, reap it, and re-issue the cell.  The
    fresh-claim column is the same call on never-leased cells — the
    reap overhead is the difference.
    """
    spec = _dist_spec(repeats_per_strategy, rounds=2, scale=0.05, epochs=2)
    lease = LeaseConfig(ttl=600.0)  # ample: only backdated leases go stale
    with tempfile.TemporaryDirectory(prefix="bench-reclaim-") as scratch:
        fresh = create_queue(Path(scratch) / "fresh", spec, lease=lease)
        fresh_latencies = []
        while True:
            start = time.perf_counter()
            claim = fresh.claim("alive")
            if claim is None:
                break
            fresh_latencies.append(time.perf_counter() - start)

        queue = create_queue(Path(scratch) / "queue", spec, lease=lease)
        while queue.claim("dead") is not None:
            pass
        _backdate_leases(queue, seconds=lease.ttl * 4)
        reclaim_latencies = []
        while True:
            start = time.perf_counter()
            claim = queue.claim("successor")
            if claim is None:
                break
            reclaim_latencies.append(time.perf_counter() - start)
    assert len(reclaim_latencies) == len(fresh_latencies)
    return {
        "cells": len(reclaim_latencies),
        "fresh_claim_mean_ms": float(np.mean(fresh_latencies) * 1e3),
        "reclaim_mean_ms": float(np.mean(reclaim_latencies) * 1e3),
        "reclaim_max_ms": float(np.max(reclaim_latencies) * 1e3),
        "reap_overhead": float(
            np.mean(reclaim_latencies) / np.mean(fresh_latencies)
        ),
    }


def run_dist_scale(quick: bool, output: Path) -> dict:
    """Run the distributed-grid suite and write ``BENCH_distscale.json``."""
    results: dict[str, dict] = {}
    print(f"[bench_distscale] mode={'quick' if quick else 'full'}")

    spec = (
        _dist_spec(repeats=4, rounds=2, scale=0.05, epochs=2)
        if quick
        else _dist_spec(repeats=8, rounds=4, scale=0.1, epochs=4)
    )
    worker_counts = [1, 2, 4]
    if "fork" not in multiprocessing.get_all_start_methods():
        print("  (no fork start method: spawn workers, expect higher startup)")
    results["throughput"] = bench_dist_throughput(spec, worker_counts)
    cores = os.cpu_count() or 1
    for entry in results["throughput"]["worker_counts"]:
        print(
            f"  throughput {entry['workers']} worker(s): "
            f"{entry['cells_per_second']:6.1f} cells/s "
            f"({entry['speedup_vs_one_worker']:.2f}x vs 1 worker; "
            f"{cores} core{'s' if cores != 1 else ''}, expect < 1x on one)"
        )

    reclaim = bench_dist_reclaim(repeats_per_strategy=10 if quick else 50)
    results["reclaim"] = reclaim
    print(
        f"  reclaim: {reclaim['reclaim_mean_ms']:6.2f} ms/cell mean, "
        f"{reclaim['reclaim_max_ms']:.2f} ms max "
        f"({reclaim['reap_overhead']:.1f}x a fresh claim)"
    )

    payload = {
        "benchmark": "dist_scale",
        "mode": "quick" if quick else "full",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
        "results": results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_distscale] wrote {output}")
    return results


# -- scenario-sweep suite (BENCH_sweep.json) ---------------------------------


def _sweep_document(axes_cells: int, repeats: int) -> dict:
    """A noise x cost sweep document over a small seeded experiment."""
    base = ExperimentSpec(
        dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 7}),
        split=Spec(kind="fraction", params={"test_fraction": 0.3}),
        model=Spec(kind="linear", params={"epochs": 2, "batch_size": 32, "seed": 0}),
        strategies={"random": Spec(kind="random"), "entropy": Spec(kind="entropy")},
        config=ExperimentConfig(
            batch_size=10, rounds=2, repeats=repeats, seed=9, track_flips=True
        ),
    ).to_dict()
    noise_cells = [{"name": "clean"}] + [
        {
            "name": f"p{10 * level}",
            "transforms": [
                {"kind": "label_noise", "params": {"rate": 0.1 * level}}
            ],
        }
        for level in range(1, axes_cells)
    ]
    return {
        "format": "repro.sweep",
        "version": 1,
        "name": "bench",
        "base": base,
        "scenario_seed": 1,
        "axes": [
            {"name": "noise", "cells": noise_cells},
            {
                "name": "cost",
                "cells": [
                    {"name": "unit"},
                    {
                        "name": "length",
                        "transforms": [
                            {
                                "kind": "annotation_cost",
                                "params": {
                                    "model": "length",
                                    "base": 1.0,
                                    "per_token": 0.05,
                                },
                            }
                        ],
                    },
                ],
            },
        ],
        "metrics": [
            {"kind": "final"},
            {"kind": "auc"},
            {"kind": "speedup", "params": {"fraction": 0.9}},
            {"kind": "contradiction"},
            {"kind": "cost_auc"},
        ],
    }


def bench_sweep_scale(axes_cells: int, repeats: int) -> dict:
    """Cold vs resumed wall time of one scenario grid, plus identity checks.

    Measures cells/sec through the checkpointed runner, the resume
    speedup when every cell is already checkpointed, and — the sweep
    system's anchor contract — that the degenerate axis-free sweep
    reproduces a plain ``run_comparison`` of the base document exactly.
    """
    sweep = SweepSpec.from_dict(_sweep_document(axes_cells, repeats))
    workdir = Path(tempfile.mkdtemp(prefix="bench_sweep_"))
    try:
        start = time.perf_counter()
        cold = run_sweep(sweep, sweep_dir=workdir / "state")
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        resumed = run_sweep(sweep, sweep_dir=workdir / "state", resume=True)
        resumed_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    resumed_identical = all(
        a.results[name].curve.values.tobytes()
        == b.results[name].curve.values.tobytes()
        for a, b in zip(cold.cells, resumed.cells)
        for name in a.results
    )

    # Degenerate contract: the axis-free sweep IS run_comparison.
    degenerate_document = dict(_sweep_document(axes_cells, repeats), axes=[])
    degenerate = SweepSpec.from_dict(degenerate_document)
    base = ExperimentSpec.from_dict(degenerate.base)
    train, test, _task = base.build_datasets()
    start = time.perf_counter()
    reference = run_comparison(
        base.resolved_model(), base.strategies, train, test, config=base.config
    )
    reference_seconds = time.perf_counter() - start
    (degenerate_cell,) = run_sweep(degenerate).cells
    degenerate_identical = all(
        degenerate_cell.results[name].curve.values.tobytes()
        == reference[name].curve.values.tobytes()
        for name in reference
    )

    start = time.perf_counter()
    matrices = metric_matrices(cold)
    matrices_seconds = time.perf_counter() - start

    n_cells = len(cold.cells)
    return {
        "grid": f"{axes_cells}x2",
        "cells": n_cells,
        "repeats": repeats,
        "cold_seconds": cold_seconds,
        "cold_cells_per_second": n_cells / cold_seconds,
        "resumed_seconds": resumed_seconds,
        "resume_speedup": cold_seconds / resumed_seconds,
        "reference_experiment_seconds": reference_seconds,
        "metric_matrices": len(matrices),
        "metric_matrices_seconds": matrices_seconds,
        "identity": {
            "resumed_identical": resumed_identical,
            "degenerate_identical": degenerate_identical,
        },
    }


def run_sweep_scale(quick: bool, output: Path) -> dict:
    """Run the scenario-sweep suite and write ``BENCH_sweep.json``."""
    print(f"[bench_sweep] mode={'quick' if quick else 'full'}")
    axes_cells = 2 if quick else 3
    repeats = 1 if quick else 2
    results = {"scale": bench_sweep_scale(axes_cells, repeats)}
    scale = results["scale"]
    print(
        f"  {scale['grid']} grid ({scale['cells']} cells, "
        f"{scale['repeats']} repeat{'s' if scale['repeats'] != 1 else ''}): "
        f"cold {scale['cold_seconds']:6.2f} s "
        f"({scale['cold_cells_per_second']:.2f} cells/s)"
    )
    print(
        f"  resume from complete checkpoints: {scale['resumed_seconds']:6.2f} s "
        f"({scale['resume_speedup']:.1f}x)"
    )
    print(
        f"  metric matrices: {scale['metric_matrices']} rendered in "
        f"{scale['metric_matrices_seconds'] * 1e3:.1f} ms"
    )
    print(
        f"  identity: degenerate sweep == run_comparison: "
        f"{scale['identity']['degenerate_identical']}; "
        f"resume byte-identical: {scale['identity']['resumed_identical']}"
    )
    if not scale["identity"]["degenerate_identical"]:
        raise AssertionError("degenerate sweep diverged from run_comparison")
    if not scale["identity"]["resumed_identical"]:
        raise AssertionError("resumed sweep diverged from the cold run")

    payload = {
        "benchmark": "sweep_scale",
        "mode": "quick" if quick else "full",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
        "results": results,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_sweep] wrote {output}")
    return results


# -- warm-start suite -------------------------------------------------------

#: Quality-parity tolerance on final accuracy between cold and warm runs
#: of the same seeded experiment (documented in DESIGN.md §12).
WARM_ACCURACY_TOLERANCE = 0.10

#: Quality-parity tolerance on held-out MSE for the LSTM regressor:
#: warm MSE may exceed cold MSE by at most this relative margin.
WARM_MSE_RELATIVE_TOLERANCE = 0.50


def _bench_warm_loop_family(
    family: str, model_factory, train, test, rounds: int, batch_size: int
) -> dict:
    """Cold-vs-warm end-to-end multi-round AL runs for one classifier family."""
    entry: dict = {"family": family, "rounds": rounds, "batch_size": batch_size}
    for mode in ("cold", "warm"):
        loop = ActiveLearningLoop(
            model_factory(),
            Random(),
            train,
            test,
            batch_size=batch_size,
            rounds=rounds,
            seed_or_rng=7,
            training_mode=mode,
        )
        start = time.perf_counter()
        result = loop.run()
        entry[f"{mode}_seconds"] = time.perf_counter() - start
        entry[f"{mode}_final_metric"] = float(result.records[-1].metric)
    entry["speedup"] = entry["cold_seconds"] / max(entry["warm_seconds"], 1e-9)
    entry["metric_delta"] = entry["warm_final_metric"] - entry["cold_final_metric"]
    entry["tolerance"] = WARM_ACCURACY_TOLERANCE
    entry["within_tolerance"] = (
        abs(entry["metric_delta"]) <= WARM_ACCURACY_TOLERANCE
    )
    return entry


def _bench_warm_lstm_family(quick: bool) -> dict:
    """Cold-vs-warm growing-dataset refit loop for the LSTM regressor.

    Mirrors how the LHS predictor is refreshed as history grows: each
    round trains on a prefix of (sequence, next value) pairs one batch
    larger than the last.  Cold refits from scratch every round; warm
    resumes from the previous round's parameters.
    """
    rounds = 4 if quick else 10
    total = 32 if quick else 100
    epochs = 24 if quick else 80
    length = 10
    rng = np.random.default_rng(7)
    walks = np.cumsum(rng.normal(scale=0.1, size=(total + 40, length + 1)), axis=1)
    sequences = [walk[:-1] for walk in walks]
    targets = [float(walk[-1]) for walk in walks]
    holdout_seq, holdout_tgt = sequences[total:], np.asarray(targets[total:])
    entry: dict = {
        "family": "lstm",
        "rounds": rounds,
        "sequences": total,
        "epochs": epochs,
    }
    for mode in ("cold", "warm"):
        start = time.perf_counter()
        model = None
        for round_index in range(1, rounds + 1):
            count = max(2, total * round_index // rounds)
            fresh = LSTMRegressor(hidden_dim=8, epochs=epochs, seed=0)
            if mode == "warm" and model is not None:
                fresh.fit(sequences[:count], targets[:count], init_from=model)
            else:
                fresh.fit(sequences[:count], targets[:count])
            model = fresh
        entry[f"{mode}_seconds"] = time.perf_counter() - start
        predictions = model.predict(holdout_seq)
        entry[f"{mode}_mse"] = float(np.mean((predictions - holdout_tgt) ** 2))
    entry["speedup"] = entry["cold_seconds"] / max(entry["warm_seconds"], 1e-9)
    entry["mse_delta"] = entry["warm_mse"] - entry["cold_mse"]
    entry["tolerance"] = WARM_MSE_RELATIVE_TOLERANCE
    entry["within_tolerance"] = entry["warm_mse"] <= entry["cold_mse"] * (
        1.0 + WARM_MSE_RELATIVE_TOLERANCE
    ) + 1e-12
    return entry


def run_warm_start(quick: bool, output: Path) -> dict:
    """Cold-vs-warm end-to-end timings per model family -> BENCH_warmstart.json."""
    print(f"[bench_warmstart] mode={'quick' if quick else 'full'}")
    spec = TextCorpusSpec(
        name="warm(bench)",
        num_classes=2,
        size=700 if quick else 1_100,
        background_vocab=300,
        facets_per_class=12,
        facet_vocab=8,
        min_length=6,
        max_length=24,
    )
    dataset = make_text_corpus(spec, seed_or_rng=7)
    # Small test split: evaluation is mode-independent overhead, and the
    # suite measures the training fast path.
    test_size = 100
    train = dataset.subset(range(len(dataset) - test_size))
    test = dataset.subset(range(len(dataset) - test_size, len(dataset)))

    rounds = 5 if quick else 14
    families = [
        _bench_warm_loop_family(
            "textcnn",
            lambda: TextCNN(embedding_dim=16, filters=8, epochs=8 if quick else 24, seed=0),
            train,
            test,
            rounds=rounds,
            batch_size=25,
        ),
        _bench_warm_loop_family(
            "mlp",
            lambda: MLPClassifier(epochs=12 if quick else 48, hidden_dim=24, seed=0),
            train,
            test,
            rounds=rounds,
            batch_size=25,
        ),
        _bench_warm_lstm_family(quick),
    ]
    for entry in families:
        quality = (
            f"metric {entry['cold_final_metric']:.4f} -> {entry['warm_final_metric']:.4f}"
            if "cold_final_metric" in entry
            else f"mse {entry['cold_mse']:.4f} -> {entry['warm_mse']:.4f}"
        )
        print(
            f"  {entry['family']:>8}: {entry['speedup']:5.2f}x warm vs cold "
            f"({entry['cold_seconds']:.2f}s -> {entry['warm_seconds']:.2f}s; "
            f"{quality}; within tolerance: {entry['within_tolerance']})"
        )

    payload = {
        "benchmark": "warm_start",
        "mode": "quick" if quick else "full",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
        "results": {"families": families},
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_warmstart] wrote {output}")
    return {"families": families}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="perf smoke mode: seconds-scale workloads, same code paths",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT_DEFAULT, help="JSON output path"
    )
    parser.add_argument(
        "--seq-output",
        type=Path,
        default=SEQ_OUTPUT_DEFAULT,
        help="sequence-model JSON output path",
    )
    parser.add_argument(
        "--pool-output",
        type=Path,
        default=POOL_OUTPUT_DEFAULT,
        help="pool-scale JSON output path",
    )
    parser.add_argument(
        "--dist-output",
        type=Path,
        default=DIST_OUTPUT_DEFAULT,
        help="distributed-grid JSON output path",
    )
    parser.add_argument(
        "--warm-output",
        type=Path,
        default=WARM_OUTPUT_DEFAULT,
        help="warm-start JSON output path",
    )
    parser.add_argument(
        "--sweep-output",
        type=Path,
        default=SWEEP_OUTPUT_DEFAULT,
        help="scenario-sweep JSON output path",
    )
    parser.add_argument(
        "--suite",
        choices=(
            "all",
            "hotpaths",
            "seqmodels",
            "pool_scale",
            "dist_scale",
            "warm_start",
            "sweep_scale",
        ),
        default="all",
        help="which benchmark suite(s) to run",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best-of)"
    )
    arguments = parser.parse_args(argv)
    quick = arguments.quick
    repeats = max(1, arguments.repeats if not quick else 1)

    if arguments.suite == "seqmodels":
        run_seqmodels(quick, repeats, arguments.seq_output)
        return 0
    if arguments.suite == "pool_scale":
        run_pool_scale(quick, repeats, arguments.pool_output)
        return 0
    if arguments.suite == "dist_scale":
        run_dist_scale(quick, arguments.dist_output)
        return 0
    if arguments.suite == "warm_start":
        run_warm_start(quick, arguments.warm_output)
        return 0
    if arguments.suite == "sweep_scale":
        run_sweep_scale(quick, arguments.sweep_output)
        return 0

    results: dict[str, dict] = {}
    print(f"[bench_hotpaths] mode={'quick' if quick else 'full'}")

    results["history_append"] = bench_history_append(
        rounds=60 if quick else 500, n=2_000 if quick else 10_000, repeats=repeats
    )
    print(
        "  history append:       "
        f"{results['history_append']['speedup']:6.1f}x vs vstack "
        f"({results['history_append']['new_seconds'] * 1e3:.1f} ms new)"
    )

    results["history_windows"] = bench_history_windows(
        rounds=60 if quick else 500,
        n=2_000 if quick else 10_000,
        window=5,
        repeats=repeats,
    )
    print(
        "  current_scores:       "
        f"{results['history_windows']['current_scores_speedup']:6.1f}x vs "
        "window_matrix path"
    )

    results["lhs_features"] = bench_lhs_features(
        rounds=12 if quick else 40,
        n=600 if quick else 5_000,
        window=5,
        repeats=repeats,
    )
    print(
        "  LHS feature extract:  "
        f"{results['lhs_features']['speedup']:6.1f}x vs loop backfill + scalar MK "
        f"({results['lhs_features']['new_seconds'] * 1e3:.1f} ms new)"
    )

    results["lambdamart"] = bench_lambdamart(
        n_queries=6 if quick else 24,
        query_size=30 if quick else 60,
        n_features=8,
        n_estimators=4 if quick else 10,
        repeats=repeats,
    )
    print(
        "  LambdaRank gradients: "
        f"{results['lambdamart']['gradient_speedup']:6.1f}x vs double loop; "
        f"tree predict {results['lambdamart']['tree_predict_speedup']:.1f}x vs node walk"
    )

    results["end_to_end"] = bench_end_to_end(quick)
    print(
        "  end-to-end runner:    "
        f"{results['end_to_end']['serial_seconds']:.2f} s serial"
    )

    payload = {
        "benchmark": "hotpaths",
        "mode": "quick" if quick else "full",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
        "results": results,
    }
    arguments.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_hotpaths] wrote {arguments.output}")

    if arguments.suite == "all":
        run_seqmodels(quick, repeats, arguments.seq_output)
        run_pool_scale(quick, repeats, arguments.pool_output)
        run_dist_scale(quick, arguments.dist_output)
        run_warm_start(quick, arguments.warm_output)
        run_sweep_scale(quick, arguments.sweep_output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
