"""Retry, degradation, and interrupted-resume tests for the serial runner.

All failures here are injected deterministically through
:mod:`tests.faults`, so every scenario is reproducible in CI.  Dead
worker processes are the queue's concern: see the crash-equivalence
suite in ``test_distributed.py``.
"""

import pytest

from repro.core.strategies import Entropy, Random, WSHS
from repro.exceptions import ConfigurationError, ExecutionError
from repro.experiments import ExperimentConfig, run_comparison
from tests.faults import (
    FaultInjectingModel,
    FaultInjectingStrategy,
    FaultSpec,
    InjectedFault,
)

from .test_checkpoint import (
    CONFIG_KWARGS,
    assert_results_identical,
    compare,
    plain_model,
)

FITS_PER_CELL = CONFIG_KWARGS["rounds"] + 1


def faulty_model_factory(spec, counter=None):
    """A model factory whose produced models fail per ``spec``."""
    return lambda: FaultInjectingModel(plain_model(), spec, counter)


class TestRetryPolicy:
    def test_zero_attempts_rejected(self, text_dataset):
        for max_retries in (-1, 1.5, True, "2", None):
            with pytest.raises(ConfigurationError, match="max_retries must be"):
                compare(text_dataset, max_retries=max_retries)

    def test_unknown_on_error_rejected(self, text_dataset):
        with pytest.raises(ConfigurationError, match="on_error"):
            compare(text_dataset, on_error="abort")


class TestRetry:
    def test_without_retry_first_failure_raises(self, text_dataset, tmp_path):
        spec = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=1, times=1)
        with pytest.raises(ExecutionError, match="failed after 1 attempt"):
            compare(text_dataset, model_factory=faulty_model_factory(spec))

    def test_retry_reruns_cell_and_matches_clean_run(self, text_dataset, tmp_path):
        clean = compare(text_dataset)
        spec = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=1, times=1)
        retried = compare(
            text_dataset,
            model_factory=faulty_model_factory(spec),
            max_retries=1,
        )
        assert_results_identical(clean, retried)
        for result in retried.values():
            assert result.failures == []

    def test_persistent_failure_exhausts_budget(self, text_dataset, tmp_path):
        spec = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=1, times=None)
        with pytest.raises(ExecutionError, match="failed after 3 attempts"):
            compare(
                text_dataset,
                model_factory=faulty_model_factory(spec),
                max_retries=2,
            )


class TestDegradation:
    def test_skip_drops_cell_and_aggregates_survivors(self, text_dataset, tmp_path):
        spec = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=1, times=1)
        faulty_wshs = lambda: FaultInjectingStrategy(WSHS(Entropy(), window=2), spec)
        results = run_comparison(
            plain_model,
            {"Random": Random, "wshs:entropy": faulty_wshs},
            text_dataset.subset(range(200)),
            text_dataset.subset(range(200, 300)),
            config=ExperimentConfig(**CONFIG_KWARGS),
            on_error="skip",
        )
        assert results["Random"].failures == []
        assert len(results["Random"].runs) == 2
        wshs = results["wshs:entropy"]
        assert len(wshs.runs) == 1  # the surviving repeat
        assert len(wshs.failures) == 1
        failure = wshs.failures[0]
        assert failure.strategy == "wshs:entropy"
        assert failure.repeat == 0  # serial order: repeat 0 hits the fault first
        assert failure.attempts == 1
        assert "InjectedFault" in failure.error

    def test_all_repeats_failed_still_raises(self, text_dataset, tmp_path):
        spec = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=1, times=None)
        with pytest.raises(ExecutionError, match="nothing to aggregate"):
            compare(
                text_dataset,
                model_factory=faulty_model_factory(spec),
                on_error="skip",
            )


class TestInterruptedResume:
    """The acceptance scenario: crash mid-grid, resume, identical curves."""

    def test_serial_interrupt_then_resume_is_byte_identical(
        self, text_dataset, tmp_path
    ):
        clean = compare(text_dataset)
        checkpoints = tmp_path / "ckpt"
        # One fit counter shared across cells: with 3 fits per cell, call 7
        # is the first fit of the third cell — two cells checkpoint, then
        # the run dies.
        counter = [0]
        spec = FaultSpec(
            token_dir=tmp_path / "tokens",
            fail_on_call=2 * FITS_PER_CELL + 1,
            times=1,
        )
        with pytest.raises(ExecutionError):
            compare(
                text_dataset,
                model_factory=faulty_model_factory(spec, counter),
                checkpoint_dir=str(checkpoints),
            )
        done = sorted(checkpoints.glob("cell_*.json"))
        assert len(done) == 2
        before = {path: path.read_bytes() for path in done}

        calls = [0]

        def counting_factory():
            calls[0] += 1
            return plain_model()

        resumed = compare(
            text_dataset,
            model_factory=counting_factory,
            checkpoint_dir=str(checkpoints),
            resume=True,
        )
        assert calls[0] == 2  # only the two missing cells were recomputed
        assert_results_identical(clean, resumed)
        for path, payload in before.items():
            assert path.read_bytes() == payload  # finished cells untouched


class TestFaultHarness:
    """The harness itself must be deterministic and transparent."""

    def test_budget_is_one_shot(self, tmp_path):
        spec = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=1, times=1)
        assert spec.claim() is True
        assert spec.claim() is False

    def test_unlimited_budget_always_fires(self, tmp_path):
        spec = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=2, times=None)
        spec.maybe_fire(1)  # wrong call number: no fire
        with pytest.raises(InjectedFault):
            spec.maybe_fire(2)
        with pytest.raises(InjectedFault):
            spec.maybe_fire(2)

    def test_exhausted_wrapper_is_transparent(self, text_dataset, tmp_path):
        spec = FaultSpec(token_dir=tmp_path / "tokens", fail_on_call=1, times=1)
        spec.claim()  # spend the budget up front: the wrapper never fires
        clean = compare(text_dataset)
        wrapped = compare(text_dataset, model_factory=faulty_model_factory(spec))
        assert_results_identical(clean, wrapped)
