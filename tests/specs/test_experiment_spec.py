"""Tests for the top-level experiment document and its CLI commands."""

import json

import pytest

from repro.exceptions import ConfigurationError, SpecError
from repro.experiments import ExperimentConfig, run_comparison
from repro.experiments.config import SHAPE_KEYS
from repro.specs import ExperimentSpec, Spec, default_experiment_spec


def _small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        dataset=Spec(kind="mr", params={"scale": 0.06, "seed": 7}),
        strategies={"random": Spec(kind="random"), "entropy": Spec(kind="entropy")},
        config=ExperimentConfig(batch_size=5, rounds=2, repeats=1, seed=7),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_default_document_validates(self):
        notes = default_experiment_spec().validate()
        assert any("grid:" in note for note in notes)

    def test_dict_roundtrip(self):
        spec = default_experiment_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_file_roundtrip(self, tmp_path):
        spec = _small_spec()
        path = tmp_path / "experiment.json"
        spec.save(path)
        assert ExperimentSpec.from_file(path).to_dict() == spec.to_dict()

    def test_no_strategies_rejected(self):
        with pytest.raises(SpecError, match="no strategies"):
            _small_spec(strategies={})

    def test_unknown_top_level_key_rejected(self):
        payload = _small_spec().to_dict()
        payload["extra"] = 1
        with pytest.raises(SpecError, match="unknown experiment key"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_runner_option_rejected(self):
        payload = _small_spec().to_dict()
        payload["runner"]["bogus"] = 1
        with pytest.raises(SpecError, match="unknown runner option"):
            ExperimentSpec.from_dict(payload)

    def test_version_mismatch_rejected(self):
        payload = _small_spec().to_dict()
        payload["version"] = 99
        with pytest.raises(SpecError, match="version"):
            ExperimentSpec.from_dict(payload)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="cannot read"):
            ExperimentSpec.from_file(path)

    def test_task_and_default_model(self):
        spec = _small_spec()
        assert spec.task == "text"
        assert spec.resolved_model().kind == "linear"

    def test_training_mode_round_trips(self):
        spec = _small_spec(
            config=ExperimentConfig(
                batch_size=5, rounds=2, repeats=1, seed=7, training_mode="warm"
            )
        )
        payload = spec.to_dict()
        assert payload["experiment"]["training_mode"] == "warm"
        restored = ExperimentSpec.from_dict(json.loads(json.dumps(payload)))
        assert restored.config.training_mode == "warm"
        assert restored.to_dict() == payload

    def test_invalid_training_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="training_mode"):
            ExperimentConfig(
                batch_size=5, rounds=2, repeats=1, seed=7, training_mode="hot"
            )

    def test_validate_rejects_oversized_grid(self):
        spec = _small_spec(
            config=ExperimentConfig(batch_size=500, rounds=10, repeats=1, seed=7)
        )
        with pytest.raises(SpecError, match="pool samples"):
            spec.validate()


#: Malformed ``experiment`` sections and the message each must raise.
MALFORMED_SHAPES = {
    "batch-size-string": ({"batch_size": "25"}, "batch_size must be an integer, got '25'"),
    "rounds-null": ({"rounds": None}, "rounds must be an integer, got None"),
    "repeats-float": ({"repeats": 1.5}, "repeats must be an integer, got 1.5"),
    "seed-bool": ({"seed": True}, "seed must be an integer, got True"),
    "initial-size-string": ({"initial_size": "5"}, "initial_size must be an integer, got '5'"),
    "track-flips-int": ({"track_flips": 1}, "track_flips must be true or false, got 1"),
}

#: Malformed model arguments in the default document: (model, error line).
MALFORMED_MODELS = {
    "learning-rate-zero": (
        {"learning_rate": 0},
        "LinearSoftmax learning_rate must be a positive number, got 0",
    ),
    "batch-size-zero": (
        {"batch_size": 0}, "LinearSoftmax batch_size must be a positive integer, got 0"
    ),
    "epochs-float": (
        {"epochs": 2.5}, "LinearSoftmax epochs must be a positive integer, got 2.5"
    ),
    "epochs-string": (
        {"epochs": "5"}, "LinearSoftmax epochs must be a positive integer, got '5'"
    ),
    "epochs-null": (
        {"epochs": None}, "LinearSoftmax epochs must be a positive integer, got None"
    ),
    "mlp-epochs-zero": (
        {"kind": "mlp", "params": {"epochs": 0}},
        "MLPClassifier epochs must be a positive integer, got 0",
    ),
}


class TestExperimentShape:
    """``ExperimentConfig`` is the one (de)serialiser of the shape section."""

    def test_to_dict_key_order(self):
        config = ExperimentConfig(batch_size=5, rounds=2, repeats=1, seed=7)
        assert list(config.to_dict()) == [
            "batch_size", "rounds", "initial_size", "repeats", "seed", "training_mode",
        ]
        tracking = ExperimentConfig(batch_size=5, rounds=2, track_flips=True)
        assert list(tracking.to_dict())[-1] == "track_flips"
        assert tracking.to_dict()["track_flips"] is True

    def test_from_dict_round_trips(self):
        for config in (
            ExperimentConfig(),
            ExperimentConfig(initial_size=4, training_mode="warm", track_flips=True),
        ):
            assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_shape_keys_are_the_fields(self):
        assert SHAPE_KEYS == set(ExperimentConfig(track_flips=True).to_dict())

    def test_unknown_option_rejected(self):
        with pytest.raises(SpecError, match="unknown experiment option"):
            ExperimentConfig.from_dict({"batch_size": 5, "bogus": 1})

    @pytest.mark.parametrize(
        "shape,message", list(MALFORMED_SHAPES.values()), ids=list(MALFORMED_SHAPES)
    )
    def test_malformed_shape_is_a_configuration_error(self, shape, message):
        payload = _small_spec().to_dict()
        payload["experiment"].update(shape)
        with pytest.raises(ConfigurationError) as caught:
            ExperimentSpec.from_dict(payload)
        assert str(caught.value) == message


class TestRunComparisonValidation:
    def test_oversized_grid_rejected_up_front(self, text_dataset):
        config = ExperimentConfig(batch_size=400, rounds=2, repeats=1, seed=0)
        with pytest.raises(ConfigurationError, match="pool samples"):
            run_comparison(
                {"kind": "linear", "params": {"epochs": 1, "seed": 0}},
                {"random": {"kind": "random"}},
                text_dataset.subset(range(300)),
                text_dataset.subset(range(300, 400)),
                config=config,
            )

    def test_exact_fit_accepted(self, text_dataset):
        # labels_needed == pool size is legal: the last round empties the pool.
        config = ExperimentConfig(
            batch_size=5, rounds=2, initial_size=10, repeats=1, seed=0
        )
        results = run_comparison(
            {"kind": "linear", "params": {"epochs": 1, "seed": 0}},
            {"random": {"kind": "random"}},
            text_dataset.subset(range(20)),
            text_dataset.subset(range(300, 360)),
            config=config,
        )
        assert set(results) == {"random"}


#: Malformed runner/report options: (section, options, the one error line).
MALFORMED_OPTIONS = {
    "max-retries-string": (
        "runner", {"max_retries": "2"}, "runner.max_retries must be an int >= 0, got '2'"
    ),
    "max-retries-negative": (
        "runner", {"max_retries": -1}, "runner.max_retries must be an int >= 0, got -1"
    ),
    "max-retries-bool": (
        "runner", {"max_retries": True},
        "runner.max_retries must be an int >= 0, got True",
    ),
    "lease-ttl-string": (
        "runner", {"lease_ttl": "x"}, "runner.lease_ttl must be a number > 0, got 'x'"
    ),
    "lease-ttl-zero": (
        "runner", {"lease_ttl": 0}, "runner.lease_ttl must be a number > 0, got 0"
    ),
    "local-workers-string": (
        "runner", {"local_workers": "2"},
        "runner.local_workers must be an int >= 0, got '2'",
    ),
    "timeout-string": (
        "runner", {"timeout": "soon"},
        "runner.timeout must be a number > 0 or null, got 'soon'",
    ),
    "on-error-ignore": (
        "runner", {"on_error": "ignore"},
        "runner.on_error must be 'raise' or 'skip', got 'ignore'",
    ),
    "resume-string": ("runner", {"resume": "yes"}, "runner.resume must be a bool, got 'yes'"),
    "queue-dir-number": (
        "runner", {"queue_dir": 5}, "runner.queue_dir must be a string or null, got 5"
    ),
    "targets-string": (
        "report", {"targets": "0.8"}, "report.targets must be a list of numbers, got '0.8'"
    ),
    "targets-of-strings": (
        "report", {"targets": ["0.8"]},
        "report.targets must be a list of numbers, got ['0.8']",
    ),
    "plot-string": ("report", {"plot": "yes"}, "report.plot must be a bool, got 'yes'"),
    "backoff-retired": (
        "runner", {"backoff": 0.5},
        "runner.backoff = 0.5 is no longer supported: a failed cell runs again "
        "at once, up to runner.max_retries times",
    ),
}


class TestRunnerOptions:
    @pytest.mark.parametrize("case", list(MALFORMED_OPTIONS))
    def test_malformed_option_is_a_spec_error(self, case):
        section, options, message = MALFORMED_OPTIONS[case]
        payload = default_experiment_spec().to_dict()
        payload[section].update(options)
        with pytest.raises(SpecError) as error:
            ExperimentSpec.from_dict(payload)
        assert str(error.value) == message

    def test_constructor_checks_options(self):
        with pytest.raises(SpecError, match="runner.local_workers must be"):
            _small_spec(runner={"local_workers": -1})
        with pytest.raises(SpecError, match="report.plot must be"):
            _small_spec(report={"plot": 1})

    @pytest.mark.parametrize("backoff", [0.0, 0])
    def test_retired_backoff_default_is_dropped(self, backoff):
        payload = default_experiment_spec().to_dict()
        payload["runner"]["backoff"] = backoff
        spec = ExperimentSpec.from_dict(payload)
        assert "backoff" not in spec.to_dict()["runner"]
        assert spec.to_dict() == default_experiment_spec().to_dict()

    def test_valid_options_accepted(self):
        spec = _small_spec(
            runner={"max_retries": 2, "lease_ttl": 5, "timeout": 0.5,
                    "queue_dir": "q", "local_workers": 0, "on_error": "skip"},
            report={"targets": [0.5, 1], "plot": True},
        )
        assert ExperimentSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()


class TestConfigCli:
    def test_show_defaults_is_valid_json(self, capsys):
        from repro.cli import main

        assert main(["config", "show", "--defaults"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro.experiment"

    def test_validate_reports_components(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "experiment.json"
        _small_spec().save(path)
        assert main(["config", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid experiment document" in out
        assert "strategy 'entropy'" in out

    def test_validate_bad_document_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "experiment.json"
        payload = _small_spec().to_dict()
        payload["strategies"]["entropy"] = {"kind": "nope"}
        path.write_text(json.dumps(payload))
        assert main(["config", "validate", str(path)]) == 2
        assert "unknown strategy kind" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["batch-size-string", "rounds-null", "repeats-float"])
    def test_validate_malformed_shape_is_one_error_line(self, tmp_path, capsys, case):
        from repro.cli import main

        shape, message = MALFORMED_SHAPES[case]
        path = tmp_path / "experiment.json"
        payload = _small_spec().to_dict()
        payload["experiment"].update(shape)
        path.write_text(json.dumps(payload))
        assert main(["config", "validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("case", list(MALFORMED_MODELS))
    def test_validate_malformed_model_is_one_error_line(self, tmp_path, capsys, case):
        from repro.cli import main

        model, message = MALFORMED_MODELS[case]
        payload = default_experiment_spec().to_dict()
        if "kind" in model:
            payload["model"] = model
        else:
            payload["model"]["params"].update(model)
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(payload))
        assert main(["config", "validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "command", [["config", "validate"], ["run", "--config"]], ids=["validate", "run"]
    )
    @pytest.mark.parametrize("case", list(MALFORMED_OPTIONS))
    def test_malformed_option_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, command, case
    ):
        from repro.cli import main

        def unreachable(spec):
            raise AssertionError("datasets built before the document was checked")

        monkeypatch.setattr(ExperimentSpec, "build_datasets", unreachable)
        section, options, message = MALFORMED_OPTIONS[case]
        payload = default_experiment_spec().to_dict()
        payload[section].update(options)
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(payload))
        assert main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--max-retries", "-1"], "runner.max_retries must be an int >= 0, got -1"),
            (["--local-workers", "-1"], "runner.local_workers must be an int >= 0, got -1"),
            (["--lease-ttl", "0"], "runner.lease_ttl must be a number > 0, got 0.0"),
            (["--grid-timeout", "0"], "runner.timeout must be a number > 0 or null, got 0.0"),
        ],
        ids=["max-retries", "local-workers", "lease-ttl", "grid-timeout"],
    )
    def test_malformed_compare_flag_is_one_error_line(self, capsys, flags, message):
        from repro.cli import main

        assert main(
            ["compare", "--dataset", "mr", "--strategies", "random", *flags]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_run_config_matches_compare_flags(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "experiment.json"
        _small_spec(
            model=Spec(kind="linear", params={"epochs": 2, "batch_size": 32, "seed": 0}),
        ).save(path)
        assert main(["run", "--config", str(path)]) == 0
        config_out = capsys.readouterr().out
        assert main([
            "compare", "--dataset", "mr", "--scale", "0.06", "--seed", "7",
            "--strategies", "random", "entropy",
            "--batch-size", "5", "--rounds", "2", "--repeats", "1",
            "--epochs", "2",
        ]) == 0
        flags_out = capsys.readouterr().out
        assert config_out == flags_out
