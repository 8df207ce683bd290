"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.strategies import FHS, HUS, LHS, Entropy, Random, WSHS
from repro.exceptions import ConfigurationError
from repro.specs import build_strategy, parse_strategy_shorthand


def _shorthand(text, window=3, ranker=None):
    """The strategy a ``compare --strategies`` entry builds."""
    return build_strategy(parse_strategy_shorthand(text, window, ranker))


class TestStrategySpecs:
    def test_plain_name(self):
        assert isinstance(_shorthand("random"), Random)

    def test_case_insensitive(self):
        assert isinstance(_shorthand("ENTROPY"), Entropy)

    def test_wshs_wrapper(self):
        strategy = _shorthand("wshs:entropy", window=4)
        assert isinstance(strategy, WSHS)
        assert isinstance(strategy.base, Entropy)
        assert strategy.window == 4

    def test_hus_and_fhs_wrappers(self):
        assert isinstance(_shorthand("hus:lc"), HUS)
        assert isinstance(_shorthand("fhs:lc"), FHS)

    def test_lhs_requires_ranker(self):
        with pytest.raises(ConfigurationError):
            parse_strategy_shorthand("lhs:entropy", 3, None)

    def test_unknown_wrapper(self):
        with pytest.raises(ConfigurationError):
            parse_strategy_shorthand("boost:entropy", 3, None)

    def test_unknown_base(self):
        with pytest.raises(ConfigurationError):
            _shorthand("wshs:nope")


class TestEntryPoints:
    def test_console_script_target_resolves(self):
        # pyproject [project.scripts] points at repro.cli:main.
        from repro.cli import main as entry

        assert callable(entry)

    def test_module_entry_importable(self):
        import importlib

        module = importlib.import_module("repro.__main__")
        assert hasattr(module, "main")


class TestParser:
    def test_compare_parses(self):
        args = build_parser().parse_args(
            ["compare", "--dataset", "mr", "--strategies", "random", "entropy"]
        )
        assert args.command == "compare"
        assert args.strategies == ["random", "entropy"]

    def test_fault_tolerance_flag_defaults(self):
        args = build_parser().parse_args(
            ["compare", "--dataset", "mr", "--strategies", "random"]
        )
        assert args.checkpoint_dir is None
        assert args.resume is False
        assert args.max_retries == 0
        assert args.on_error == "raise"

    def test_fault_tolerance_flags_parse(self, tmp_path):
        args = build_parser().parse_args([
            "compare", "--dataset", "mr", "--strategies", "random",
            "--checkpoint-dir", str(tmp_path), "--resume",
            "--max-retries", "2", "--on-error", "skip",
        ])
        assert args.checkpoint_dir == str(tmp_path)
        assert args.resume is True
        assert args.max_retries == 2
        assert args.on_error == "skip"

    def test_training_mode_parses_and_defaults_cold(self):
        parser = build_parser()
        default = parser.parse_args(
            ["compare", "--dataset", "mr", "--strategies", "random"]
        )
        assert default.training_mode == "cold"
        warm = parser.parse_args([
            "compare", "--dataset", "mr", "--strategies", "random",
            "--training-mode", "warm",
        ])
        assert warm.training_mode == "warm"
        with pytest.raises(SystemExit):
            parser.parse_args([
                "compare", "--dataset", "mr", "--strategies", "random",
                "--training-mode", "hot",
            ])

    def test_train_ranker_parses(self):
        args = build_parser().parse_args(
            ["train-ranker", "--dataset", "subj", "--output", "r.json"]
        )
        assert args.command == "train-ranker"
        assert args.predictor == "ar"

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCompareCommand:
    def test_text_comparison_prints_table(self, capsys):
        code = main([
            "compare", "--dataset", "mr", "--scale", "0.05",
            "--strategies", "random", "wshs:entropy",
            "--rounds", "2", "--batch-size", "10", "--repeats", "1",
            "--epochs", "3",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "wshs:entropy" in captured.out
        assert "accuracy" in captured.out

    def test_targets_table(self, capsys):
        code = main([
            "compare", "--dataset", "mr", "--scale", "0.05",
            "--strategies", "random",
            "--rounds", "2", "--batch-size", "10", "--repeats", "1",
            "--epochs", "3", "--targets", "0.5",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "acc>=0.5" in captured.out

    def test_warm_mode_runs_and_reports_phase_times(self, capsys):
        code = main([
            "compare", "--dataset", "mr", "--scale", "0.05",
            "--strategies", "random", "entropy",
            "--rounds", "2", "--batch-size", "10", "--repeats", "1",
            "--epochs", "3", "--training-mode", "warm",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "accuracy" in captured.out
        # Phase wall-times go to stderr, keeping stdout byte-comparable.
        assert "train (s)" in captured.err
        assert "propose (s)" in captured.err

    def test_ner_comparison(self, capsys):
        code = main([
            "compare", "--dataset", "conll-en", "--scale", "0.012",
            "--strategies", "random", "mnlp",
            "--rounds", "2", "--batch-size", "15", "--repeats", "1",
            "--epochs", "4",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "span F1" in captured.out

    def test_unknown_dataset_is_error_exit(self, capsys):
        code = main([
            "compare", "--dataset", "imagenet",
            "--strategies", "random",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown dataset" in captured.err

    def test_resume_without_checkpoint_dir_is_error_exit(self, capsys):
        code = main([
            "compare", "--dataset", "mr", "--strategies", "random", "--resume",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "--resume requires --checkpoint-dir" in captured.err

    def test_checkpoint_then_resume(self, capsys, tmp_path):
        argv = [
            "compare", "--dataset", "mr", "--scale", "0.05",
            "--strategies", "random",
            "--rounds", "2", "--batch-size", "10", "--repeats", "1",
            "--epochs", "3", "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        cells = list((tmp_path / "ckpt").glob("cell_*.json"))
        assert len(cells) == 1
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_on_error_skip_warns_about_dropped_cells(self, capsys, monkeypatch):
        from repro.experiments import CellFailure

        def fake_run_comparison(*args, **kwargs):
            assert kwargs["on_error"] == "skip"
            results = real_run_comparison(*args, **kwargs)
            next(iter(results.values())).failures.append(
                CellFailure("random", 1, 2, "InjectedFault: boom")
            )
            return results

        import repro.experiments.sweep as sweep_module
        real_run_comparison = sweep_module.run_comparison
        monkeypatch.setattr(sweep_module, "run_comparison", fake_run_comparison)
        code = main([
            "compare", "--dataset", "mr", "--scale", "0.05",
            "--strategies", "random",
            "--rounds", "2", "--batch-size", "10", "--repeats", "1",
            "--epochs", "3", "--on-error", "skip", "--max-retries", "1",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "dropped cell" in captured.err
        assert "InjectedFault: boom" in captured.err


class TestKeyboardInterrupt:
    def _interrupted_main(self, monkeypatch, argv):
        import repro.experiments.sweep as sweep_module

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep_module, "run_comparison", interrupted)
        return main(argv)

    def test_exit_code_130(self, capsys, monkeypatch):
        code = self._interrupted_main(monkeypatch, [
            "compare", "--dataset", "mr", "--scale", "0.05",
            "--strategies", "random",
        ])
        captured = capsys.readouterr()
        assert code == 130
        assert "interrupted" in captured.err
        assert "--resume" not in captured.err

    def test_resume_hint_when_checkpointing(self, capsys, monkeypatch, tmp_path):
        code = self._interrupted_main(monkeypatch, [
            "compare", "--dataset", "mr", "--scale", "0.05",
            "--strategies", "random",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ])
        captured = capsys.readouterr()
        assert code == 130
        assert str(tmp_path / "ckpt") in captured.err
        assert "--resume" in captured.err

    def test_queue_hint_when_distributed(self, capsys, monkeypatch, tmp_path):
        import repro.experiments.sweep as sweep_module

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep_module, "run_distributed", interrupted)
        code = main([
            "compare", "--dataset", "mr", "--scale", "0.05",
            "--strategies", "random",
            "--queue-dir", str(tmp_path / "q"),
        ])
        captured = capsys.readouterr()
        assert code == 130
        assert "leases were released" in captured.err
        assert str(tmp_path / "q") in captured.err

    def test_worker_interrupt_mentions_queue(self, capsys, monkeypatch, tmp_path):
        import repro.cli as cli_module

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "run_worker", interrupted)
        code = main(["worker", "--queue-dir", str(tmp_path / "q")])
        captured = capsys.readouterr()
        assert code == 130
        assert str(tmp_path / "q") in captured.err


class TestDistributedFlags:
    def test_defaults(self):
        args = build_parser().parse_args(
            ["compare", "--dataset", "mr", "--strategies", "random"]
        )
        assert args.queue_dir is None
        assert args.local_workers == 1
        assert args.lease_ttl == 30.0
        assert args.grid_timeout is None

    def test_flags_parse(self, tmp_path):
        args = build_parser().parse_args([
            "compare", "--dataset", "mr", "--strategies", "random",
            "--queue-dir", str(tmp_path),
            "--local-workers", "3", "--lease-ttl", "5",
            "--grid-timeout", "60",
        ])
        assert args.queue_dir == str(tmp_path)
        assert args.local_workers == 3
        assert args.lease_ttl == 5.0
        assert args.grid_timeout == 60.0

    @pytest.mark.parametrize(
        "flag", [["--n-jobs", "2"], ["--queue-backend", "file"],
                 ["--history-backend", "local"], ["--backoff", "0.5"]],
    )
    def test_retired_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "--dataset", "mr", "--strategies", "random", *flag]
            )
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_worker_parses(self, tmp_path):
        args = build_parser().parse_args(
            ["worker", "--queue-dir", str(tmp_path), "--max-cells", "2"]
        )
        assert args.command == "worker"
        assert args.max_cells == 2
        assert args.owner is None

    def test_distributed_compare_matches_serial(self, capsys, tmp_path):
        flags = [
            "compare", "--dataset", "mr", "--scale", "0.05",
            "--strategies", "random", "entropy",
            "--rounds", "2", "--batch-size", "10", "--repeats", "2",
            "--epochs", "2", "--seed", "9",
        ]
        assert main(flags + ["--checkpoint-dir", str(tmp_path / "serial")]) == 0
        serial_out = capsys.readouterr().out
        assert main(flags + [
            "--queue-dir", str(tmp_path / "q"), "--local-workers", "2",
        ]) == 0
        distributed_out = capsys.readouterr().out
        assert distributed_out == serial_out
        serial = sorted((tmp_path / "serial").glob("cell_*.json"))
        queued = sorted((tmp_path / "q" / "checkpoints").glob("cell_*.json"))
        assert [p.name for p in queued] == [p.name for p in serial]
        for queued_file, serial_file in zip(queued, serial):
            assert queued_file.read_bytes() == serial_file.read_bytes()

    def test_worker_command_drains_queue(self, capsys, tmp_path):
        from repro.experiments.distributed import create_queue
        from repro.specs import ExperimentSpec, Spec
        from repro.experiments import ExperimentConfig

        spec = ExperimentSpec(
            dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 7}),
            model=Spec(kind="linear",
                       params={"epochs": 2, "batch_size": 32, "seed": 0}),
            strategies={"random": Spec(kind="random")},
            config=ExperimentConfig(batch_size=10, rounds=2, repeats=2, seed=9),
        )
        create_queue(tmp_path / "q", spec)
        code = main([
            "worker", "--queue-dir", str(tmp_path / "q"),
            "--owner", "cli-worker", "--verbose",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "2 cell(s) completed" in captured.out
        assert "committed" in captured.err  # --verbose lifecycle trace
        assert len(list((tmp_path / "q" / "checkpoints").glob("cell_*.json"))) == 2


class TestTrainRankerCommand:
    def test_train_and_reuse(self, capsys, tmp_path):
        ranker_path = tmp_path / "ranker.json"
        code = main([
            "train-ranker", "--dataset", "subj", "--scale", "0.06",
            "--rounds", "2", "--candidates", "6", "--batch-size", "15",
            "--epochs", "3", "--predictor", "none",
            "--output", str(ranker_path),
        ])
        assert code == 0
        assert ranker_path.exists()
        # The saved ranker powers an lhs:<base> comparison.
        code = main([
            "compare", "--dataset", "mr", "--scale", "0.05",
            "--strategies", "entropy", "lhs:entropy",
            "--rounds", "2", "--batch-size", "10", "--repeats", "1",
            "--epochs", "3", "--ranker", str(ranker_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "lhs:entropy" in captured.out

    def test_ner_dataset_rejected(self, capsys, tmp_path):
        code = main([
            "train-ranker", "--dataset", "conll-en",
            "--output", str(tmp_path / "r.json"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "text datasets only" in captured.err

    def test_lhs_factory_via_cli_spec(self, tmp_path):
        ranker_path = tmp_path / "ranker.json"
        main([
            "train-ranker", "--dataset", "subj", "--scale", "0.06",
            "--rounds", "2", "--candidates", "6", "--batch-size", "15",
            "--epochs", "3", "--predictor", "ar",
            "--output", str(ranker_path),
        ])
        assert isinstance(_shorthand("lhs:entropy", ranker=str(ranker_path)), LHS)


class TestMalformedRankerStopsEarly:
    """A ranker file that does not load ends a grid before any data is built."""

    @pytest.fixture
    def ranker(self, tmp_path, monkeypatch):
        import json

        import repro.specs.experiment as experiment

        def no_datasets(spec):
            raise AssertionError("a dataset was built")

        monkeypatch.setattr(experiment, "build_dataset", no_datasets)
        path = tmp_path / "F.json"
        path.write_text(json.dumps({"format": "repro.lhs_ranker", "version": 1}))
        return path

    @staticmethod
    def _document(ranker):
        return {
            **TestSweepCommands._base_document(),
            "strategies": {
                "lhs:entropy": parse_strategy_shorthand(
                    "lhs:entropy", 3, str(ranker)
                ).to_dict(),
            },
        }

    def _argv(self, command, ranker, tmp_path):
        import json

        if command == "compare":
            return [
                "compare", "--dataset", "mr", "--scale", "0.05",
                "--strategies", "lhs:entropy", "--ranker", str(ranker),
                "--rounds", "2", "--batch-size", "10", "--repeats", "1",
            ]
        if command == "run":
            config = tmp_path / "experiment.json"
            config.write_text(json.dumps(self._document(ranker)))
            return ["run", "--config", str(config)]
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "format": "repro.sweep",
            "version": 1,
            "name": "bad-ranker",
            "base": self._document(ranker),
            "scenario_seed": 2,
            "axes": [TestSweepCommands.NOISE_AXIS],
        }))
        return ["sweep", "run", str(sweep)]

    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    def test_one_error_line_and_no_dataset(self, command, ranker, tmp_path, capsys):
        code = main(self._argv(command, ranker, tmp_path))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [f"error: {ranker}: model is missing"]

    def test_no_queue_is_materialised(self, ranker, tmp_path, capsys):
        queue = tmp_path / "q"
        code = main(self._argv("compare", ranker, tmp_path) + [
            "--queue-dir", str(queue), "--local-workers", "2",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [f"error: {ranker}: model is missing"]
        assert not (queue / "queue.json").exists()


class TestFileNotUtf8:
    """A JSON file holding a byte that is not UTF-8 is one error line."""

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["config", "validate", "{file}"], "experiment file"),
            (["sweep", "validate", "{file}"], "sweep file"),
            (["run", "--config", "{file}"], "experiment file"),
            (
                ["session", "ingest", "--dir", "{dir}", "--labels", "{file}"],
                "labels file",
            ),
        ],
    )
    def test_exit_2_and_one_error_line(self, argv, kind, tmp_path, capsys):
        path = tmp_path / "F.json"
        path.write_bytes(b'{"format": "repro.experiment", "name": "\xff"}')
        argv = [arg.format(file=path, dir=tmp_path / "session") for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot read {kind} {path}: ")
        assert "can't decode byte 0xff" in line


class TestSweepCommands:
    """CLI surface of `repro sweep run/validate/show`."""

    @staticmethod
    def _base_document():
        import repro.specs as specs
        from repro.experiments import ExperimentConfig

        return specs.ExperimentSpec(
            dataset=specs.Spec(kind="mr", params={"scale": 0.05, "seed": 7}),
            strategies={
                "random": specs.Spec(kind="random"),
                "entropy": specs.Spec(kind="entropy"),
            },
            config=ExperimentConfig(batch_size=10, rounds=2, repeats=1, seed=9),
        ).to_dict()

    @classmethod
    def _write_sweep(cls, path, axes, **extra):
        import json

        document = {
            "format": "repro.sweep",
            "version": 1,
            "name": "cli-test",
            "base": cls._base_document(),
            "scenario_seed": 2,
            "axes": axes,
        }
        document.update(extra)
        path.write_text(json.dumps(document))
        return path

    NOISE_AXIS = {
        "name": "noise",
        "cells": [
            {"name": "clean"},
            {
                "name": "p20",
                "transforms": [{"kind": "label_noise", "params": {"rate": 0.2}}],
            },
        ],
    }

    def test_degenerate_sweep_matches_run_config(self, capsys, tmp_path):
        import json

        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(self._base_document()))
        assert main(["run", "--config", str(config)]) == 0
        reference = capsys.readouterr().out

        sweep = self._write_sweep(tmp_path / "sweep.json", [])
        assert main(["sweep", "run", str(sweep)]) == 0
        assert capsys.readouterr().out == reference

    def test_grid_prints_cells_and_matrices(self, capsys, tmp_path):
        sweep = self._write_sweep(
            tmp_path / "sweep.json", [self.NOISE_AXIS],
            metrics=[{"kind": "final"}],
        )
        assert main(["sweep", "run", str(sweep)]) == 0
        out = capsys.readouterr().out
        assert "=== cell clean (1/2) ===" in out
        assert "=== cell p20 (2/2) ===" in out
        assert "metrics: p20" in out
        assert "final [random] across the grid" in out
        assert "final [entropy] across the grid" in out

    def test_sweep_resume_output_byte_identical(self, capsys, tmp_path):
        sweep = self._write_sweep(
            tmp_path / "sweep.json", [self.NOISE_AXIS],
            metrics=[{"kind": "final"}, {"kind": "auc"}],
        )
        sweep_dir = tmp_path / "state"
        assert main(["sweep", "run", str(sweep), "--sweep-dir", str(sweep_dir)]) == 0
        first = capsys.readouterr().out
        assert main([
            "sweep", "run", str(sweep), "--sweep-dir", str(sweep_dir), "--resume",
        ]) == 0
        assert capsys.readouterr().out == first

    def test_validate_reports_grid(self, capsys, tmp_path):
        sweep = self._write_sweep(tmp_path / "sweep.json", [self.NOISE_AXIS])
        assert main(["sweep", "validate", str(sweep)]) == 0
        out = capsys.readouterr().out
        assert "2 grid (2 cells)" in out
        assert "valid sweep document" in out

    def test_show_cells_prints_derived_documents(self, capsys, tmp_path):
        import json

        sweep = self._write_sweep(tmp_path / "sweep.json", [self.NOISE_AXIS])
        assert main(["sweep", "show", str(sweep), "--cells"]) == 0
        out = capsys.readouterr().out
        assert "=== cell clean" in out
        assert '"label_noise"' in out

        assert main(["sweep", "show", str(sweep)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == "repro.sweep"

    def test_invalid_sweep_file_is_spec_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["sweep", "validate", str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().err
