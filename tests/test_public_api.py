"""Tests for the top-level public API surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core.strategies as strategies_pkg


class TestTopLevel:
    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_version_single_sourced_from_package(self):
        # pyproject must defer to repro.__version__, not repeat the number.
        tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
        pyproject = Path(repro.__file__).parents[2] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        assert "version" not in config["project"]
        assert "version" in config["project"]["dynamic"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_import_leaves_the_session_server_unloaded(self):
        # The library (experiments included) must not pull in the
        # service layer, and with it sqlite3, http.server and urllib.
        code = "import repro, sys; assert 'repro.service' not in sys.modules"
        source_root = str(Path(repro.__file__).parents[1])
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env=dict(os.environ, PYTHONPATH=source_root),
        )

    def test_strategies_all_resolve(self):
        for name in strategies_pkg.__all__:
            assert hasattr(strategies_pkg, name), name

    def test_quickstart_names_available(self):
        # The README quickstart must keep working.
        from repro import LinearSoftmax, SessionEngine, mr, run_to_completion  # noqa: F401
        from repro.core.strategies import Entropy, WSHS  # noqa: F401

    def test_registry_covers_paper_strategies(self):
        from repro.core.strategies import registered_strategies

        keys = set(registered_strategies())
        paper_strategies = {
            "random", "entropy", "lc", "egl", "qbc", "density", "mmr",
            "hus", "hkld", "wshs", "fhs", "lhs", "bald", "mnlp", "egl-word",
        }
        assert paper_strategies <= keys
