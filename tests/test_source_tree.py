"""``src`` holds only code the program runs, and one path per computation.

The scalar oracles the fast paths are tested against live in
``tests/oracles``.  ``top_k_reference`` is the one ``*_reference``
function ``src`` keeps, because ``top_k_indices`` falls back to it for
NaN scores and ``k >= n``.  No function under ``src/repro`` may share
its name, leading underscores aside, with a function of
``tests/oracles``, so an oracle that moved out of ``src`` cannot come
back as a second production path, public (``lstm_run``) or private
(``_lstm_run``).
"""

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).parent
ORACLE_ROOT = Path(__file__).parent / "oracles"
PRODUCTION_REFERENCES = {"top_k_reference"}
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _source_functions():
    """``(where, name)`` of every function and method under ``src/repro``."""
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, FUNCTION_NODES):
                yield f"{path.relative_to(SOURCE_ROOT)}:{node.lineno}", node.name


def test_no_reference_oracles_in_src():
    oracles = [
        f"{where} {name}"
        for where, name in _source_functions()
        if name.endswith("_reference") and name not in PRODUCTION_REFERENCES
    ]
    assert not oracles, f"move these oracles to tests/oracles: {oracles}"


def test_no_oracle_twins_in_src():
    oracle_names = {
        node.name.lstrip("_")
        for path in ORACLE_ROOT.glob("*.py")
        for node in _parse(path).body
        if isinstance(node, FUNCTION_NODES)
    }
    assert oracle_names  # the walk found the oracles
    twins = [
        f"{where} {name}"
        for where, name in _source_functions()
        if name.lstrip("_") in oracle_names
    ]
    assert not twins, f"src defines functions the oracles also define: {twins}"
