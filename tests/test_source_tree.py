"""``src`` holds only code the program runs.

The scalar oracles the fast paths are tested against live in
``tests/oracles``.  ``top_k_reference`` is the one ``*_reference``
function ``src`` keeps, because ``top_k_indices`` falls back to it for
NaN scores and ``k >= n``.
"""

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).parent
PRODUCTION_REFERENCES = {"top_k_reference"}


def test_no_reference_oracles_in_src():
    oracles = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.endswith("_reference")
                and node.name not in PRODUCTION_REFERENCES
            ):
                oracles.append(
                    f"{path.relative_to(SOURCE_ROOT)}:{node.lineno} {node.name}"
                )
    assert not oracles, f"move these oracles to tests/oracles: {oracles}"
