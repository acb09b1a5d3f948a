"""No float in the library: every number in ``src/ratpencil`` is exact.

The one exception is ``poly.NEG_INFINITY``, the degree of the zero
polynomial.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ratpencil"


def float_uses(source: str, allowed_name=None) -> list[int]:
    """Line numbers of float literals and ``float(...)`` calls, outside the
    value assigned to ``allowed_name``."""
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == allowed_name
            for t in node.targets
        ):
            skipped.update(map(id, ast.walk(node.value)))
    return sorted(
        node.lineno for node in ast.walk(tree)
        if id(node) not in skipped and (
            isinstance(node, ast.Constant) and isinstance(node.value, float)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
    )


def test_the_detector_finds_floats():
    source = "x = 1.5\ny = float('2')\nz = 3\nNEG = float('-inf')\n"
    assert float_uses(source) == [1, 2, 4]
    assert float_uses(source, "NEG") == [1, 2]


def test_no_float_in_the_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {
        path.name: lines for path in paths
        if (lines := float_uses(
            path.read_text(encoding="utf-8"),
            "NEG_INFINITY" if path.name == "poly.py" else None,
        ))
    }
    assert found == {}
