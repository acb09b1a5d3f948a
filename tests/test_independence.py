"""The builders never run the verifier's code.

``op_shrink`` eliminates pivots of built pencils, and the verifier
eliminates pivots to check them.  If ``combinators.py`` imported
``elimination`` or ``verify``, a fault in that shared code could build a
wrong pencil and then pass it, so this test reads the imports of
``combinators.py`` and fails on either.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ratpencil"
FORBIDDEN = {"elimination", "verify"}


def imported_modules(source: str) -> set[str]:
    """The last dotted part of every module that ``source`` imports,
    and of every name taken from a package with ``from . import``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module != "ratpencil":
                found.add(node.module.rsplit(".", 1)[-1])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_the_detector_finds_imports():
    source = (
        "import heapq\n"
        "from .elimination import schur_eliminate\n"
        "from . import verify\n"
        "import ratpencil.elimination as e\n"
        "from ratpencil import fields\n"
    )
    assert imported_modules(source) == {
        "heapq", "elimination", "verify", "fields"
    }


def test_combinators_import_neither_elimination_nor_verify():
    source = (SRC / "combinators.py").read_text(encoding="utf-8")
    assert not imported_modules(source) & FORBIDDEN
