"""The builders never run the verifier's code, and no private name is dead.

``op_shrink`` eliminates pivots to make a pencil smaller, and the
verifier eliminates pivots to check a pencil.  If ``combinators.py``
imported ``elimination`` or ``verify``, a fault in that shared code could
shrink a pencil wrongly and then pass it, so this test reads the imports
of ``combinators.py`` and fails on either.

The builders write every pencil layout directly, so ``realize.py`` takes
one combinator, ``op_homogenize``, and none of those that assemble or
shrink intermediate pencils.  They all go through one writer, so the only
function of ``realize.py`` that constructs a ``LinearPencil`` is
``_written``.

The full determinant is the left side of the identity that checks the
Schur elimination, so of the functions, classes and constants that
``elimination.py`` defines, the two eliminations reach only one in common,
the permutation sign ``_parity_sign``.

A module-level private function, class or constant that nothing in the
library uses beyond its own definition is dead code; tests reaching into
it do not keep it alive.  So is a name that a module imports and never
reads, except the re-exports of ``__init__.py``.
"""

import ast
from collections import Counter
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


def names_taken(source: str, module: str) -> set[str]:
    """What ``source`` takes from the library module ``module`` (its last
    dotted part): the names of a ``from .module import ...``, and the
    module itself when ``source`` imports it whole."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module != "ratpencil"
                and node.module.rsplit(".", 1)[-1] == module):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            alias.name.rsplit(".", 1)[-1] == module for alias in node.names
        ):
            found.add(module)
    return found


def test_the_detector_finds_names_taken():
    source = (
        "from .combinators import op_homogenize, op_add\n"
        "from .poly import layout\n"
        "def f():\n"
        "    from . import combinators\n"
        "    import ratpencil.combinators as c\n"
    )
    assert names_taken(source, "combinators") == {
        "op_homogenize", "op_add", "combinators"
    }
    assert names_taken("from ratpencil import combinators\n",
                       "combinators") == {"combinators"}


def test_builders_take_only_op_homogenize_from_combinators():
    source = (SRC / "realize.py").read_text(encoding="utf-8")
    assert names_taken(source, "combinators") == {"op_homogenize"}


def callers(source: str, name: str) -> set[str]:
    """The module-level functions and classes of ``source`` that call
    ``name``, as a bare name or as an attribute, nested functions
    included; ``<module>`` for a call outside them."""
    found = set()
    for node in ast.parse(source).body:
        owner = (node.name if isinstance(node, (
            ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            else "<module>")
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and name in (
                    getattr(sub.func, "id", None),
                    getattr(sub.func, "attr", None)):
                found.add(owner)
    return found


def test_the_detector_finds_callers():
    source = (
        "from . import pencil\n"
        "EMPTY = LinearPencil(d, 0, 1, 0, [{}])\n"
        "def _writer():\n"
        "    def inner():\n"
        "        return LinearPencil(d, n, m, k, coeffs)\n"
        "    return inner()\n"
        "def _other(p):\n"
        "    return pencil.LinearPencil(p.descriptor, 0, 1, 0, [{}])\n"
        "def _reader(p):\n"
        "    return p.with_split(1), LinearPencil\n"
    )
    assert callers(source, "LinearPencil") == {
        "<module>", "_writer", "_other"
    }


def test_only_the_writer_constructs_pencils():
    source = (SRC / "realize.py").read_text(encoding="utf-8")
    assert callers(source, "LinearPencil") == {"_written"}


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """The module-level functions, classes and constants."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found.update((name, node) for name in names)
    return found


def reached(source: str, name: str) -> set[str]:
    """The module-level functions, classes and constants of ``source``
    that the definition of ``name`` reads, directly or through others of
    them (``name`` itself only when it is reached again)."""
    definitions = _definitions(ast.parse(source))
    found, todo = set(), [name]
    while todo:
        for sub in ast.walk(definitions[todo.pop()]):
            if (isinstance(sub, ast.Name) and sub.id in definitions
                    and sub.id not in found):
                found.add(sub.id)
                todo.append(sub.id)
    return found


def test_the_detector_follows_definitions():
    source = (
        "import heapq\n"
        "LIMIT = 3\n"
        "def _a(x):\n"
        "    return _b(x) + LIMIT\n"
        "def _b(x):\n"
        "    return heapq.nsmallest(x, [])\n"
        "def _c():\n"
        "    return 1\n"
        "def top():\n"
        "    def inner():\n"
        "        return _a(1)\n"
        "    return inner()\n"
        "def other():\n"
        "    return _c(), other\n"
    )
    assert reached(source, "top") == {"_a", "_b", "LIMIT"}
    assert reached(source, "other") == {"_c", "other"}


def test_the_eliminations_share_only_the_parity_sign():
    source = (SRC / "elimination.py").read_text(encoding="utf-8")
    schur = reached(source, "schur_eliminate")
    full = reached(source, "sparse_determinant")
    assert "_common_monomial" in schur and "_times" in full
    assert schur & full == {"_parity_sign"}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")




def _references(node: ast.AST) -> Counter:
    """Names read, attribute names and names imported, under ``node``."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def dead_private_names(sources: dict[str, str]) -> set[str]:
    """``module.name`` of every private definition in ``sources`` (module
    name to source) that no code uses outside the definition itself."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = Counter()
    for tree in trees.values():
        used.update(_references(tree))
    dead = set()
    for module, tree in trees.items():
        for name, node in _definitions(tree).items():
            if _is_private(name) and used[name] - _references(node)[name] <= 0:
                dead.add(f"{module}.{name}")
    return dead


def test_the_detector_finds_dead_private_names():
    sources = {
        "a": (
            "_USED = 1\n"
            "_DEAD = 2\n"
            "_LIMIT: int = 3\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else _USED\n"
            "class _Imported:\n"
            "    pass\n"
            "def _by_attribute():\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    pass\n"
        ),
        "b": (
            "from .a import _Imported\n"
            "from . import a\n"
            "a._by_attribute()\n"
        ),
    }
    assert dead_private_names(sources) == {
        "a._DEAD", "a._LIMIT", "a._recursive"
    }


def test_every_private_name_is_used():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
    }
    assert not dead_private_names(sources)


def unused_imports(source: str) -> set[str]:
    """The names that ``source`` binds by an import (other than from
    ``__future__``) and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    return bound - read


def test_the_detector_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import heapq\n"
        "import os.path\n"
        "import json as j\n"
        "from .combinators import op_add, op_inverse\n"
        "def f():\n"
        "    from .poly import layout\n"
        "    return op_add(os.path.sep)\n"
    )
    assert unused_imports(source) == {"heapq", "j", "op_inverse", "layout"}


def test_every_import_is_used():
    unused = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert not unused
