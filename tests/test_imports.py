"""Every name a module of the package imports is used there or exported,
and every private module-level name of the package is read somewhere."""
import ast
from pathlib import Path

import pytest

import rpratio

SOURCES = sorted(Path(rpratio.__file__).parent.glob("*.py"))
# __init__.py imports only to re-export: its imports are the package's names.
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names the source imports but neither uses nor lists in __all__."""
    tree = ast.parse(source)
    imported, used, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_or_exports_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\nfrom math import inf, pi\n"
        "from .errors import EstimationError\n"
        "__all__ = ['EstimationError']\n"
        "print(os.path.sep, pi)\n"
    )
    assert unused_imports(source) == ["np", "inf"]


def _defined(statement) -> list[str]:
    """The private names a module-level statement defines: a function, a
    class or the targets of an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _read(statement) -> set[str]:
    """The names a statement reads: Name loads, attribute names and the
    names that a from-import takes."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """module:name of each private module-level name that no module-level
    statement of the sources reads, besides the one that defines it."""
    statements = [
        (module, statement)
        for module, source in sources.items()
        for statement in ast.parse(source).body
    ]
    reads = [_read(statement) for _, statement in statements]
    return [
        f"{module}:{name}"
        for i, (module, statement) in enumerate(statements)
        for name in _defined(statement)
        if not any(name in r for j, r in enumerate(reads) if j != i)
    ]


def test_every_private_name_is_read():
    assert dead_private_names({p.name: p.read_text() for p in SOURCES}) == []


def test_checker_finds_a_dead_private_name():
    source = (
        "import math\n"
        "_USED = 1\n"
        "_UNUSED, _PAIR = 2, 3\n"
        "_ATTR: int = 4\n"
        "class _Shape:\n    pass\n"
        "def _recursive(x):\n    return _recursive(x - 1) if x else _USED\n"
        "def public():\n    return _PAIR + math.pi\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
    )
    other = "from . import mod\nfrom .mod import _Shape\nprint(mod._ATTR)\n"
    assert dead_private_names({"mod.py": source, "other.py": other}) == [
        "mod.py:_UNUSED", "mod.py:_recursive"
    ]


def test_checker_would_flag_a_leftover_helper():
    sources = {p.name: p.read_text() for p in SOURCES}
    sources["population.py"] += "\n\ndef _int_text(value):\n    return str(int(value))\n"
    sources["simulation.py"] += "\n_GATHER_BYTES = 256 * 1024\n"
    assert dead_private_names(sources) == ["population.py:_int_text", "simulation.py:_GATHER_BYTES"]
