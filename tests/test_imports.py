"""Every name a puccilab module imports is used in that module."""

import ast
import pathlib

import pytest

import puccilab

SRC = pathlib.Path(puccilab.__file__).resolve().parent
MODULES = sorted(SRC.rglob("*.py"))


def _imported_names(tree):
    """The names the module's imports bind; from __future__ imports bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # import a.b binds a
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _used_names(tree):
    """Every name the module reads, and the names it exports in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: pathlib.Path) -> list[str]:
    """Imported names that the module never uses; a package's __init__ re-exports all."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(), str(path))
    used = _used_names(tree)
    return sorted({name for name in _imported_names(tree) if name not in used})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .grid import Grid, sample as draw\n"
        "__all__ = ['Grid']\n"
        "def f(x: np.ndarray):\n"
        "    return os.sep\n"
    )
    assert unused_imports(module) == ["draw"]
