"""Every name in a puccilab module's __all__ is an attribute of that module."""

import importlib
import importlib.util
import pathlib

import pytest

import puccilab

SRC = pathlib.Path(puccilab.__file__).resolve().parent
MODULES = sorted(SRC.rglob("*.py"))


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def stale_exports(module) -> list[str]:
    """The __all__ entries that name nothing in the module."""
    return sorted(name for name in getattr(module, "__all__", ()) if not hasattr(module, name))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_exported_name_resolves(path):
    assert stale_exports(importlib.import_module(_module_name(path))) == []


def test_a_stale_export_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import numpy as np\n"
        "__all__ = ['np', 'gone', 'kept']\n"
        "def kept():\n"
        "    return np.pi\n"
    )
    spec = importlib.util.spec_from_file_location("module_with_a_stale_export", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert stale_exports(module) == ["gone"]
