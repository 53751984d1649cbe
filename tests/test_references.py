"""Every function, method and property of puccilab has a reader.

A public name counts as read when some module under src/, tests/ or
perfbench/ uses it as a name or an attribute; a definition, an import
or an __all__ entry is not a use.  A private one (a leading underscore,
not a dunder) must be read under src/ itself: a kernel that only tests
call is an orphan.  Names are matched without their class, so a method
shares its reader with any other attribute of the same name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "puccilab"
READERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_members(tree):
    """Qualified names of the public top-level functions and of the public methods."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            if not node.name.startswith("_"):
                yield node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    if not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}"


def private_members(tree):
    """Qualified names of the private top-level functions and methods, of any class."""
    private = lambda name: name.startswith("_") and not name.endswith("__")
    for node in tree.body:
        if isinstance(node, FUNCTIONS) and private(node.name):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and private(item.name):
                    yield f"{node.name}.{item.name}"


def read_names(tree):
    """Every name the module reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unread_members(modules, readers, members_of=public_members) -> list[str]:
    """The members of modules (public ones by default) that no module in readers reads."""
    read = set()
    for path in readers:
        read.update(read_names(ast.parse(path.read_text(), str(path))))
    members = set()
    for path in modules:
        members.update(members_of(ast.parse(path.read_text(), str(path))))
    return sorted(m for m in members if m.rpartition(".")[2] not in read)


def test_every_public_member_is_read():
    readers = [p for root in READERS for p in root.rglob("*.py")]
    assert unread_members(sorted(SRC.rglob("*.py")), readers) == []


def test_every_private_member_is_read_under_src():
    modules = sorted(SRC.rglob("*.py"))
    assert unread_members(modules, modules, private_members) == []


def test_an_unread_member_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "__all__ = ['used', 'unused']\n"
        "def used():\n"
        "    return Box().size + Box.shape\n"
        "def unused():\n"
        "    return 0\n"
        "def _private():\n"
        "    return 0\n"
        "class Box:\n"
        "    def size(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def shape(self):\n"
        "        return ()\n"
        "    @property\n"
        "    def dim(self):\n"
        "        return 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from module import used\nused()\n")
    assert unread_members([module], [module, caller]) == ["Box.dim", "unused"]


def test_a_private_member_read_only_by_tests_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def used():\n"
        "    return _helper() + _Box()._size()\n"
        "def _helper():\n"
        "    return 0\n"
        "def _orphan():\n"
        "    return 0\n"
        "class _Box:\n"
        "    def __init__(self):\n"
        "        self.n = 1\n"
        "    def _size(self):\n"
        "        return self.n\n"
        "    def _tested(self):\n"
        "        return 0\n"
    )
    test = tmp_path / "test_module.py"
    test.write_text("from module import _Box, _orphan\n_orphan()\n_Box()._tested()\n")
    assert unread_members([module], [module], private_members) == ["_Box._tested", "_orphan"]
    assert unread_members([module], [module, test], private_members) == []
