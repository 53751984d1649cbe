"""Every function, method and property of puccilab has a reader.

A public name counts as read when some module under src/ or perfbench/,
or the acceptance suite, uses it as a name or an attribute; a
definition, an import or an __all__ entry is not a use, and neither is
a unit test: a public function that only its own tests call serves no
study.  UNREAD_BY_DESIGN names the few exceptions, each with its
reason.  A private one (a leading underscore, not a dunder) must be
read under src/ itself: a kernel that only tests call is an orphan.
Names are matched without their class, so a method shares its reader
with any other attribute of the same name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "puccilab"

# Public members that nothing outside the unit tests reads, and why each stays.
UNREAD_BY_DESIGN = {
    "CylinderIndex.node_list": "the cylinder tests' node-by-node oracle",
    "CylinderIndex.spatial_mask": "the cylinder tests' whole-lattice oracle",
    "LinearFit.evaluate": "public result API of a fit",
    "pointwise_c1a_norm": "awaits the pointwise-norm consumer of ROADMAP item 20, or goes with it",
    "global_report": "awaits the pointwise-norm consumer of ROADMAP item 20, or goes with it",
}


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


def public_readers(root: pathlib.Path) -> list[pathlib.Path]:
    """The modules whose reads count for a public member: src/, perfbench/, the acceptance suite."""
    readers = [p for d in ("src", "perfbench") for p in (root / d).rglob("*.py")]
    return readers + [root / "tests" / "test_acceptance.py"]


def test_every_public_member_is_read():
    unread = unread_members(sorted(SRC.rglob("*.py")), public_readers(ROOT))
    extra = [m for m in unread if m not in UNREAD_BY_DESIGN]
    assert not extra, f"public members that no study, benchmark or acceptance test reads: {extra}"
    # an entry whose member gained a reader, or went, leaves the list
    assert [m for m in unread if m in UNREAD_BY_DESIGN] == sorted(UNREAD_BY_DESIGN)


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


def test_a_public_member_read_only_by_a_unit_test_is_found(tmp_path):
    for d in ("src", "perfbench", "tests"):
        (tmp_path / d).mkdir()
    module = tmp_path / "src" / "module.py"
    module.write_text(
        "def studied():\n"
        "    return 0\n"
        "def benched():\n"
        "    return 0\n"
        "def tested():\n"
        "    return 0\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text("from module import benched\nbenched()\n")
    (tmp_path / "tests" / "test_acceptance.py").write_text("import module\nmodule.studied()\n")
    (tmp_path / "tests" / "test_module.py").write_text("from module import tested\ntested()\n")
    assert unread_members([module], public_readers(tmp_path)) == ["tested"]


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
