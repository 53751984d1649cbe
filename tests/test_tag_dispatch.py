"""No module under src/ branches on a concrete operator tag.

A tag carries its own numbers and hooks (ell, slice_value, point_value,
_envelope, _check_marchable), so a new tag, such as a wide-stencil
monotone scheme, is a new class and nothing else.  isinstance and
issubclass may name only the base, operators._OperatorTag.
"""

import ast
import pathlib

from puccilab import operators

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "puccilab"


def concrete_tags() -> set[str]:
    """The names of every subclass of operators._OperatorTag, at any depth."""
    found, todo = set(), [operators._OperatorTag]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub.__name__)
            todo.append(sub)
    return found


def tag_type_tests(tree, tags) -> list[int]:
    """Lines of the isinstance and issubclass calls whose class argument names a tag."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
        ):
            named = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
            if named & tags:
                lines.append(node.lineno)
    return lines


def test_no_source_module_tests_for_a_concrete_tag():
    tags = concrete_tags()
    assert {"HeatOp", "PucciPlusOp", "PucciMinusOp", "PLaplaceOp"} <= tags
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = tag_type_tests(ast.parse(path.read_text(), str(path)), tags)
        if lines:
            found[str(path.relative_to(SRC))] = lines
    assert found == {}


def test_a_tag_type_test_is_found():
    tree = ast.parse(
        "def pick(op, ops):\n"
        "    if isinstance(op, _OperatorTag):\n"
        "        pass\n"
        "    if isinstance(op, (HeatOp, ops.PLaplaceOp)):\n"
        "        pass\n"
        "    return issubclass(type(op), PucciPlusOp) or isinstance(op, dict)\n"
    )
    assert tag_type_tests(tree, concrete_tags()) == [4, 6]
