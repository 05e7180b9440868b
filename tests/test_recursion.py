"""Every function of the package that calls itself, with the bound on its
depth: a valid input must never reach Python's recursion limit."""

import ast
from pathlib import Path

import focktiles

# qualified name -> what bounds the recursion depth
BOUNDED_RECURSION = {
    "beadops.move_along.rec": "|Gamma| <= w",
    "partitions.all_partitions.rec": "n",
}


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in ("self", "cls"):
        return func.attr
    return None


def _self_calling(node, prefix, out):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            if any(
                isinstance(n, ast.Call) and _callee(n.func) == child.name for n in ast.walk(child)
            ):
                out.add(name)
            _self_calling(child, name + ".", out)
        elif isinstance(child, ast.ClassDef):
            _self_calling(child, prefix + child.name + ".", out)
        else:
            _self_calling(child, prefix, out)


def test_every_recursion_is_bounded():
    found = set()
    for path in sorted(Path(focktiles.__file__).parent.glob("*.py")):
        _self_calling(ast.parse(path.read_text()), path.stem + ".", found)
    assert found == set(BOUNDED_RECURSION)
