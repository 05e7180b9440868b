"""Core tops are the library's one coordinate for e-cores: runner levels are
only the input of `core_from_levels`, and runners are interleaved into a
partition by one builder, `_from_tops`, and by `add_full_runner`."""

import ast
from pathlib import Path

import focktiles


def _functions():
    """(module, function node) of every function and lambda in the library."""
    for path in sorted(Path(focktiles.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield path.stem, node


def _parameters(fn):
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return names + [a.arg for a in (args.vararg, args.kwarg) if a is not None]


def test_only_core_from_levels_takes_levels():
    found = {(mod, getattr(fn, "name", "<lambda>")) for mod, fn in _functions() if "levels" in _parameters(fn)}
    assert found == {("abacus", "core_from_levels")}


def test_only_the_two_builders_interleave_runners():
    users = set()
    for path in sorted(Path(focktiles.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in tree.body:
            for node in ast.walk(fn):
                if (isinstance(node, ast.Name) and node.id == "_interleave") or (
                        isinstance(node, ast.Attribute) and node.attr == "_interleave"):
                    users.add((path.stem, getattr(fn, "name", None)))
    assert users == {("abacus", "_from_tops"), ("abacus", "add_full_runner")}
