"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import focktiles


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(Path(focktiles.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # re-exports
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in _imported_names(tree) if name not in used]
    assert unused == []
