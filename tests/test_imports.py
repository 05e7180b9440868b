"""Every name a library module imports is used in that module; modules
import at top level, except where a verb loads what only it needs."""

import ast
import os
import subprocess
import sys
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
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in _imported_names(tree) if name not in used]
    assert unused == []


# (module, function) -> what it imports inside the function, and why
LOCAL_IMPORTS = {
    ("cli", "_dispatch"): "verify: only the verify verb loads the suites",
}


def test_imports_are_at_module_level():
    found = set()
    for path in Path(focktiles.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(fn)):
                    found.add((path.stem, fn.name))
    assert found == set(LOCAL_IMPORTS)


def test_cli_imports_no_private_name():
    # the CLI reaches the library through its public names only
    tree = ast.parse((Path(focktiles.__file__).parent / "cli.py").read_text())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("focktiles"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _added_modules(code):
    """The sorted names that `code`'s print() call writes, run in a fresh
    interpreter on this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_neither_dataclasses_nor_verify():
    # only the modules the import adds count: a site hook may load
    # dataclasses before it
    code = ("import sys; before = set(sys.modules); import focktiles.cli; "
            "print(sorted({'dataclasses', 'focktiles.verify'} & (set(sys.modules) - before)))")
    assert _added_modules(code) == "[]"


def test_package_import_loads_no_submodule():
    # the package root re-exports nothing: each name has one import path
    code = ("import sys; before = set(sys.modules); import focktiles; "
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('focktiles.')))")
    assert _added_modules(code) == "[]"
    code = ("import sys; before = set(sys.modules); from focktiles import canonical; "
            "print(sorted({'focktiles.polytope', 'focktiles.beadops'} & (set(sys.modules) - before)))")
    assert _added_modules(code) == "[]"
