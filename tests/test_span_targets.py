"""The benchmark's tracer patches library functions by name
(`perfbench/spans.py`, `TARGETS`); a target that no longer resolves records
no span and its metric silently reads zero."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# retired from the library while the benchmark still lists it
RETIRED = {"canonical.hook_quotient_families"}


def _targets():
    """(module, qualified name) of every TARGETS entry, read from the source
    without importing or executing it."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("no TARGETS in %s" % SPANS)


def _resolves(modname, qual):
    obj = importlib.import_module("focktiles." + modname)
    for part in qual.split("."):
        obj = vars(obj).get(part)
        if obj is None:
            return False
    return callable(obj)


def test_span_targets_resolve():
    targets = _targets()
    assert len(targets) > 20
    missing = {"%s.%s" % t for t in targets if not _resolves(*t)}
    assert missing <= RETIRED
