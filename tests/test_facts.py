"""The per-partition memo `abacus.facts`: one record per (lambda, e) value,
bounded, and the only module-level cache of the package."""

import ast
from pathlib import Path

import focktiles
from focktiles.abacus import FACTS_MAXSIZE, core_of, facts, quotient_of
from focktiles.beadops import mullineux_crystal
from focktiles.labels import hat_z, is_hook_quotient, modified_basis, z_label
from focktiles.partitions import Partition, all_partitions, is_e_regular


def test_equal_partitions_share_one_record():
    a, b = Partition((4, 2, 1)), Partition([4, 2, 1, 0])
    assert a is not b
    assert facts(a, 3) is facts(b, 3)
    assert facts(a, 3) is not facts(a, 4)


def test_memo_is_bounded():
    assert facts.cache_info().maxsize == FACTS_MAXSIZE
    first = Partition((1,))
    core = core_of(first, 2)
    keys = [Partition((a, b)) for a in range(1, 200) for b in range(1, a + 1)]
    assert len(keys) > FACTS_MAXSIZE
    for lam in keys:
        facts(lam, 2)
    assert facts.cache_info().currsize <= FACTS_MAXSIZE
    # the first record was evicted; rebuilding it gives the same answer
    assert core_of(first, 2) == core


def test_hook_quotient_flag_is_kept_in_the_record():
    hook, other = Partition((7, 3, 3, 2, 2, 1)), Partition((7, 4, 4, 1, 1, 1))
    facts.cache_clear()
    assert facts(hook, 4).hook_quotient is None
    assert is_hook_quotient(hook, 4) is True and is_hook_quotient(other, 4) is False
    assert facts(hook, 4).hook_quotient is True and facts(other, 4).hook_quotient is False


def _snapshot(lam, e):
    out = [core_of(lam, e), quotient_of(lam, e), is_hook_quotient(lam, e), z_label(lam, e),
           hat_z(lam, e)]
    try:
        out.append(modified_basis(lam, e))
    except ValueError:
        out.append("not hook-quotient")
    out.append(mullineux_crystal(lam, e) if is_e_regular(lam, e) else None)
    return out


def test_answers_survive_cache_clear():
    keys = [(lam, e) for n in range(11) for lam in all_partitions(n) for e in range(2, 6)]
    facts.cache_clear()
    before = {k: _snapshot(*k) for k in keys}
    facts.cache_clear()
    after = {k: _snapshot(*k) for k in reversed(keys)}
    assert after == before


def _is_memo_decorator(node):
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache")


def _is_empty_container(node):
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("dict", "list", "set")
        and not node.args
        and not node.keywords
    )


def test_facts_is_the_only_module_level_memo():
    memos, globals_ = [], []
    for path in sorted(Path(focktiles.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(_is_memo_decorator, node.decorator_list)):
                    memos.append((path.stem, node.name))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if _is_empty_container(node.value):
                    globals_.append((path.stem, node.lineno))
    assert memos == [("abacus", "facts")]
    assert globals_ == []

