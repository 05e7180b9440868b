"""`Partition` and `Abacus` are tuples, and so are the value records, each
a `namedtuple` subclass: hashing, equality, order and immutability are
`tuple`'s own, no module imports `dataclasses`, and no other library class
hand-writes its identity methods unless it is listed here with its reason."""

import ast
import types
from pathlib import Path

import pytest

import focktiles
from focktiles.abacus import Abacus, BlockId, abacus_of
from focktiles.canonical import ExceptionalFamily, ScopesPair
from focktiles.labels import BeadMovement, RimHook, hooks_e
from focktiles.partitions import EMPTY, Partition, all_partitions
from focktiles.polytope import Parallelotope, Tiling

SMALL = [lam for n in range(11) for lam in all_partitions(n)]


def test_partition_identity_is_the_tuples():
    assert issubclass(Partition, tuple)
    for name in ("__hash__", "__eq__", "__lt__", "__le__", "__len__", "__iter__"):
        assert getattr(Partition, name) is getattr(tuple, name), name


def test_partition_hashes_and_sorts_as_its_parts():
    for lam in SMALL:
        assert lam == lam.parts and hash(lam) == hash(lam.parts)
    assert sorted(SMALL) == sorted(SMALL, key=lambda lam: lam.parts)
    assert sorted(SMALL, reverse=True) == sorted(SMALL, key=lambda lam: lam.parts, reverse=True)


def test_parts_is_a_plain_tuple_read_in_c():
    lam = Partition((4, 2, 2, 1))
    assert type(lam.parts) is tuple and type(lam) is Partition
    assert lam.parts == (4, 2, 2, 1)
    assert not isinstance(Partition.parts.fget, types.FunctionType)


def test_partition_and_abacus_are_immutable():
    assert "__setattr__" not in vars(Partition) and "__setattr__" not in vars(Abacus)
    lam = Partition((3, 1))
    a = abacus_of(lam, 3)
    with pytest.raises(AttributeError):
        lam.parts = (2, 2)
    with pytest.raises(AttributeError):
        lam.other = 1
    for name in ("e", "base", "mask", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)


def test_abacus_is_its_normalized_triple():
    assert Abacus.__eq__ is tuple.__eq__ and Abacus.__hash__ is tuple.__hash__
    for lam in SMALL[:200]:
        a = abacus_of(lam, 3)
        assert a == (a.e, a.base, a.mask)
        for extra in range(1, 4):
            b = Abacus(3, a.base - extra, (a.mask << extra) | ((1 << extra) - 1))
            assert b == a and hash(b) == hash(a) and tuple(b) == tuple(a)


# qualified class name -> why it writes its own equality, hash or immutability
HAND_WRITTEN_IDENTITY = {
    "laurent.LaurentPoly": "wraps a dict {exponent: int}; equality compares the dicts "
                           "and an int equals the constant polynomial",
    "fock.FockVector": "wraps a dict {partition: LaurentPoly}; equality compares the dicts",
}

IDENTITY_METHODS = {"__eq__", "__ne__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__",
                    "__setattr__"}


def _classes_with_identity(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            if IDENTITY_METHODS & {f.name for f in node.body if isinstance(f, ast.FunctionDef)}:
                yield path.stem + "." + node.name


def test_no_class_hand_writes_its_identity():
    found = {name for path in Path(focktiles.__file__).parent.glob("*.py")
             for name in _classes_with_identity(path)}
    assert found == set(HAND_WRITTEN_IDENTITY)


RECORDS = (BlockId, RimHook, BeadMovement, ScopesPair, ExceptionalFamily, Parallelotope, Tiling)


def test_no_module_imports_dataclasses():
    found = []
    for path in Path(focktiles.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [(path.stem, a.name) for a in node.names if a.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
                found.append((path.stem, node.module))
    assert found == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_tuples(cls):
    assert issubclass(cls, tuple) and cls.__slots__ == ()
    assert cls.__eq__ is tuple.__eq__ and cls.__hash__ is tuple.__hash__
    # _make builds the tuple as it stands, without BlockId's checks
    r = cls._make(range(len(cls._fields)))
    assert not hasattr(r, "__dict__")
    assert hash(r) == hash(tuple(r))
    with pytest.raises(AttributeError):
        setattr(r, cls._fields[0], 0)


def test_rimhook_size_is_its_cell_count():
    for lam in SMALL:
        for e in (2, 3):
            for h in hooks_e(lam, e):
                assert h.size == len(h.cells) and h.size % e == 0


def test_blockid_checks_its_fields():
    assert BlockId(3, EMPTY, 2) == (3, EMPTY, 2)
    with pytest.raises(ValueError, match="^weight must be nonnegative$"):
        BlockId(3, EMPTY, -1)
    with pytest.raises(ValueError, match=r"^Partition\(\(3,\)\) is not an 3-core$"):
        BlockId(3, Partition((3,)), 1)
