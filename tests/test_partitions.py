import pytest
from hypothesis import given, settings, strategies as st

from focktiles.partitions import (
    EMPTY,
    Partition,
    all_partitions,
    conjugate,
    dominance_leq,
    format_partition,
    is_e_regular,
    parse_partition,
)
from focktiles.abacus import weight_of
from focktiles.labels import hooks_e, z_label


partitions_30 = st.integers(0, 18).flatmap(
    lambda n: st.sampled_from(all_partitions(n) or [EMPTY])
)


def test_parse_and_format():
    assert parse_partition("5,5,4,2,2,2,1,1").parts == (5, 5, 4, 2, 2, 2, 1, 1)
    assert parse_partition("16,8,1^13").parts == (16, 8) + (1,) * 13
    assert parse_partition("") == EMPTY
    assert parse_partition("0") == EMPTY
    assert format_partition(parse_partition("5,5,4,2,2,2,1,1")) == "5^2,4,2^3,1^2"
    assert format_partition(EMPTY) == "0"
    rt = parse_partition(format_partition(parse_partition("16,8,1^13")))
    assert rt.parts == (16, 8) + (1,) * 13


def test_validation():
    with pytest.raises(ValueError, match=r"weakly decreasing: \(1, 2\)"):
        Partition((1, 2))
    with pytest.raises(ValueError, match=r"positive: \(-1,\)"):
        Partition((-1,))
    with pytest.raises(ValueError, match=r"positive: \(3, -1, 2\)"):
        Partition((3, 0, -1, 2))
    with pytest.raises(ValueError, match=r"weakly decreasing: \(2, 1, 3\)"):
        Partition([2, 0, 1, 3])
    with pytest.raises(ValueError):
        Partition(("x",))
    assert Partition((0, 3, 0, 3, 1, 0)).parts == (3, 3, 1)
    assert Partition(iter(["2", 1.0, 0])).parts == (2, 1)
    assert Partition((0, 0)).parts == () and Partition().parts == ()


def test_conjugate_examples():
    assert conjugate(parse_partition("5,5,4,2,2,2,1,1")) == parse_partition("8,6,3,3,2")
    assert conjugate(EMPTY) == EMPTY
    assert conjugate(parse_partition("3,1")) == parse_partition("2,1,1")


@given(partitions_30)
@settings(max_examples=120, deadline=None)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_dominance():
    assert dominance_leq(parse_partition("2,2"), parse_partition("3,1"))
    assert not dominance_leq(parse_partition("3,3"), parse_partition("4,1,1"))
    assert not dominance_leq(parse_partition("4,1,1"), parse_partition("3,3"))
    lam = parse_partition("4,2,1")
    assert dominance_leq(lam, lam)
    with pytest.raises(ValueError):
        dominance_leq(parse_partition("2"), parse_partition("1"))


def _brute_rimhooks(lam, e):
    """Independent enumeration: all rimhook cell-sets of size divisible by e."""
    cells = set(lam.cells())
    out = set()
    for (i, j) in cells:
        hook = frozenset(
            (a, b) for (a, b) in cells if a >= i and b >= j and (a + 1, b + 1) not in cells
        )
        if hook and len(hook) % e == 0:
            out.add(hook)
    return out


@pytest.mark.parametrize("e", [2, 3, 4])
def test_hooks_against_brute_force(e):
    for n in range(0, 13):
        for lam in all_partitions(n):
            got = hooks_e(lam, e)
            assert {h.cells for h in got} == _brute_rimhooks(lam, e), (lam, e)
            assert len({h.cells for h in got}) == len(got) == weight_of(lam, e)
            for h in got:
                rest = set(lam.cells()) - h.cells
                for (a, b) in rest:
                    assert b == 1 or (a, b - 1) in rest
                    assert a == 1 or (a - 1, b) in rest


def test_hooks_examples():
    lam = parse_partition("5,5,4,2,2,2,1,1")
    hooks = hooks_e(lam, 4)
    assert len(hooks) == 5
    assert sum(1 for h in hooks if h.size == 12) == 1
    assert hooks_e(parse_partition("3,1"), 3) == []
    for h in hooks:
        assert h.size % 4 == 0
        assert h.cells <= set(lam.cells())


def test_is_e_regular():
    assert not is_e_regular(parse_partition("2,2,2"), 3)
    assert is_e_regular(parse_partition("5,5,4,2,2,2,1,1"), 4)
    assert is_e_regular(EMPTY, 2)


@pytest.mark.parametrize("e", [2, 3, 4])
def test_regularity_matches_z_criterion(e):
    for n in range(0, 15):
        for lam in all_partitions(n):
            z = z_label(lam, e)
            assert is_e_regular(lam, e) == all(t > 0 for t in z)
