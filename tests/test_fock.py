import pytest
from hypothesis import given, settings, strategies as st

from focktiles.partitions import EMPTY, Partition, all_partitions, parse_partition
from focktiles.abacus import block_of
from focktiles.fock import FockVector, addable_beads, apply_E, apply_F, pack, pairing, removable_beads, unpack
from focktiles.laurent import LaurentPoly, quantum_factorial


q = LaurentPoly.monomial


def test_examples_e2():
    assert apply_F(FockVector.basis(EMPTY), 0, 1, 2) == FockVector.basis(Partition((1,)))
    v = apply_F(FockVector.basis(Partition((1,))), 1, 1, 2)
    assert v == FockVector({Partition((2,)): 1, Partition((1, 1)): q(1)})
    assert apply_E(FockVector.basis(Partition((2,))), 1, 1, 2) == FockVector({Partition((1,)): q(-1)})
    assert apply_E(FockVector.basis(Partition((1,))), 0, 1, 2) == FockVector.basis(EMPTY)
    assert apply_E(FockVector.basis(EMPTY), 0, 1, 2) == FockVector()
    # too few addable beads gives zero
    assert apply_F(FockVector.basis(EMPTY), 0, 2, 2) == FockVector()


def _i_nodes(lam, i, e):
    """Addable and removable nodes of residue i, as (content, row) pairs."""
    rows = list(lam.parts) + [0]
    add, rem = [], []
    for r, p in enumerate(rows, start=1):
        if (r == 1 or rows[r - 2] > p) and (p + 1 - r) % e == i:
            add.append((p + 1 - r, r))
        if p > (rows[r] if r < len(rows) else 0) and (p - r) % e == i:
            rem.append((p - r, r))
    return add, rem


def _grow(lam, row, d):
    parts = list(lam.parts) + [0]
    parts[row - 1] += d
    return Partition(parts)


def reference_F(lam, i, e):
    """F_i(lam) from the definition: one term per addable i-node, with q to
    the addable minus removable i-nodes strictly right of it."""
    add, rem = _i_nodes(lam, i, e)
    return FockVector({
        _grow(lam, r, 1): q(sum(x > c for x, _ in add) - sum(x > c for x, _ in rem))
        for c, r in add
    })


def reference_E(lam, i, e):
    """E_i(lam) from the definition: one term per removable i-node, with q to
    the removable minus addable i-nodes strictly left of it."""
    add, rem = _i_nodes(lam, i, e)
    return FockVector({
        _grow(lam, r, -1): q(sum(x < c for x, _ in rem) - sum(x < c for x, _ in add))
        for c, r in rem
    })


@pytest.mark.parametrize("e", [2, 3, 4])
def test_node_level_reference(e):
    for n in range(0, 9):
        for lam in all_partitions(n):
            for i in range(e):
                assert apply_F(lam, i, 1, e) == reference_F(lam, i, e)
                assert apply_E(lam, i, 1, e) == reference_E(lam, i, e)


@st.composite
def large_partitions(draw):
    """Random partitions of more than 40 nodes."""
    parts = sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=16)), reverse=True)
    parts[0] += max(0, 41 - sum(parts))
    return Partition(parts)


@given(large_partitions(), st.integers(2, 7), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_node_level_reference_large(lam, e, i):
    i %= e
    assert apply_F(lam, i, 1, e) == reference_F(lam, i, e)
    assert apply_E(lam, i, 1, e) == reference_E(lam, i, e)


def test_pairing():
    lam = parse_partition("3,1")
    assert pairing(FockVector.basis(lam), lam) == LaurentPoly.one()
    v = apply_F(FockVector.basis(Partition((1,))), 1, 1, 2)
    assert pairing(v, Partition((1, 1))) == q(1)
    assert pairing(v, Partition((3,))) == LaurentPoly.zero()


@pytest.mark.parametrize("e", [2, 3, 4])
def test_divided_power_identity(e):
    for n in range(0, 9):
        for lam in all_partitions(n):
            basis = FockVector.basis(lam)
            for i in range(e):
                for k in (2, 3):
                    power = basis
                    for _ in range(k):
                        power = apply_F(power, i, 1, e)
                    assert power == apply_F(basis, i, k, e).scale(quantum_factorial(k))
                    power = basis
                    for _ in range(k):
                        power = apply_E(power, i, 1, e)
                    assert power == apply_E(basis, i, k, e).scale(quantum_factorial(k))


def test_block_discipline():
    for n in range(0, 10):
        for lam in all_partitions(n):
            for e in (2, 3):
                for i in range(e):
                    out = apply_F(FockVector.basis(lam), i, 1, e)
                    blocks = {block_of(mu, e) for mu in out.terms}
                    assert len(blocks) <= 1
                    for mu in out.terms:
                        assert mu.size == lam.size + 1


def test_adjointness_bookkeeping():
    # for each matched pair (lam, mu, C) the two enumeration routes agree:
    # mu appears in F_i(lam) iff lam appears in E_i(mu), with the stated
    # exponents N_F and N_E satisfying N_F + N_E = matching count identity
    for n in range(0, 9):
        for lam in all_partitions(n):
            for e in (2, 3):
                for i in range(e):
                    Fv = apply_F(FockVector.basis(lam), i, 1, e)
                    for mu, cf in Fv.terms.items():
                        Ev = apply_E(FockVector.basis(mu), i, 1, e)
                        ce = Ev.coeff(lam)
                        assert ce, (lam, mu)
                        assert len(cf.coeffs) == 1 and len(ce.coeffs) == 1


def test_nonexceptional_equivalences():
    # F(lam) = 0 iff E^(k)(lam) = s_a(lam) iff F^(k)(s_a lam) = lam iff E(s_a lam) = 0
    from focktiles.abacus import abacus_of, core_of, core_reflection_counts, core_tops, partition_of, weyl_s

    for n in range(0, 11):
        for lam in all_partitions(n):
            for e in (2, 3):
                tops = core_tops(core_of(lam, e), e)
                for a in range(e):
                    k, _ = core_reflection_counts(tops, a)
                    if k < 1:
                        continue
                    lt = partition_of(weyl_s(abacus_of(lam, e), a))
                    basis = FockVector.basis(lam)
                    f_zero = apply_F(basis, a, 1, e) == FockVector()
                    ek = apply_E(basis, a, k, e)
                    ek_hits = ek == FockVector.basis(lt)
                    fk = apply_F(FockVector.basis(lt), a, k, e)
                    fk_hits = fk == basis
                    e_zero = apply_E(FockVector.basis(lt), a, 1, e) == FockVector()
                    assert f_zero == ek_hits == fk_hits == e_zero


def test_bead_lists():
    lam = parse_partition("3,1")
    assert addable_beads(lam, 0, 2) == (2,)
    assert removable_beads(lam, 0, 2) == (2,)
    assert addable_beads(lam, 1, 2) == (-3, -1)
    json_form = apply_F(FockVector.basis(lam), 0, 1, 2).to_json()
    assert isinstance(json_form, list) and all("partition" in t for t in json_form)


fock_vectors = st.dictionaries(
    st.integers(0, 14).flatmap(lambda n: st.sampled_from(all_partitions(n) or [EMPTY])),
    st.dictionaries(st.integers(-5, 5), st.integers(-9, 9)),
    max_size=8,
).map(lambda d: FockVector({lam: LaurentPoly(c) for lam, c in d.items()}))


@given(fock_vectors)
@settings(max_examples=150, deadline=None)
def test_pack_roundtrip(v):
    rows = max((len(lam.parts) for lam in v.terms), default=0)
    for lo in range(-(rows + 2), -(rows + 12), -1):
        assert unpack(pack(v, lo)) == v
