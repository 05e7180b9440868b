import copy
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from focktiles import canonical
from focktiles.partitions import EMPTY, Partition, all_partitions, is_e_regular, parse_partition
from focktiles.abacus import _addable, _bits, _removable, _runner, block_of, mask_of
from focktiles.fock import (
    FockVector, addable_beads, apply_E, apply_F, pack, removable_beads, step_E, step_F, unpack,
)
from focktiles.labels import BlockContext
from focktiles.laurent import LaurentPoly, quantum_factorial
from focktiles.verify import rouquier_block


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
    assert FockVector.basis(lam).coeff(lam) == LaurentPoly.one()
    v = apply_F(FockVector.basis(Partition((1,))), 1, 1, 2)
    assert v.coeff(Partition((1, 1))) == q(1)
    assert v.coeff(Partition((3,))) == LaurentPoly.zero()


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


def _reference_accumulate(out, m, coef, n):
    """out[m] += q^n * coef, changing out's own dicts in place."""
    prev = out.get(m)
    if prev is None:
        out[m] = {x + n: c for x, c in coef.items()}
        return
    for x, c in coef.items():
        x += n
        s = prev.get(x, 0) + c
        if s:
            prev[x] = s
        else:
            del prev[x]


def reference_step_F(vec, i, k, e, lo):
    """F_i^(k) on packed terms, one `combinations` move C at a time, with
    exponent the sum over c in C of the addable runner-(i-1) beads of the
    result above c minus the removable runner-i beads of the source above
    c + 1: the reference for `step_F`."""
    if not vec:
        return {}
    width = max(m.bit_length() for m in vec) + 1
    radd = _runner(i - 1, e, lo, width)
    rrem = _runner(i, e, lo, width)
    out = {}
    for m, coef in vec.items():
        cand = _bits(_addable(m) & radd)
        if len(cand) < k:
            continue
        rem = _removable(m) & rrem
        for C in combinations(cand, k):
            moved = 0
            for c in C:
                moved |= 1 << c
            m2 = m ^ moved ^ (moved << 1)
            add2 = _addable(m2) & radd
            n = 0
            for c in C:
                n += (add2 >> (c + 1)).bit_count() - (rem >> (c + 2)).bit_count()
            _reference_accumulate(out, m2, coef, n)
    return {m: c for m, c in out.items() if c}


def reference_step_E(vec, i, k, e, lo):
    """E_i^(k) on packed terms, one `combinations` move C at a time, with
    exponent the sum over c in C of the removable runner-i beads of the
    result below c minus the addable runner-(i-1) beads of the source below
    c - 1: the reference for `step_E`."""
    if not vec:
        return {}
    width = max(m.bit_length() for m in vec) + 1
    radd = _runner(i - 1, e, lo, width)
    rrem = _runner(i, e, lo, width)
    out = {}
    for m, coef in vec.items():
        cand = _bits(_removable(m) & rrem)
        if len(cand) < k:
            continue
        add = _addable(m) & radd
        for C in combinations(cand, k):
            moved = 0
            for c in C:
                moved |= 1 << c
            m2 = m ^ moved ^ (moved >> 1)
            rem2 = _removable(m2) & rrem
            n = 0
            for c in C:
                n += (rem2 & ((1 << c) - 1)).bit_count() - (add & ((1 << (c - 1)) - 1)).bit_count()
            _reference_accumulate(out, m2, coef, n)
    return {m: c for m, c in out.items() if c}


def _check_steps(vec, i, k, e, lo):
    """Both kernels equal their references on vec, which they leave as it
    was; return how many terms each single-move shortcut took."""
    before = copy.deepcopy(vec)
    assert step_F(vec, i, k, e, lo) == reference_step_F(vec, i, k, e, lo)
    assert step_E(vec, i, k, e, lo) == reference_step_E(vec, i, k, e, lo)
    assert vec == before
    width = max(vec).bit_length() + 1
    return (sum((_addable(m) & _runner(i - 1, e, lo, width)).bit_count() == k for m in vec),
            sum((_removable(m) & _runner(i, e, lo, width)).bit_count() == k for m in vec))


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_steps_match_the_reference_kernels(e):
    # every partition with n <= 10, every i and k <= 4, with coefficient 1
    # and with a coefficient of three terms
    single = [0, 0]
    for n in range(0, 11):
        for lam in all_partitions(n):
            lo = -(len(lam.parts) + 2)
            m = mask_of(lam, lo)
            for i in range(e):
                for k in range(1, 5):
                    for coef in ({0: 1}, {-2: 3, 0: -1, 5: 2}):
                        f, g = _check_steps({m: coef}, i, k, e, lo)
                        single[0] += f
                        single[1] += g
    # both shortcuts are exercised
    assert single[0] and single[1]


def test_steps_match_the_reference_kernels_on_climb_vectors(monkeypatch):
    # the vector fed to every climb step of the (5,3) Rouquier block's LLT
    # columns, as the climb's spy sees it; two terms of one vector land on
    # one mask there
    e, seen, real = 5, [], canonical.step_F

    def spy(vec, i, k, e_, lo):
        seen.append((dict(vec), i, k, lo))
        return real(vec, i, k, e_, lo)

    monkeypatch.setattr(canonical, "step_F", spy)
    ctx = BlockContext(rouquier_block(e, 3))
    for mu in ctx.members():
        if is_e_regular(mu, e):
            canonical.llt_G(mu, e, ctx)
    monkeypatch.undo()
    assert len(seen) > 500 and max(len(vec) for vec, *_ in seen) > 1
    met = 0
    for vec, i, k, lo in seen:
        _check_steps(vec, i, k, e, lo)
        radd = _runner(i - 1, e, lo, max(vec).bit_length() + 1)
        targets = [m ^ mv ^ (mv << 1) for m in vec for C in combinations(_bits(_addable(m) & radd), k)
                   for mv in [sum(1 << c for c in C)]]
        met += len(targets) != len(set(targets))
    assert met


def test_steps_share_the_coefficient_of_a_relabelled_term():
    # (2) at e = 3: F_2^(2) adds both its 2-nodes, E_1 removes its one
    # 1-node; each is one move with exponent 0 and keeps the input's dict
    lo, coef = -6, {-1: 2, 3: -1}
    m = mask_of(parse_partition("2"), lo)
    (out,) = step_F({m: coef}, 2, 2, 3, lo).values()
    assert out is coef
    (out,) = step_E({m: coef}, 1, 1, 3, lo).values()
    assert out is coef
