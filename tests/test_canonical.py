import pytest

from focktiles.partitions import EMPTY, all_partitions, is_e_regular, parse_partition
from focktiles.abacus import BlockId, block_of, core_from_levels, is_rouquier, scopes_chain_blocks
from focktiles.canonical import (
    InductiveEngine,
    ScopesPair,
    exceptional_family,
    hook_quotient_families,
    ladder_monomial,
    ladder_sequence,
    llt_G,
    lr_coefficient,
    rouquier_column,
    rouquier_d,
)
from focktiles.fock import FockVector, apply_E, apply_F
from focktiles.labels import BlockContext, is_m_increasing, z_label
from focktiles.laurent import LaurentPoly
from focktiles.polytope import d_closed, parallelotope_of


q = LaurentPoly.monomial
P = parse_partition


def test_ladder_sequence():
    assert ladder_sequence(P("1"), 5) == [(0, 1)]
    assert ladder_sequence(P("2"), 2) == [(0, 1), (1, 1)]
    assert ladder_sequence(P("3,1"), 2) == [(0, 1), (1, 2), (0, 1)]
    assert sum(m for _, m in ladder_sequence(P("6,3,2,1"), 3)) == 12
    with pytest.raises(ValueError):
        ladder_sequence(P("2,2,2"), 3)


def test_llt_examples():
    G = llt_G(P("5"), 2)
    assert G.coeff(P("5")) == LaurentPoly.one()
    assert G.coeff(P("3,1,1")) == q(1)
    assert G.coeff(P("3,2")) == LaurentPoly.zero()
    assert G.coeff(P("1,1,1,1,1")) == q(2)
    assert llt_G(P("6,5,5,2,2,2"), 4).coeff(P("5,5,4,2,2,2,1,1")) == q(1)
    assert llt_G(P("6,5,4,2,2,2,1"), 4).coeff(P("5,5,4,2,2,2,1,1")) == q(2)
    assert llt_G(P("6,3,2,1"), 3).coeff(P("5,3,2,1,1")) == LaurentPoly({1: 1, 3: 1})
    with pytest.raises(ValueError):
        llt_G(P("2,2,2"), 3)


def test_llt_canonical_characterization():
    # coefficient 1 at mu, qZ[q] elsewhere, and bar-invariance of the full
    # vector via the ladder construction
    for mu in [P("5"), P("4,1"), P("6,3,2,1")]:
        for e in (2, 3):
            if not is_e_regular(mu, e):
                continue
            G = llt_G(mu, e)
            assert G.coeff(mu) == LaurentPoly.one()
            for lam, c in G.terms.items():
                if lam != mu:
                    assert c.in_qZq()


def test_pruned_monomials_match_unpruned_fold():
    # ladder_monomial folds the public apply_F from the empty partition with
    # no pruning; the block fold must drop only terms that cannot survive
    from focktiles._ladders import block_ladder_monomials

    rouquier72 = BlockId(7, core_from_levels(tuple(range(7)), 7), 2)
    assert rouquier72.core.size == 126 and is_rouquier(rouquier72)
    cases = [(b, None) for b in (BlockId(2, P("1"), 2), BlockId(3, EMPTY, 3), BlockId(4, P("2"), 2))]
    cases.append((rouquier72, 5))
    for b, count in cases:
        ctx = BlockContext(b)
        regs = [m for m in ctx.members() if is_e_regular(m, b.e)]
        if count is not None:
            regs = regs[:: len(regs) // count][:count]
        seqs = {m: tuple(ladder_sequence(m, b.e)) for m in regs}
        pruned = block_ladder_monomials(seqs, b.e, ctx.members())
        for m in regs:
            assert pruned[m] == ladder_monomial(m, b.e)


def test_lr_coefficient():
    assert lr_coefficient(P("2,1"), P("2"), P("1")) == 1
    assert lr_coefficient(P("3,2,1"), P("2,1"), P("2,1")) == 2
    assert lr_coefficient(P("4,2"), P("2,1"), P("2,1")) == 1
    assert lr_coefficient(P("2,2"), P("2"), P("2")) == 1
    assert lr_coefficient(P("2,2"), P("2"), P("1,1")) == 0
    lam = P("5,3")
    assert lr_coefficient(lam, lam, EMPTY) == 1
    assert lr_coefficient(P("3,1"), P("3,1"), EMPTY) == 1
    with pytest.raises(ValueError):
        lr_coefficient(P("2,1"), P("2"), P("2"))
    # symmetry in the two added shapes
    for rho in all_partitions(5):
        for sigma in all_partitions(2):
            for tau in all_partitions(3):
                assert lr_coefficient(rho, sigma, tau) == lr_coefficient(rho, tau, sigma)


def test_rouquier_examples():
    b = block_of(P("5"), 2)
    assert is_rouquier(b)
    assert rouquier_d(P("3,1,1"), P("5"), b) == q(1)
    assert rouquier_d(P("3,2"), P("5"), b) == LaurentPoly.zero()
    assert rouquier_d(P("5"), P("5"), b) == LaurentPoly.one()
    with pytest.raises(ValueError):
        rouquier_d(P("5"), P("5"), BlockId(10, P("7"), 3))
    with pytest.raises(ValueError):
        rouquier_d(P("4,1"), P("5"), b)


def test_rouquier_column_vs_llt():
    b = BlockId(4, core_from_levels((0, 1, 2, 3), 4), 2)
    ctx = BlockContext(b)
    for mu in ctx.members():
        z = ctx.z_map()[mu]
        if not (is_m_increasing(z, 0) and is_e_regular(mu, b.e)):
            continue
        col = rouquier_column(mu, b, ctx)
        G = llt_G(mu, b.e, ctx)
        assert col == G


def test_exceptional_family_structure():
    mu = P("17,7,2^4,1^5")
    b = block_of(mu, 10)
    blocks, chain = scopes_chain_blocks(b)
    a, k = chain[-1]
    pair = ScopesPair(block=blocks[-2], tilde=b, a=a, k=k)
    fams = hook_quotient_families(pair)
    assert fams
    e = 10
    for fam in fams[:3]:
        assert len(set(fam.members())) == 2 * (fam.k + 2) + 2
        gen = FockVector.basis(fam.generator)
        assert apply_F(gen, a, fam.k + 2, e) == FockVector.basis(fam.hat)
        assert apply_F(gen, a, fam.k + 1, e) == FockVector(
            {fam.lower[j]: q(j) for j in range(fam.k + 2)}
        )
        assert apply_F(gen, a, 1, e) == FockVector(
            {fam.upper[j]: q(j) for j in range(fam.k + 2)}
        )
        # z relations and eta sum
        for j in range(1, fam.k + 2):
            zj = z_label(fam.lower[j], e)
            assert zj == z_label(fam.upper[fam.k + 2 - j], e)
            diff = tuple(x - y for x, y in zip(zj, fam.z0))
            assert diff == tuple(
                -1 if t == fam.internal[j - 1] - 1 else 0 for t in range(len(fam.z0))
            )
        total = tuple(sum(v[t] for v in fam.eta) for t in range(len(fam.z0)))
        assert not any(total)
        # E on family members reproduces the two-block sum
        for j in range(fam.k + 2):
            got = apply_E(FockVector.basis(fam.lower[j]), a, fam.k, e)
            want = FockVector()
            for i in range(0, fam.k - j + 1):
                want = want + FockVector({fam.upper[i]: q(i + j - fam.k)})
            for i in range(fam.k - j + 2, fam.k + 2):
                want = want + FockVector({fam.upper[i]: q(i + j - fam.k - 2)})
            assert got == want
        # union of member parallelotopes has the predicted cardinality
        verts = set()
        for j in range(fam.k + 2):
            verts |= set(parallelotope_of(fam.lower[j], e).vertices())
        verts2 = set()
        for j in range(fam.k + 2):
            verts2 |= set(parallelotope_of(fam.upper[j], e).vertices())
        w = pair.block.weight
        assert verts == verts2
        assert len(verts) == 2 ** (w - fam.k - 1) * (2 ** (fam.k + 2) - 1)


def test_exceptional_family_errors():
    mu = P("17,7,2^4,1^5")
    b = block_of(mu, 10)
    blocks, chain = scopes_chain_blocks(b)
    a, k = chain[-1]
    pair = ScopesPair(block=blocks[-2], tilde=b, a=a, k=k)
    fams = hook_quotient_families(pair)
    with pytest.raises(ValueError):
        exceptional_family(fams[0].upper[0], pair)  # E does not vanish


def test_inductive_engine():
    mu = P("17,7,2^4,1^5")
    lam = P("16,8,1^13")
    eng = InductiveEngine(10)
    col = eng.column(mu)
    assert col.coeff(lam) == q(2)
    assert col.coeff(mu) == LaurentPoly.one()
    ctx = BlockContext(block_of(mu, 10))
    for nu in ctx.members():
        assert col.coeff(nu) == d_closed(nu, mu, 10)
    with pytest.raises(ValueError):
        eng.column(P("16,8,1^13"))  # 1-increasing but not 4-increasing


def test_inductive_annihilation():
    mu = P("17,7,2^4,1^5")
    eng = InductiveEngine(10)
    col = eng.column(mu)
    b = block_of(mu, 10)
    from focktiles.abacus import core_levels, core_reflection_counts

    lv = core_levels(b.core, 10)
    for a in range(10):
        k, _ = core_reflection_counts(lv, 10, a)
        if k >= 1:
            assert apply_E(col, a, k + 2, 10) == FockVector()
            assert apply_F(col, a, 2, 10) == FockVector()


def test_quantum_factorial_divides_power_coefficients():
    # [k]_q! F^(k) = F^k, so the division below must stay exact
    from focktiles.laurent import quantum_factorial

    lam = P("3,1")
    for e in (2, 3):
        for i in range(e):
            for k in (2, 3):
                power = FockVector.basis(lam)
                for _ in range(k):
                    power = apply_F(power, i, 1, e)
                for c in power.terms.values():
                    c.exact_div(quantum_factorial(k))


def test_unique_zero_separated_family():
    # for each family with n > 0 there is exactly one 0-separated family
    # whose generator label lies in the generator's parallelotope
    from focktiles.polytope import pi_membership

    exercised = 0
    for core, mu in [
        (P("9,1^5"), P("18,6,2^4,1^9")),
        (P("9,1^4"), P("18,5,2^4,1^9")),
        (P("4"), P("13,5,1^13")),
    ]:
        b = block_of(mu, 9)
        assert b.core == core and b.weight == 3
        blocks, chain = scopes_chain_blocks(b)
        a, k = chain[-1]
        pair = ScopesPair(block=blocks[-2], tilde=b, a=a, k=k)
        fams = hook_quotient_families(pair)
        z = z_label(mu, 9)
        for fam in fams:
            sep = fam.separation(z)
            if sep is None or sep["n"] <= 0:
                continue
            exercised += 1
            zero_seps = []
            for other in fams:
                so = other.separation(z)
                if so and so["s"] == 0 and so["n"] > 0:
                    g = pi_membership(fam.generator, z_label(other.generator, 9), 9)
                    if g is not None:
                        zero_seps.append(other)
            assert len(zero_seps) == 1
    assert exercised > 0


def test_inductive_with_live_corrections():
    # a column whose construction subtracts a [n-1]_q F(G(sigma)) term
    eng = InductiveEngine(9)
    for mu in [P("18,5,2^4,1^9"), P("13,4,1^13")]:
        col = eng.column(mu)
        ctx = BlockContext(block_of(mu, 9))
        for lam in ctx.members():
            assert col.coeff(lam) == d_closed(lam, mu, 9)
