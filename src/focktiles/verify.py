"""Acceptance suites: every criterion is exact and self-contained.

Each suite returns (ok, detail); `run` prints one pass/fail line per
criterion and reports wall-clock time.  The suites are also exercised by
tests/test_acceptance.py.
"""

from __future__ import annotations

import math
import random
import time

from .abacus import (
    BlockId,
    abacus_of,
    add_full_runner,
    block_of,
    core_from_levels,
    core_of,
    enumerate_block,
    is_core,
    is_rouquier,
    partition_of,
    weight_of,
    weyl_s,
    quotient_of,
)
from .beadops import lambda_of_hook, move_along, move_one, mullineux_crystal, mullineux_fast
from .canonical import (
    InductiveEngine,
    ladder_sequence,
    llt_G,
    lr_coefficient,
    rouquier_column,
    rouquier_d,
)
from .fock import FockVector, apply_E, apply_F, pairing
from .labels import (
    BlockContext,
    hat_z,
    is_hook_quotient,
    is_m_increasing,
    modified_basis,
    movements,
    z_inverse,
    z_label,
)
from .laurent import LaurentPoly, bar_symmetric_split, quantum_int
from .partitions import (
    EMPTY,
    all_partitions,
    conjugate,
    dominance_leq,
    hooks_e,
    is_e_regular,
    parse_partition,
)
from .polytope import (
    build_tiling,
    check_common_faces,
    check_cube_injectivity,
    check_discrete_union,
    d_closed,
    pi_membership,
)


def _cores_up_to(e, maxsize):
    out = []
    for n in range(maxsize + 1):
        for p in all_partitions(n):
            if is_core(p, e):
                out.append(p)
    return out


def ac2_blocks():
    """The AC-2 block set: (e, w) pairs with all cores of size <= 6."""
    blocks = []
    for e, w in [(4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3)]:
        for core in _cores_up_to(e, 6):
            blocks.append(BlockId(e, core, w))
    return blocks


def ac3_blocks():
    """AC-2's blocks plus weight-3 blocks with e >= 4w - 3, whose 4-increasing
    partitions take their families from weight-1 check blocks."""
    w3 = [(9, EMPTY), (10, EMPTY), (11, EMPTY), (9, parse_partition("1")), (10, parse_partition("2,1"))]
    return ac2_blocks() + [BlockId(e, core, 3) for e, core in w3]


def _check(conds):
    bad = [name for name, ok in conds if not ok]
    return (not bad, "all %d checks" % len(conds) if not bad else "FAILED: " + ", ".join(bad))


def ac1():
    """Worked examples from the source material, exact."""
    P = parse_partition
    q = LaurentPoly.monomial
    lam = P("5,5,4,2,2,2,1,1")
    conds = []
    conds.append(("z(5,5,4,2,2,2,1,1)", z_label(lam, 4) == (1, 1, 2, 2, 1)))
    core, quot, w = (core_of(lam, 4), quotient_of(lam, 4), weight_of(lam, 4))
    conds.append(("core=(2)", core == P("2")))
    conds.append(("weight=5", w == 5))
    conds.append(("z(16,8,1^13)", z_label(P("16,8,1^13"), 10) == (0, 7, 8)))
    conds.append(("z(6,5,4,2,2,2,1)", z_label(P("6,5,4,2,2,2,1"), 4) == (1, 1, 2, 2, 2)))
    conds.append(("z(5,3,3)", z_label(P("5,3,3"), 3) == (2, 1, 2)))
    conds.append(("movements(16,8,1^13)=3", len(movements(P("16,8,1^13"), 10)) == 3))
    conds.append(("movements(5,5,...)=5", len(movements(lam, 4)) == 5))
    # quotient and hook-quotient examples
    conds.append(
        ("quotient(7,3,3,2,2,1)", quotient_of(P("7,3,3,2,2,1"), 4)
         == (P("1"), EMPTY, P("2,1"), EMPTY))
    )
    conds.append(("hq(7,3,3,2,2,1)", is_hook_quotient(P("7,3,3,2,2,1"), 4)))
    conds.append(("not hq(7,4,4,1,1,1)", not is_hook_quotient(P("7,4,4,1,1,1"), 4)))
    conds.append(("1-increasing (0,7,8)", is_m_increasing((0, 7, 8), 1)))
    conds.append(("not 2-increasing (0,7,8)", not is_m_increasing((0, 7, 8), 2)))
    conds.append(("4-increasing (1,5,9)", is_m_increasing((1, 5, 9), 4)))
    conds.append(("e-regular", is_e_regular(lam, 4)))
    conds.append(("e-singular (2,2,2)", not is_e_regular(P("2,2,2"), 3)))
    # rimhooks and lambda_H
    hooks = hooks_e(lam, 4)
    conds.append(("five rimhooks", len(hooks) == 5))
    big = [h for h in hooks if h.size == 12]
    conds.append(("unique hook of size 12", len(big) == 1))
    lamH = lambda_of_hook(lam, big[0], 4)
    conds.append(("lambda_H", lamH == P("6,5,5,2,2,2")))
    lamH5 = lambda_of_hook(lam, hooks[4], 4)
    conds.append(("lambda_H5", lamH5 == P("6,5,3,2,2,2,1,1")))
    conds.append(("z(lambda_H)", z_label(lamH, 4) == (1, 1, 3, 2, 1)))
    conds.append(("z(lambda_H5)", z_label(lamH5, 4) == (1, 1, 1, 2, 2)))
    conds.append(("(3,1) is a 3-core", hooks_e(P("3,1"), 3) == []))
    # Weyl action example
    conds.append(
        ("s1(5,3,3)=(4,3,3)", partition_of(weyl_s(abacus_of(P("5,3,3"), 3), 1)) == P("4,3,3"))
    )
    conds.append(("z(4,3,3)", z_label(P("4,3,3"), 3) == (2, 1, 1)))
    # modified basis examples
    mb = modified_basis(P("16,8,1^13"), 10).plain
    conds.append(("eps(16,8,1^13)", mb == ((1, -1, 0), (0, 1, 0), (0, -1, 1))))
    mb2 = modified_basis(P("7,3,3,2,2,1"), 4).plain
    conds.append(
        ("eps(7,3,3,2,2,1)",
         mb2 == ((1, 0, -1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 1)))
    )
    # move_one / move_along chain
    nu = move_one(P("7,3,3,2,2,1"), 3, 4)
    conds.append(("move_one r=3", nu == P("9,3,2,2,2")))
    conds.append(("then r=2", move_one(nu, 2, 4) == P("10,4,2,1,1")))
    conds.append(("move_along {2,3}", move_along(P("7,3,3,2,2,1"), [2, 3], 4) == P("10,4,2,1,1")))
    # Laurent / quantum integers
    conds.append(("[2]_q", quantum_int(2) == LaurentPoly({-1: 1, 1: 1})))
    conds.append(("[3]_q", quantum_int(3) == LaurentPoly({-2: 1, 0: 1, 2: 1})))
    conds.append(
        ("split q^-1+2", bar_symmetric_split(LaurentPoly({-1: 1, 0: 2}))
         == (LaurentPoly({-1: 1, 0: 2, 1: 1}), LaurentPoly({1: -1})))
    )
    # Fock operator examples (e=2)
    conds.append(("F0(empty)", apply_F(FockVector.basis(EMPTY), 0, 1, 2) == FockVector.basis(P("1"))))
    v = apply_F(FockVector.basis(P("1")), 1, 1, 2)
    conds.append(("F1((1))", v == FockVector({P("2"): 1, P("1,1"): q(1)})))
    conds.append(("<F1(1),(1,1)>=q", pairing(v, P("1,1")) == q(1)))
    conds.append(
        ("E1((2))", apply_E(FockVector.basis(P("2")), 1, 1, 2) == FockVector({P("1"): q(-1)}))
    )
    conds.append(("E0((1))", apply_E(FockVector.basis(P("1")), 0, 1, 2) == FockVector.basis(EMPTY)))
    # ladder sequences
    conds.append(("ladder (3,1) e=2", ladder_sequence(P("3,1"), 2) == [(0, 1), (1, 2), (0, 1)]))
    conds.append(("ladder (2) e=2", ladder_sequence(P("2"), 2) == [(0, 1), (1, 1)]))
    # LR coefficients
    conds.append(("LR c^{(2,1)}", lr_coefficient(P("2,1"), P("2"), P("1")) == 1))
    conds.append(("LR c^{(3,2,1)}", lr_coefficient(P("3,2,1"), P("2,1"), P("2,1")) == 2))
    conds.append(("LR trivial", lr_coefficient(lam, lam, EMPTY) == 1))
    # d values: LLT oracle
    G = llt_G(P("6,5,5,2,2,2"), 4)
    conds.append(("d(lam, lamH) = q", G.coeff(lam) == q(1)))
    G2 = llt_G(P("6,5,4,2,2,2,1"), 4)
    conds.append(("d(lam, mu) = q^2", G2.coeff(lam) == q(2)))
    G3 = llt_G(P("6,3,2,1"), 3)
    conds.append(("e=3: d = q+q^3", G3.coeff(P("5,3,2,1,1")) == LaurentPoly({1: 1, 3: 1})))
    # closed formula, e=10 pair
    lam10, mu10 = P("16,8,1^13"), P("17,7,2^4,1^5")
    conds.append(("d_closed e=10 pair", d_closed(lam10, mu10, 10) == q(2)))
    conds.append(("pi membership {1,3}", pi_membership(lam10, z_label(mu10, 10), 10) == frozenset({1, 3})))
    conds.append(("d_closed self", d_closed(lam10, lam10, 10) == LaurentPoly.one()))
    conds.append(("hat norm 2", (hat_z(mu10, 10) - hat_z(lam10, 10)).norm() == 2))
    # inductive engine on the e=10 pair
    eng = InductiveEngine(10)
    conds.append(("inductive d = q^2", eng.column(mu10).coeff(lam10) == q(2)))
    # Rouquier closed formulas, e=2
    b2 = block_of(P("5"), 2)
    conds.append(("e=2 block is Rouquier", is_rouquier(b2)))
    conds.append(("rouquier d((3,1,1),(5)) = q", rouquier_d(P("3,1,1"), P("5"), b2) == q(1)))
    conds.append(("rouquier d((3,2),(5)) = 0", rouquier_d(P("3,2"), P("5"), b2) == LaurentPoly.zero()))
    conds.append(("rouquier d(mu,mu) = 1", rouquier_d(P("5"), P("5"), b2) == LaurentPoly.one()))
    conds.append(("llt agrees at (3,1,1)", llt_G(P("5"), 2).coeff(P("3,1,1")) == q(1)))
    conds.append(("llt agrees at (3,2)", llt_G(P("5"), 2).coeff(P("3,2")) == LaurentPoly.zero()))
    # Pi((3,2)) vertex list
    from .polytope import parallelotope_of

    conds.append(
        ("Pi((3,2)) vertices", set(parallelotope_of(P("3,2"), 2).vertices())
         == {(1, 1), (1, 2), (2, 0), (2, 1)})
    )
    # block sizes quoted in the text
    conds.append(("e=5 w=2 block has 20", len(enumerate_block(BlockId(5, EMPTY, 2))) == 20))
    conds.append(("e=3 (1) w=3 block has 22", len(enumerate_block(BlockId(3, P("1"), 3))) == 22))
    # z_inverse examples
    b45 = BlockId(4, P("2"), 5)
    conds.append(("z_inverse", z_inverse(b45, (1, 1, 2, 2, 2)) == P("6,5,4,2,2,2,1")))
    # runner addition
    lamp = add_full_runner(lam, 4)
    conds.append(("z preserved under runner addition", z_label(lamp, 5) == z_label(lam, 4)))
    conds.append(("empty adds to empty", add_full_runner(EMPTY, 3) == EMPTY))
    # conjugation examples
    conds.append(("conjugate", conjugate(lam) == P("8,6,3,3,2")))
    conds.append(("conjugate (3,1)", conjugate(P("3,1")) == P("2,1,1")))
    conds.append(("dominance", dominance_leq(P("2,2"), P("3,1"))
                  and not dominance_leq(P("3,3"), P("4,1,1"))
                  and not dominance_leq(P("4,1,1"), P("3,3"))))
    return _check(conds)


def _four_increasing_mus(ctx, regular_only):
    e = ctx.block.e
    out = []
    for mu in ctx.members():
        z = ctx.z_map()[mu]
        if not is_m_increasing(z, 4):
            continue
        if regular_only and not is_e_regular(mu, e):
            continue
        out.append(mu)
    return out


def ac2():
    """LLT columns equal closed-formula columns on the AC-2 block set."""
    total = 0
    for b in ac2_blocks():
        ctx = BlockContext(b)
        for mu in _four_increasing_mus(ctx, regular_only=True):
            G = llt_G(mu, b.e, ctx)
            for lam in ctx.members():
                if G.coeff(lam) != d_closed(lam, mu, b.e):
                    return False, "mismatch at %s, %s in %r" % (lam, mu, b)
            total += 1
    return True, "%d columns compared" % total


def ac3():
    """Inductive columns equal closed columns; E/F annihilation at the pair."""
    from .abacus import core_levels, core_reflection_counts

    per_weight = {}
    engines = {}
    for b in ac3_blocks():
        ctx = BlockContext(b)
        eng = engines.setdefault(b.e, InductiveEngine(b.e))
        mus = _four_increasing_mus(ctx, regular_only=False)
        if not mus:
            continue
        # every runner pair for which b sits on the removable-bead side
        lv = core_levels(b.core, b.e)
        pairs = []
        for a in range(b.e):
            k_rem, _ = core_reflection_counts(lv, b.e, a)
            if k_rem >= 1:
                pairs.append((a, k_rem))
        for mu in mus:
            col = eng.column(mu)
            for lam in ctx.members():
                if col.coeff(lam) != d_closed(lam, mu, b.e):
                    return False, "mismatch at %s, %s in %r" % (lam, mu, b)
            for a, k in pairs:
                if apply_E(col, a, k + 2, b.e):
                    return False, "E^(k+2) G(mu) != 0 for %s in %r" % (mu, b)
                if apply_F(col, a, 2, b.e):
                    return False, "F^(2) G(mu) != 0 for %s in %r" % (mu, b)
            per_weight[b.weight] = per_weight.get(b.weight, 0) + 1
    longest = max(
        (len(chain) for eng in engines.values() for _, chain in eng.chains.values()), default=0
    )
    counts = ", ".join("w=%d: %d" % wc for wc in sorted(per_weight.items()))
    return True, "%d columns compared (%s), longest Scopes chain %d steps" % (
        sum(per_weight.values()), counts, longest)


def rouquier_block(e, w):
    """The minimal canonical Rouquier block for the given parameters."""
    g = max(w - 1, 0)
    return BlockId(e, core_from_levels(tuple(g * a for a in range(e)), e), w)


def ac4():
    """Rouquier formulas: LM vs hook reduction vs closed vs LLT.

    The LR-product formula is checked against the closed formula for every
    0-increasing mu and all lambda, and llt_G against both for each of
    those mu that is e-regular, on all 28 blocks (e <= 8, w <= 3).
    """
    pairs = [(e, w) for w in (0, 1, 2, 3) for e in range(2, 9)]
    llt_pairs = set()
    columns = 0
    for e, w in pairs:
        b = rouquier_block(e, w)
        ctx = BlockContext(b)
        zmap = ctx.z_map()
        mus = [m for m in ctx.members() if is_m_increasing(zmap[m], 0)]
        for mu in mus:
            G = llt_G(mu, e, ctx) if is_e_regular(mu, e) else None
            # each entry of the column is checked against the hook reduction
            col = rouquier_column(mu, b, ctx)
            for lam in ctx.members():
                v = col.coeff(lam)
                if v != d_closed(lam, mu, e):
                    return False, "rouquier vs closed at %s, %s in %r" % (lam, mu, b)
                if G is not None and v != G.coeff(lam):
                    return False, "rouquier vs llt at %s, %s in %r" % (lam, mu, b)
            if G is not None:
                llt_pairs.add((e, w))
            columns += 1
    return True, "%d Rouquier columns (llt cross-checked on %d of %d (e,w) pairs)" % (
        columns,
        len(llt_pairs),
        len(pairs),
    )


def ac5():
    """Tiling figures: generic cell counts and translation classes."""
    t2 = build_tiling(BlockId(17, parse_partition("5,3,1"), 2))
    g2 = t2.generic_cells()
    if len(g2) != 21:
        return False, "weight-2 generic count %d != 21" % len(g2)
    t3 = build_tiling(BlockId(25, parse_partition("15,1^14"), 3))
    g3 = t3.generic_cells()
    if len(g3) != 20:
        return False, "weight-3 generic count %d != 20" % len(g3)
    classes = t3.generator_classes()
    if len(classes) != 7:
        return False, "weight-3 translation classes %d != 7" % len(classes)
    return True, "21 generic cells (w=2), 20 in 7 classes (w=3)"


def ac6():
    """Discrete tiling laws on the AC-2 blocks plus the (12,3) principal block."""
    blocks = ac2_blocks() + [BlockId(12, EMPTY, 3)]
    for b in blocks:
        t = build_tiling(b)
        if not check_discrete_union(t):
            return False, "union law fails in %r" % (b,)
        if not check_cube_injectivity(t):
            return False, "cube injectivity fails in %r" % (b,)
        if not check_common_faces(t):
            return False, "common-face law fails in %r" % (b,)
    return True, "%d blocks" % len(blocks)


def ac7():
    """Block cardinalities and m-increasing counting formulas."""
    for e in range(4, 10):
        b2 = len(enumerate_block(BlockId(e, EMPTY, 2)))
        if b2 != e * (e + 3) // 2:
            return False, "|B| at w=2, e=%d: %d" % (e, b2)
        b3 = len(enumerate_block(BlockId(e, EMPTY, 3)))
        if b3 != e * (e + 1) * (e + 8) // 6:
            return False, "|B| at w=3, e=%d: %d" % (e, b3)
    for e in range(5, 13):
        for w in (1, 2, 3):
            ctx = BlockContext(BlockId(e, EMPTY, w))
            zs = list(ctx.z_map().values())
            for m in range(0, 5):
                got = sum(1 for z in zs if is_m_increasing(z, m))
                want = math.comb(max(e - (m - 1) * (w - 1), 0), w)
                if got != want:
                    return False, "count(e=%d,w=%d,m=%d): %d != %d" % (e, w, m, got, want)
    return True, "cardinalities and m-increasing counts match"


def ac8():
    """Mullineux: two algorithms agree; label symmetry; column symmetry."""
    pairs = 0
    for b in ac2_blocks():
        ctx = BlockContext(b)
        e = b.e
        for lam in ctx.members():
            z = ctx.z_map()[lam]
            if not (is_m_increasing(z, 4) and is_e_regular(lam, e)):
                continue
            m1 = mullineux_crystal(lam, e)
            m2 = mullineux_fast(lam, e)
            if m1 != m2:
                return False, "fast/crystal disagree at %s in %r" % (lam, b)
            if z_label(m1, e) != tuple(e - t for t in reversed(z)):
                return False, "z(lam*) != z(lam)* at %s" % (lam,)
            pairs += 1
    # column symmetry d_{lam' mu*} = q^w d_{lam mu}(q^-1) via LLT
    cols = 0
    for b in ac2_blocks():
        e, w = b.e, b.weight
        if b.core.size + e * w > 24:
            continue
        ctx = BlockContext(b)
        star_ctxs = {}
        for mu in ctx.members():
            if not is_e_regular(mu, e):
                continue
            mus = mullineux_crystal(mu, e)
            G = llt_G(mu, e, ctx)
            bstar = block_of(mus, e)
            sctx = star_ctxs.setdefault(bstar, BlockContext(bstar))
            Gs = llt_G(mus, e, sctx)
            for lam in ctx.members():
                lhs = Gs.coeff(conjugate(lam))
                rhs = G.coeff(lam).bar().shift(w)
                if lhs != rhs:
                    return False, "column symmetry fails at %s, %s" % (lam, mu)
            cols += 1
    return True, "%d involution pairs, %d symmetric columns" % (pairs, cols)


def ac9():
    """Label theory: the z-bijection and Weyl-orbit constancy."""
    rng = random.Random(20260809)
    for b in ac2_blocks():
        ctx = BlockContext(b)
        e, w = b.e, b.weight
        inc0 = {}
        for lam, z in ctx.z_map().items():
            if is_m_increasing(z, 0):
                if z in inc0:
                    return False, "z not injective in %r" % (b,)
                inc0[z] = lam
        want = math.comb(e + w - 1, w)
        if len(inc0) != want:
            return False, "bijection count %d != %d in %r" % (len(inc0), want, b)
        if any(any(t < 0 or t > e - 1 for t in z) for z in inc0):
            return False, "label out of range in %r" % (b,)
        # Weyl-orbit constancy on random words
        members = [lam for z, lam in sorted(inc0.items())]
        for lam in members[:: max(1, len(members) // 6)]:
            z = z_label(lam, e)
            a = abacus_of(lam, e)
            for _ in range(2):
                word = [rng.randrange(e) for _ in range(rng.randrange(1, 9))]
                cur = a
                for i in word:
                    cur = weyl_s(cur, i)
                    if z_label(partition_of(cur), e) != z:
                        return False, "z changed along orbit of %s in %r" % (lam, b)
    return True, "bijections and orbit constancy verified"


SUITES = {
    "ac1": (ac1, "worked examples"),
    "ac2": (ac2, "oracle equivalence llt vs closed"),
    "ac3": (ac3, "inductive equivalence"),
    "ac4": (ac4, "Rouquier formulas"),
    "ac5": (ac5, "tiling figures"),
    "ac6": (ac6, "discrete tiling laws"),
    "ac7": (ac7, "counting"),
    "ac8": (ac8, "Mullineux"),
    "ac9": (ac9, "label theory"),
}


def run(names=None, out=print):
    """Run the requested suites (all by default), in order; returns overall success."""
    names = list(SUITES) if not names else names
    for name in names:
        if name not in SUITES:
            raise ValueError("unknown suite %r" % name)
    ok_all = True
    for name in names:
        fn, title = SUITES[name]
        t0 = time.time()
        ok, detail = fn()
        ok_all = ok_all and ok
        out("%s %-4s %-34s %s (%.1fs)" % ("PASS" if ok else "FAIL", name.upper(), title, detail, time.time() - t0))
    return ok_all
