import ast
import inspect
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import focktiles
from focktiles import canonical, polytope
from focktiles.partitions import EMPTY, all_partitions, is_e_regular, parse_partition
from focktiles.abacus import (
    BlockId,
    abacus_of,
    block_of,
    core_from_levels,
    core_levels,
    core_reflection_counts,
    enumerate_block,
    is_rouquier,
    partition_of,
    weight_of,
    weyl_s,
)
from focktiles.canonical import (
    InductiveEngine,
    ScopesPair,
    exceptional_family,
    ladder_monomial,
    ladder_sequence,
    llt_G,
    lr_coefficient,
    rouquier_column,
    rouquier_d,
)
from focktiles.fock import FockVector, apply_E, apply_F, removable_beads
from focktiles.labels import BlockContext, is_m_increasing, z_label
from focktiles.laurent import LaurentPoly, bar_symmetric_split
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


def _reference_column(mu, e, monomial, memo):
    """G(mu) by the ladder construction: the monomial of mu, whose other
    labels all lie below mu, minus bar-invariant multiples of the reference
    columns of those whose coefficient is not in qZ[q], lexicographically
    (hence dominance-) largest first."""
    if mu not in memo:
        v = monomial(mu, e)
        assert v.coeff(mu) == LaurentPoly.one()
        while True:
            offenders = [nu for nu, c in v.terms.items() if nu != mu and not c.in_qZq()]
            if not offenders:
                break
            nu = max(offenders, key=lambda p: p.parts)
            alpha, _ = bar_symmetric_split(v.coeff(nu))
            v = v - _reference_column(nu, e, monomial, memo).scale(alpha)
        memo[mu] = v
    return memo[mu]


def test_llt_matches_ladder_reference_on_small_partitions():
    # every e-regular partition with n <= 12 (n <= 11 at e = 2), e = 2..5
    columns = 0
    for e in (2, 3, 4, 5):
        memo, ctxs = {}, {}
        for n in range(12 if e == 2 else 13):
            for mu in all_partitions(n):
                if is_e_regular(mu, e):
                    b = block_of(mu, e)
                    G = llt_G(mu, e, ctxs.setdefault(b, BlockContext(b)))
                    assert G == _reference_column(mu, e, ladder_monomial, memo), (mu, e)
                    columns += 1
    assert columns == 616


@lru_cache(maxsize=None)
def _large_cores(e):
    """The e-cores with 41 to 70 nodes whose runner levels lie in a small box."""
    span = range(-(8 // e + 2), 8 // e + 3)
    cores = {core_from_levels(lv, e) for lv in product(span, repeat=e) if sum(lv) == 0}
    return sorted((c for c in cores if 40 < c.size <= 70), key=lambda c: c.parts)


@given(st.integers(2, 5), st.integers(1, 2), st.data())
@settings(max_examples=20, deadline=None)
def test_llt_matches_ladder_reference_on_large_cores(e, w, data):
    b = BlockId(e, data.draw(st.sampled_from(_large_cores(e))), w)
    ctx = BlockContext(b)
    mu = data.draw(st.sampled_from([m for m in ctx.members() if is_e_regular(m, e)]))
    assert llt_G(mu, e, ctx) == _reference_column(mu, e, ladder_monomial, {})


def test_llt_eliminates_an_offender_above_the_label():
    # the walk from (4,2,1) at e = 2 removes its normal 0-node; F_0 G((4,2))
    # then has 1 + q^2 at the label and 1 at (5,2), which dominates it, so
    # G((5,2)) must be subtracted before the label's coefficient is 1
    mu = P("4,2,1")
    v = apply_F(llt_G(P("4,2"), 2), 0, 1, 2)
    assert v.coeff(mu) == LaurentPoly({0: 1, 2: 1}) and v.coeff(P("5,2")) == LaurentPoly.one()
    G = llt_G(mu, 2)
    assert G == v - llt_G(P("5,2"), 2)
    assert G == FockVector({mu: 1, P("3,3,1"): q(1), P("3,2,2"): q(2), P("3,2,1,1"): q(3)})
    assert G == _reference_column(mu, 2, ladder_monomial, {})


def test_llt_matches_pruned_fold_reference_on_rouquier_72():
    # the five (7,2) labels of the pruned-fold test below, core of 126 nodes
    from focktiles._ladders import _Window, ladder_fold

    b = BlockId(7, core_from_levels(tuple(range(7)), 7), 2)
    ctx = BlockContext(b)
    win = _Window(7, ctx.members())
    fold = lambda m, e: ladder_fold(ladder_sequence(m, e), e, win)
    regs = [m for m in ctx.members() if is_e_regular(m, 7)]
    memo = {}
    for mu in regs[:: len(regs) // 5][:5]:
        assert llt_G(mu, 7, ctx) == _reference_column(mu, 7, fold, memo)


def test_no_library_module_imports_ladders():
    # _ladders is kept for the benchmark only
    importers = []
    for path in sorted(Path(focktiles.__file__).parent.glob("*.py")):
        if path.stem == "_ladders":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "_ladders" for n in names):
                importers.append(path.stem)
    assert importers == []


def _route_names(root):
    """Every name read by root and by the canonical functions it reaches."""
    seen, todo, names = set(), [root], set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(ast.parse(inspect.getsource(getattr(canonical, fn)))):
            if isinstance(node, ast.Name):
                names.add(node.id)
                obj = getattr(canonical, node.id, None)
                if inspect.isfunction(obj) and obj.__module__ == canonical.__name__:
                    todo.append(node.id)
    return seen, names


def test_llt_route_is_independent_of_the_other_routes():
    fns, names = _route_names("llt_G")
    assert {"_llt_column", "_crystal_column", "_dominance_max"} <= fns
    polytope_names = {n for n, v in vars(polytope).items() if getattr(v, "__module__", None) == polytope.__name__}
    assert not names & (polytope_names | {"polytope"})
    assert not [n for n in names if n.startswith("rouquier_")]
    assert not names & {"InductiveEngine", "exceptional_family"}


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


def _lr_reference(rho, sigma, tau):
    """lr_coefficient as a recursion over the cells, one level per cell."""
    if not rho.contains(sigma):
        return 0
    if not tau.parts:
        return 1 if rho == sigma else 0
    t = len(tau.parts)
    cells = []
    for i in range(1, len(rho.parts) + 1):
        for j in range(rho.part(i), sigma.part(i), -1):
            cells.append((i, j))
    total = 0
    filling = {}
    counts = [0] * (t + 1)

    def rec(pos):
        nonlocal total
        if pos == len(cells):
            if list(tau.parts) == counts[1 : t + 1]:
                total += 1
            return
        i, j = cells[pos]
        above = filling.get((i - 1, j))
        right = filling.get((i, j + 1))
        lo = (above + 1) if above is not None else 1
        hi = right if right is not None else t
        for val in range(lo, hi + 1):
            if counts[val] >= tau.part(val):
                continue
            if val > 1 and counts[val] + 1 > counts[val - 1]:
                continue
            counts[val] += 1
            filling[(i, j)] = val
            rec(pos + 1)
            del filling[(i, j)]
            counts[val] -= 1

    rec(0)
    return total


def test_lr_coefficient_matches_recursive_reference():
    parts = [all_partitions(n) for n in range(8)]
    triples = 0
    for n in range(8):
        for rho in parts[n]:
            for k in range(n + 1):
                for sigma in parts[k]:
                    for tau in parts[n - k]:
                        assert lr_coefficient(rho, sigma, tau) == _lr_reference(rho, sigma, tau)
                        triples += 1
    assert triples == 2760
    # 1,100 cells: the recursion would need one frame per cell
    assert lr_coefficient(P("1200"), P("100"), P("1100")) == 1


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


@pytest.mark.parametrize("e,w", [(5, 3), (6, 2)])
def test_rouquier_column_matches_rouquier_d(e, w):
    b = BlockId(e, core_from_levels(tuple((w - 1) * a for a in range(e)), e), w)
    assert is_rouquier(b)
    ctx = BlockContext(b)
    for mu in ctx.members():
        col = rouquier_column(mu, b, ctx)
        for lam in ctx.members():
            assert col.coeff(lam) == rouquier_d(lam, mu, b)


def test_rouquier_predicate_matches_llt():
    # every block the predicate accepts has LLT columns equal to the LR formula
    for e in (3, 4):
        cores = [lam for n in range(25) for lam in all_partitions(n) if weight_of(lam, e) == 0]
        for core in cores:
            b = BlockId(e, core, 2)
            if not is_rouquier(b):
                continue
            ctx = BlockContext(b)
            for mu in ctx.members():
                if is_e_regular(mu, e):
                    assert rouquier_column(mu, b, ctx) == llt_G(mu, e, ctx)


def test_llt_G_refuses_a_context_of_another_block():
    mu = P("3,1")
    with pytest.raises(ValueError, match="context"):
        llt_G(mu, 2, BlockContext(BlockId(2, P("2,1"), 1)))
    # in its own block the column also holds q (2,2)
    G = llt_G(mu, 2, BlockContext(block_of(mu, 2)))
    assert G == llt_G(mu, 2) and G.coeff(P("2,2")) == q(1)


def test_rouquier_column_refuses_a_context_of_another_block():
    with pytest.raises(ValueError, match="context"):
        rouquier_column(P("5"), block_of(P("5"), 2), BlockContext(BlockId(2, EMPTY, 2)))


@lru_cache(maxsize=None)
def _small_cores(e):
    return [lam for n in range(11) for lam in all_partitions(n) if weight_of(lam, e) == 0]


@given(st.integers(2, 8), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_routes_agree_on_random_small_blocks(e, w, data):
    # LLT against the closed formula and the Scopes induction on every
    # 4-increasing e-regular mu, and against the LR formula on every column
    # of a Rouquier block; cores have at most 10 nodes
    b = BlockId(e, data.draw(st.sampled_from(_small_cores(e))), w)
    ctx = BlockContext(b)
    rouquier = is_rouquier(b)
    engine = InductiveEngine(e)
    for mu in ctx.members():
        four = is_m_increasing(ctx.z_map()[mu], 4)
        if not is_e_regular(mu, e) or not (four or rouquier):
            continue
        G = llt_G(mu, e, ctx)
        if four:
            assert FockVector({lam: d_closed(lam, mu, e) for lam in ctx.members()}) == G
            assert engine.column(mu) == G
        if rouquier:
            assert rouquier_column(mu, b, ctx) == G


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


def _pair_into(b, a, k):
    """The [w:k]-pair for runner a whose upper block s_a(B) is b."""
    upper = BlockId(b.e, partition_of(weyl_s(abacus_of(b.core, b.e), a)), b.weight)
    assert core_reflection_counts(core_levels(upper.core, b.e), b.e, a) == (k, 0)
    return ScopesPair(block=upper, tilde=b, a=a, k=k)


def _check_family_block(pair):
    """The weight w-k-1 block holding the family generators."""
    e, a = pair.block.e, pair.a
    wcheck = pair.block.weight - pair.k - 1
    if wcheck < 0:
        return None
    kt = abacus_of(pair.tilde.core, e)
    bottom = kt.runner_max(a % e)
    target = kt.runner_max((a - 1) % e) + e
    return BlockId(e, partition_of(kt.move_bead(bottom, target)), wcheck)


def _hook_quotient_families(pair):
    """Reference: every hook-quotient family across the pair, found by
    walking the whole check block."""
    bcheck = _check_family_block(pair)
    if bcheck is None:
        return []
    out = []
    for gen in enumerate_block(bcheck):
        if removable_beads(gen, pair.a, pair.block.e):
            continue
        fam = exceptional_family(gen, pair)
        if fam is not None:
            out.append(fam)
    return out


def test_exceptional_family_structure():
    mu = P("17,7,2^4,1^5")
    b = block_of(mu, 10)
    a, k = 7, 1
    pair = _pair_into(b, a, k)
    fams = _hook_quotient_families(pair)
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


def test_solve_integer_unit_pivots():
    from focktiles.canonical import _solve_integer

    # columns with at most one +1 and one -1; the first pivot is -1
    cols = [(-1, 1, 0), (0, -1, 1), (0, 0, -1)]
    assert _solve_integer(cols, (2, -1, 3)) == [-2, -1, -4]
    assert _solve_integer([(1, -1)], (1, 0)) is None  # inconsistent
    assert _solve_integer([(1, 0), (1, 0), (0, 1)], (2, 3)) == [2, 0, 3]  # a free column
    assert _solve_integer([], (0, 0)) == [] and _solve_integer([], (0, 1)) is None
    with pytest.raises(AssertionError, match="not a unit"):
        _solve_integer([(1, 1), (1, -1)], (0, 2))


def test_exceptional_family_errors():
    mu = P("17,7,2^4,1^5")
    b = block_of(mu, 10)
    a, k = 7, 1
    pair = _pair_into(b, a, k)
    fams = _hook_quotient_families(pair)
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
    for core, mu, a in [
        (P("9,1^5"), P("18,6,2^4,1^9"), 3),
        (P("9,1^4"), P("18,5,2^4,1^9"), 4),
        (P("4"), P("13,5,1^13"), 4),
    ]:
        b = block_of(mu, 9)
        assert b.core == core and b.weight == 3
        pair = _pair_into(b, a, 1)
        fams = _hook_quotient_families(pair)
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


class _CheckedEngine(InductiveEngine):
    """Compares the corrections of every Scopes step with those the
    check-block walk selects (s = 0, n >= 2)."""

    def __init__(self, e):
        super().__init__(e)
        self.used = {}  # check-block weight -> corrections made

    def _corrections(self, col, mu, prev, pair):
        got = super()._corrections(col, mu, prev, pair)
        z_prev = z_label(prev, self.e)
        want = set()
        for fam in _hook_quotient_families(pair):
            sep = fam.separation(z_prev)
            if sep and sep["s"] == 0 and sep["n"] >= 2:
                want.add((fam.generator, sep["n"]))
        assert {(fam.generator, n) for fam, n in got} == want
        wcheck = pair.block.weight - pair.k - 1
        self.used[wcheck] = self.used.get(wcheck, 0) + len(want)
        return got


def test_offender_generators_match_check_block_walk():
    # the generators read off the offenders of E_a^(k) G(prev) are exactly
    # those of the families the whole check block selects, at every step
    e9 = _CheckedEngine(9)
    for mu in ["18,5,2^4,1^9", "13,4,1^13", "18,6,2^4,1^9", "13,5,1^13"]:
        e9.column(P(mu))
    b = BlockId(10, P("2,1"), 3)
    e10 = _CheckedEngine(10)
    ctx = BlockContext(b)
    for mu in ctx.members():
        if is_m_increasing(ctx.z_map()[mu], 4):
            col = e10.column(mu)
            for lam in ctx.members():
                assert col.coeff(lam) == d_closed(lam, mu, 10)
    # corrections from weight-0 and weight-1 check blocks both occur
    used = {}
    for eng in (e9, e10):
        for wcheck, n in eng.used.items():
            used[wcheck] = used.get(wcheck, 0) + n
    assert used.get(0) and used.get(1), used
