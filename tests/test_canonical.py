import ast
import hashlib
import inspect
import io
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import focktiles
from focktiles import canonical, cli, polytope
from focktiles.partitions import (
    EMPTY, Partition, all_partitions, conjugate, dominance_leq, format_partition, is_e_regular, parse_partition,
)
from focktiles.abacus import (
    FACTS_MAXSIZE,
    Abacus,
    BlockId,
    _from_tops,
    _matched_signature,
    _removable,
    abacus_of,
    block_of,
    core_from_levels,
    core_quotient_weight,
    core_reflection_counts,
    core_tops,
    enumerate_block,
    is_core,
    is_rouquier,
    mask_of,
    partition_of,
    partition_of_mask,
    rouquier_charge,
    scopes_chain_blocks,
    weight_of,
    weyl_s,
)
from focktiles.canonical import (
    InductiveEngine,
    ScopesPair,
    exceptional_family,
    inductive_G,
    ladder_monomial,
    ladder_sequence,
    llt_G,
    lr_coefficient,
    rouquier_column,
    rouquier_d,
)
from focktiles.fock import FockVector, apply_E, apply_F, move, removable_beads, step_E, step_F, unpack
from focktiles.labels import BlockContext, is_m_increasing, z_label
from focktiles.laurent import LaurentPoly, bar_symmetric_split
from focktiles.polytope import d_closed, parallelotope_of
from focktiles.verify import ac2_blocks, ac3_blocks, rouquier_block


q = LaurentPoly.monomial
P = parse_partition


def _rouquier_G(mu, b, ctx=None):
    """The Rouquier column of mu as a Fock vector."""
    return unpack(rouquier_column(mu, b, ctx)[1])


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


def test_mask_order_is_the_lexicographic_order():
    # LLT corrects the largest offending mask first: over one offset the
    # integer order of masks is the lexicographic order of partitions, and
    # that order refines dominance, so no offender dominates the largest
    parts = [lam for n in range(13) for lam in all_partitions(n)]
    assert sorted(parts, key=lambda lam: mask_of(lam, -14)) == sorted(parts, key=lambda lam: lam.parts)
    for n in range(11):
        ps = all_partitions(n)
        assert all(lam.parts <= mu.parts for lam in ps for mu in ps if dominance_leq(lam, mu))


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
    assert {"llt_column", "_crystal_column"} <= fns
    polytope_names = {n for n, v in vars(polytope).items() if getattr(v, "__module__", None) == polytope.__name__}
    assert not names & (polytope_names | {"polytope"})
    assert not [n for n in names if n.startswith("rouquier_")]
    assert not names & {"InductiveEngine", "exceptional_family"}


class _Climb(Exception):
    """Raised by the stand-in for step_F when the walk hands over to the
    climb; its argument is the climb's starting vector."""


def _stop_at_climb(v, *args):
    raise _Climb(v)


@st.composite
def _e_regular_labels(draw):
    """(e, mu) with 2 <= e <= 8 and mu e-regular: no part repeats e times."""
    e = draw(st.integers(2, 8))
    rows = draw(st.dictionaries(st.integers(1, 20), st.integers(1, e - 1), max_size=8))
    return e, Partition(sorted((p for p, k in rows.items() for _ in range(k)), reverse=True))


@given(_e_regular_labels())
@settings(max_examples=200, deadline=None)
def test_walk_keeps_every_residue_signature_fresh(label):
    # the walk reads all e signatures at its first label and only residues
    # i-1, i, i+1 after a step on residue i; the last value read for each
    # residue must equal a fresh signature at every label of the walk
    e, mu = label
    lo = -(mu.size + 2)
    log = []

    def record(m, at, e_, i):
        out = _matched_signature(m, at, e_, i)
        log.append((m, i, out[0]))
        return out

    with mock.patch.object(canonical, "_matched_signature", record), \
            mock.patch.object(canonical, "step_F", _stop_at_climb):
        try:
            next(canonical._crystal_column(mask_of(mu, lo), e, lo, canonical.ColumnStore()))
            raise AssertionError("the walk asked for a correction")
        except StopIteration as done:  # mu is an e-core
            start = done.value
        except _Climb as climb:
            start = climb.args[0]
    # the climb starts from G(core) = core at the walk's first e-core
    (core,) = start
    assert start[core] == {0: 1} and is_core(partition_of_mask(core), e)
    assert not log if is_core(mu, e) else log[0][0] == mask_of(mu, lo)
    kept, walked = {}, []
    for n, (m, i, normals) in enumerate(log):
        kept[i] = normals
        if n + 1 < len(log) and log[n + 1][0] == m:
            continue
        # the last read at label m: every residue is known and fresh
        assert m not in walked and not is_core(partition_of_mask(m), e)
        walked.append(m)
        assert [kept.get(r) for r in range(e)] == [_matched_signature(m, lo, e, r)[0] for r in range(e)]
    reads = [sum(1 for x in log if x[0] == m) for m in walked]
    assert reads[:1] in ([], [e]) and all(k <= 3 for k in reads[1:])


def _crystal_column_to_empty(m, e, lo, store):
    """The LLT column generator that walks down to the empty label and reads
    all e signatures at every step: the reference for `_crystal_column`.
    It looks up and stores only its own label's completed column, so each
    column is still built once per store."""
    key = Abacus(e, lo, m)
    if key in store:
        return move(store[key][1], store[key][0], lo)
    steps = []
    while _removable(m):
        normals, i = max(((_matched_signature(m, lo, e, i)[0], i) for i in range(e)),
                         key=lambda s: len(s[0]))
        assert normals
        steps.append((m, i, len(normals)))
        for b in normals:  # each bead one position down
            m ^= 3 << (b - lo - 1)
    v = {m: {0: 1}}
    for t, i, k in reversed(steps):
        v = step_F(v, i, k, e, lo)
        while True:
            offenders = [x for x, c in v.items() if (c != {0: 1} if x == t else min(c) <= 0)]
            if not offenders:
                break
            x = max(offenders)
            assert x != t
            alpha, _ = bar_symmetric_split(LaurentPoly(v[x]))
            canonical._subtract_multiple(v, alpha, (yield partition_of_mask(x)))
    store[key] = lo, v
    return v


# the minimal Rouquier blocks (5,3) and (7,2), cores of 120 and 126 nodes,
# whose 67 e-regular columns the llt_rouquier benchmark workload computes
LLT_ROUQUIER = ((5, 3), (7, 2))


def _llt_rouquier_columns():
    """{mu: the terms of G(mu) in order, coefficients as text} over every
    e-regular mu of the LLT_ROUQUIER blocks, one context per block."""
    out = {}
    for e, w in LLT_ROUQUIER:
        ctx = BlockContext(rouquier_block(e, w))
        for mu in ctx.members():
            if is_e_regular(mu, e):
                out[mu] = [(lam, str(c)) for lam, c in llt_G(mu, e, ctx).terms.items()]
    return out


def test_llt_matches_the_walk_to_empty(monkeypatch):
    # both sides step with the kernel under test, `fock.step_F`; the kernel
    # itself is checked against its reference in test_fock
    cols = _llt_rouquier_columns()
    assert len(cols) == 67
    monkeypatch.setattr(canonical, "_crystal_column", _crystal_column_to_empty)
    assert _llt_rouquier_columns() == cols


def test_llt_walk_counts_on_the_rouquier_blocks(monkeypatch):
    # walking to the empty label and reading all e signatures per step took
    # 5,895 step_F and 33,919 _matched_signature calls on these blocks; 2,923
    # of those climb steps sit at e-core labels.  A walk that stored nothing
    # took 2,972 and 9,308; with one store per context later columns stop at
    # stored ones: 2,470 and 7,676
    calls = Counter()
    for name in ("step_F", "_matched_signature"):
        real = getattr(canonical, name)
        monkeypatch.setattr(canonical, name, lambda *a, _f=real, _n=name: calls.update([_n]) or _f(*a))
    _llt_rouquier_columns()
    assert 0 < calls["step_F"] <= 2500 and 0 < calls["_matched_signature"] <= 7700


def test_llt_rouquier_columns_are_pinned():
    # the 67 columns, pinned byte for byte: a kernel that shares the
    # coefficients of single moves must not change one of them
    entries = sorted((mu.parts, sorted((lam.parts, c) for lam, c in terms))
                     for mu, terms in _llt_rouquier_columns().items())
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == "37def7c2529c65fe2721949d85f8bb477c2134514e7a6dda26057344b2af9d33"


def test_llt_context_keeps_one_store(monkeypatch):
    # a context holds one ColumnStore and nothing else for LLT; at a bound
    # of 0 terms it keeps only completed columns, mu's and each correction's
    e = 6
    ctx = BlockContext(rouquier_block(e, 4))
    mus = [mu for mu in ctx.members() if is_m_increasing(ctx.z_map()[mu], 0) and is_e_regular(mu, e)]
    for mu in mus[:8]:
        llt_G(mu, e, ctx)
    (store,) = ctx.caches.values()
    assert type(store) is canonical.ColumnStore and len(store) > 8
    built, real = [], canonical._crystal_column

    def record(m, e_, lo, store_):
        built.append(Abacus(e_, lo, m))
        return real(m, e_, lo, store_)

    monkeypatch.setattr(canonical, "FACTS_MAXSIZE", 0)
    monkeypatch.setattr(canonical, "_crystal_column", record)
    ctx = BlockContext(rouquier_block(e, 4))
    for mu in mus[:8]:
        assert llt_G(mu, e, ctx) == _rouquier_G(mu, ctx.block)
    (store,) = ctx.caches.values()
    assert type(store) is canonical.ColumnStore
    assert 8 <= len(store) and set(store) <= set(built)
    assert store.terms == sum(len(col) for _, col in store.values())


def _walk_labels(mu, e, lo, store):
    """The masks at which the walk from mu reads residue signatures, in
    order, and the vector the climb starts from."""
    log = []

    def record(m, at, e_, i):
        log.append(m)
        return _matched_signature(m, at, e_, i)

    with mock.patch.object(canonical, "_matched_signature", record), \
            mock.patch.object(canonical, "step_F", _stop_at_climb):
        try:
            next(canonical._crystal_column(mask_of(mu, lo), e, lo, store))
            raise AssertionError("the walk asked for a correction")
        except _Climb as climb:
            return list(dict.fromkeys(log)), climb.args[0]


def test_walk_stops_at_a_stored_label():
    e, mu = 3, P("7,5,4,2,2,1")
    lo = -(mu.size + 2)
    walk, _ = _walk_labels(mu, e, lo, canonical.ColumnStore())
    assert len(walk) >= 3
    # G of the walk's third label, built in its own call over its own offset
    nu = partition_of_mask(walk[2])
    built = canonical.ColumnStore()
    canonical.llt_column(nu, e, built)
    key = Abacus(e, lo, walk[2])
    nu_lo, nu_col = built[key]
    assert nu_lo != lo and key in built
    store = canonical.ColumnStore()
    store[key] = built[key]
    # the walk reads no signature at or below the stored label, and the
    # climb starts from its column moved to the walk's offset
    stopped, start = _walk_labels(mu, e, lo, store)
    assert stopped == walk[:2] and start == move(nu_col, nu_lo, lo)
    assert unpack(canonical.llt_column(mu, e, store)[1]) == llt_G(mu, e)


def _llt_batch_lines(e):
    """Every (lambda, mu) pair, mu e-regular, of the AC-2 blocks at e, as
    `dnum` stdin lines, and the pairs."""
    pairs = []
    for b in ac2_blocks():
        if b.e == e:
            members = BlockContext(b).members()
            pairs += [(lam, mu) for mu in members if is_e_regular(mu, e) for lam in members]
    return ["%s;%s" % (format_partition(lam), format_partition(mu)) for lam, mu in pairs], pairs


def _run_llt_batch(lines, e, monkeypatch):
    """stdout of a `dnum --method llt` batch, its stores, and its step_F
    calls; each store records how often each key was set."""
    stores, calls = [], Counter()

    class Counted(canonical.ColumnStore):
        def __init__(self):
            super().__init__()
            self.sets = Counter()
            stores.append(self)

        def __setitem__(self, key, value):
            self.sets[key] += 1
            super().__setitem__(key, value)

    real = canonical.step_F
    monkeypatch.setattr(canonical, "step_F", lambda *a: calls.update(["step_F"]) or real(*a))
    monkeypatch.setattr(cli, "ColumnStore", Counted)
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO("\n".join(lines) + "\n")), \
            mock.patch.object(sys, "stdout", out):
        assert cli.run(["dnum", "--e", str(e), "--method", "llt"]) == 0
    monkeypatch.undo()
    return out.getvalue().splitlines(), stores, calls["step_F"]


def test_llt_batch_builds_each_column_once(monkeypatch):
    # the 14,084 pairs of the 28 e = 4 AC-2 blocks (the llt slice of the
    # dnum benchmark); without a store, llt_G took 3,707 step_F calls on them
    e = 4
    lines, pairs = _llt_batch_lines(e)
    assert len(lines) == 14084
    out, stores, steps = _run_llt_batch(lines, e, monkeypatch)
    (store,) = stores
    # every climb step stores its G(t), and no label's column is built twice
    assert steps == len(store) == sum(store.sets.values()) == 531
    assert set(store.sets.values()) == {1} and store.terms < FACTS_MAXSIZE
    cols = {}
    for mu in dict.fromkeys(mu for _, mu in pairs):
        cols[mu] = llt_G(mu, e)
    assert out == [str(cols[mu].coeff(lam)) for lam, mu in pairs]


def test_llt_store_keeps_only_completed_columns_past_its_bound(monkeypatch):
    # at a bound of 0 terms no intermediate G(t) is kept: only the columns
    # the recursion completes, mu's and each correction's
    e = 4
    lines, _ = _llt_batch_lines(e)
    lines = lines[::7]
    want, _, bounded = _run_llt_batch(lines, e, monkeypatch)
    monkeypatch.setattr(canonical, "FACTS_MAXSIZE", 0)
    out, (store,), steps = _run_llt_batch(lines, e, monkeypatch)
    assert out == want and set(store.sets.values()) == {1}
    assert len(store) < bounded < steps


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


def _rouquier_value(ql, qm, e):
    """Reference: the LR-product formula for one pair, given the shifted
    quotients, by a DP over the chains alpha_0 = empty, ..., alpha_e = empty
    whose sizes the two quotients fix."""
    sl = [q.size for q in ql]
    sm = [q.size for q in qm]
    delta = sum((e - 1 - j) * (sl[j] - sm[j]) for j in range(e - 1))
    a_sizes = [0] * (e + 1)
    for i in range(1, e + 1):
        a_sizes[i] = a_sizes[i - 1] + sl[i - 1] - sm[i - 1]
    b_sizes = [0] * e
    acc = 0
    for i in range(e):
        b_sizes[i] = sm[i] + acc
        acc += sm[i] - sl[i]
    if any(x < 0 for x in a_sizes) or any(x < 0 for x in b_sizes):
        return LaurentPoly.zero()
    states = {EMPTY: 1}
    for j in range(e):
        betas = all_partitions(b_sizes[j])
        nxt = {}
        for alpha_next in all_partitions(a_sizes[j + 1]):
            alpha_next_conj = conjugate(alpha_next)
            tot = 0
            for alpha, val in states.items():
                inner = 0
                for beta in betas:
                    c1 = lr_coefficient(qm[j], alpha, beta)
                    if not c1:
                        continue
                    inner += c1 * lr_coefficient(ql[j], beta, alpha_next_conj)
                tot += val * inner
            if tot:
                nxt[alpha_next] = tot
        states = nxt
        if not states:
            break
    return LaurentPoly.monomial(delta) * LaurentPoly.of(states.get(EMPTY, 0))


def _shifted_abacus_quotient(lam, e, c):
    """Reference: the quotient read off the abacus display shifted by c."""
    a = abacus_of(lam, e)
    return core_quotient_weight(Abacus(e, a.base + c, a.mask))[1]


def test_shifted_quotient_is_the_rotated_quotient():
    for lam in (lam for n in range(13) for lam in all_partitions(n)):
        for e in range(2, 7):
            for c in range(2 * e + 1):
                assert canonical.shifted_quotient(lam, e, c) == _shifted_abacus_quotient(lam, e, c)


@pytest.mark.parametrize("e,w", [(5, 3), (6, 2)])
def test_rouquier_column_matches_rouquier_d(e, w):
    # rouquier_d reads the column; the reference evaluates each pair alone
    b = BlockId(e, core_from_levels(tuple((w - 1) * a for a in range(e)), e), w)
    assert is_rouquier(b)
    ctx = BlockContext(b)
    c = rouquier_charge(b)
    quots = {lam: canonical.shifted_quotient(lam, e, c) for lam in ctx.members()}
    for mu, qm in quots.items():
        for lam, ql in quots.items():
            assert rouquier_d(lam, mu, b, ctx) == _rouquier_value(ql, qm, e), (lam, mu)
    # the answers do not depend on the context
    mu = ctx.members()[len(quots) // 2]
    for lam in ctx.members()[:10]:
        assert rouquier_d(lam, mu, b) == rouquier_d(lam, mu, b, ctx)


def _member_filter_column(mu, b, quots):
    """Reference: the LR-product formula evaluated on every member of b,
    given as (lambda, shifted quotient) pairs."""
    qm = canonical.shifted_quotient(mu, b.e, rouquier_charge(b))
    return FockVector({lam: v for lam, ql in quots if (v := _rouquier_value(ql, qm, b.e))})


@pytest.mark.parametrize("w", [0, 1, 2, 3, 4])
def test_generated_rouquier_column_matches_member_filter(w):
    # on every AC-4 block; at w = 4 every fourth 0-increasing mu, for time
    # (AC-4 checks all of them against d_closed and LLT)
    for e in range(2, 9):
        b = rouquier_block(e, w)
        ctx = BlockContext(b)
        c = rouquier_charge(b)
        quots = [(lam, canonical.shifted_quotient(lam, e, c)) for lam in ctx.members()]
        mus = [mu for mu in ctx.members() if is_m_increasing(ctx.z_map()[mu], 0)]
        for mu in mus[:: 4 if w == 4 else 1]:
            assert _rouquier_G(mu, b, ctx) == _member_filter_column(mu, b, quots), (mu, e)


def test_rouquier_column_counts_each_lr_coefficient_once(monkeypatch):
    # the chains of one column share their LR coefficients: over the 98
    # columns of (6,3) the pass took 4,462 lr_coefficient calls for 1,004
    # distinct triples per column
    calls = Counter()
    real = canonical.lr_coefficient
    monkeypatch.setattr(canonical, "lr_coefficient", lambda *a: calls.update([a]) or real(*a))
    b = rouquier_block(6, 3)
    ctx = BlockContext(b)
    for mu in ctx.members():
        rouquier_column(mu, b, ctx)
    assert len(ctx.members()) == 98 and sum(calls.values()) <= 1004


def test_rouquier_column_carries_lr_multiplicities():
    # LR coefficients above 1 first occur at 6 nodes (c^{321}_{21,21} = 2),
    # so only weight >= 6 sees whether the pass multiplies them in: against
    # the per-pair reference on every column of (2,6), against LLT on the
    # e-regular columns of (2,6) and (3,6)
    big = 0
    for e in (2, 3):
        b = rouquier_block(e, 6)
        ctx = BlockContext(b)
        quots = [(lam, canonical.shifted_quotient(lam, e, rouquier_charge(b))) for lam in ctx.members()]
        for mu in ctx.members():
            col = _rouquier_G(mu, b, ctx)
            if e == 2:
                assert col == _member_filter_column(mu, b, quots), mu
            if is_e_regular(mu, e):
                assert col == llt_G(mu, e, ctx), mu
            big += any(c > 1 for v in col.terms.values() for c in v.coeffs.values())
    assert big


def test_rouquier_hook_check_covers_zero_entries(monkeypatch):
    b = rouquier_block(4, 3)
    c = rouquier_charge(b)
    mu = next(m for m in BlockContext(b).members()
              if all(q.parts == (1,) * len(q.parts) for q in canonical.shifted_quotient(m, 4, c)))
    reduced = canonical._rouquier_d_reduced
    rouquier_column(mu, b)
    # a hook reduction that is nonzero off the LR support must be caught
    monkeypatch.setattr(canonical, "_rouquier_d_reduced",
                        lambda ql, qm: reduced(ql, qm) or LaurentPoly.one())
    with pytest.raises(AssertionError, match="off the LR support"):
        rouquier_column(mu, b)


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
                    assert _rouquier_G(mu, b, ctx) == llt_G(mu, e, ctx)


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
            assert _rouquier_G(mu, b, ctx) == G


def test_rouquier_column_vs_llt():
    b = BlockId(4, core_from_levels((0, 1, 2, 3), 4), 2)
    ctx = BlockContext(b)
    for mu in ctx.members():
        z = ctx.z_map()[mu]
        if not (is_m_increasing(z, 0) and is_e_regular(mu, b.e)):
            continue
        col = _rouquier_G(mu, b, ctx)
        G = llt_G(mu, b.e, ctx)
        assert col == G


def _pair_into(b, a, k):
    """The [w:k]-pair for runner a whose upper block s_a(B) is b."""
    lower = partition_of(weyl_s(abacus_of(b.core, b.e), a))  # the core of B
    assert core_reflection_counts(core_tops(lower, b.e), a) == (k, 0)
    return ScopesPair(tops=core_tops(b.core, b.e), w=b.weight, a=a, k=k)


def _check_family_block(pair):
    """The weight w-k-1 block holding the family generators."""
    e, a = len(pair.tops), pair.a
    wcheck = pair.w - pair.k - 1
    if wcheck < 0:
        return None
    tops = pair.tops
    bottom, target = tops[a % e], tops[a - 1] + e
    core = abacus_of(_from_tops(tops, (EMPTY,) * e), e).move_bead(bottom, target)
    return BlockId(e, partition_of(core), wcheck)


def _hook_quotient_families(pair):
    """Reference: every hook-quotient family across the pair, found by
    walking the whole check block."""
    bcheck = _check_family_block(pair)
    if bcheck is None:
        return []
    out = []
    for gen in enumerate_block(bcheck):
        if removable_beads(gen, pair.a, len(pair.tops)):
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
        w = pair.w
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


def test_inductive_G_answers_the_ac1_pair():
    assert inductive_G(P("17,7,2^4,1^5"), 10).coeff(P("16,8,1^13")) == q(2)


def test_inductive_annihilation():
    mu = P("17,7,2^4,1^5")
    eng = InductiveEngine(10)
    col = eng.column(mu)
    b = block_of(mu, 10)
    tops = core_tops(b.core, 10)
    for a in range(10):
        k, _ = core_reflection_counts(tops, a)
        if k >= 1:
            assert apply_E(col, a, k + 2, 10) == FockVector()
            assert apply_F(col, a, 2, 10) == FockVector()


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


def test_engine_keeps_one_chain_per_block_asked_for():
    # the (20, empty, 2) chain has 1,330 steps; a copy of the route of every
    # prefix block would hold about 1,330^2 / 2 list slots, 15 MiB traced
    b = BlockId(20, EMPTY, 2)
    eng = InductiveEngine(20)
    tracemalloc.start()
    try:
        tops, chain = eng.chain(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chain) == 1330 and tops[-1] == core_tops(b.core, b.e)
    assert list(eng.chains) == [b]
    assert peak < 5 * 2**20


def test_scopes_column_of_the_13_4_block_is_pinned():
    # the one 4-increasing column of the (13, empty, 4) block, 1,092 Scopes
    # steps from its Rouquier base, pinned byte for byte
    mu = P("22,5,2^4,1^17")
    col = InductiveEngine(13).column(mu)
    entries = sorted((lam.parts, col.coeff(lam).to_pairs()) for lam in col.support())
    digest = hashlib.sha256(repr((mu.parts, entries)).encode()).hexdigest()
    assert digest == "aa62acc709d2d3570b7c8d689d6d12a76e8b8e1bba84832b8a7ba212275b77ac"


def _rows_offset(b):
    """Reference packing offset of block b, read off its core's rows."""
    return -(len(b.core.parts) + b.e * b.weight + 2)


def test_members_keep_two_rows_clear_of_the_block_offset():
    # a member is the core plus w rim e-hooks of at most e rows each
    blocks = list(ac3_blocks())
    blocks += [BlockId(10, _from_tops(t, (EMPTY,) * 10), 3)
               for t in scopes_chain_blocks(block_of(P("17,7,2^4,1^5"), 10))[0]]
    for b in blocks:
        assert max(len(lam.parts) for lam in enumerate_block(b)) <= -_rows_offset(b) - 2, b


def test_move_refuses_a_term_below_the_new_offset():
    mu = P("2,1")
    vec = {mask_of(mu, -4): {0: 1}}
    assert move(vec, -4, -6) == {mask_of(mu, -6): {0: 1}}
    assert move(vec, -4, -2) == {mask_of(mu, -2): {0: 1}}
    with pytest.raises(AssertionError, match="does not fit"):
        move(vec, -4, -1)  # mu has two rows


class _CheckedEngine(InductiveEngine):
    """Compares the corrections of every Scopes step with those the
    check-block walk selects (s = 0, n >= 2)."""

    def __init__(self, e):
        super().__init__(e)
        self.used = {}  # check-block weight -> corrections made

    def _corrections(self, col, m, z_prev, pair, lo):
        got = super()._corrections(col, m, z_prev, pair, lo)
        want = set()
        for fam in _hook_quotient_families(pair):
            sep = fam.separation(z_prev)
            if sep and sep["s"] == 0 and sep["n"] >= 2:
                want.add((fam.generator, sep["n"]))
        assert {(fam.generator, n) for fam, n in got} == want
        wcheck = pair.w - pair.k - 1
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
    # the same corrections as when k >= w steps ran step_E; those steps now
    # relabel and read no check block, so no other weight is counted
    assert used == {0: 6, 1: 17}, used


# the four 4-increasing columns of the e = 10, core (7), weight-3 block
_E10_MUS = ("13,8,1^16", "17,5,1^15", "17,6,1^14", "17,7,2^4,1^5")


def test_relabelling_equals_step_E_on_every_k_at_least_w_step(monkeypatch):
    # a [w:k]-pair with k >= w is a Scopes equivalence: E_a^(k) only moves
    # each term's k removable runner-a beads back one slot
    relabel, step, seen, stepped = canonical._relabel, InductiveEngine._step, [], []

    def checked(vec, a, k, e, lo):
        out = relabel(vec, a, k, e, lo)
        assert out == step_E(vec, a, k, e, lo)
        seen.append(len(vec))
        return out

    def counted(self, m, prev, z, pair, blo, lo):
        stepped.append(pair.k)
        return step(self, m, prev, z, pair, blo, lo)

    monkeypatch.setattr(canonical, "_relabel", checked)
    monkeypatch.setattr(InductiveEngine, "_step", counted)
    for mu in _E10_MUS:
        InductiveEngine(10).column(P(mu))
    assert (len(seen), sum(seen), len(stepped)) == (1048, 5371, 332)
    # every AC-3 column, one engine per e as `verify` builds them
    _ac3_engines()
    assert (len(seen), len(stepped)) == (1048 + 5048, 332 + 1723)


def test_relabel_refuses_a_term_that_E_does_not_only_relabel():
    # e = 3, a = 1, k = 1: (2) has one removable runner-1 bead and no
    # addable runner-0 bead; (2,1) has an addable runner-0 bead and (2,1,1)
    # two removable runner-1 beads
    lo = -6
    vec = {mask_of(P("2"), lo): {0: 1}}
    assert canonical._relabel(vec, 1, 1, 3, lo) == step_E(vec, 1, 1, 3, lo) == {mask_of(P("1"), lo): {0: 1}}
    for lam in ("2,1", "2,1,1"):
        with pytest.raises(AssertionError, match="does not only relabel"):
            canonical._relabel({mask_of(P(lam), lo): {0: 1}}, 1, 1, 3, lo)


class _Frozen(dict):
    """A coefficient dict that refuses every change in place."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a stored coefficient dict was changed in place")

    __setitem__ = __delitem__ = __ior__ = pop = popitem = update = setdefault = clear = _refuse


def test_stored_coefficients_are_never_changed_in_place(monkeypatch):
    # coefficient dicts are values: kernels share them, so a stored column's
    # dicts reach later steps, corrections and columns.  With every stored
    # dict frozen, the LLT and Scopes columns build as before
    def scopes_columns():
        return {mu: InductiveEngine(10).column(P(mu)) for mu in _E10_MUS}

    llt, scopes = _llt_rouquier_columns(), scopes_columns()
    frozen = Counter()

    def freeze(col, kind):
        for m, c in col.items():
            col[m] = _Frozen(c)
        frozen[kind] += len(col)

    store_set, engine_store = canonical.ColumnStore.__setitem__, InductiveEngine._store

    def frozen_set(self, key, value):
        freeze(value[1], "llt")
        store_set(self, key, value)

    def frozen_store(self, rep, lo, col):
        freeze(col, "scopes")
        return engine_store(self, rep, lo, col)

    monkeypatch.setattr(canonical.ColumnStore, "__setitem__", frozen_set)
    monkeypatch.setattr(InductiveEngine, "_store", frozen_store)
    assert _llt_rouquier_columns() == llt
    assert scopes_columns() == scopes
    assert frozen["llt"] > 10000 and frozen["scopes"] > 5000, frozen
    with pytest.raises(AssertionError, match="changed in place"):
        _Frozen({0: 1})[0] = 2


def test_engine_refuses_a_wrong_weyl_transport(monkeypatch):
    mu = P("17,7,2^4,1^5")
    monkeypatch.setattr(canonical, "weyl_s", lambda a, i: weyl_s(a, i + 1))
    with pytest.raises(AssertionError, match="Weyl transport left the expected block or label"):
        InductiveEngine(10).column(mu)
    monkeypatch.undo()
    # the right cores but a wrong label
    monkeypatch.setattr(canonical, "abacus_z", lambda a, mvs: (0, 0, 0))
    with pytest.raises(AssertionError, match="Weyl transport left the expected block or label"):
        InductiveEngine(10).column(mu)


@pytest.mark.parametrize("mutate,message", [
    (lambda col, m: {**col, m: {1: 1}}, "not unitriangular at mu"),
    (lambda col, m: {x: ({0: 1} if x != m else c) for x, c in col.items()}, "violates triangularity"),
])
def test_store_checks_every_relabelled_column(monkeypatch, mutate, message):
    relabel = canonical._relabel

    def bad(vec, a, k, e, lo):
        out = relabel(vec, a, k, e, lo)
        return mutate(out, next(x for x, c in out.items() if c == {0: 1}))

    monkeypatch.setattr(canonical, "_relabel", bad)
    with pytest.raises(AssertionError, match=message):
        InductiveEngine(10).column(P("17,7,2^4,1^5"))


def test_offset_from_core_tops_matches_the_block_offset():
    blocks = list(ac3_blocks()) + [block_of(P("17,7,2^4,1^5"), 10)]
    cores = 0
    for b in blocks:
        for tops in scopes_chain_blocks(b)[0]:
            core = _from_tops(tops, (EMPTY,) * b.e)
            assert canonical._tops_offset(tops, b.weight) == _rows_offset(BlockId(b.e, core, b.weight))
            cores += 1
    assert cores == 5721


def _ac3_engines():
    """One engine per e, as `verify` builds them, after every AC-3 column."""
    engines = {}
    for b in ac3_blocks():
        ctx = BlockContext(b)
        eng = engines.setdefault(b.e, InductiveEngine(b.e))
        for mu in ctx.members():
            if is_m_increasing(ctx.z_map()[mu], 4):
                eng.column(mu)
    return engines


def test_every_stored_column_carries_its_block_offset():
    stored = 0
    for e, eng in _ac3_engines().items():
        for rep, (lo, col) in eng.cols.items():
            assert lo == _rows_offset(block_of(partition_of(rep), e)), rep
            assert col[rep.mask_over(lo)] == {0: 1}
            stored += 1
    assert stored == 6851


def test_a_k_below_w_step_builds_no_blockid(monkeypatch):
    # a [w:k]-pair is the core tops of s_a(B): only Rouquier bases get a BlockId
    made, stepped, step = [], [], InductiveEngine._step

    def counted_block(*args):
        made.append(BlockId(*args))
        return made[-1]

    def counted_step(self, m, prev, z, pair, blo, lo):
        stepped.append(pair.k)
        return step(self, m, prev, z, pair, blo, lo)

    monkeypatch.setattr(canonical, "BlockId", counted_block)
    monkeypatch.setattr(InductiveEngine, "_step", counted_step)
    for mu in _E10_MUS:
        InductiveEngine(10).column(P(mu))
    assert (len(made), len(stepped)) == (15, 332)
    assert all(is_rouquier(b) for b in made)
