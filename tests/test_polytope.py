import json
import time
import tracemalloc
from collections import Counter

import pytest

from focktiles.partitions import EMPTY, parse_partition
from focktiles import polytope
from focktiles.abacus import BlockId, block_of, facts
from focktiles.labels import BlockContext, hat_z, is_hook_quotient, is_m_increasing, project, vec_sub, z_inverse, z_label
from focktiles.laurent import LaurentPoly
from focktiles.polytope import (
    Parallelotope,
    build_tiling,
    check_common_faces,
    check_cube_injectivity,
    check_discrete_union,
    d_closed,
    d_closed_for,
    export_tiling,
    ext_adjacency,
    hypercube_of,
    m_increasing_box,
    parallelotope_of,
    pi_membership,
)
from focktiles.canonical import rouquier_d
from focktiles.verify import ac3_blocks


q = LaurentPoly.monomial
P = parse_partition


# -- the two closed routes, pair by pair: the reference for `d_closed` --------


def _cube_value(lam, mu, e):
    """The hypercube route: q^|zhat(mu) - zhat(lam)| when zhat(mu) is a
    vertex of C(lam), else 0.

    Every generator of C(lam) is one signed unit vector, and no two share a
    coordinate.  So zhat(mu) is a vertex exactly when every nonzero
    coordinate of zhat(mu) - zhat(lam) is that of a generator, with its
    sign, and the box distance is the number of such coordinates.
    """
    sign = polytope._cube_signs(lam, e)
    d = vec_sub(hat_z(mu, e), hat_z(lam, e))
    if all(sign.get(k) == c for k, c in enumerate(d) if c):
        return q(sum(1 for c in d if c))
    return LaurentPoly.zero()


def _pi_route(lam, mu, e):
    """The parallelotope route for hook-quotient lam in the block of mu:
    q^|Gamma| when z(mu) = z(lam) + eps_Gamma, else 0."""
    gamma = pi_membership(lam, z_label(mu, e), e)
    return LaurentPoly.zero() if gamma is None else q(len(gamma))


def _d_closed_reference(lam, mu, e):
    """d_closed pair by pair through the public lookups: 0 off mu's block
    or for lam not hook-quotient, else the parallelotope route, which the
    hypercube route must equal when mu is 4-increasing."""
    if block_of(lam, e) != block_of(mu, e) or not is_hook_quotient(lam, e):
        return LaurentPoly.zero()
    value = _pi_route(lam, mu, e)
    if is_m_increasing(z_label(mu, e), 4):
        assert _cube_value(lam, mu, e) == value, (lam, mu, e)
    return value


def test_pi_membership_examples():
    lam = P("16,8,1^13")
    assert pi_membership(lam, (1, 5, 9), 10) == frozenset({1, 3})
    assert pi_membership(lam, z_label(lam, 10), 10) == frozenset()
    assert pi_membership(P("3,2"), (2, 0), 2) == frozenset({1})
    assert pi_membership(lam, (9, 9, 9), 10) is None
    with pytest.raises(ValueError):
        pi_membership(P("7,4,4,1,1,1"), (1, 1, 2, 3), 4)


def test_parallelotope_vertices():
    pi = parallelotope_of(P("3,2"), 2)
    assert set(pi.vertices()) == {(1, 1), (1, 2), (2, 0), (2, 1)}
    cube = hypercube_of(P("3,2"), 2)
    assert len(set(cube.vertices())) == 4
    projected = {project(v) for v in cube.vertices()}
    assert projected == set(pi.vertices())


def test_d_closed_examples():
    lam, mu = P("16,8,1^13"), P("17,7,2^4,1^5")
    assert d_closed(lam, mu, 10) == q(2)
    assert d_closed(lam, lam, 10) == LaurentPoly.one()
    assert d_closed(P("4,1"), mu, 10) == LaurentPoly.zero()  # different block
    # non-hook-quotient lambda contributes zero
    assert d_closed(P("7,4,4,1,1,1"), P("10,4,2,1,1"), 4) == LaurentPoly.zero()


def test_d_closed_outside_hypotheses():
    # mu = (5) at e = 2 is not 0-increasing: the raw formula value is q^2
    # even though the true decomposition number vanishes.
    lam, mu = P("3,2"), P("5")
    assert not is_m_increasing(z_label(mu, 2), 4)
    assert pi_membership(lam, z_label(mu, 2), 2) == frozenset({1, 2})
    assert _pi_route(lam, mu, 2) == q(2)
    assert rouquier_d(lam, mu, block_of(mu, 2)) == LaurentPoly.zero()


def test_tiling_figures():
    t2 = build_tiling(BlockId(17, P("5,3,1"), 2))
    assert len(t2.generic_cells()) == (17 - 10) * (17 - 11) // 2
    t3 = build_tiling(BlockId(25, P("15,1^14"), 3))
    g3 = t3.generic_cells()
    assert len(g3) == 20
    assert len(t3.generator_classes()) == 7
    t0 = build_tiling(BlockId(5, P("3,1"), 0))
    assert t0.cells != [] and len(t0.cells) == 1
    assert t0.cells[0][1].vertices() == [()]


def _m_increasing_box_reference(w, m, upper):
    """Reference: the m-increasing vectors by recursion on the prefix."""
    out = []

    def rec(prefix):
        if len(prefix) == w:
            out.append(tuple(prefix))
            return
        lo = prefix[-1] + m if prefix else 0
        for v in range(max(lo, 0), upper + 1):
            prefix.append(v)
            rec(prefix)
            prefix.pop()

    rec([])
    return out


def test_tiling_laws_small():
    for b in [BlockId(6, EMPTY, 2), BlockId(5, P("1"), 2), BlockId(9, EMPTY, 3)]:
        t = build_tiling(b)
        assert check_discrete_union(t)
        assert check_cube_injectivity(t)
        assert check_common_faces(t)
    # the box the union is checked against, in the same order
    for w in range(5):
        for m in range(6):
            for upper in range(13):
                assert m_increasing_box(w, m, upper) == _m_increasing_box_reference(w, m, upper)
    with pytest.raises(ValueError):
        m_increasing_box(2, -1, 4)


def test_build_tiling_refuses_a_context_of_another_block():
    with pytest.raises(ValueError, match="context"):
        build_tiling(BlockId(6, EMPTY, 2), ctx=BlockContext(BlockId(6, EMPTY, 1)))


def test_ext_adjacency_refuses_a_context_of_another_block():
    with pytest.raises(ValueError, match="context"):
        ext_adjacency(BlockId(11, EMPTY, 2), BlockContext(BlockId(11, EMPTY, 1)))


def test_ext_adjacency():
    b = BlockId(11, EMPTY, 2)
    ctx = BlockContext(b)
    pairs = ext_adjacency(b, ctx)
    assert pairs
    pairset = {frozenset((x, y)) for x, y in pairs}
    # pairs (lam, lam_H) with both 4-increasing are adjacent
    from focktiles.beadops import lambda_of_hook
    from focktiles.labels import hooks_e, is_hook_quotient

    from focktiles.beadops import MoveError

    found = 0
    for lam in ctx.members():
        if not is_hook_quotient(lam, b.e):
            continue
        if not is_m_increasing(ctx.z_map()[lam], 4):
            continue
        for h in hooks_e(lam, b.e):
            try:
                out = lambda_of_hook(lam, h, b.e)
            except MoveError:
                continue
            if is_m_increasing(z_label(out, b.e), 4):
                assert frozenset((lam, out)) in pairset
                found += 1
    assert found > 0
    # the e=10 pair sits at distance two, hence is not adjacent
    b10 = block_of(P("16,8,1^13"), 10)
    pairs10 = ext_adjacency(b10)
    assert frozenset((P("16,8,1^13"), P("17,7,2^4,1^5"))) not in {
        frozenset(p) for p in pairs10
    }
    assert ext_adjacency(BlockId(5, P("3,1"), 0)) == []


def test_export_tiling():
    t = build_tiling(BlockId(6, EMPTY, 2))
    blob = export_tiling(t, "json")
    assert blob == export_tiling(t, "json")  # deterministic
    doc = json.loads(blob.decode())
    assert doc["e"] == 6 and doc["weight"] == 2
    assert len(doc["cells"]) == len(t.cells)
    cell = doc["cells"][0]
    assert set(cell) == {"owner", "anchor", "generators", "hat_anchor"}
    svg = export_tiling(t, "svg").decode()
    assert svg.startswith("<svg")  # no generic cells at e=6, so no polygons
    big = build_tiling(BlockId(17, P("5,3,1"), 2))
    svg21 = export_tiling(big, "svg").decode()
    assert svg21.count("<polygon") == 21
    t3 = build_tiling(BlockId(5, EMPTY, 3))
    with pytest.raises(ValueError):
        export_tiling(t3, "svg")
    with pytest.raises(ValueError):
        export_tiling(t, "png")
    empty = build_tiling(BlockId(4, P("2"), 0))
    json.loads(export_tiling(empty, "json").decode())


def test_parallelotopes_versus_cubes():
    # for 4-increasing mu in Pi(lam): zhat(mu) = zhat(lam) + lifted eps_Gamma
    # and the box distance equals |Gamma|
    from focktiles.labels import hat_z, is_hook_quotient, lift, modified_basis, vec_add, vec_sub

    for b in [BlockId(9, EMPTY, 2), BlockId(10, P("1"), 2), BlockId(12, EMPTY, 3)]:
        ctx = BlockContext(b)
        e = b.e
        four = [mu for mu in ctx.members() if is_m_increasing(ctx.z_map()[mu], 4)]
        for lam in ctx.members():
            if not is_hook_quotient(lam, e):
                continue
            mb = modified_basis(lam, e)
            hl = hat_z(lam, e)
            for mu in four:
                gamma = pi_membership(lam, ctx.z_map()[mu], e)
                if gamma is None:
                    continue
                vertex = hl
                for i in sorted(gamma):
                    vertex = vec_add(vertex, lift(mb[i - 1]))
                hm = hat_z(mu, e)
                assert hm == vertex
                assert sum(map(abs, vec_sub(hm, hl))) == len(gamma)


def test_shift_by_three():
    # if z(mu) lies in Pi(lam) and one of them is m-increasing, the other is
    # (m-3)-increasing
    from focktiles.labels import is_hook_quotient

    b = BlockId(9, EMPTY, 2)
    ctx = BlockContext(b)
    for lam in ctx.members():
        if not is_hook_quotient(lam, b.e):
            continue
        zl = ctx.z_map()[lam]
        for mu in ctx.members():
            zm = ctx.z_map()[mu]
            if pi_membership(lam, zm, b.e) is None:
                continue
            for m in range(0, 8):
                if is_m_increasing(zm, m):
                    assert is_m_increasing(zl, m - 3)
                if is_m_increasing(zl, m):
                    assert is_m_increasing(zm, m - 3)


def test_cube_coordinates_agree_with_the_vertex_list():
    # the hypercube route tests coordinates; the 2^w vertex list of C(lam)
    # is the reference, on every (hook-quotient lam, 4-increasing mu) pair
    from focktiles.labels import hat_z, is_hook_quotient, vec_sub

    pairs = accepted = 0
    for b in ac3_blocks() + [BlockId(12, EMPTY, 3)]:
        ctx = BlockContext(b)
        e = b.e
        four = [mu for mu in ctx.members() if is_m_increasing(ctx.z_map()[mu], 4)]
        for lam in ctx.members():
            if not is_hook_quotient(lam, e):
                continue
            verts = set(hypercube_of(lam, e).vertices())
            for mu in four:
                hm = hat_z(mu, e)
                want = LaurentPoly.zero()
                if hm in verts:
                    want = q(sum(map(abs, vec_sub(hm, hat_z(lam, e)))))
                    accepted += 1
                assert _cube_value(lam, mu, e) == want, (lam, mu, b)
                pairs += 1
    assert 0 < accepted < pairs


def test_cube_signs_are_built_once_per_lambda(monkeypatch):
    # d_closed reads the signed units of C(lam) from lam's facts record, so
    # a column sweep builds each hypercube once, not once per pair
    calls = Counter()
    real = polytope.hypercube_of
    monkeypatch.setattr(polytope, "hypercube_of", lambda lam, e: calls.update([lam]) or real(lam, e))
    b = BlockId(10, EMPTY, 2)
    ctx = BlockContext(b)
    four = [mu for mu in ctx.members() if is_m_increasing(ctx.z_map()[mu], 4)]
    facts.cache_clear()
    for mu in four:
        for lam in ctx.members():
            d_closed(lam, mu, b.e)
    assert len(four) > 1 and set(calls) == set(ctx.members()) and set(calls.values()) == {1}


def test_cube_signs_refuse_generators_that_share_a_coordinate(monkeypatch):
    lam, mu, e = P("16,8,1^13"), P("17,7,2^4,1^5"), 10
    cube = hypercube_of(lam, e)
    bad = Parallelotope(cube.anchor, (cube.generators[0],) * len(cube.generators))
    monkeypatch.setattr(polytope, "hypercube_of", lambda lam, e: bad)
    facts.cache_clear()
    with pytest.raises(AssertionError, match="distinct signed unit vectors"):
        _cube_value(lam, mu, e)
    # the refused map is not kept
    assert facts(lam, e).cube_signs is None


def test_d_closed_at_high_weight():
    # w = 24 at e = 8w + 2: lam has a single box on every seventh runner,
    # so z(lam) = (w-1, w+4, ...) and mu = lam + eps_Gamma is 4-increasing.
    # C(lam) has 2^24 vertices; the coordinate test never lists them.
    from focktiles.abacus import _from_tops, facts
    from focktiles.beadops import move_along
    from focktiles.labels import is_hook_quotient
    from focktiles.partitions import Partition

    w = 24
    e = 8 * w + 2
    quot = [EMPTY] * e
    for i in range(w):
        quot[7 * i] = Partition((1,))
    lam = _from_tops(tuple(range(e)), tuple(quot))  # every core runner at level 0
    gamma = range(1, w + 1, 2)
    mu = move_along(lam, gamma, e)
    assert is_hook_quotient(lam, e) and is_m_increasing(z_label(mu, e), 4)
    facts.cache_clear()
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        value = d_closed(lam, mu, e)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == q(len(gamma))
    assert elapsed < 1.0 and peak < 50 * 2**20


def test_d_closed_equals_the_two_route_reference():
    # every pair of each block, and each member against a partition of
    # another block; the reference reads every fact through its own lookup
    pairs = four = 0
    for b in ac3_blocks() + [BlockId(12, EMPTY, 3)]:
        ctx = BlockContext(b)
        e, members = b.e, ctx.members()
        other = P("1") if b.core != P("1") else P("2")
        for mu in members:
            four += is_m_increasing(ctx.z_map()[mu], 4)
            for lam in members:
                assert d_closed(lam, mu, e) == _d_closed_reference(lam, mu, e), (lam, mu, b)
            assert d_closed(other, mu, e) == d_closed(mu, other, e) == LaurentPoly.zero()
            pairs += len(members)
    assert pairs == 1158610 and four > 0


def test_d_closed_is_zero_off_the_block_at_equal_weight():
    # lam of another block with mu's weight and z-label: Pi(lam) holds z(mu),
    # so only the core test tells the blocks apart
    e = 10
    ctx = BlockContext(BlockId(e, EMPTY, 2))
    other = BlockId(e, P("1"), 2)
    checked = 0
    for mu in ctx.members():
        z = ctx.z_map()[mu]
        if not is_m_increasing(z, 4):
            continue
        lam = z_inverse(other, z)
        if is_hook_quotient(lam, e) and pi_membership(lam, z, e) is not None:
            assert d_closed(lam, mu, e) == d_closed_for(mu, e)(lam) == LaurentPoly.zero(), (lam, mu)
            checked += 1
    assert checked > 0


def test_d_closed_compares_the_routes_on_every_four_increasing_pair(monkeypatch):
    # with every generator of C(lam) negated (still distinct signed units),
    # the hypercube route misses each vertex zhat(mu) != zhat(lam), so
    # d_closed must refuse every such pair whose mu is 4-increasing, and
    # answer the parallelotope route on the others
    real = polytope.hypercube_of

    def negated(lam, e):
        cube = real(lam, e)
        return Parallelotope(cube.anchor, tuple(tuple(-c for c in g) for g in cube.generators))

    b = BlockId(12, EMPTY, 3)
    ctx = BlockContext(b)
    e = b.e
    refused = answered = 0
    facts.cache_clear()
    monkeypatch.setattr(polytope, "hypercube_of", negated)
    try:
        for mu in ctx.members():
            four = is_m_increasing(ctx.z_map()[mu], 4)
            for lam in ctx.members():
                gamma = pi_membership(lam, ctx.z_map()[mu], e) if is_hook_quotient(lam, e) else None
                if four and gamma:
                    with pytest.raises(AssertionError, match="routes disagree"):
                        d_closed(lam, mu, e)
                    refused += 1
                elif gamma is not None:
                    assert d_closed(lam, mu, e) == q(len(gamma))
                    answered += 1
    finally:
        facts.cache_clear()  # no record keeps a negated sign map
    assert refused > 0 and answered > refused
