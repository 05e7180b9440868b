import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from focktiles.partitions import EMPTY, Partition, all_partitions, parse_partition
from focktiles.abacus import BlockId, abacus_of, enumerate_block, partition_of, weyl_s
from focktiles.labels import (
    BlockContext,
    _moved,
    hat_z,
    is_hook_quotient,
    is_m_increasing,
    modified_basis,
    movements,
    project,
    succ_geq,
    succ_maximal,
    vec_add,
    vec_sub,
    z_inverse,
    z_label,
)


def test_z_examples():
    assert z_label(parse_partition("5,5,4,2,2,2,1,1"), 4) == (1, 1, 2, 2, 1)
    assert z_label(parse_partition("16,8,1^13"), 10) == (0, 7, 8)
    assert z_label(parse_partition("6,5,4,2,2,2,1"), 4) == (1, 1, 2, 2, 2)
    assert z_label(EMPTY, 3) == ()


def test_movement_invariants():
    for n in range(0, 16):
        for lam in all_partitions(n):
            for e in (2, 3, 4):
                mvs = movements(lam, e)
                a = abacus_of(lam, e)
                assert len(mvs) == sum(a.weight_of(x) for x in a.window)
                keys = [(mv.q, mv.b) for mv in mvs]
                assert keys == sorted(keys)
                for mv in mvs:
                    assert (mv.b - mv.q) % e == 0
                    assert 0 <= (mv.b - mv.q) // e < a.weight_of(mv.b)
                z = z_label(lam, e)
                if z:
                    assert z[-1] != e  # the last movement starts at its bead
                assert all(0 <= t <= e for t in z)


def _movements_reference(lam, e):
    """Position by position: a bead at x with g gaps above it on its runner
    starts movements at x, x - e, ..., x - (g-1)e; ordered by (q, b)."""
    a = abacus_of(lam, e)
    raw = []
    for x in range(a.base, a.max_occupied() + 1):
        if a.occupied(x):
            g = sum(1 for t in range(x - e, a.base - 1, -e) if not a.occupied(t))
            raw.extend((x - i * e, x) for i in range(g))
    raw.sort()
    return [(b, q, k + 1) for k, (q, b) in enumerate(raw)]


def _check_movements_and_z(lam, e):
    ref = _movements_reference(lam, e)
    assert [(mv.b, mv.q, mv.index) for mv in movements(lam, e)] == ref
    # z counts the gaps in (q - e, q], a window that lies above base
    a = abacus_of(lam, e)
    assert all(q >= a.base + e for _, q, _ in ref)
    assert z_label(lam, e) == tuple(
        sum(1 for t in range(q - e + 1, q + 1) if not a.occupied(t)) for _, q, _ in ref
    )


def test_movements_and_z_match_reference():
    for n in range(13):
        for lam in all_partitions(n):
            for e in (2, 3, 4, 5):
                _check_movements_and_z(lam, e)


@given(
    st.lists(st.integers(1, 20), min_size=6, max_size=14).filter(lambda v: sum(v) > 40),
    st.integers(2, 7),
)
@settings(max_examples=60, deadline=None)
def test_movements_and_z_match_reference_large(parts, e):
    _check_movements_and_z(Partition(sorted(parts, reverse=True)), e)


def test_m_increasing():
    assert is_m_increasing((0, 7, 8), 1)
    assert not is_m_increasing((0, 7, 8), 2)
    assert is_m_increasing((1, 5, 9), 4)
    assert is_m_increasing((), 5)


def test_hook_quotient():
    assert is_hook_quotient(parse_partition("7,3,3,2,2,1"), 4)
    assert not is_hook_quotient(parse_partition("7,4,4,1,1,1"), 4)
    # every 1-increasing partition is hook-quotient
    for n in range(0, 16):
        for lam in all_partitions(n):
            for e in (2, 3):
                if is_m_increasing(z_label(lam, e), 1):
                    assert is_hook_quotient(lam, e)


def test_modified_basis_examples():
    mb = modified_basis(parse_partition("16,8,1^13"), 10)
    assert mb == ((1, -1, 0), (0, 1, 0), (0, -1, 1))
    mb = modified_basis(parse_partition("7,3,3,2,2,1"), 4)
    assert mb == ((1, 0, -1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 1))
    with pytest.raises(ValueError):
        modified_basis(parse_partition("7,4,4,1,1,1"), 4)
    # Rouquier 1-increasing: all basis vectors unmodified
    from focktiles.abacus import core_from_levels

    b = BlockId(5, core_from_levels((0, 1, 2, 3, 4), 5), 2)
    hits = 0
    for lam in enumerate_block(b):
        z = z_label(lam, 5)
        if is_m_increasing(z, 1) and is_hook_quotient(lam, 5):
            w = len(z)
            assert modified_basis(lam, 5) == tuple(
                tuple(1 if j == i else 0 for j in range(w)) for i in range(w)
            )
            hits += 1
    assert hits > 0


def test_modified_basis_is_basis_and_bounded():
    # vertices of the anchored parallelotope have coordinates in [-2, 1]
    for n in range(0, 14):
        for lam in all_partitions(n):
            for e in (2, 3):
                if not is_hook_quotient(lam, e):
                    continue
                mb = modified_basis(lam, e)
                w = len(mb)
                for mask in range(1 << w):
                    v = (0,) * w
                    for i in range(w):
                        if mask >> i & 1:
                            v = vec_add(v, mb[i])
                    assert all(-2 <= t <= 1 for t in v)


def test_succ_order():
    lam = parse_partition("7,3,3,2,2,1")
    e = 4
    w = len(movements(lam, e))
    for i in range(1, w + 1):
        assert succ_geq(lam, e, i, i)
    # movements on distinct runners are incomparable
    mvs = movements(lam, e)
    for i in range(1, w + 1):
        for j in range(1, w + 1):
            if mvs[i - 1].q % e != mvs[j - 1].q % e:
                assert not succ_geq(lam, e, i, j)
                assert not succ_geq(lam, e, j, i)
    with pytest.raises(IndexError):
        succ_geq(lam, e, 0, 1)
    assert set(succ_maximal(lam, e, [1, 2, 3, 4])) == {1, 2, 4}


def test_hat_z():
    lam = parse_partition("16,8,1^13")
    mu = parse_partition("17,7,2^4,1^5")
    assert sum(map(abs, vec_sub(hat_z(mu, 10), hat_z(lam, 10)))) == 2
    rng = random.Random(2)
    pool = [p for n in range(0, 16) for p in all_partitions(n)]
    for lam in rng.sample(pool, 100):
        for e in (2, 3):
            assert project(hat_z(lam, e)) == z_label(lam, e)


def _hat_z_reference(lam, e):
    """zhat by its definition: for each pair i < j of movements with
    q_i > q_j - e, or q_i = q_j - e and b_i = b_j, add e_ij and move one
    from coordinate i of z to coordinate j."""
    mvs = movements(lam, e)
    w = len(mvs)
    diag = list(z_label(lam, e))
    upper = []
    for i in range(w):
        for j in range(i + 1, w):
            a, b = mvs[i], mvs[j]
            hit = a.q > b.q - e or (a.q == b.q - e and a.b == b.b)
            if hit:
                diag[i] -= 1
                diag[j] += 1
            upper.append(1 if hit else 0)
    return tuple(diag) + tuple(upper)


def test_hat_z_matches_its_definition():
    for n in range(0, 13):
        for lam in all_partitions(n):
            for e in (2, 3, 4):
                h = hat_z(lam, e)
                assert h == _hat_z_reference(lam, e)
                assert project(h) == z_label(lam, e)


def test_z_inverse_refuses_a_context_of_another_block():
    b = BlockId(4, EMPTY, 2)
    with pytest.raises(ValueError, match="context"):
        z_inverse(b, (1, 2), BlockContext(BlockId(4, parse_partition("2"), 2)))
    lam = z_inverse(b, (1, 2), BlockContext(b))
    assert lam == z_inverse(b, (1, 2)) and z_label(lam, 4) == (1, 2)


def test_z_inverse():
    b = BlockId(4, parse_partition("2"), 5)
    assert z_inverse(b, (1, 1, 2, 2, 2)) == parse_partition("6,5,4,2,2,2,1")
    with pytest.raises(ValueError):
        z_inverse(b, (1, 0, 2, 2, 2))
    with pytest.raises(ValueError):
        z_inverse(b, (1, 1))
    # Rouquier block: label (0^w0,...,(e-1)^w_{e-1}) inverts to column quotients
    from focktiles.abacus import core_from_levels, rouquier_charge
    from focktiles.canonical import shifted_quotient

    rb = BlockId(4, core_from_levels((0, 2, 4, 6), 4), 3)
    c = rouquier_charge(rb)
    lam = z_inverse(rb, (0, 2, 3))
    q = shifted_quotient(lam, 4, c)
    assert [x.parts for x in q] == [(1,), (), (1,), (1,)]
    lam2 = z_inverse(rb, (1, 1, 3))
    q2 = shifted_quotient(lam2, 4, c)
    assert [x.parts for x in q2] == [(), (1, 1), (), (1,)]


def test_goodlabels_bijection():
    for b in [BlockId(4, parse_partition("2"), 2), BlockId(3, EMPTY, 3), BlockId(5, EMPTY, 2)]:
        ctx = BlockContext(b)
        inv = ctx.z_inv()
        assert len(inv) == math.comb(b.e + b.weight - 1, b.weight)
        for z in inv:
            assert all(0 <= t <= b.e - 1 for t in z)


def test_z_constant_on_weyl_orbits():
    rng = random.Random(9)
    b = BlockId(4, parse_partition("2"), 2)
    ctx = BlockContext(b)
    for lam, z in ctx.z_map().items():
        if not is_m_increasing(z, 0):
            continue
        a = abacus_of(lam, b.e)
        for _ in range(3):
            word = [rng.randrange(b.e) for _ in range(rng.randrange(1, 8))]
            cur = a
            for i in word:
                cur = weyl_s(cur, i)
            assert z_label(partition_of(cur), b.e) == z


def test_nearly_triangular_family_e2():
    def fam(m, s, t, j):
        parts = [x for x in range(m, 0, -1) if x not in (s, t)] + [1] * (2 * j)
        return Partition(parts)

    from focktiles.abacus import weight_of

    for m in range(2, 8):
        for s in range(1, m + 1):
            for t in range(1, s):
                for j in range(0, 3):
                    lam = fam(m, s, t, j)
                    w = weight_of(lam, 2)
                    assert z_label(lam, 2) == tuple([0] * j + [1] * (w - j))


def test_principal_block_nu_w():
    for e in (4, 5, 6):
        for wv in range(1, 7):
            n = 1
            while n * (n + 1) // 2 < wv:
                n += 1
            if e < n:
                continue
            r = n * (n + 1) // 2 - wv
            parts = [k * e - r for k in range(n, r, -1)]
            parts += [k * e + n - r for k in range(r - 1, -1, -1)]
            nu = Partition(sorted((p for p in parts if p > 0), reverse=True))
            assert z_label(nu, e) == (e - 1,) * wv


def _has_disallowed_pattern(lam, e, a):
    ab = abacus_of(lam, e)
    starts = {mv.q for mv in movements(lam, e)}
    for q in range(ab.base, ab.max_occupied() + e + 1):
        if q % e == a % e and ab.occupied(q) and not ab.occupied(q - e) and (q - 1) in starts:
            return True
    return False


def test_z_unchanged_without_disallowed_pattern():
    from focktiles.partitions import all_partitions

    for n in range(0, 14):
        for lam in all_partitions(n):
            for e in (2, 3):
                for a in range(e):
                    lt = partition_of(weyl_s(abacus_of(lam, e), a))
                    if not _has_disallowed_pattern(lam, e, a):
                        assert z_label(lt, e) == z_label(lam, e)
    # and the paper's counterexample where the pattern is present
    lam = Partition((5, 3, 3))
    assert _has_disallowed_pattern(lam, 3, 1)
    assert z_label(lam, 3) != z_label(partition_of(weyl_s(abacus_of(lam, 3), 1)), 3)


def test_bead_movement_bijection_shifts():
    from focktiles.partitions import all_partitions

    for n in range(0, 13):
        for lam in all_partitions(n):
            for e in (2, 3):
                for a in range(e):
                    lt = partition_of(weyl_s(abacus_of(lam, e), a))
                    A0 = movements(lam, e)
                    A1 = movements(lt, e)
                    assert len(A0) == len(A1)
                    off0 = sorted(mv.q for mv in A0 if mv.q % e not in (a % e, (a - 1) % e))
                    off1 = sorted(mv.q for mv in A1 if mv.q % e not in (a % e, (a - 1) % e))
                    assert off0 == off1
                    for (q0, _), (q1, _) in zip(
                        sorted((mv.q, mv.b) for mv in A0), sorted((mv.q, mv.b) for mv in A1)
                    ):
                        if q0 % e == a % e:
                            assert q1 in (q0, q0 - 1)
                        elif q0 % e == (a - 1) % e:
                            assert q1 in (q0, q0 + 1)
                        else:
                            assert q1 == q0


def _chains_reference(mvs, e):
    """The runner chains built with one scan of all movements per runner."""
    chains = {}
    for runner in range(e):
        idx = tuple(mv.index for mv in mvs if mv.q % e == runner)
        if idx:
            bottom = mvs[idx[-1] - 1].b
            chains[runner] = (idx, next(s for s, i in enumerate(idx) if mvs[i - 1].b == bottom))
    return chains


def test_runner_chains_match_the_per_runner_scan():
    # one pass groups the movements by runner; chains, their order and
    # their pivots are those of the O(e w) scan
    seen = 0
    for n in range(13):
        for lam in all_partitions(n):
            for e in range(2, 8):
                f = _moved(lam, e)
                assert list(f.chains.items()) == list(_chains_reference(f.movements, e).items()), (lam, e)
                seen += len(f.chains) > 1
    assert seen > 0
