import random

import pytest
from hypothesis import given, settings, strategies as st

from focktiles.partitions import EMPTY, Partition, all_partitions, conjugate, parse_partition
import focktiles.abacus as abacus_module
from focktiles.abacus import (
    Abacus,
    BlockId,
    _from_tops,
    _interleave,
    _matched_signature,
    _partition_of_bits,
    _reflect,
    _runner,
    _runner_tops,
    abacus_of,
    add_full_runner,
    block_of,
    core_from_levels,
    core_inversions,
    core_of,
    core_quotient_weight,
    core_reflection_counts,
    core_tops,
    crystal_E,
    crystal_F,
    crystal_string,
    enumerate_block,
    is_core,
    is_rouquier,
    mask_of,
    partition_of,
    partition_of_mask,
    quotient_of,
    rouquier_charge,
    scopes_chain_blocks,
    weight_of,
    weyl_s,
)
from focktiles.labels import is_hook_quotient, z_label


parts_strategy = st.integers(0, 16).flatmap(
    lambda n: st.sampled_from(all_partitions(n) or [EMPTY])
)


@given(parts_strategy, st.integers(2, 7))
@settings(max_examples=150, deadline=None)
def test_roundtrip(lam, e):
    a = abacus_of(lam, e)
    assert partition_of(a) == lam
    core, quot, w = core_quotient_weight(a)
    assert lam.size == core.size + e * w
    assert w == sum(q.size for q in quot)
    # per-bead reference: a bead's part is the number of gaps above it
    for r in range(e):
        wts = [a.weight_of(x) for x in reversed(a.window) if x % e == r]
        assert quot[r] == Partition([x for x in wts if x])


def test_beta_conjugation_convention():
    # x in beta(lam') iff -1-x not in beta(lam)
    for n in range(0, 13):
        for lam in all_partitions(n):
            a = abacus_of(lam, 3)
            ac = abacus_of(conjugate(lam), 3)
            for x in range(-n - 4, n + 4):
                assert ac.occupied(x) == (not a.occupied(-1 - x))


def test_core_quotient_examples():
    lam = parse_partition("5,5,4,2,2,2,1,1")
    core, quot, w = core_quotient_weight(abacus_of(lam, 4))
    assert core == parse_partition("2") and w == 5
    assert quotient_of(parse_partition("7,3,3,2,2,1"), 4) == (
        parse_partition("1"), EMPTY, parse_partition("2,1"), EMPTY)
    kappa = parse_partition("2,1")
    assert core_quotient_weight(abacus_of(kappa, 2)) == (kappa, (EMPTY,) * 2, 0)


def _core_from_tops_reference(tops, e):
    """The core as the union of its runners, each the runner mask of its
    bits below its top (a repunit division per runner)."""
    lo = min(tops) - e + 1
    m = 0
    for r, x in enumerate(tops):
        m |= _runner(r, e, lo, x - lo + 1)
    return partition_of_mask(m)


def _from_levels(levels, quot):
    """Reference runner builder on levels: the partition whose runner r holds
    quot[r] below the top of a core runner at level levels[r], as the beta-set
    of quot[r] in charge levels[r] + 1, every runner starting at level k0."""
    k0 = min(lv + 1 - len(nu) for lv, nu in zip(levels, quot))
    runners = [bin(mask_of(nu, k0 - lv - 1))[:1:-1] for lv, nu in zip(levels, quot)]
    return _partition_of_bits(_interleave(runners))


def _core(tops):
    """The core with the given runner tops."""
    return _from_tops(tops, (EMPTY,) * len(tops))


def test_core_from_tops_matches_runner_masks():
    for e in range(2, 9):
        for n in range(16):
            for lam in all_partitions(n):
                tops = _runner_tops(abacus_of(lam, e).runner_slices(), e)
                assert _core(tops) == _core_from_tops_reference(tops, e), (lam, e)
    rng = random.Random(7)
    for _ in range(3000):
        e = rng.randint(2, 30)
        tops = [r + e * rng.randint(-6, 6) for r in range(e)]
        core = _core(tops)
        assert core == _core_from_tops_reference(tops, e), tops
        assert core == _from_levels([x // e for x in tops], (EMPTY,) * e), tops


def test_is_core_reads_the_mask():
    for e in range(2, 8):
        for n in range(15):
            for lam in all_partitions(n):
                assert is_core(lam, e) == (weight_of(lam, e) == 0), (lam, e)
    with pytest.raises(ValueError, match="core"):
        BlockId(3, parse_partition("3"), 1)


def test_abacus_examples():
    a = abacus_of(Partition((1,)), 2)
    assert a.occupied(0) and not a.occupied(-1) and a.occupied(-2)
    a = abacus_of(EMPTY, 3)
    assert not a.occupied(0) and a.occupied(-1)
    a = abacus_of(parse_partition("5,3,3"), 3)
    assert sorted(x for x in range(-3, 7) if a.occupied(x)) == [0, 1, 4]


class _BeadSet:
    """Plain model of a beta-set: every position below low is occupied, and
    so are exactly the positions of occ at or above low."""

    def __init__(self, e, occ, low):
        self.e, self.low = e, low
        self.occ = {x for x in occ if x >= low}

    def occupied(self, x):
        return x < self.low or x in self.occ

    def base(self):
        x = self.low
        while x in self.occ:
            x += 1
        return x

    def runner_positions(self, r):
        return tuple(sorted(x for x in self.occ if x >= self.base() and x % self.e == r % self.e))

    def weight_of(self, b):
        return sum(1 for t in range(b - self.e, self.low - 1, -self.e) if not self.occupied(t))

    def prev_gap(self, x):
        for t in range(x - self.e, self.low - 1, -self.e):
            if not self.occupied(t):
                return t
        return None

    def parts(self):
        return sorted((sum(1 for t in range(self.low, x) if t not in self.occ) for x in self.occ),
                      reverse=True)


def _from_occupied(e, occupied, low):
    """The abacus whose beads at or above low are the positions of occupied;
    every position below low is a bead."""
    return Abacus(e, low, sum(1 << (x - low) for x in set(occupied) if x >= low))


@st.composite
def _bead_sets(draw):
    e = draw(st.integers(2, 6))
    low = draw(st.integers(-20, 5))
    occ = draw(st.sets(st.integers(0, 40))).union(range(draw(st.integers(0, 4))))
    return _BeadSet(e, {low + x for x in occ}, low)


@given(_bead_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_abacus_matches_bead_set_model(model, data):
    e, low = model.e, model.low
    a = _from_occupied(e, model.occ, low)
    span = range(low - 2 * e, low + 45 + 2 * e)
    assert a.base == model.base()
    assert a.window == tuple(sorted(x for x in model.occ if x >= a.base))
    assert all(a.occupied(x) == model.occupied(x) for x in span)
    assert a.max_occupied() == max(model.occ | {low - 1})
    assert partition_of(a) == Partition(model.parts())
    for r, (first, bits) in enumerate(a.runner_slices()):
        assert first % e == r % e and a.base <= first < a.base + e
        beads = tuple(first + j * e for j, bit in enumerate(bits) if bit == "1")
        assert beads == model.runner_positions(r)
    for x in span:
        if model.occupied(x) and x >= low:
            assert a.weight_of(x) == model.weight_of(x)
        gap = model.prev_gap(x)
        if gap is None:
            with pytest.raises(ValueError):
                a.prev_gap(x)
        else:
            assert a.prev_gap(x) == gap
    # the same beta-set over a lower offset normalizes to the same abacus
    d = data.draw(st.integers(1, 12))
    b = _from_occupied(e, model.occ | set(range(low - d, low)), low - d)
    assert b == a and hash(b) == hash(a)
    c = data.draw(st.integers(-7, 7))
    shifted = _from_occupied(e, {x + c for x in model.occ}, low + c)
    by_c = Abacus(e, a.base + c, a.mask)  # every position shifted by c
    assert by_c == shifted and hash(by_c) == hash(shifted)
    # simultaneous moves: beads to gaps, anywhere in the span
    beads = [x for x in span if model.occupied(x)]
    gaps = [x for x in span if not model.occupied(x)]
    k = data.draw(st.integers(1, 3))
    xs = data.draw(st.lists(st.sampled_from(beads), min_size=k, max_size=k, unique=True))
    ys = data.draw(st.lists(st.sampled_from(gaps), min_size=k, max_size=k, unique=True))
    lower = span[0]
    moved = (model.occ | set(range(lower, low))) - set(xs) | set(ys)
    assert a.move_beads(list(zip(xs, ys))) == _from_occupied(e, moved, lower)
    with pytest.raises(ValueError):
        a.move_beads([(ys[0], xs[0])])


def test_enumerate_block_counts():
    assert len(enumerate_block(BlockId(5, EMPTY, 2))) == 20
    assert len(enumerate_block(BlockId(3, Partition((1,)), 3))) == 22
    assert enumerate_block(BlockId(4, parse_partition("2"), 0)) == [parse_partition("2")]
    with pytest.raises(ValueError):
        BlockId(3, Partition((3,)), 1)  # (3) is not a 3-core


def _multipartitions(w, e):
    """Every e-tuple of partitions of total size w."""
    if e == 1:
        return [(p,) for p in all_partitions(w)]
    return [
        (p,) + rest
        for k in range(w + 1)
        for p in all_partitions(k)
        for rest in _multipartitions(w - k, e - 1)
    ]


def test_enumerate_block_is_bijective():
    rng = random.Random(17)
    blocks = [BlockId(3, EMPTY, 3), BlockId(4, parse_partition("2"), 2)]
    for _ in range(30):
        e = rng.randint(2, 6)
        cores = [lam for n in range(11) for lam in all_partitions(n) if weight_of(lam, e) == 0]
        blocks.append(BlockId(e, rng.choice(cores), rng.randint(0, 3)))
    for b in blocks:
        members = enumerate_block(b)
        assert len(set(members)) == len(members)
        quots = [quotient_of(lam, b.e) for lam in members]
        tops = core_tops(b.core, b.e)
        for lam, quot in zip(members, quots):
            assert block_of(lam, b.e) == b
            assert _from_tops(tops, quot) == _from_levels([x // b.e for x in tops], quot) == lam
        want = _multipartitions(b.weight, b.e)
        assert len(quots) == len(want) and set(quots) == set(want)


def test_crystal_operators():
    assert crystal_E(abacus_of(EMPTY, 3), 0) is None
    out = crystal_E(abacus_of(Partition((1,)), 2), 0)
    assert partition_of(out) == EMPTY
    # repeated application strictly decreases the size by one
    lam = parse_partition("4,3,1")
    a = abacus_of(lam, 3)
    for i in range(3):
        nxt = crystal_E(a, i)
        if nxt is not None:
            assert partition_of(nxt).size == partition_of(a).size - 1
    # E and F are mutually inverse along strings
    for n in range(0, 10):
        for lam in all_partitions(n):
            a = abacus_of(lam, 3)
            for i in range(3):
                up = crystal_F(a, i)
                if up is not None:
                    assert partition_of(crystal_E(up, i)) == lam
                down = crystal_E(a, i)
                if down is not None:
                    assert partition_of(crystal_F(down, i)) == lam


def _crystal_step(a, i, up):
    """One Ftilde_i (up) or Etilde_i from a fresh signature; None when the
    string is empty."""
    normals, slots = _matched_signature(a.mask, a.base, a.e, i)
    if up:
        return a.move_bead(slots[-1] - 1, slots[-1]) if slots else None
    return a.move_bead(normals[0], normals[0] - 1) if normals else None


@given(st.integers(2, 6), st.integers(-8, 8), st.integers(0, (1 << 30) - 1), st.data())
@settings(max_examples=300, deadline=None)
def test_crystal_string_is_single_steps(e, base, mask, data):
    a = Abacus(e, base, mask)
    i = data.draw(st.integers(0, e - 1))
    k = data.draw(st.integers(-6, 6))
    want = a
    for _ in range(abs(k)):
        want = _crystal_step(want, i, k < 0)
        if want is None:
            break
    assert crystal_string(a, i, k) == want
    assert crystal_string(a, i + e, k) == want


def test_weyl_action():
    assert partition_of(weyl_s(abacus_of(parse_partition("5,3,3"), 3), 1)) == parse_partition("4,3,3")
    rng = random.Random(11)
    for n in range(0, 12):
        for lam in all_partitions(n)[:6]:
            for e in (2, 3, 4):
                a = abacus_of(lam, e)
                for i in range(e):
                    b = weyl_s(a, i)
                    assert partition_of(weyl_s(b, i)) == lam  # involution
                    assert weight_of(partition_of(b), e) == weight_of(lam, e)
                    assert core_of(partition_of(b), e) == partition_of(
                        weyl_s(abacus_of(core_of(lam, e), e), i)
                    )


def _weyl_s_reference(a, i):
    """s_i as k single crystal steps, k read off the core's runner tops."""
    k_rem, k_add = core_reflection_counts(core_tops(core_of(partition_of(a), a.e), a.e), i)
    op = crystal_E if k_rem else crystal_F
    for _ in range(k_rem or k_add):
        a = op(a, i)
    return a


def test_weyl_s_matches_crystal_steps():
    for e in (2, 3, 4, 5):
        for n in range(0, 11):
            for lam in all_partitions(n):
                a = abacus_of(lam, e)
                for i in range(e):
                    assert partition_of(weyl_s(a, i)) == partition_of(_weyl_s_reference(a, i))


large_parts = st.lists(st.integers(1, 20), min_size=6, max_size=14).filter(lambda v: sum(v) > 40)


@given(large_parts, st.integers(2, 7))
@settings(max_examples=60, deadline=None)
def test_weyl_s_matches_crystal_steps_large(parts, e):
    a = abacus_of(Partition(sorted(parts, reverse=True)), e)
    for i in range(e):
        assert partition_of(weyl_s(a, i)) == partition_of(_weyl_s_reference(a, i))


def test_weyl_braid_relations():
    rng = random.Random(5)
    for e in (3, 4, 5):
        pool = [p for n in range(10) for p in all_partitions(n)]
        for lam in rng.sample(pool, 12):
            a = abacus_of(lam, e)
            for i in range(e):
                for j in range(e):
                    if i == j:
                        continue
                    adjacent = (i - j) % e in (1, e - 1) and e > 2
                    si_sj = weyl_s(weyl_s(a, i), j)
                    sj_si = weyl_s(weyl_s(a, j), i)
                    if not adjacent or e == 2:
                        if (i - j) % e not in (1, e - 1):
                            assert si_sj == sj_si
                    else:
                        lhs = weyl_s(si_sj, i)
                        rhs = weyl_s(sj_si, j)
                        assert lhs == rhs


def _add_full_runner_reference(lam, e):
    """Position by position: r(e+1)+s is a bead of lam+ iff s < e and
    (r+n)e+s is a bead of lam, or s = e and r < ne (n = |lam|); below
    level -n - len(lam) - 1 every position is a bead."""
    n = lam.size
    a = abacus_of(lam, e)
    r_lo = -n - len(lam.parts) - 1
    occ = set()
    for r in range(r_lo, n * e + 1):
        for s in range(e):
            if a.occupied((r + n) * e + s):
                occ.add(r * (e + 1) + s)
        if r < n * e:
            occ.add(r * (e + 1) + e)
    return partition_of(_from_occupied(e + 1, occ, r_lo * (e + 1)))


@given(large_parts, st.integers(2, 7))
@settings(max_examples=40, deadline=None)
def test_add_full_runner_matches_reference_large(parts, e):
    lam = Partition(sorted(parts, reverse=True))
    assert add_full_runner(lam, e) == _add_full_runner_reference(lam, e)


def test_add_full_runner():
    for n in range(13):
        for lam in all_partitions(n):
            for e in (2, 3, 4, 5):
                assert add_full_runner(lam, e) == _add_full_runner_reference(lam, e)
    lam = parse_partition("5,5,4,2,2,2,1,1")
    lamp = add_full_runner(lam, 4)
    assert z_label(lamp, 5) == z_label(lam, 4)
    assert weight_of(lamp, 5) == weight_of(lam, 4)
    assert add_full_runner(EMPTY, 3) == EMPTY
    rng = random.Random(1)
    pool = [p for n in range(0, 15) for p in all_partitions(n)]
    for lam in rng.sample(pool, 50):
        for e in (2, 3):
            lamp = add_full_runner(lam, e)
            assert weight_of(lamp, e + 1) == weight_of(lam, e)
            assert z_label(lamp, e + 1) == z_label(lam, e)
            assert is_hook_quotient(lamp, e + 1) == is_hook_quotient(lam, e)


def test_conjugate_quotient_compatibility():
    for n in range(0, 15):
        for lam in all_partitions(n):
            for e in (2, 3):
                q = quotient_of(lam, e)
                qc = quotient_of(conjugate(lam), e)
                for a in range(e):
                    assert qc[a] == conjugate(q[e - 1 - a])


def test_rouquier_predicate():
    b = block_of(parse_partition("5"), 2)
    assert is_rouquier(b) and rouquier_charge(b) == 1
    assert is_rouquier(BlockId(4, core_from_levels((0, 1, 2, 3), 4), 2))
    assert not is_rouquier(block_of(parse_partition("17,7,2^4,1^5"), 10))
    # runners of (2) sorted by top bead are 2, 0, 1 with level gaps 0 and 1:
    # consecutive in the cyclic order, but short of w - 1 = 1 after the wrap
    assert tuple(x // 3 for x in core_tops(parse_partition("2"), 3)) == (-1, 0, -2)
    assert not is_rouquier(BlockId(3, parse_partition("2"), 2))
    assert is_rouquier(BlockId(3, parse_partition("2"), 1))


def _small_cores(e, max_size=12):
    return [lam for n in range(max_size + 1) for lam in all_partitions(n) if weight_of(lam, e) == 0]


def _rouquier_charge_reference(core, e, w):
    """Least c whose display of core with every position shifted by c holds
    at least w-1 more beads on runner a than on runner a-1 for a = 1, ...,
    e-1, counting every runner from one row below which all positions are
    beads."""
    a0 = abacus_of(core, e)
    for c in range(e):
        a = Abacus(e, a0.base + c, a0.mask)
        beads = [0] * e
        for x in range(a.base - a.base % e, a.max_occupied() + 1):
            beads[x % e] += a.occupied(x)
        if all(beads[r] - beads[r - 1] >= w - 1 for r in range(1, e)):
            return c
    return None


def test_rouquier_charge_matches_bead_counts():
    seen = set()
    for e in range(2, 7):
        for core in _small_cores(e):
            for w in range(1, 5):
                c = _rouquier_charge_reference(core, e, w)
                assert rouquier_charge(BlockId(e, core, w)) == c
                seen.add(c)
    assert None in seen and seen - {None, 0}


def _residue_nodes(lam, e, a):
    """(removable, addable) nodes of lam whose content is a mod e."""
    p = list(lam.parts) + [0]
    rem = sum(1 for i in range(len(p) - 1) if p[i] > p[i + 1] and (p[i] - i - 1) % e == a)
    add = sum(1 for i in range(len(p)) if (i == 0 or p[i] < p[i - 1]) and (p[i] - i) % e == a)
    return rem, add


def test_core_reflection_counts_match_weyl_s():
    for e in range(2, 7):
        for core in _small_cores(e):
            tops = core_tops(core, e)
            for a in range(e):
                k_rem, k_add = core_reflection_counts(tops, a)
                assert (k_rem, k_add) == _residue_nodes(core, e, a) and min(k_rem, k_add) == 0
                image = partition_of(weyl_s(abacus_of(core, e), a))
                assert image.size == core.size - k_rem + k_add
                assert core_tops(image, e) == _reflect(tops, a)[1]


def test_scopes_chain():
    rb = BlockId(3, core_from_levels((0, 1, 2), 3), 2)
    assert scopes_chain_blocks(rb)[1] == []
    for b in [BlockId(3, EMPTY, 1), BlockId(3, EMPTY, 2), BlockId(5, parse_partition("3,1"), 2),
              block_of(parse_partition("17,7,2^4,1^5"), 10)]:
        tops, chain = scopes_chain_blocks(b)
        cores = [_core(t) for t in tops]
        assert tops[-1] == core_tops(b.core, b.e) and cores[-1] == b.core
        assert is_rouquier(BlockId(b.e, cores[0], b.weight))
        assert len(tops) == len(chain) + 1
        # replay forward: each step must have k removable beads on runner a
        for i, (a, k) in enumerate(chain):
            assert core_tops(cores[i], b.e) == tops[i]
            k_rem, _ = core_reflection_counts(tops[i], a)
            assert k_rem == k >= 1
            stepped = partition_of(weyl_s(abacus_of(cores[i], b.e), a))
            assert stepped == cores[i + 1]
    with pytest.raises(ValueError):
        scopes_chain_blocks(BlockId(3, EMPTY, 0))[1]


def test_scopes_descent_is_bounded(monkeypatch):
    # a reflection that swaps the two tops without the +-1 keeps the length:
    # the descent must stop after l(B_0) - l(b) steps, not spin
    def swap_only(tops, a):
        k, _ = _reflect(tops, a)
        out = list(tops)
        out[a - 1], out[a] = tops[a], tops[a - 1]
        return k, tuple(out)

    monkeypatch.setattr(abacus_module, "_reflect", swap_only)
    with pytest.raises(AssertionError, match="did not reach the target"):
        scopes_chain_blocks(block_of(parse_partition("17,7,2^4,1^5"), 10))


def _hook_length(core, e):
    """Affine length of an e-core: its cells with hook length < e."""
    conj = conjugate(core)
    return sum(
        1 for i, j in core.cells() if core.part(i) - j + conj.part(j) - i + 1 < e
    )


def _affine_length(tops):
    """Length of a core in the affine Weyl group: the sum of its inversion table."""
    return sum(map(sum, core_inversions(tops)))


def _weak_leq(b, kappa, e):
    mb = core_inversions(core_tops(b, e))
    mk = core_inversions(core_tops(kappa, e))
    return all(x >= y for rk, rb in zip(mk, mb) for x, y in zip(rk, rb))


@pytest.mark.parametrize("e,max_len", [(2, 14), (3, 11), (4, 10), (5, 9)])
def test_weak_order_is_descent_reachability(e, max_len):
    # every e-core of affine length <= max_len, grown from the empty core
    cores, frontier = {EMPTY}, [EMPTY]
    while frontier:
        nxt = []
        for c in frontier:
            for a in range(e):
                d = partition_of(weyl_s(abacus_of(c, e), a))
                if d not in cores and _hook_length(d, e) <= max_len:
                    cores.add(d)
                    nxt.append(d)
        frontier = nxt
    length = {c: _hook_length(c, e) for c in cores}
    below = {}
    for c in sorted(cores, key=length.get):
        assert _affine_length(core_tops(c, e)) == length[c]
        down = {c}
        for a in range(e):
            d = partition_of(weyl_s(abacus_of(c, e), a))
            if length.get(d, max_len + 1) < length[c]:
                assert length[d] == length[c] - 1
                down |= below[d]
        below[c] = down
    for kappa in cores:
        for b in cores:
            assert (b in below[kappa]) == _weak_leq(b, kappa, e)


def _rouquier_cores(e, need, max_len):
    """Every e-core of affine length < max_len whose sorted runners are
    cyclically consecutive with level gaps >= need, built from its gaps."""
    out = []

    def rec(gaps, cost):
        t = len(gaps) + 1
        if t == e:
            big = [0]
            for g in gaps:
                big.append(big[-1] + g)
            x0 = -e - sum(big)
            lv = [0] * e
            for i in range(e):
                x = x0 + i + e * big[i]
                lv[x % e] = (x - x % e) // e
            out.append((cost, core_from_levels(tuple(lv), e)))
            return
        g = need
        while cost + g * t * (e - t) < max_len:
            rec(gaps + [g], cost + g * t * (e - t))
            g += 1

    rec([], 0)
    return out


@pytest.mark.parametrize("e", [3, 4, 5])
@pytest.mark.parametrize("w", [1, 2, 3])
def test_scopes_chain_least_length_base(e, w):
    targets = [lam for n in range(11) for lam in all_partitions(n) if weight_of(lam, e) == 0]
    chains = {core: scopes_chain_blocks(BlockId(e, core, w)) for core in targets}
    top = max(_hook_length(_core(tops[0]), e) for tops, _ in chains.values())
    cands = _rouquier_cores(e, w - 1, top)
    for cost, kappa in cands:
        assert is_rouquier(BlockId(e, kappa, w)) and _hook_length(kappa, e) == cost
    if e == 3:
        # the gap construction misses no Rouquier core of small length
        found = set()
        for l0 in range(-8, 8):
            for l1 in range(-8, 8):
                kappa = core_from_levels((l0, l1, -3 - l0 - l1), e)
                if _hook_length(kappa, e) < top and is_rouquier(BlockId(e, kappa, w)):
                    found.add(kappa)
        assert found == {kappa for _, kappa in cands}
    for core, (tops, chain) in chains.items():
        base = _core(tops[0])
        assert is_rouquier(BlockId(e, base, w))
        assert len(chain) == _hook_length(base, e) - _hook_length(core, e)
        assert _weak_leq(core, base, e)
        assert not any(
            cost < _hook_length(base, e) and _weak_leq(core, kappa, e) for cost, kappa in cands
        )


def test_scopes_chain_e10_base():
    b = block_of(parse_partition("17,7,2^4,1^5"), 10)
    tops, chain = scopes_chain_blocks(b)
    base = _core(tops[0])
    assert len(chain) == 323
    assert _hook_length(base, 10) == _affine_length(core_tops(base, 10)) == 330
    assert base.size == 1815
    assert sum(k for _, k in chain) == base.size - b.core.size
