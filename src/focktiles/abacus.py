"""James's abacus: beta-sets, cores, quotients, crystal and Weyl operators.

A beta-set {lambda_i - i} is packed into an integer over an offset lo: bit
p is the bead at position lo + p, and every position below lo is occupied.
This module owns that format (`mask_of`, `partition_of_mask` and the bit
helpers); `fock` steps the same masks.  An `Abacus` is a packed beta-set on
e runners normalized so that lo is `base`, the least unoccupied position.
Positions increase downward.

A runner is a strided slice of the mask: with s the bits lowest first, runner
r is s[p::e] for p = (r - base) mod e, and that slice is itself the packed
beta-set of the r-th quotient component.  Runners are read by slicing
(`Abacus.runner_slices`) and written by interleaving (`_interleave`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product

from .partitions import EMPTY, Partition


# -- packed beta-sets -------------------------------------------------------


def mask_of(lam, lo):
    """Packed beta-set of lam over offset lo (requires lo <= -len(lam))."""
    parts = lam.parts
    m = (1 << (-lo - len(parts))) - 1
    for i, p in enumerate(parts, start=1):
        m |= 1 << (p - i - lo)
    return m


def partition_of_mask(m):
    """The partition whose packed beta-set (over any offset) is m."""
    return _partition_of_bits(bin(m)[:1:-1])


def _partition_of_bits(s):
    """The partition whose packed beta-set has the bit string s, lowest bit
    first: each bead is a part equal to the number of gaps below it."""
    parts = [g for g in accumulate(map(len, s.split("1")[:-1])) if g]
    parts.reverse()
    return Partition(parts) if parts else EMPTY


def _interleave(runners):
    """The bit string whose slice [r::e] is runners[r], for e = len(runners);
    every runner is padded with gaps to the longest."""
    width = max(map(len, runners))
    return "".join(map("".join, zip(*[t.ljust(width, "0") for t in runners])))


def _bits(m):
    """Indices of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _addable(m):
    """Beads whose upper neighbour is empty."""
    return m & ~(m >> 1)


def _removable(m):
    """Beads whose lower neighbour is empty (below bit 0 all is occupied)."""
    return m & ~((m << 1) | 1)


def _runner(r, e, lo, width):
    """Bits below width whose position lo + p lies on runner r mod e."""
    p = (r - lo) % e
    n = (width - p + e - 1) // e if width > p else 0
    # n bits e apart: the base-2^e repunit (2^(e n) - 1) / (2^e - 1)
    return ((1 << (e * n)) - 1) // ((1 << e) - 1) << p


class Abacus:
    """A packed beta-set on e runners: bit p of mask is position base + p."""

    __slots__ = ("e", "base", "mask")

    def __init__(self, e, base, mask):
        if e < 2:
            raise ValueError("e must be at least 2")
        if mask < 0:
            raise ValueError("mask must be nonnegative")
        ones = (mask ^ (mask + 1)).bit_length() - 1  # beads filling up from base
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "base", base + ones)
        object.__setattr__(self, "mask", mask >> ones)

    def __setattr__(self, name, value):
        raise AttributeError("Abacus is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Abacus)
            and self.e == other.e
            and self.base == other.base
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.e, self.base, self.mask))

    def __repr__(self):
        return "Abacus(e=%d, base=%d, mask=%#x)" % (self.e, self.base, self.mask)

    # -- basic queries ----------------------------------------------------

    @property
    def window(self):
        """Occupied positions >= base, ascending."""
        return tuple(self.base + p for p in _bits(self.mask))

    def occupied(self, x):
        return x < self.base or bool(self.mask >> (x - self.base) & 1)

    def max_occupied(self):
        return self.base + self.mask.bit_length() - 1

    def runner_slices(self):
        """(first slot, bits) of each runner r = 0, ..., e-1: bits is the slice
        s[p::e] of the mask's bits s (lowest first), p = (r - base) mod e, so
        its j-th bit is position first + j*e.  It is the packed beta-set of
        the r-th quotient component in this display's charge."""
        e, base = self.e, self.base
        s = bin(self.mask)[:1:-1]
        return [(base + p, s[p::e]) for p in ((r - base) % e for r in range(e))]

    def first_slot(self, r):
        """Least position >= base congruent to r mod e."""
        return self.base + ((r - self.base) % self.e)

    def runner_max(self, r):
        """Greatest occupied position on runner r."""
        m = self.mask & _runner(r, self.e, self.base, self.mask.bit_length())
        return self.base + m.bit_length() - 1 if m else self.first_slot(r) - self.e

    def weight_of(self, b):
        """Number of unoccupied positions above b on its runner."""
        s = self.first_slot(b)
        if b < s:
            return 0
        beads = self.mask & _runner(b, self.e, self.base, b - self.base)  # those above b
        return (b - s) // self.e - beads.bit_count()

    def prev_gap(self, x):
        """Greatest unoccupied position below x on its runner."""
        gaps = ~self.mask & _runner(x, self.e, self.base, x - self.base)
        if not gaps:
            raise ValueError("no gap below %d on its runner" % x)
        return self.base + gaps.bit_length() - 1

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def from_occupied(e, occupied, low):
        """Build from the occupied set restricted to [low, inf); every
        position below low must be occupied."""
        m = 0
        for x in occupied:
            if x >= low:
                m |= 1 << (x - low)
        return Abacus(e, low, m)

    def move_bead(self, x, y):
        """Slide the bead at x to the unoccupied position y."""
        return self.move_beads(((x, y),))

    def move_beads(self, moves):
        """Slide the bead at each x to its unoccupied position y, all at once."""
        low = self.base
        for x, y in moves:
            if not self.occupied(x):
                raise ValueError("no bead at %d" % x)
            if self.occupied(y):
                raise ValueError("position %d already occupied" % y)
            low = min(low, x, y)
        pad = self.base - low
        m = (self.mask << pad) | ((1 << pad) - 1)
        for x, y in moves:
            m ^= (1 << (x - low)) | (1 << (y - low))
        return Abacus(self.e, low, m)

    def shift(self, c):
        """Add c to every position (charge shift)."""
        return Abacus(self.e, self.base + c, self.mask)


def abacus_of(lam, e):
    """The abacus of beta(lambda) = {lambda_i - i}."""
    lo = -len(lam.parts)
    return Abacus(e, lo, mask_of(lam, lo))


def partition_of(a):
    """Recover the partition from an abacus."""
    return partition_of_mask(a.mask)


def _core_tops(runners, e):
    """Top-bead position of each runner of the e-core, in the charge of the
    display whose `runner_slices` are given."""
    return [first + (bits.count("1") - 1) * e for first, bits in runners]


def _core_from_tops(tops, e):
    """The e-core whose runner r ends at position tops[r]."""
    lo = min(tops) - e + 1
    m = 0
    for r, x in enumerate(tops):
        m |= _runner(r, e, lo, x - lo + 1)
    return partition_of_mask(m)


def core_quotient_weight(a):
    """(e-core, e-quotient, e-weight) read off the given abacus display.

    The quotient components depend on the display's charge; the core and
    weight do not.
    """
    runners = a.runner_slices()
    quot = tuple(_partition_of_bits(bits) for _, bits in runners)
    return _core_from_tops(_core_tops(runners, a.e), a.e), quot, sum(q.size for q in quot)


class Facts:
    """What is known of one partition at one e.  The abacus, core, quotient
    and weight are set on creation; each other slot is None until the module
    that owns the fact fills it on first use: `labels` the movements with
    their runner chains, z, the modified basis and zhat; `beadops` the
    Mullineux image."""

    __slots__ = ("abacus", "core", "quotient", "weight", "movements", "chains",
                 "z", "modified", "hat_z", "mullineux")

    def __init__(self, a):
        self.abacus = a
        self.core, self.quotient, self.weight = core_quotient_weight(a)
        self.movements = self.chains = self.z = self.modified = self.hat_z = self.mullineux = None


# Distinct (lambda, e) keys one process reads, measured: 675-728 per mu on
# the e = 10 Scopes columns, 521 / 99 / 448 on the closed / rouquier / llt
# dnum batches, 5,562 on the (13,4) Scopes column and 15,390 over AC-3.
# Past the bound the oldest records are evicted and rebuilt on demand; the
# answers do not change.
FACTS_MAXSIZE = 1 << 14


@lru_cache(maxsize=FACTS_MAXSIZE)
def facts(lam, e):
    """The one per-partition memo: the `Facts` of lam at e, keyed by value."""
    return Facts(abacus_of(lam, e))


def core_of(lam, e):
    return facts(lam, e).core


def quotient_of(lam, e):
    return facts(lam, e).quotient


def weight_of(lam, e):
    return facts(lam, e).weight


def is_core(lam, e):
    return weight_of(lam, e) == 0


@dataclass(frozen=True)
class BlockId:
    """A block: all partitions sharing an e-core and e-weight."""

    e: int
    core: Partition
    weight: int

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")
        if not is_core(self.core, self.e):
            raise ValueError("%r is not an %d-core" % (self.core, self.e))

    def to_json(self):
        return {"e": self.e, "core": list(self.core.parts), "weight": self.weight}


def block_of(lam, e):
    f = facts(lam, e)
    return BlockId(e, f.core, f.weight)


def core_levels(core, e):
    """Runner levels (m_r - r)/e of a core, canonical charge."""
    tops = _core_tops(abacus_of(core, e).runner_slices(), e)
    return tuple((x - r) // e for r, x in enumerate(tops))


def core_from_levels(levels, e):
    """The core whose runner r ends at position r + e*levels[r]."""
    return _core_from_tops([r + e * lv for r, lv in enumerate(levels)], e)


def _compositions(total, nparts):
    if nparts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, nparts - 1):
            yield (head,) + rest


def partition_from_quotient(b, quot):
    """Invert the e-quotient bijection inside the block b."""
    return _from_levels(core_levels(b.core, b.e), quot)


def _from_levels(levels, quot):
    """The partition whose runner r holds quot[r] below the top of a core
    runner at level levels[r]: the beta-set of quot[r] in charge
    levels[r] + 1, every runner starting at the common level k0."""
    k0 = min(lv + 1 - len(nu.parts) for lv, nu in zip(levels, quot))
    runners = [bin(mask_of(nu, k0 - lv - 1))[:1:-1] for lv, nu in zip(levels, quot)]
    return _partition_of_bits(_interleave(runners))


def enumerate_block(b):
    """All partitions with the block's e-core and e-weight."""
    from .partitions import all_partitions

    levels = core_levels(b.core, b.e)
    parts_of = [all_partitions(n) for n in range(b.weight + 1)]
    out = [
        _from_levels(levels, quot)
        for comp in _compositions(b.weight, b.e)
        for quot in product(*[parts_of[c] for c in comp])
    ]
    out.sort(key=lambda p: p.parts, reverse=True)
    return out


# -- crystal operators ----------------------------------------------------


def _matched_signature(m, lo, e, i):
    """(normal beads, conormal slots) of residue i, top to bottom, of the
    packed beta-set m over offset lo.

    A slot t of residue i holds a removable bead or follows an addable bead
    at t - 1; in increasing position order each addable slot cancels the
    nearest unmatched removable bead above it.
    """
    rem = _removable(m)
    add = (_addable(m) << 1) | (~m & 1)  # the bead at lo - 1 is addable when lo is empty
    stack = []
    unmatched = []
    for p in _bits((rem | add) & _runner(i, e, lo, m.bit_length() + 1)):
        if rem >> p & 1:
            stack.append(lo + p)
        elif stack:
            stack.pop()
        else:
            unmatched.append(lo + p)
    return stack, unmatched


def normal_beads(a, i):
    """Positions of normal removable beads on runner i, top to bottom."""
    return _matched_signature(a.mask, a.base, a.e, i)[0]


def conormal_slots(a, i):
    """Target slots of conormal addable beads on runner i, top to bottom."""
    return _matched_signature(a.mask, a.base, a.e, i)[1]


def crystal_E(a, i):
    """Kashiwara Etilde_i: move the top normal bead to its preceding
    position; None when no normal bead exists."""
    normals = normal_beads(a, i)
    if not normals:
        return None
    x = normals[0]
    return a.move_bead(x, x - 1)


def crystal_F(a, i):
    """Kashiwara Ftilde_i: move the bottom conormal addable bead to its
    succeeding position; None when no conormal bead exists."""
    slots = conormal_slots(a, i)
    if not slots:
        return None
    t = slots[-1]
    return a.move_bead(t - 1, t)


def core_reflection_counts(lv, e, i):
    """(removable, addable) bead counts of a core, given its levels, for the
    runner pair (i, i-1); at most one of the two is positive."""
    i %= e
    if i == 0:
        k_rem = lv[0] - lv[e - 1] - 1
        k_add = lv[e - 1] - lv[0] + 1
    else:
        k_rem = lv[i] - lv[i - 1]
        k_add = lv[i - 1] - lv[i]
    return max(0, k_rem), max(0, k_add)


def weyl_s(a, i):
    """The crystal Weyl-group action of the simple reflection s_i.

    Runner i of the core of a ends k = (x_i - x_{i-1} - 1) / e levels above
    runner i-1, where x are the top-bead positions (x_{-1} is runner e-1).
    For k > 0 this is Etilde_i^k, which moves the first k normal beads down
    one position; for k < 0 it is Ftilde_i^-k, which fills the last -k
    conormal slots.  Both come from one matched signature.
    """
    e = a.e
    i %= e
    tops = _core_tops(a.runner_slices(), e)
    k = (tops[i] - tops[i - 1] - 1) // e
    if k == 0:
        return a
    normals, slots = _matched_signature(a.mask, a.base, e, i)
    if len(normals if k > 0 else slots) < abs(k):
        raise AssertionError("crystal string shorter than Weyl step")
    if k > 0:
        return a.move_beads([(x, x - 1) for x in normals[:k]])
    return a.move_beads([(t - 1, t) for t in slots[len(slots) + k :]])


# -- runner addition -------------------------------------------------------


def add_full_runner(lam, e):
    """Embed lambda into a block on e+1 runners by adding a full runner.

    beta(lam+) contains r(e+1)+s, for s in [0,e], iff s < e and
    (r+|lam|)e+s lies in beta(lam), or s = e and r < |lam|*e: runner s < e
    is runner s of lam lowered by |lam| levels, and runner e is full up to
    level |lam|*e.
    """
    n = lam.size
    k0 = -(len(lam.parts) // e) - 1  # lam's runners start at level k0
    s = bin(mask_of(lam, k0 * e))[:1:-1]
    full = "1" * (n * e + n - k0)  # levels k0 - n, ..., n*e - 1
    return _partition_of_bits(_interleave([s[r::e] for r in range(e)] + [full]))


# -- Rouquier predicate and Scopes chains ----------------------------------


def _shifted_levels(levels, c):
    """Runner levels after a charge shift by c: runner s takes runner s - c,
    one level higher when that runner wraps past e - 1."""
    e = len(levels)
    return tuple(levels[s - c] + (s < c) for s in range(e))


def rouquier_charge(b):
    """Least charge shift making the core's runner gaps Rouquier-large.

    Returns c in [0, e) such that the shifted display has at least w-1
    more beads on every runner a in [1, e) than on runner a-1, or None
    when no shift works.
    """
    lv = core_levels(b.core, b.e)
    need = max(b.weight - 1, 0)
    for c in range(b.e):
        sh = _shifted_levels(lv, c)
        if all(sh[a] - sh[a - 1] >= need for a in range(1, b.e)):
            return c
    return None


def is_rouquier(b):
    return rouquier_charge(b) is not None


def core_inversions(levels, e):
    """The inversion table M of a core, given its runner levels.

    With x_0 < ... < x_{e-1} the sorted top-bead positions r + e*levels[r],
    M[i][j] = ceil((x_i - x_j) / e) - 1 for i > j (zero for i <= j) counts
    the affine inversions between the i-th and j-th sorted runners.  Its
    sum is the affine length, the number of cells with hook length < e, and
    b <= kappa in the left weak order exactly when M(kappa) >= M(b)
    entrywise.
    """
    x = sorted(r + e * lv for r, lv in enumerate(levels))
    return tuple(
        tuple(-((x[j] - x[i]) // e) - 1 if j < i else 0 for j in range(e))
        for i in range(e)
    )


def affine_length(levels, e):
    """Length of a core in the affine Weyl group: its cells with hook length < e."""
    return sum(map(sum, core_inversions(levels, e)))


def _rouquier_base(e, need, levels):
    """Levels of a least-length Rouquier core above `levels` in the left
    weak order, for runner gaps of at least `need`.

    A Rouquier core has sorted tops x_t = x_0 + t + e*G_t with G_0 = 0 and
    gaps g_t = G_t - G_{t-1} >= need, so M[i][j] = G_i - G_j and its length
    is sum g_t * t * (e - t); x_0 follows from the level sum.  The search
    picks g_1, ..., g_{e-1} in turn, carrying for each later i the part of
    the bound G_i - G_j >= M_b[i][j] (over every chosen j) still owed by
    g_t + ... + g_i, and memoizes on that residue.
    """
    m = core_inversions(levels, e)
    memo = {}

    def best(t, owed):
        if t == e:
            return 0, ()
        key = (t, owed)
        if key not in memo:
            lo = max(need, owed[0])
            hi = max([lo] + [owed[i - t] - need * (i - t) for i in range(t + 1, e)])
            out = None
            for g in range(lo, hi + 1):
                rest = tuple(
                    max(owed[i - t] - g, m[i][t], need * (i - t)) for i in range(t + 1, e)
                )
                cost, tail = best(t + 1, rest)
                cost += g * t * (e - t)
                if out is None or cost < out[0]:
                    out = (cost, (g,) + tail)
            memo[key] = out
        return memo[key]

    _, gaps = best(1, tuple(max(m[i][0], need * i) for i in range(1, e)))
    big = [0]
    for g in gaps:
        big.append(big[-1] + g)
    x0 = sum(levels) - sum(big)
    out = [0] * e
    for t in range(e):
        x = x0 + t + e * big[t]
        out[x % e] = (x - x % e) // e
    return tuple(out)


def scopes_chain(b):
    """A Scopes chain from a Rouquier block B_0 of the same weight to b.

    Returns a list of (a_i, k_i): replaying s_{a_i} forward from B_0, where
    the i-th core has k_i >= 1 removable beads on runner a_i, lands on b.
    The chain is empty when b is already Rouquier.

    B_0 is a least-length Rouquier block above b in the left weak order
    (`_rouquier_base`), and every step is a descent that keeps the core
    above b: s_a with k removable beads lowers exactly one inversion count,
    M[rank of runner a][rank of runner a-1], from k to k-1.  The chain is
    therefore reduced, of length l(B_0) - l(b).
    """
    e, w = b.e, b.weight
    if w < 1:
        raise ValueError("scopes_chain requires weight >= 1")
    target = core_levels(b.core, e)
    m_b = core_inversions(target, e)
    goal = [r + e * lv for r, lv in enumerate(target)]
    x = [r + e * lv for r, lv in enumerate(_rouquier_base(e, w - 1, target))]
    rank = [0] * e
    for i, r in enumerate(sorted(range(e), key=x.__getitem__)):
        rank[r] = i
    chain = []
    while x != goal:
        for a in range(e):
            k = (x[a] - x[a - 1] - 1) // e
            if k > m_b[rank[a]][rank[a - 1]]:
                break
        else:
            raise AssertionError("no reduced Scopes step toward the target")
        chain.append((a, k))
        x[a - 1], x[a] = x[a] - 1, x[a - 1] + 1
        rank[a - 1], rank[a] = rank[a], rank[a - 1]
    return chain


def scopes_chain_blocks(b):
    """The block sequence B_0, ..., B_n = b along scopes_chain(b)."""
    chain = scopes_chain(b)
    # replay backwards from b to find B_0's core, then forward
    lv = core_levels(b.core, b.e)
    e = b.e
    cores_rev = [lv]
    for a, k in reversed(chain):
        lv2 = list(lv)
        if a == 0:
            lv2[0], lv2[e - 1] = lv[e - 1] + 1, lv[0] - 1
        else:
            lv2[a - 1], lv2[a] = lv[a], lv[a - 1]
        lv = tuple(lv2)
        cores_rev.append(lv)
    blocks = [
        BlockId(e, core_from_levels(v, e), b.weight) for v in reversed(cores_rev)
    ]
    return blocks, chain
