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

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, combinations, product
from operator import itemgetter, sub

from .partitions import EMPTY, Partition, all_partitions


# -- packed beta-sets -------------------------------------------------------


def mask_of(lam, lo):
    """Packed beta-set of lam over offset lo (requires lo <= -len(lam))."""
    m = (1 << (-lo - len(lam))) - 1
    for i, p in enumerate(lam, start=1):
        m |= 1 << (p - i - lo)
    return m


def partition_of_mask(m):
    """The partition whose packed beta-set (over any offset) is m."""
    return _partition_of_bits(bin(m)[:1:-1])


def _partition_of_bits(s):
    """The partition whose packed beta-set has the bit string s, lowest bit
    first: each bead is a part equal to the number of gaps below it."""
    if "01" not in s:  # no bead has a gap below it
        return EMPTY
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


class Abacus(tuple):
    """A packed beta-set on e runners as the tuple (e, base, mask): bit p of
    mask is position base + p, and base is the least unoccupied position."""

    __slots__ = ()

    def __new__(cls, e, base, mask):
        if e < 2:
            raise ValueError("e must be at least 2")
        if mask < 0:
            raise ValueError("mask must be nonnegative")
        ones = (mask ^ (mask + 1)).bit_length() - 1  # beads filling up from base
        return tuple.__new__(cls, (e, base + ones, mask >> ones))

    e = property(itemgetter(0))
    base = property(itemgetter(1))
    mask = property(itemgetter(2))

    def __repr__(self):
        return "Abacus(e=%d, base=%d, mask=%#x)" % self

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

    def mask_over(self, lo):
        """The same beta-set packed over an offset lo <= base."""
        d = self.base - lo
        return (self.mask << d) | ((1 << d) - 1)


def abacus_of(lam, e):
    """The abacus of beta(lambda) = {lambda_i - i}."""
    lo = -len(lam)
    return Abacus(e, lo, mask_of(lam, lo))


def partition_of(a):
    """Recover the partition from an abacus."""
    return partition_of_mask(a.mask)


def _runner_tops(runners, e):
    """Top-bead position of each runner of the e-core, in the charge of the
    display whose `runner_slices` are given."""
    return [first + (bits.count("1") - 1) * e for first, bits in runners]


def _from_tops(tops, quot, lo=None):
    """The partition whose runner r holds quot[r] below the top tops[r] of a
    core runner (tops[r] = r mod e, e = len(tops)): the beta-set of quot[r]
    in charge tops[r] // e + 1 on runner r, every runner starting at the
    common level k0; an empty quot[r] leaves runner r full from k0 to its top.
    With empty quotients it is the e-core with these tops.  Given an offset
    lo, its packed beta-set over lo instead (the string starts at k0 e)."""
    e = len(tops)
    charges = [x // e + 1 for x in tops]
    k0 = min(map(sub, charges, map(len, quot)))
    s = _interleave([bin(mask_of(nu, k0 - c))[:1:-1] if nu else "1" * (c - k0)
                     for c, nu in zip(charges, quot)])
    if lo is None:
        return _partition_of_bits(s)
    m, d = int("0" + s[::-1], 2), k0 * e - lo
    return (m << d) | ((1 << d) - 1) if d >= 0 else m >> -d


def core_quotient_weight(a):
    """(e-core, e-quotient, e-weight) read off the given abacus display.

    The quotient components depend on the display's charge; the core and
    weight do not.
    """
    runners = a.runner_slices()
    quot = tuple(_partition_of_bits(bits) for _, bits in runners)
    return _from_tops(_runner_tops(runners, a.e), (EMPTY,) * a.e), quot, sum(q.size for q in quot)


class Facts:
    """What is known of one partition at one e.  The abacus, core, quotient
    and weight are set on creation; each other slot is None until the code
    that owns the fact fills it on first use: `block_of` the block; `labels`
    the hook-quotient flag, the movements with their runner chains, z, the
    modified basis and zhat; `polytope` the signed units of the hypercube;
    `beadops` the Mullineux image."""

    __slots__ = ("abacus", "core", "quotient", "weight", "block", "hook_quotient", "movements",
                 "chains", "z", "modified", "hat_z", "cube_signs", "mullineux")

    def __init__(self, a):
        self.abacus = a
        self.core, self.quotient, self.weight = core_quotient_weight(a)
        self.block = self.hook_quotient = self.cube_signs = None
        self.movements = self.chains = self.z = self.modified = self.hat_z = self.mullineux = None


# Distinct (lambda, e) keys one process reads, measured: 675-728 per mu on
# the e = 10 Scopes columns and 521 / 99 / 448 on the closed / rouquier /
# llt dnum batches (no benchmark workload reads over about 1,000), 5,562 on
# the (13,4) Scopes column and 15,390 over AC-3.  The five Scopes columns of
# the e = 14, empty-core, weight-4 block read 20,913 after their block
# context and evict records; evicted records are rebuilt on demand with the
# same answers (`test_facts`).
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
    """Whether lam is an e-core: every bead at p has a bead at p - e.  Read
    off the packed beta-set, without a `facts` record."""
    lo = -len(lam)
    m = mask_of(lam, lo)
    return not m & ~((m << e) | ((1 << e) - 1))


class BlockId(namedtuple("BlockId", "e core weight")):
    """A block: all partitions sharing an e-core and e-weight."""

    __slots__ = ()

    def __new__(cls, e, core, weight):
        if weight < 0:
            raise ValueError("weight must be nonnegative")
        if not is_core(core, e):
            raise ValueError("%r is not an %d-core" % (core, e))
        return tuple.__new__(cls, (e, core, weight))

    def to_json(self):
        return {"e": self.e, "core": list(self.core.parts), "weight": self.weight}


def block_of(lam, e):
    f = facts(lam, e)
    if f.block is None:
        f.block = BlockId(e, f.core, f.weight)
    return f.block


def core_tops(core, e):
    """Top-bead position x_r of each runner r of an e-core, canonical charge;
    x_r = r mod e, and x_r - r is e times the runner's level."""
    return tuple(_runner_tops(abacus_of(core, e).runner_slices(), e))


def core_from_levels(levels, e):
    """The core whose runner r ends at position r + e*levels[r]: an input
    helper, since the library reads cores by their tops (`core_tops`)."""
    return _from_tops([r + e * lv for r, lv in enumerate(levels)], (EMPTY,) * e)


def _compositions(total, nparts):
    """Every nparts-tuple of nonnegative integers summing to total: the gaps
    between nparts - 1 bars placed among total + nparts - 1 slots."""
    n = total + nparts - 1
    for bars in combinations(range(n), nparts - 1):
        yield tuple(j - i - 1 for i, j in zip((-1,) + bars, bars + (n,)))


def quotient_tuples(e, w):
    """Every e-tuple of partitions of total size w: the quotients of a block."""
    parts_of = [all_partitions(n) for n in range(w + 1)]
    for comp in _compositions(w, e):
        yield from product(*[parts_of[c] for c in comp])


def enumerate_block(b):
    """All partitions with the block's e-core and e-weight."""
    tops = core_tops(b.core, b.e)
    out = [_from_tops(tops, quot) for quot in quotient_tuples(b.e, b.weight)]
    out.sort(reverse=True)
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
    slots = (rem | add) & _runner(i, e, lo, m.bit_length() + 1)
    while slots:
        low = slots & -slots
        if rem & low:
            stack.append(lo + low.bit_length() - 1)
        elif stack:
            stack.pop()
        else:
            unmatched.append(lo + low.bit_length() - 1)
        slots ^= low
    return stack, unmatched


def crystal_string(a, i, k):
    """Etilde_i^k for k >= 0, which moves the first k normal beads of residue
    i down one position, or Ftilde_i^-k for k < 0, which fills the last -k
    conormal slots; None when the string is shorter than |k|."""
    if not k:
        return a
    normals, slots = _matched_signature(a.mask, a.base, a.e, i % a.e)
    if len(normals if k > 0 else slots) < abs(k):
        return None
    if k > 0:
        return a.move_beads([(x, x - 1) for x in normals[:k]])
    return a.move_beads([(t - 1, t) for t in slots[len(slots) + k :]])


def crystal_E(a, i):
    """Kashiwara Etilde_i: move the top normal bead to its preceding
    position; None when no normal bead exists."""
    return crystal_string(a, i, 1)


def crystal_F(a, i):
    """Kashiwara Ftilde_i: move the bottom conormal addable bead to its
    succeeding position; None when no conormal bead exists."""
    return crystal_string(a, i, -1)


def _reflect(tops, a):
    """(k, tops after s_a) for the core whose runner r ends at tops[r].

    Runner a ends k = (x_a - x_{a-1} - 1) / e levels below runner a-1, where
    x_{-1} is the top of runner e-1: it holds k removable beads for k > 0
    and -k addable ones for k < 0.  s_a swaps the two runners' bead counts,
    x_{a-1}, x_a = x_a - 1, x_{a-1} + 1, which keeps every residue and the
    sum of the tops.
    """
    e = len(tops)
    a %= e
    out = list(tops)
    out[a - 1], out[a] = tops[a] - 1, tops[a - 1] + 1
    return (tops[a] - tops[a - 1] - 1) // e, tuple(out)


def core_reflection_counts(tops, a):
    """(removable, addable) bead counts on runner a of the core whose runner
    r ends at tops[r]; at most one of the two is positive."""
    k = _reflect(tops, a)[0]
    return max(0, k), max(0, -k)


def weyl_s(a, i):
    """The crystal Weyl-group action of the simple reflection s_i.

    Runner i of the core of a holds k removable beads (k > 0) or -k addable
    ones (k < 0), k = (x_i - x_{i-1} - 1) / e as in `_reflect`, and s_i is
    the crystal string Etilde_i^k or Ftilde_i^-k (`crystal_string`).  Only
    the two runners are read: the core's runner r ends at its first slot
    plus e times one less than the beads a holds on it.
    """
    e, base, mask = a
    width = mask.bit_length()
    x_prev, x = (a.first_slot(r) + ((mask & _runner(r, e, base, width)).bit_count() - 1) * e
                 for r in (i - 1, i))
    out = crystal_string(a, i, (x - x_prev - 1) // e)
    if out is None:
        raise AssertionError("crystal string shorter than Weyl step")
    return out


# -- runner addition -------------------------------------------------------


def add_full_runner(lam, e):
    """Embed lambda into a block on e+1 runners by adding a full runner.

    beta(lam+) contains r(e+1)+s, for s in [0,e], iff s < e and
    (r+|lam|)e+s lies in beta(lam), or s = e and r < |lam|*e: runner s < e
    is runner s of lam lowered by |lam| levels, and runner e is full up to
    level |lam|*e.
    """
    n = lam.size
    k0 = -(len(lam) // e) - 1  # lam's runners start at level k0
    s = bin(mask_of(lam, k0 * e))[:1:-1]
    full = "1" * (n * e + n - k0)  # levels k0 - n, ..., n*e - 1
    return _partition_of_bits(_interleave([s[r::e] for r in range(e)] + [full]))


# -- Rouquier predicate and Scopes chains ----------------------------------


def rouquier_charge(b):
    """Least charge shift making the core's runner gaps Rouquier-large.

    Returns c in [0, e) such that the display shifted by c, whose runner r
    ends at the one top x + c = r mod e, holds at least w-1 more beads on
    every runner a in [1, e) than on runner a-1; None when no shift works.
    """
    e = b.e
    tops = core_tops(b.core, e)
    need = max(b.weight - 1, 0)
    for c in range(e):
        shifted = sorted((x + c for x in tops), key=lambda x: x % e)
        if all(_reflect(shifted, a)[0] >= need for a in range(1, e)):
            return c
    return None


def is_rouquier(b):
    return rouquier_charge(b) is not None


def core_inversions(tops):
    """The inversion table M of the core whose runner r ends at tops[r].

    With x_0 < ... < x_{e-1} the sorted tops, M[i][j] = ceil((x_i - x_j) / e)
    - 1 for i > j (zero for i <= j) counts the affine inversions between the
    i-th and j-th sorted runners.  Its sum is the affine length, the number
    of cells with hook length < e, and b <= kappa in the left weak order
    exactly when M(kappa) >= M(b) entrywise.
    """
    e = len(tops)
    x = sorted(tops)
    return tuple(
        tuple(-((x[j] - x[i]) // e) - 1 if j < i else 0 for j in range(e))
        for i in range(e)
    )


def _rouquier_base(need, tops):
    """Tops of a least-length Rouquier core above the core with the given
    tops in the left weak order, for runner gaps of at least `need`.

    A Rouquier core has sorted tops x_t = x_0 + t + e*G_t with G_0 = 0 and
    gaps g_t = G_t - G_{t-1} >= need, so M[i][j] = G_i - G_j and its length
    is sum g_t * t * (e - t); x_0 follows from the sum of the tops, which
    every s_a keeps.  The search picks g_1, ..., g_{e-1} in turn, carrying
    for each later i the part of the bound G_i - G_j >= M_b[i][j] (over
    every chosen j) still owed by g_t + ... + g_i, and keeps only the least
    way to reach each such residue.  It is a pass over t, not a recursion,
    so e is not bounded by the recursion limit.
    """
    e = len(tops)
    m = core_inversions(tops)
    # each residue still owed before g_t is chosen, with the least (length,
    # gaps) reaching it; ties go to the lexicographically least gaps
    layer = {tuple(max(m[i][0], need * i) for i in range(1, e)): (0, ())}
    for t in range(1, e):
        nxt = {}
        for owed, (cost, gaps) in layer.items():
            lo = max(need, owed[0])
            hi = max([lo] + [owed[i - t] - need * (i - t) for i in range(t + 1, e)])
            for g in range(lo, hi + 1):
                rest = tuple(max(owed[i - t] - g, m[i][t], need * (i - t)) for i in range(t + 1, e))
                cand = (cost + g * t * (e - t), gaps + (g,))
                if rest not in nxt or cand < nxt[rest]:
                    nxt[rest] = cand
        layer = nxt
    gaps = layer[()][1]
    big = list(accumulate((0,) + gaps))
    x0 = (sum(tops) - e * (e - 1) // 2) // e - sum(big)
    return tuple(sorted((x0 + t + e * g for t, g in enumerate(big)), key=lambda x: x % e))


# The longest Scopes chain `scopes_chain_blocks` builds.  The chain of the
# weight-2 principal block grows like e^3/6: 35,990 steps at e = 60, 50,116
# at e = 67 (the first one refused), 2.2e8 at e = 1100.
SCOPES_CHAIN_LIMIT = 50_000


def scopes_chain_blocks(b):
    """(tops, chain): a Scopes chain from a Rouquier block B_0 of the same
    weight to b, and the core tops T_0, ..., T_n it visits.

    chain is a list of (a_i, k_i): replaying s_{a_i} forward from B_0, where
    the i-th core, with tops T_i, has k_i >= 1 removable beads on runner
    a_i, lands on b, whose core has the tops T_n.  The chain is empty when b
    is already Rouquier.  No core or block is built here.

    B_0 is a least-length Rouquier block above b in the left weak order
    (`_rouquier_base`), and every step is a descent that keeps the core
    above b: s_a with k removable beads lowers exactly one inversion count,
    M[rank of runner a][rank of runner a-1], from k to k-1.  The chain is
    therefore reduced, of length l(B_0) - l(b).
    """
    e, w = b.e, b.weight
    if w < 1:
        raise ValueError("a Scopes chain requires weight >= 1")
    goal = core_tops(b.core, e)
    m_b = core_inversions(goal)
    x = _rouquier_base(w - 1, goal)
    # a reduced chain has l(B_0) - l(b) steps; a longer walk is a fault
    steps = sum(map(sum, core_inversions(x))) - sum(map(sum, m_b))
    if steps > SCOPES_CHAIN_LIMIT:
        raise ValueError("the Scopes chain of this block has %d steps, more than the limit of %d"
                         % (steps, SCOPES_CHAIN_LIMIT))
    rank = [0] * e
    for i, r in enumerate(sorted(range(e), key=x.__getitem__)):
        rank[r] = i
    visited, chain = [x], []
    for _ in range(steps):
        for a in range(e):
            k, y = _reflect(x, a)
            if k > m_b[rank[a]][rank[a - 1]]:
                break
        else:
            raise AssertionError("no reduced Scopes step toward the target")
        chain.append((a, k))
        visited.append(y)
        x = y
        rank[a - 1], rank[a] = rank[a], rank[a - 1]
    if x != goal:
        raise AssertionError("the Scopes descent did not reach the target core")
    return visited, chain
