"""James's abacus: beta-sets, cores, quotients, crystal and Weyl operators.

An abacus is a normalized finite window over the infinite beta-set
{lambda_i - i} of a partition, with runner structure for a fixed e.
Positions increase downward; every position below `base` is occupied and
`base` itself is the least unoccupied position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partitions import Partition


class Abacus:
    """Occupied-position window of a beta-set on e runners."""

    __slots__ = ("e", "base", "window", "_runners", "_wset")

    def __init__(self, e, base, window):
        if e < 2:
            raise ValueError("e must be at least 2")
        window = tuple(sorted(set(int(x) for x in window)))
        if window and window[0] <= base:
            raise ValueError("window positions must lie above base")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "base", int(base))
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "_runners", None)
        object.__setattr__(self, "_wset", frozenset(window))

    def __setattr__(self, name, value):
        raise AttributeError("Abacus is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Abacus)
            and self.e == other.e
            and self.base == other.base
            and self.window == other.window
        )

    def __hash__(self):
        return hash((self.e, self.base, self.window))

    def __repr__(self):
        return "Abacus(e=%d, base=%d, window=%r)" % (self.e, self.base, self.window)

    # -- basic queries ----------------------------------------------------

    def occupied(self, x):
        return x < self.base or x in self._wset

    def _window_set(self):
        return set(self.window)

    def max_occupied(self):
        return self.window[-1] if self.window else self.base - 1

    def top(self):
        return self.max_occupied() + 1

    def runner(self, x):
        return x % self.e

    def runner_positions(self, r):
        """Occupied positions >= base on runner r, ascending."""
        if self._runners is None:
            data = [[] for _ in range(self.e)]
            for x in self.window:
                data[x % self.e].append(x)
            object.__setattr__(self, "_runners", tuple(tuple(v) for v in data))
        return self._runners[r % self.e]

    def first_slot(self, r):
        """Least position >= base congruent to r mod e."""
        return self.base + ((r - self.base) % self.e)

    def runner_max(self, r):
        """Greatest occupied position on runner r."""
        occ = self.runner_positions(r)
        if occ:
            return occ[-1]
        s = self.first_slot(r)
        return s - self.e

    def weight_of(self, b):
        """Number of unoccupied positions above b on its runner."""
        r = b % self.e
        s = self.first_slot(r)
        if b < s:
            return 0
        slots = (b - s) // self.e
        occ_below = sum(1 for x in self.runner_positions(r) if x < b)
        return slots - occ_below

    def prev_gap(self, x):
        """Greatest unoccupied position below x on its runner."""
        t = x - self.e
        while t >= self.base:
            if not self.occupied(t):
                return t
            t -= self.e
        raise ValueError("no gap below %d on its runner" % x)

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def from_occupied(e, occupied, low):
        """Build from the occupied set restricted to [low, inf); every
        position below low must be occupied."""
        occ = set(occupied)
        base = low
        while base in occ:
            occ.discard(base)
            base += 1
        return Abacus(e, base, (x for x in occ if x > base))

    def move_bead(self, x, y):
        """Slide the bead at x to the unoccupied position y."""
        if not self.occupied(x):
            raise ValueError("no bead at %d" % x)
        if self.occupied(y):
            raise ValueError("position %d already occupied" % y)
        occ = self._window_set()
        low = min(self.base, y, x) - 1
        occ.update(range(low, self.base))
        occ.discard(x)
        occ.add(y)
        return Abacus.from_occupied(self.e, occ, low)

    def shift(self, c):
        """Add c to every position (charge shift)."""
        return Abacus(self.e, self.base + c, (x + c for x in self.window))

    def to_string(self):
        """Debug dump: rows of e positions, filled/empty dots."""
        lo = self.base - (self.base % self.e) - self.e
        hi = self.top() + self.e
        rows = []
        for start in range(lo, hi, self.e):
            rows.append(" ".join("●" if self.occupied(start + j) else "·" for j in range(self.e)))
        return "\n".join(rows)


def abacus_of(lam, e):
    """The abacus of beta(lambda) = {lambda_i - i}."""
    ell = len(lam.parts)
    window = tuple(p - i for i, p in enumerate(lam.parts, start=1))
    return Abacus(e, -ell, window)


def partition_of(a):
    """Recover the partition from an abacus."""
    parts = []
    for idx, x in enumerate(a.window):
        parts.append((x - a.base) - idx)
    parts.reverse()
    return Partition(parts)


def _cqw_from_abacus(a):
    e = a.e
    quot = []
    weight = 0
    tops = []
    for r in range(e):
        occ = a.runner_positions(r)
        wts = [a.weight_of(b) for b in reversed(occ)]
        weight += sum(wts)
        quot.append(Partition([w for w in wts if w]))
        s = a.first_slot(r)
        tops.append(s + (len(occ) - 1) * e)
    lo = min(tops) - e
    occ = set()
    for r in range(e):
        occ.update(range(tops[r], lo - 1, -e))
    core = partition_of(Abacus.from_occupied(e, occ, lo))
    return core, tuple(quot), weight


@lru_cache(maxsize=None)
def _cqw_cached(parts, e):
    a = Abacus(e, -len(parts), tuple(p - i for i, p in enumerate(parts, start=1)))
    return _cqw_from_abacus(a)


def core_quotient_weight(a):
    """(e-core, e-quotient, e-weight) read off the given abacus display.

    The quotient components depend on the display's charge; the core and
    weight do not.
    """
    return _cqw_from_abacus(a)


def core_of(lam, e):
    return _cqw_cached(lam.parts, e)[0]


def quotient_of(lam, e):
    return _cqw_cached(lam.parts, e)[1]


def weight_of(lam, e):
    return _cqw_cached(lam.parts, e)[2]


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

    @staticmethod
    def from_json(obj):
        return BlockId(int(obj["e"]), Partition(obj["core"]), int(obj["weight"]))


def block_of(lam, e):
    core, _, w = _cqw_cached(lam.parts, e)
    return BlockId(e, core, w)


def core_levels(core, e):
    """Runner levels (m_r - r)/e of a core, canonical charge."""
    a = abacus_of(core, e)
    return tuple((a.runner_max(r) - r) // e for r in range(e))


def core_from_levels(levels, e):
    """The core whose runner r ends at position r + e*levels[r]."""
    lo = (min(levels) - 1) * e - e
    occ = set()
    for r in range(e):
        m_r = r + levels[r] * e
        occ.update(range(m_r, lo - 1, -e))
    return partition_of(Abacus.from_occupied(e, occ, lo))


def _compositions(total, nparts):
    if nparts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, nparts - 1):
            yield (head,) + rest


def partition_from_quotient(b, quot):
    """Invert the e-quotient bijection inside the block b."""
    e = b.e
    a = abacus_of(b.core, e)
    occ = set()
    lo = a.base - e * (b.weight + 2) - e
    for r in range(e):
        m_r = a.runner_max(r)
        nu = quot[r].parts
        depth = max(len(nu) + 2, 1) + (m_r - lo) // e + 1
        for j in range(1, depth):
            nu_j = nu[j - 1] if j - 1 < len(nu) else 0
            p = m_r + (nu_j - j + 1) * e
            if p >= lo:
                occ.add(p)
    return partition_of(Abacus.from_occupied(e, occ, lo))


def enumerate_block(b):
    """All partitions with the block's e-core and e-weight."""
    from .partitions import all_partitions

    out = []
    parts_of = {n: all_partitions(n) for n in range(b.weight + 1)}
    for comp in _compositions(b.weight, b.e):
        choices = [parts_of[c] for c in comp]

        def rec(i, acc):
            if i == b.e:
                out.append(partition_from_quotient(b, tuple(acc)))
                return
            for nu in choices[i]:
                acc.append(nu)
                rec(i + 1, acc)
                acc.pop()

        rec(0, [])
    out.sort(key=lambda p: p.parts, reverse=True)
    return out


# -- crystal operators ----------------------------------------------------


def _signature(a, i):
    """Slots of residue i: (position, kind) with kind 'R' (removable bead at
    the slot) or 'A' (addable bead at slot-1), in increasing position order."""
    e = a.e
    lo = a.base + ((i - a.base) % e)
    hi = a.max_occupied() + e + 1
    out = []
    for t in range(lo, hi + 1, e):
        t_occ = a.occupied(t)
        p_occ = a.occupied(t - 1)
        if t_occ and not p_occ:
            out.append((t, "R"))
        elif not t_occ and p_occ:
            out.append((t, "A"))
    return out


def _matched_signature(a, i):
    """Unmatched slots after cancelling each addable against the nearest
    unmatched removable above it."""
    stack = []
    unmatched_A = []
    for t, kind in _signature(a, i):
        if kind == "R":
            stack.append(t)
        elif stack:
            stack.pop()
        else:
            unmatched_A.append(t)
    return stack, unmatched_A


def normal_beads(a, i):
    """Positions of normal removable beads on runner i, top to bottom."""
    return _matched_signature(a, i)[0]


def conormal_slots(a, i):
    """Target slots of conormal addable beads on runner i, top to bottom."""
    return _matched_signature(a, i)[1]


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
    """The crystal Weyl-group action of the simple reflection s_i."""
    e = a.e
    i %= e
    lam = partition_of(a)
    core = core_of(lam, e)
    lv = core_levels(core, e)
    k_rem, k_add = core_reflection_counts(lv, e, i)
    out = a
    if k_rem > 0:
        for _ in range(k_rem):
            out = crystal_E(out, i)
            if out is None:
                raise AssertionError("crystal string shorter than Weyl step")
    elif k_add > 0:
        for _ in range(k_add):
            out = crystal_F(out, i)
            if out is None:
                raise AssertionError("crystal string shorter than Weyl step")
    return out


# -- runner addition -------------------------------------------------------


def add_full_runner(lam, e):
    """Embed lambda into a block on e+1 runners by adding a full runner.

    beta(lam+) contains r(e+1)+s, for s in [0,e], iff s < e and
    (r+|lam|)e+s lies in beta(lam), or s = e and r < |lam|*e.
    """
    n = lam.size
    beta = abacus_of(lam, e)
    occ = set()
    r_lo = -2 * n - 2 * e - 6
    r_hi = n * e + 1
    for r in range(r_lo, r_hi + 1):
        for s in range(e):
            if beta.occupied((r + n) * e + s):
                occ.add(r * (e + 1) + s)
        if r < n * e:
            occ.add(r * (e + 1) + e)
    low = r_lo * (e + 1)
    return partition_of(Abacus.from_occupied(e + 1, occ, low))


# -- Rouquier predicate and Scopes chains ----------------------------------


def _rotated_levels(levels, c):
    """Runner levels after a charge shift by c (a rotation of the vector)."""
    e = len(levels)
    return tuple(levels[(s - c) % e] for s in range(e))


def rouquier_charge(b):
    """Least charge shift making the core's runner gaps Rouquier-large.

    Returns c in [0, e) such that the shifted display has at least w-1
    removable beads and no addable beads on every runner a in [1, e), or
    None when no shift works.
    """
    lv = core_levels(b.core, b.e)
    need = max(b.weight - 1, 0)
    for c in range(b.e):
        rot = _rotated_levels(lv, c)
        if all(rot[a] - rot[a - 1] >= need for a in range(1, b.e)):
            return c
    return None


def is_rouquier(b):
    return rouquier_charge(b) is not None


def _deficit(levels, need):
    """Best-rotation total gap deficit; zero iff Rouquier."""
    e = len(levels)
    best = None
    for c in range(e):
        rot = _rotated_levels(levels, c)
        d = sum(max(0, need - (rot[a] - rot[a - 1])) for a in range(1, e))
        best = d if best is None else min(best, d)
    return best


def scopes_chain(b):
    """A Scopes chain from a Rouquier block B_0 of the same weight to b.

    Returns a list of (a_i, k_i): replaying s_{a_i} forward from B_0, where
    the i-th core has k_i >= 1 removable beads on runner a_i, lands on b.
    The chain is empty when b is already Rouquier.

    Construction, in runner-level coordinates (reverse steps from b): sort
    the level vector with adjacent descent swaps, then, while the smallest
    sorted gap below the target persists at index p, run p+1 rounds of the
    affine wrap followed by a right-bubble of the pumped maximum.  Each
    round decrements the p+1 lowest levels and raises the top one, so the
    total gap deficit strictly decreases.
    """
    e, w = b.e, b.weight
    if w < 1:
        raise ValueError("scopes_chain requires weight >= 1")
    need = max(w - 1, 0)
    lv = list(core_levels(b.core, b.e))
    rev = []

    def sort_pass():
        while True:
            swapped = False
            for a in range(1, e):
                if lv[a - 1] > lv[a]:
                    rev.append((a, lv[a - 1] - lv[a]))
                    lv[a - 1], lv[a] = lv[a], lv[a - 1]
                    swapped = True
            if not swapped:
                return

    while _deficit(tuple(lv), need) > 0:
        sort_pass()
        gaps = [lv[i + 1] - lv[i] for i in range(e - 1)]
        if all(g >= need for g in gaps):
            break
        p = next(i for i, g in enumerate(gaps) if g < need)
        for _ in range(p + 1):
            if lv[e - 1] < lv[0]:
                raise AssertionError("illegal wrap during chain construction")
            rev.append((0, lv[e - 1] - lv[0] + 1))
            lv[0], lv[e - 1] = lv[e - 1] + 1, lv[0] - 1
            for a in range(1, e):
                if lv[a - 1] > lv[a]:
                    rev.append((a, lv[a - 1] - lv[a]))
                    lv[a - 1], lv[a] = lv[a], lv[a - 1]
    return [step for step in reversed(rev)]


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
