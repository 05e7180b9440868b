"""Bead movements, rimhooks, armlength labels z and zhat, modified basis vectors."""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import isqrt
from operator import add, sub

from .abacus import abacus_of, enumerate_block, facts, partition_of, quotient_tuples


class BeadMovement(namedtuple("BeadMovement", "b q index")):
    """One e-step slide of the bead originally at b, starting at q; index is
    its 1-based rank in the total order (q first, then b)."""

    __slots__ = ()


def abacus_movements(runners, e):
    """The bead movements, in the total order (by q, then b), of the beta-set
    on e runners whose `Abacus.runner_slices` are given."""
    raw = []
    for first, bits in runners:
        # a bead with g gaps above it starts its g movements at itself and
        # the g - 1 positions above it on the runner; only the beads below
        # the runner's first gap have any
        j = bits.find("0")
        while j >= 0:
            j = bits.find("1", j)
            if j < 0:
                break
            x = first + j * e
            raw.extend((x - i * e, x) for i in range(j - bits.count("1", 0, j)))
            j += 1
    raw.sort()
    return tuple(BeadMovement(b=b, q=q, index=r + 1) for r, (q, b) in enumerate(raw))


def abacus_z(a, mvs):
    """z of the beta-set of the `Abacus` a, whose movements are mvs: the
    armlength of each.

    The armlength of a movement starting at q is the gap count in (q - e, q]:
    e minus the popcount of that e-bit window of the mask.  The window lies
    above base: a bead with g gaps above it has at least g slots above it on
    its runner, so q >= base + e."""
    e, mask, base = a.e, a.mask, a.base
    full = (1 << e) - 1
    return tuple(e - (mask >> (mv.q - e + 1 - base) & full).bit_count() for mv in mvs)


def _moved(lam, e):
    """The `facts` record of lam with its movements filled, and their runner
    chains {runner: (idx, l)}: each runner's movement indices and the
    position in idx of the first movement of its bottom bead."""
    f = facts(lam, e)
    if f.movements is not None:
        return f
    mvs = abacus_movements(f.abacus.runner_slices(), e)
    runs = {}
    for mv in mvs:  # one pass, grouped by runner
        runs.setdefault(mv.q % e, []).append(mv)
    f.chains = {}
    for runner in sorted(runs):
        run, bottom = runs[runner], runs[runner][-1].b
        f.chains[runner] = (tuple(mv.index for mv in run), next(s for s, mv in enumerate(run) if mv.b == bottom))
    f.movements = mvs
    return f


def movements(lam, e):
    """The bead movements of lam, in the total order (by q, then b)."""
    return _moved(lam, e).movements


class RimHook(namedtuple("RimHook", "cells")):
    """A rimhook of a partition: its cell set."""

    __slots__ = ()

    @property
    def size(self):
        return len(self.cells)


def _hook_from_removal(lam, inner):
    """RimHook with cells [lam] minus [inner]; inner must sit inside lam."""
    return RimHook(frozenset(set(lam.cells()) - set(inner.cells())))


def hooks_e(lam, e):
    """All rimhooks of lam of size divisible by e, in bead-movement order.

    The movement (b; b-ie) corresponds to the rimhook removed by sliding the
    bead at b up to the (i+1)-th gap above it on its runner; this pairs the
    movements of each bead bijectively with its rimhooks and fixes the
    canonical indexing shared with the movement order.
    """
    if e < 2:
        raise ValueError("e must be at least 2")
    aba = abacus_of(lam, e)
    gaps = {}
    out = []
    for mv in movements(lam, e):
        if mv.b not in gaps:
            found = []
            t = mv.b - e
            while len(found) < aba.weight_of(mv.b):
                if not aba.occupied(t):
                    found.append(t)
                t -= e
            gaps[mv.b] = found
        y = gaps[mv.b][(mv.b - mv.q) // e]
        removed = partition_of(aba.move_bead(mv.b, y))
        out.append(_hook_from_removal(lam, removed))
    return out


def z_label(lam, e):
    """z(lam): armlengths of all bead movements, in movement order."""
    return _z(_moved(lam, e))


def _z(f):
    """z of the partition whose record `_moved` filled as f, kept in f."""
    if f.z is None:
        f.z = abacus_z(f.abacus, f.movements)
    return f.z


def is_m_increasing(z, m):
    """Gap test: consecutive entries differ by at least m."""
    return all(z[i + 1] - z[i] >= m for i in range(len(z) - 1))


def _hooks(f):
    """The hook-quotient flag of the `facts` record f, kept in f."""
    if f.hook_quotient is None:
        f.hook_quotient = all(q.part(2) <= 1 for q in f.quotient)
    return f.hook_quotient


def is_hook_quotient(lam, e):
    """True iff every e-quotient component is a hook (x, 1^y)."""
    return _hooks(facts(lam, e))


def z_inverse(b, target, ctx=None):
    """The unique 0-increasing partition in block b with the given z-label."""
    target = tuple(target)
    if len(target) != b.weight:
        raise ValueError("label length must equal the block weight")
    if not is_m_increasing(target, 0) or any(t < 0 or t > b.e - 1 for t in target):
        raise ValueError("label must be 0-increasing with entries in [0, e-1]")
    lam = BlockContext.of(b, ctx).z_inv().get(target)
    if lam is None:
        raise AssertionError("no partition with label %r in %r" % (target, b))
    return lam


# -- modified basis vectors -------------------------------------------------


def _unit(w, i):
    return tuple(1 if k == i - 1 else 0 for k in range(w))


def vec_add(u, v):
    return tuple(map(add, u, v))


def vec_sub(u, v):
    return tuple(map(sub, u, v))


def modified_basis(lam, e):
    """The modified basis vectors eps_1, ..., eps_w of hook-quotient lam.

    Along each runner chain eps_i is e_i at the first movement of the
    runner's bottom bead, else e_i - e_j with j the chain neighbour of i
    toward that movement."""
    f = _moved(lam, e)
    if f.modified is not None:
        return f.modified
    if not _hooks(f):
        raise ValueError("modified basis needs a hook-quotient partition")
    w = len(f.movements)
    eps = [None] * w
    for idx, l in f.chains.values():
        for g, i in enumerate(idx):
            if g == l:
                eps[i - 1] = _unit(w, i)
            else:
                j = idx[g + 1] if g < l else idx[g - 1]
                eps[i - 1] = vec_sub(_unit(w, i), _unit(w, j))
    f.modified = tuple(eps)
    return f.modified


def succ_geq(lam, e, i, j):
    """The partial order on movement indices: i >= j along a runner chain."""
    mvs = movements(lam, e)
    w = len(mvs)
    if not (1 <= i <= w and 1 <= j <= w):
        raise IndexError("movement index out of range")
    if not is_hook_quotient(lam, e):
        raise ValueError("the order is defined for hook-quotient partitions")
    if mvs[i - 1].b % e != mvs[j - 1].b % e:
        return False
    idx, l = _moved(lam, e).chains[mvs[i - 1].q % e]
    m = idx[l]
    return (i >= j >= m) or (i <= j <= m)


def succ_maximal(lam, e, subset):
    """Elements of subset maximal with respect to the partial order."""
    out = []
    for i in subset:
        if not any(j != i and succ_geq(lam, e, j, i) for j in subset):
            out.append(i)
    return out


# -- lifted labels ----------------------------------------------------------
#
# A lifted vector lies in the rank w(w+1)/2 lattice spanned by e_i and e_ij
# (i < j): it is the integer tuple of its w coordinates on e_1, ..., e_w,
# then its coordinates on e_ij for i < j in lexicographic order.


def _pairs(v):
    """The e_i part of the lifted vector v, and ((i, j), coefficient of
    e_ij) for its pairs, 0-based."""
    w = (isqrt(8 * len(v) + 1) - 1) // 2
    return v[:w], zip(combinations(range(w), 2), v[w:])


def lift(eps):
    """The lift of a modified basis vector: e_i -> e_i, and e_i - e_j ->
    e_ij when i < j, -e_ji when i > j."""
    w = len(eps)
    if -1 not in eps:
        return tuple(eps) + (0,) * (w * (w - 1) // 2)
    i, j = eps.index(1), eps.index(-1)
    pair, sign = ((i, j), 1) if i < j else ((j, i), -1)
    return (0,) * w + tuple(sign if p == pair else 0 for p in combinations(range(w), 2))


def project(v):
    """p: e_i -> e_i, e_ij -> e_i - e_j."""
    diag, pairs = _pairs(v)
    out = list(diag)
    for (i, j), c in pairs:
        out[i] += c
        out[j] -= c
    return tuple(out)


def lifted_json(v):
    """{"diag": the e_i coordinates, "upper": [i, j, c] for every e_ij with
    c != 0, 1-based, in lexicographic order}."""
    diag, pairs = _pairs(v)
    return {"diag": list(diag), "upper": [[i + 1, j + 1, c] for (i, j), c in pairs if c]}


def hat_z(lam, e):
    """The lifted label zhat(lam), a lifted vector with p(zhat) = z."""
    return _hat(_moved(lam, e))


def _hat(f):
    """zhat of the partition whose record `_moved` filled as f, kept in f."""
    if f.hat_z is None:
        e, mvs = f.abacus.e, f.movements
        diag = list(_z(f))
        upper = []
        for i, j in combinations(range(len(mvs)), 2):
            qi, qj = mvs[i].q, mvs[j].q
            c = qi > qj - e or (qi == qj - e and mvs[i].b == mvs[j].b)
            if c:
                diag[i] -= 1
                diag[j] += 1
            upper.append(int(c))
        f.hat_z = tuple(diag) + tuple(upper)
    return f.hat_z


# -- per-block context ------------------------------------------------------


class BlockContext:
    """Memo tables for one block: members, quotients, labels,
    canonical-basis columns.

    Per-block results live here and nowhere else.  Per-partition facts
    (core, quotient, movements, z, ...) live in the bounded, value-keyed
    memo `abacus.facts`, which every context shares.
    """

    def __init__(self, block):
        self.block = block
        self._members = None
        self._quotients = None
        self._zmap = None
        self._zinv = None
        self.caches = {}

    @staticmethod
    def of(block, ctx=None):
        """ctx, or a new context of block when ctx is None; a context that
        belongs to another block is refused with ValueError."""
        if ctx is None:
            return BlockContext(block)
        if ctx.block != block:
            raise ValueError("the context must belong to the block")
        return ctx

    def members(self):
        if self._members is None:
            self._members = enumerate_block(self.block)
        return self._members

    def quotients(self):
        """Every e-tuple of partitions of total size w, in the order of
        `abacus.quotient_tuples`."""
        if self._quotients is None:
            self._quotients = list(quotient_tuples(self.block.e, self.block.weight))
        return self._quotients

    def z_map(self):
        if self._zmap is None:
            self._zmap = {lam: z_label(lam, self.block.e) for lam in self.members()}
        return self._zmap

    def z_inv(self):
        if self._zinv is None:
            inv = {}
            for lam, z in self.z_map().items():
                if is_m_increasing(z, 0):
                    if z in inv:
                        raise AssertionError("z not injective on 0-increasing set")
                    inv[z] = lam
            self._zinv = inv
        return self._zinv

    def cache(self, name):
        return self.caches.setdefault(name, {})
