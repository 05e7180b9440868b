"""Fock-space vectors and the divided-power operators E_i^(k), F_i^(k).

The operators act on the packed beta-sets of `abacus` (`mask_of`): bit p of
a mask is the bead at position lo + p of the charge-0 abacus of a partition,
and every position below lo is occupied.  A step adds or removes at most one
row, so an offset lo <= -(rows + 2) leaves room for it.

A column is (lo, col), an offset and its packed terms {mask: {exponent:
int}}: the one format the routes hand to each other, to the suites and to
the command line.  Two columns moved to one offset (`move`) are equal when
their dicts are.  A `FockVector` is made only for a reader that wants one
(`unpack`).

The coefficient dicts {exponent: int} of packed terms are values: once
made they are never changed in place, so kernels share them.  A term that
a step only relabels, one move with exponent 0, keeps its input's dict, and
`_accumulate` writes a fresh dict where two terms meet; stored columns may
therefore share coefficients with each other and with the vectors built
from them.
"""

from __future__ import annotations

from itertools import combinations

from .abacus import _addable, _bits, _removable, _runner, mask_of, partition_of_mask
from .laurent import LaurentPoly
from .partitions import Partition


class FockVector:
    """Finite formal sum of partitions with Laurent-polynomial coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        for lam, c in (terms or {}).items():
            c = LaurentPoly.of(c)
            if c:
                d[lam] = c
        object.__setattr__(self, "terms", d)

    def __setattr__(self, name, value):
        raise AttributeError("FockVector is immutable")

    @staticmethod
    def basis(lam):
        return FockVector({lam: LaurentPoly.one()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, FockVector) and self.terms == other.terms

    def __add__(self, other):
        d = dict(self.terms)
        for lam, c in other.terms.items():
            d[lam] = d.get(lam, LaurentPoly.zero()) + c
        return FockVector(d)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly.of(-1))

    def scale(self, c):
        c = LaurentPoly.of(c)
        return FockVector({lam: coef * c for lam, coef in self.terms.items()})

    def coeff(self, lam):
        return self.terms.get(lam, LaurentPoly.zero())

    def support(self):
        return sorted(self.terms, reverse=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam in self.support():
            bits.append("(%s)*%s" % (self.terms[lam], lam))
        return " + ".join(bits)


def _accumulate(out, m, coef, n):
    """out[m] += q^n * coef, on exponent -> integer dicts.  out[m] is
    replaced, never changed in place; coef itself becomes out[m] when out
    has no term at m and n = 0."""
    prev = out.get(m)
    if prev is None:
        out[m] = {x + n: c for x, c in coef.items()} if n else coef
        return
    s = dict(prev)
    for x, c in coef.items():
        x += n
        c += s.get(x, 0)
        if c:
            s[x] = c
        else:
            del s[x]
    out[m] = s


def step_F(vec, i, k, e, lo):
    """F_i^(k) on packed terms: move k beads of runner i-1 up one position.

    The exponent of a move C sums, over its beads c, the addable beads of
    the result above c minus the removable runner-i beads of the source
    above c + 1.  A term with exactly k addable runner-(i-1) beads has one
    move, all of them, and its result has no addable runner-(i-1) bead (a
    bead left on runner i-1 keeps its upper neighbour), so the sum is read
    only when the source has a removable runner-i bead, and is 0 otherwise.
    """
    if not vec:
        return {}
    width = max(vec).bit_length() + 1
    radd = _runner(i - 1, e, lo, width)
    rrem = _runner(i, e, lo, width)
    out = {}
    for m, coef in vec.items():
        add = _addable(m) & radd
        nc = add.bit_count()
        if nc < k:
            continue
        rem = _removable(m) & rrem
        if nc == k:
            m2 = m ^ add ^ (add << 1)
            n = 0
            while rem and add:
                low = add & -add
                n -= (rem >> (low.bit_length() + 1)).bit_count()
                add ^= low
            _accumulate(out, m2, coef, n)
            continue
        for C in combinations(_bits(add), k):
            moved = 0
            for c in C:
                moved |= 1 << c
            m2 = m ^ moved ^ (moved << 1)
            add2 = _addable(m2) & radd
            n = 0
            for c in C:
                n += (add2 >> (c + 1)).bit_count() - (rem >> (c + 2)).bit_count()
            _accumulate(out, m2, coef, n)
    return {m: c for m, c in out.items() if c}


def step_E(vec, i, k, e, lo):
    """E_i^(k) on packed terms: move k beads of runner i down one position.

    The exponent of a move C sums, over its beads c, the removable runner-i
    beads of the result below c minus the addable beads of the source
    below c - 1.  A term with exactly k removable runner-i beads has one
    move, all of them, and its result has no removable runner-i bead (a
    bead left on runner i keeps its lower neighbour), so the sum is read
    only when the source has an addable runner-(i-1) bead, and is 0
    otherwise.
    """
    if not vec:
        return {}
    width = max(vec).bit_length() + 1
    radd = _runner(i - 1, e, lo, width)
    rrem = _runner(i, e, lo, width)
    out = {}
    for m, coef in vec.items():
        rem = _removable(m) & rrem
        nc = rem.bit_count()
        if nc < k:
            continue
        add = _addable(m) & radd
        if nc == k:
            m2 = m ^ rem ^ (rem >> 1)
            n = 0
            while add and rem:
                low = rem & -rem
                n -= (add & ((low >> 1) - 1)).bit_count()
                rem ^= low
            _accumulate(out, m2, coef, n)
            continue
        for C in combinations(_bits(rem), k):
            moved = 0
            for c in C:
                moved |= 1 << c
            m2 = m ^ moved ^ (moved >> 1)
            rem2 = _removable(m2) & rrem
            n = 0
            for c in C:
                n += (rem2 & ((1 << c) - 1)).bit_count() - (add & ((1 << (c - 1)) - 1)).bit_count()
            _accumulate(out, m2, coef, n)
    return {m: c for m, c in out.items() if c}


def pack(v, lo):
    """The packed terms of the Fock vector v over offset lo."""
    return {mask_of(lam, lo): dict(c.coeffs) for lam, c in v.terms.items()}


def unpack(vec):
    """The Fock vector of packed terms (over any offset)."""
    return FockVector({partition_of_mask(m): LaurentPoly(c) for m, c in vec.items()})


def move(vec, lo, new):
    """Packed terms over offset lo moved to offset new; the positions below
    new that a term drops must be filled."""
    d = new - lo
    if d <= 0:
        return {(m << -d) | ((1 << -d) - 1): c for m, c in vec.items()}
    fill = (1 << d) - 1
    if any(m & fill != fill for m in vec):
        raise AssertionError("a packed term does not fit above the new offset")
    return {m >> d: c for m, c in vec.items()}


def _beads(lam, r, e, select):
    lo = -(len(lam.parts) + 2)
    m = select(mask_of(lam, lo))
    return tuple(lo + p for p in _bits(m & _runner(r, e, lo, m.bit_length())))


def addable_beads(lam, r, e):
    """Beads x in beta(lam) on runner r with x+1 unoccupied, ascending."""
    return _beads(lam, r, e, _addable)


def removable_beads(lam, r, e):
    """Beads x in beta(lam) on runner r with x-1 unoccupied, ascending."""
    return _beads(lam, r, e, _removable)


def _apply(step, v, i, k, e):
    """step (`step_F` or `step_E`) on a Fock vector or partition, packed over
    -(rows + 2) for the most rows of its terms."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if isinstance(v, Partition):
        v = FockVector.basis(v)
    lo = -(max((len(lam.parts) for lam in v.terms), default=0) + 2)
    return unpack(step(pack(v, lo), i, k, e, lo))


def apply_F(v, i, k, e):
    """Divided power F_i^(k) applied to a Fock vector or partition (k >= 1)."""
    return _apply(step_F, v, i, k, e)


def apply_E(v, i, k, e):
    """Divided power E_i^(k) applied to a Fock vector or partition (k >= 1)."""
    return _apply(step_E, v, i, k, e)
