"""Fock-space vectors and the divided-power operators E_i^(k), F_i^(k).

The operators act on packed beta-sets.  Bit p of a mask is the bead at
position lo + p of the charge-0 abacus of a partition (the beads are
lam_i - i for i >= 1); every position below lo is occupied.  A step adds or
removes at most one row, so an offset lo <= -(rows + 2) leaves room for it.
Packed terms are dicts {mask: {exponent: int}}.
"""

from __future__ import annotations

from itertools import combinations

from .laurent import LaurentPoly
from .partitions import Partition


class FockVector:
    """Finite formal sum of partitions with Laurent-polynomial coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for lam, c in (terms.items() if isinstance(terms, dict) else terms):
                c = LaurentPoly.of(c)
                if c:
                    d[lam] = d.get(lam, LaurentPoly.zero()) + c
                    if not d[lam]:
                        del d[lam]
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
            s = d.get(lam, LaurentPoly.zero()) + c
            if s:
                d[lam] = s
            elif lam in d:
                del d[lam]
        return FockVector(d)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly.of(-1))

    def scale(self, c):
        c = LaurentPoly.of(c)
        if not c:
            return FockVector()
        return FockVector({lam: coef * c for lam, coef in self.terms.items()})

    def coeff(self, lam):
        return self.terms.get(lam, LaurentPoly.zero())

    def bar(self):
        return FockVector({lam: c.bar() for lam, c in self.terms.items()})

    def support(self):
        return sorted(self.terms, key=lambda p: p.parts, reverse=True)

    def to_json(self):
        return [
            {"partition": list(lam.parts), "coeff": c.to_pairs()}
            for lam, c in sorted(self.terms.items(), key=lambda kv: kv[0].parts, reverse=True)
        ]

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam in self.support():
            bits.append("(%s)*%s" % (self.terms[lam], lam))
        return " + ".join(bits)


def pairing(v, lam):
    """Coefficient extraction <v, lam> for the orthonormal partition basis."""
    return v.coeff(lam)


def mask_of(lam, lo):
    """Packed beta-set of lam over offset lo (requires lo <= -len(lam))."""
    parts = lam.parts
    m = (1 << (-lo - len(parts))) - 1
    for i, p in enumerate(parts, start=1):
        m |= 1 << (p - i - lo)
    return m


def partition_of(m, lo):
    """The partition whose packed beta-set over offset lo is m."""
    parts = []
    below = 0  # beads below the current one
    while m:
        low = m & -m
        p = low.bit_length() - 1 - below
        if p:
            parts.append(p)
        m ^= low
        below += 1
    parts.reverse()
    return Partition(parts)


def _bits(m):
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
    m = 0
    for p in range((r - lo) % e, width, e):
        m |= 1 << p
    return m


def _accumulate(out, m, coef, n):
    """out[m] += q^n * coef, on exponent -> integer dicts."""
    prev = out.get(m)
    if prev is None:
        out[m] = {x + n: c for x, c in coef.items()}
        return
    for x, c in coef.items():
        x += n
        s = prev.get(x, 0) + c
        if s:
            prev[x] = s
        else:
            del prev[x]


def step_F(vec, i, k, e, lo):
    """F_i^(k) on packed terms: move k beads of runner i-1 up one position.

    The exponent of a move C sums, over its beads c, the addable beads of
    the result above c minus the removable runner-i beads of the source
    above c + 1.
    """
    if not vec:
        return {}
    width = max(m.bit_length() for m in vec) + 1
    radd = _runner(i - 1, e, lo, width)
    rrem = _runner(i, e, lo, width)
    out = {}
    for m, coef in vec.items():
        cand = _bits(_addable(m) & radd)
        if len(cand) < k:
            continue
        rem = _removable(m) & rrem
        for C in combinations(cand, k):
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
    below c - 1.
    """
    if not vec:
        return {}
    width = max(m.bit_length() for m in vec) + 1
    radd = _runner(i - 1, e, lo, width)
    rrem = _runner(i, e, lo, width)
    out = {}
    for m, coef in vec.items():
        cand = _bits(_removable(m) & rrem)
        if len(cand) < k:
            continue
        add = _addable(m) & radd
        for C in combinations(cand, k):
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


def pack(v):
    """(packed terms, lo) of a Fock vector or partition."""
    if isinstance(v, Partition):
        v = FockVector.basis(v)
    lo = -(max((len(lam.parts) for lam in v.terms), default=0) + 2)
    return {mask_of(lam, lo): dict(c.coeffs) for lam, c in v.terms.items()}, lo


def unpack(vec, lo):
    """The Fock vector of packed terms over offset lo."""
    return FockVector({partition_of(m, lo): LaurentPoly(c) for m, c in vec.items()})


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


def apply_F(v, i, k, e):
    """Divided power F_i^(k) applied to a Fock vector or partition (k >= 1)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    vec, lo = pack(v)
    return unpack(step_F(vec, i, k, e, lo), lo)


def apply_E(v, i, k, e):
    """Divided power E_i^(k) applied to a Fock vector or partition (k >= 1)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    vec, lo = pack(v)
    return unpack(step_E(vec, i, k, e, lo), lo)
