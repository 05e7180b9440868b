"""Exact integer Laurent polynomials in q, quantum integers, bar involution."""

from __future__ import annotations


class LaurentPoly:
    """Sparse Laurent polynomial over Z in the variable q.

    Stored as a map exponent -> nonzero integer coefficient; all arithmetic
    is exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        for exp, c in (coeffs or {}).items():
            c = int(c)
            if c:
                d[int(exp)] = c
        object.__setattr__(self, "coeffs", d)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def monomial(exp, coeff=1):
        return LaurentPoly({exp: coeff})

    @staticmethod
    def of(x):
        if isinstance(x, LaurentPoly):
            return x
        return LaurentPoly({0: int(x)})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.of(other)
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        other = LaurentPoly.of(other)
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            d[e] = d.get(e, 0) + c
        return _wrap(d)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-LaurentPoly.of(other))

    def __rsub__(self, other):
        return LaurentPoly.of(other) + (-self)

    def __mul__(self, other):
        other = LaurentPoly.of(other)
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return _wrap({e: c for e, c in d.items() if c})

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by q^k."""
        return _wrap({e + k: c for e, c in self.coeffs.items()})

    def coeff(self, exp):
        return self.coeffs.get(exp, 0)

    def bar(self):
        """The bar involution q -> q^{-1}."""
        return _wrap({-e: c for e, c in self.coeffs.items()})

    def in_qZq(self):
        """True iff every exponent is strictly positive."""
        return all(e > 0 for e in self.coeffs)

    def to_pairs(self):
        """JSON form: [[exp, coeff], ...] sorted by exponent."""
        return [[e, self.coeffs[e]] for e in sorted(self.coeffs)]

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                var = "q" if e == 1 else "q^%d" % e
                body = var if abs(c) == 1 else "%d*%s" % (abs(c), var)
            if not terms:
                terms.append(body if c > 0 else "-" + body)
            else:
                terms.append(("+ " if c > 0 else "- ") + body)
        return " ".join(terms)

    __repr__ = __str__


def _wrap(d):
    p = LaurentPoly()
    object.__setattr__(p, "coeffs", {e: c for e, c in d.items() if c})
    return p


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})


def quantum_int(k):
    """The balanced quantum integer [k]_q = q^{1-k} + q^{3-k} + ... + q^{k-1}."""
    if k < 1:
        raise ValueError("quantum_int requires k >= 1")
    return _wrap({e: 1 for e in range(1 - k, k, 2)})


def quantum_factorial(k):
    """[k]_q! = [k]_q [k-1]_q ... [1]_q."""
    if k < 0:
        raise ValueError("quantum_factorial requires k >= 0")
    out = _ONE
    for j in range(2, k + 1):
        out = out * quantum_int(j)
    return out


def bar_symmetric_split(c):
    """Split c = alpha + beta with bar(alpha) = alpha and beta in qZ[q].

    alpha keeps the constant term and mirrors every negative-exponent term;
    the pair is the unique one with these properties.
    """
    alpha = {}
    for e, coef in c.coeffs.items():
        if e == 0:
            alpha[0] = alpha.get(0, 0) + coef
        elif e < 0:
            alpha[e] = alpha.get(e, 0) + coef
            alpha[-e] = alpha.get(-e, 0) + coef
    alpha = _wrap(alpha)
    return alpha, c - alpha
