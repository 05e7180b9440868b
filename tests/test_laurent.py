import pytest
from hypothesis import given, settings, strategies as st

from focktiles.laurent import LaurentPoly, bar_symmetric_split, quantum_factorial, quantum_int


polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6).map(LaurentPoly)


def test_quantum_ints():
    assert quantum_int(1) == LaurentPoly.one()
    assert quantum_int(2) == LaurentPoly({-1: 1, 1: 1})
    assert quantum_int(3) == LaurentPoly({-2: 1, 0: 1, 2: 1})
    with pytest.raises(ValueError):
        quantum_int(0)
    for k in range(1, 7):
        assert quantum_int(k).bar() == quantum_int(k)
        assert quantum_factorial(k) == quantum_int(k) * quantum_factorial(k - 1)


@given(polys, polys, polys)
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a


@given(polys, polys)
@settings(max_examples=120, deadline=None)
def test_bar_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


def test_bar_symmetric_split_examples():
    q = LaurentPoly.monomial
    assert bar_symmetric_split(q(2)) == (LaurentPoly.zero(), q(2))
    assert bar_symmetric_split(q(-1) + 2) == (q(-1) + 2 + q(1), -q(1))
    assert bar_symmetric_split(LaurentPoly.zero()) == (LaurentPoly.zero(), LaurentPoly.zero())


@given(polys)
@settings(max_examples=150, deadline=None)
def test_bar_symmetric_split_properties(c):
    alpha, beta = bar_symmetric_split(c)
    assert alpha + beta == c
    assert alpha.bar() == alpha
    assert beta.in_qZq()
    # uniqueness: alpha is determined by the non-positive part of c
    assert all(alpha.coeff(-e) == c.coeff(-e) for e in range(0, 8))


def test_rendering():
    q = LaurentPoly.monomial
    assert str(q(2) + 1 + q(-2)) == "q^2 + 1 + q^-2"
    assert str(LaurentPoly.zero()) == "0"
    assert (q(2) + 1).to_pairs() == [[0, 1], [2, 1]]
