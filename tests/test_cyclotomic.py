from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circforge import Cyclo, cyclo_nth_root, cyclotomic_polynomial, minimal_order, rational_sqrt, root_of_unity
from circforge.cyclotomic import descend

from conftest import cyclo_numeric, numerically_zero


def test_phi_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_basics():
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1
    with pytest.raises(ValueError):
        root_of_unity(0)


def test_embed_examples():
    assert root_of_unity(2, 1).embed(4) == root_of_unity(4, 1) ** 2
    assert Cyclo.rational(5).embed(12) == 5
    assert (root_of_unity(3, 1) + root_of_unity(3, 2)).embed(6) == -1
    with pytest.raises(ValueError):
        root_of_unity(4).embed(6)


def test_field_arithmetic():
    e4 = root_of_unity(4)
    assert (1 + e4) * (1 - e4) == 2
    a = 1 + root_of_unity(3)
    assert a * a.inverse() == 1
    assert a + (-a) == 0
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero().inverse()


def test_geometric_sum_identity():
    for k in range(1, 13):
        for m in range(0, 25):
            total = Cyclo.zero(k)
            for j in range(k):
                total = total + root_of_unity(k, j * m)
            assert total == (k if m % k == 0 else 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.data())
def test_embed_respects_arithmetic(k, data):
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    m = data.draw(st.sampled_from(divisors))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    coeffs2 = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    a, b = Cyclo(m, coeffs), Cyclo(m, coeffs2)
    assert (a * b).embed(k) == a.embed(k) * b.embed(k)
    assert (a + b).embed(k) == a.embed(k) + b.embed(k)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.lists(st.integers(-4, 4), min_size=1, max_size=12))
def test_is_zero_matches_numerics(k, coeffs):
    a = Cyclo(k, coeffs[:k] + [0] * max(0, k - len(coeffs)))
    assert a.is_zero() == numerically_zero(a)


def test_minimal_order():
    assert minimal_order((root_of_unity(3) + root_of_unity(3, 2)).embed(6)) == 1
    assert minimal_order(root_of_unity(6, 2)) == 3
    assert minimal_order(root_of_unity(8)) == 8
    assert descend(root_of_unity(6, 2), 3) == root_of_unity(3)


def test_rational_sqrt_gauss_sums():
    for q in [2, 3, 5, 7, 13, -3, -1, 6, 12, Fraction(9, 4), Fraction(-5, 8)]:
        r = rational_sqrt(Fraction(q))
        assert r * r == Fraction(q)


def test_nth_roots():
    assert cyclo_nth_root(Cyclo.rational(-1), 2) ** 2 == -1
    assert cyclo_nth_root(Cyclo.rational(8), 3) == 2
    assert cyclo_nth_root(root_of_unity(3), 2) ** 2 == root_of_unity(3)
    assert cyclo_nth_root(Cyclo.rational(3), 3) is None
    # roots beyond float range and precision, decided in integers
    assert cyclo_nth_root(Cyclo.rational(10**400), 2) == 10**200
    assert cyclo_nth_root(Cyclo.rational((10**17 + 3) ** 3), 3) == 10**17 + 3
    assert cyclo_nth_root(Cyclo.rational((10**17 + 3) ** 3 + 1), 3) is None


def test_inverse_on_roots_of_unity():
    for k in range(1, 10):
        for e in range(k):
            z = root_of_unity(k, e)
            assert z * z.inverse() == 1
            assert z.inverse() == root_of_unity(k, -e)
