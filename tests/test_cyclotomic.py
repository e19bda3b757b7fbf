import time
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circforge import Cyclo, FracPoly, VarSpace, cyclo_nth_root, cyclotomic_polynomial, jsonio, minimal_order, rational_sqrt, root_of_unity
from circforge.cyclotomic import descend

from conftest import cyclo_numeric, numerically_zero


def test_phi_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def test_phi_divisor_products_are_the_binomials():
    # x^n - 1 = prod_{d | n} Phi_d determines every Phi_n as a monic integer
    # polynomial, by induction on n
    for n in range(1, 301):
        total = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                total = _polymul(total, cyclotomic_polynomial(d))
        assert total == [-1] + [0] * (n - 1) + [1], n


def test_phi_of_a_highly_composite_order_is_fast():
    # 27720 = 2^3 3^2 5 7 11 is an order prime_field(lcm(orders)) reaches
    # from orders <= 12; it is timed on the uncached function
    start = time.perf_counter()
    phi = cyclotomic_polynomial.__wrapped__(27720)
    assert time.perf_counter() - start < 1
    # degree Euler's phi(27720), monic, and Phi_n(1) = 1 when n is no prime power
    assert len(phi) - 1 == 27720 // 2 // 3 * 2 // 5 * 4 // 7 * 6 // 11 * 10 == 5760
    assert phi[-1] == sum(phi) == 1


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


def test_descend_inverts_embed():
    # descend reads coordinates through the inverse of a square block of the
    # subfield basis, one table per pair m | k
    for k in range(1, 31):
        for m in (m for m in range(1, k + 1) if k % m == 0):
            x = Cyclo(m, [Fraction(i + 1, i + 2) for i in range(m)])
            down = descend(x.embed(k), m)
            assert down.order == m and down.coeffs == x.coeffs
            assert minimal_order(x.embed(k)) == minimal_order(x)
            # e_m lies in Q(e_d) exactly when m | d, or m | 2d for odd d
            assert minimal_order(root_of_unity(m).embed(k)) == (m // 2 if m % 4 == 2 else m)


# the same power at orders 4, 1 and 6, -1 stored at order 2, and
# non-rational bases of orders 8, 3, 12 and a sum promoted to 12
_POWER_BASES = [
    Cyclo.rational(3, 4),
    Cyclo.rational(Fraction(-2, 3)),
    Cyclo.one(6),
    root_of_unity(2, 1),
    root_of_unity(8, 3),
    root_of_unity(3) + 2,
    Cyclo(12, [Fraction(1, 3), 0, -7, 2]),
    root_of_unity(4) + root_of_unity(6),
]


def test_power_is_the_left_fold_of_products():
    for b in _POWER_BASES:
        for n in range(10):
            for base, e in ((b, n), (b.inverse(), -n)):
                fold = reduce(mul, [base] * n, Cyclo.one(b.order))
                got = b**e
                assert got == fold and got.order == fold.order, (b, e)
        assert b**-3 * b**3 == 1


def test_a_number_over_c_keeps_the_order_of_c_inverse():
    # the quotient's order is part of its JSON, so q / c must match c.inverse() in it too
    for k in range(1, 13):
        for c in (Cyclo.rational(Fraction(2, 3), k), Cyclo.rational(-5, k), root_of_unity(k, 1) + 2):
            inv = c.inverse()
            for q, expected in ((Fraction(1), inv), (2, inv * 2), (Fraction(-3, 4), inv * Fraction(-3, 4))):
                got = q / c
                assert got == expected and got.order == expected.order == k, (q, c)
    assert (Fraction(1) / Cyclo.rational(2, 3)).order == 3


def test_rational_sqrt_gauss_sums():
    for q in [2, 3, 5, 7, 13, -3, -1, 6, 12, Fraction(9, 4), Fraction(-5, 8)]:
        r = rational_sqrt(Fraction(q))
        assert r * r == Fraction(q)


def test_rational_sqrt_refuses_a_float_or_a_string():
    # Fraction(q) read 0.5 as 1/2 and "2" as 2, and 0.1 as its binary fraction
    for value in (0.5, "2"):
        with pytest.raises(TypeError):
            rational_sqrt(value)


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


# -- the integer kernel against the mpmath oracle -----------------------------

_BIG = 10**40
_MAX_LCM = 72  # keeps the lcm order of mixed operands, and so the test, small

_numerators = st.one_of(st.integers(-_BIG, _BIG), st.integers(-3, 3), st.just(0))
_denominators = st.one_of(st.just(1), st.integers(1, 10**12))


@st.composite
def _cyclos(draw, orders=st.integers(1, 24)):
    """A Cyclo built from a coefficient list of any length, so that the
    constructor's reduction modulo Phi_k is exercised too."""
    k = draw(orders)
    n = draw(st.integers(0, k + 3))
    nums = draw(st.lists(_numerators, min_size=n, max_size=n))
    dens = draw(st.lists(_denominators, min_size=n, max_size=n))
    return Cyclo(k, [Fraction(a, b) for a, b in zip(nums, dens)])


@st.composite
def _mixed_triples(draw):
    a = draw(_cyclos())
    b = draw(_cyclos(st.sampled_from([m for m in range(1, 25) if lcm(a.order, m) <= _MAX_LCM])))
    k = lcm(a.order, b.order)
    c = draw(_cyclos(st.sampled_from([m for m in range(1, 25) if lcm(k, m) <= _MAX_LCM])))
    return a, b, c


def _digits(*cs, extra=()) -> int:
    """An upper bound on the decimal digits of the numerator and denominator
    together of any coefficient of the cs, or of any rational in extra."""
    qs = [q for c in cs for q in c.coeffs] + list(extra)
    return max(q.numerator.bit_length() + q.denominator.bit_length() for q in qs) * 31 // 100 + 2


def _oracle_agrees(pairs, *cs) -> bool:
    """Every (exact, expected) pair agrees numerically, where `expected` maps
    the operands' mpmath values to a number.  With D digits in the largest
    coefficient anywhere, both sides are within 10^-(D+50) of the truth at
    4D + 60 digits, and a wrong exact result is off by about 10^-D or more."""
    digits = _digits(*cs, *(e for e, _ in pairs))
    dps = 4 * digits + 60
    with mpmath.workdps(dps):
        values = [cyclo_numeric(c, dps) for c in cs]
        tol = mpmath.mpf(10) ** (-(digits + 30))
        return all(abs(cyclo_numeric(e, dps) - f(*values)) <= tol for e, f in pairs)


@settings(max_examples=60, deadline=None)
@given(_mixed_triples())
def test_field_axioms_against_mpmath(abc):
    a, b, c = abc
    ab, bc = a * b, b * c
    assert ab * c == a * bc
    assert a * (b + c) == ab + a * c
    assert (a + b) + c == a + (b + c)
    assert _oracle_agrees(
        [
            (ab, lambda x, y, z: x * y),
            (a + b, lambda x, y, z: x + y),
            (ab * c, lambda x, y, z: x * y * z),
            (a * (b + c), lambda x, y, z: x * (y + z)),
            (a - c, lambda x, y, z: x - z),
        ],
        a, b, c,
    )


@settings(max_examples=40, deadline=None)
@given(_cyclos())
def test_inverse_against_mpmath(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv = a.inverse()
    assert inv.order == a.order
    assert a * inv == 1 and inv * a == 1
    # |value| <= 10^D for D digits, so the product's error is below 10^-50
    dps = _digits(a) + _digits(inv) + 60
    with mpmath.workdps(dps):
        assert abs(cyclo_numeric(a, dps) * cyclo_numeric(inv, dps) - 1) <= mpmath.mpf(10) ** (-30)


@settings(max_examples=60, deadline=None)
@given(_cyclos())
def test_coeffs_view(a):
    deg = len(cyclotomic_polynomial(a.order)) - 1
    coeffs = a.coeffs
    assert type(coeffs) is tuple and len(coeffs) == a.order
    assert all(type(q) is Fraction for q in coeffs)
    assert all(q == 0 for q in coeffs[deg:])
    assert Cyclo(a.order, coeffs) == a and Cyclo(a.order, list(coeffs[:deg])) == a
    # the strings that str() and the JSON encoder print
    assert a.coeff_strings == [jsonio.frac_to_str(q) for q in coeffs]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.lists(st.tuples(_numerators, _denominators), max_size=30))
def test_constructor_reduces_any_length(k, pairs):
    coeffs = [Fraction(a, b) for a, b in pairs]
    a = Cyclo(k, coeffs)
    digits = _digits(a, extra=coeffs)
    dps = 2 * digits + 60
    with mpmath.workdps(dps):
        expected = mpmath.fsum(
            mpmath.mpf(q.numerator) / q.denominator * mpmath.expjpi(mpmath.mpf(2 * i) / k)
            for i, q in enumerate(coeffs)
        )
        assert abs(cyclo_numeric(a, dps) - expected) <= mpmath.mpf(10) ** (-(digits + 30))


def test_result_order_follows_rational_fast_paths():
    # The order of a result is part of its JSON, so it is pinned here: a
    # rational factor keeps the other operand's order, a factor equal to 1
    # returns the other operand, and a sum always promotes to the lcm.
    e4 = root_of_unity(4)
    assert (Cyclo.one(6) * e4).order == 4
    assert (Cyclo.one(6) * e4) is e4
    assert (e4 * Cyclo.rational(3, 8)).order == 4
    assert (Cyclo.rational(3, 8) * e4).order == 4
    assert (Cyclo.rational(2, 6) + e4).order == 12
    assert (e4 + Cyclo.rational(2, 6)).order == 12
    assert (root_of_unity(6) * root_of_unity(4)).order == 12
    for c in [Cyclo.one(6) * e4, Cyclo.rational(2, 6) + e4, Cyclo(12, [Fraction(1, 3), 0, -7, 2, Fraction(5, 9)])]:
        back = jsonio.cyclo_from_json(jsonio.cyclo_to_json(c))
        assert back.order == c.order and back.coeffs == c.coeffs


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, "1/2", Decimal("0.1"), None], ids=repr)
def test_a_float_or_a_string_never_becomes_a_coefficient(value):
    # every way to make a coefficient refuses what arithmetic refuses: 0.1
    # was read as the binary fraction 3602879701896397/36028797018963968
    sp = VarSpace([], ["x"])
    x = FracPoly.variable(sp, "x")
    builds = [
        lambda: Cyclo.one() * value,
        lambda: x * value,
        lambda: Cyclo.rational(value),
        lambda: Cyclo.rational(value, 4),
        lambda: Cyclo(3, [Fraction(1, 2), value, 0]),
        lambda: x.scale(value),
        lambda: FracPoly.constant(sp, value),
    ]
    for build in builds:
        with pytest.raises(TypeError):
            build()


def test_an_int_or_a_fraction_is_a_coefficient_at_any_order():
    for q in (0, -7, True, 10**30, Fraction(-3, 4)):
        for k in (1, 4, 6):
            c = Cyclo.rational(q, k)
            assert c.order == k and c.coeffs == (Fraction(q),) + (0,) * (k - 1)
            assert Cyclo(k, [q]) == c == Cyclo.one() * q
    assert Cyclo.zero(5).coeff_strings == ["0"] * 5 and Cyclo.one(5).coeff_strings == ["1"] + ["0"] * 4
