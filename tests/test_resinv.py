from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circforge import (
    ATWSequence,
    InvSequence,
    MonomialMarkedIdeal,
    atw_to_inv,
    atwinv_cpk,
    atwinv_product,
    cpk_ideal,
    inv_cpk,
    inv_recursion,
    inv_to_atw,
    product_ideal,
    weights,
)

# The closed forms of the invariants, the oracles of the recursion that
# computes them.


def _inv_cpk_ladder(k):
    """(k, (k+1)/k, 1, k/(k-1), (k-1)/(k-2), ..., 3/2) on x0, w, x1, ..., x(k-1)."""
    entries = (k, Fraction(k + 1, k), 1, *(Fraction(m, m - 1) for m in range(k, 2, -1)))
    return InvSequence(entries, ("x0", "w", *(f"x{j}" for j in range(1, k))))


def _contact(parts, i, j):
    return f"x{j}" if len(parts) == 1 else f"x{i + 1}_{j}"


def _atw_product_formula(parts):
    """With k = sum(parts) and k1 = max(parts): k once per factor, then
    k(k1+1)/k1 for the divisor, then the values k*k_i*(k1+1)/(k1(k_i-j)+k_i)
    for j = 1..k_i-1 over all factors i, ascending, ties in factor order."""
    k, k1 = sum(parts), max(parts)
    tail = sorted(
        (Fraction(k * ki * (k1 + 1), k1 * (ki - j) + ki), i, j) for i, ki in enumerate(parts) for j in range(1, ki)
    )
    entries = [k] * len(parts) + [Fraction(k * (k1 + 1), k1)] + [v for v, _i, _j in tail]
    contacts = [_contact(parts, i, 0) for i in range(len(parts))] + ["w"] + [_contact(parts, i, j) for _v, i, j in tail]
    return ATWSequence(tuple(entries), tuple(contacts))


def _integer_weights(parts):
    """l on w and l - (j l/k_i - l/k1) on x_ij, with l = lcm(parts), and the
    multiplier k(k1+1)l/k1 that takes the rationals to them."""
    k, k1, ell = sum(parts), max(parts), lcm(*parts)
    table = {_contact(parts, i, j): ell - (j * ell // ki - ell // k1) for i, ki in enumerate(parts) for j in range(ki)}
    return {"w": ell, **table}, Fraction(k * (k1 + 1) * ell, k1)


# every tuple of 1-3 parts in 2..9 and of 4 parts in 2..6
_PART_TUPLES = [t for n in (1, 2, 3) for t in product(range(2, 10), repeat=n)] + list(product(range(2, 7), repeat=4))


def test_cpk_closed_forms():
    assert inv_cpk(2).entries == (2, Fraction(3, 2), 1)
    assert inv_cpk(2).contacts == ("x0", "w", "x1")
    assert atwinv_cpk(2).entries == (2, 3, 3)
    assert inv_cpk(3).entries == (3, Fraction(4, 3), 1, Fraction(3, 2))
    assert atwinv_cpk(3).entries == (3, 4, 4, 6)
    for k in range(2, 9):
        assert atwinv_cpk(k).entries[-1] == Fraction(k * (k + 1), 2)
    with pytest.raises(ValueError):
        inv_cpk(1)


def test_product_form():
    assert atwinv_product([2, 2]).entries == (4, 4, 6, 6, 6)
    assert atwinv_product([3, 2]).entries == (5, 5, Fraction(20, 3), Fraction(20, 3), 8, 10)
    for k in range(2, 7):
        assert atwinv_product([k]).entries == atwinv_cpk(k).entries
    with pytest.raises(ValueError):
        atwinv_product([])


def test_transforms_roundtrip():
    for k in range(2, 7):
        assert inv_to_atw(inv_cpk(k)).entries == atwinv_cpk(k).entries
        assert atw_to_inv(atwinv_cpk(k)).entries == inv_cpk(k).entries


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(min_value=Fraction(1, 9), max_value=9), min_size=1, max_size=6))
def test_roundtrip_random(entries):
    entries = [Fraction(int(entries[0].numerator) or 1)] + list(entries[1:])
    entries[0] = abs(entries[0]) or Fraction(1)
    seq = InvSequence(tuple(entries), tuple(f"c{i}" for i in range(len(entries))))
    assert atw_to_inv(inv_to_atw(seq)).entries == seq.entries


def test_weights_cpk():
    for k in range(2, 7):
        wv = weights([k])
        lookup = dict(zip(wv.parameters, wv.integer))
        assert lookup["w"] == k
        for j in range(k):
            assert lookup[f"x{j}"] == k - j + 1
        # rationals are reciprocals of the product-form entries
        atw = atwinv_cpk(k)
        assert wv.rational == tuple(Fraction(1) / e for e in atw.entries)


def test_weights_equal_parts():
    wv = weights([2, 2])
    lookup = dict(zip(wv.parameters, wv.integer))
    assert lookup == {"w": 2, "x1_0": 3, "x1_1": 2, "x2_0": 3, "x2_1": 2}
    base = dict(zip(weights([2]).parameters, weights([2]).integer))
    assert lookup["w"] == base["w"]
    assert lookup["x1_0"] == base["x0"] and lookup["x1_1"] == base["x1"]


def test_recursion_matches_closed_forms():
    for k in range(2, 14):
        assert inv_recursion(cpk_ideal(k)) == inv_cpk(k) == _inv_cpk_ladder(k)
        assert atwinv_cpk(k) == inv_to_atw(_inv_cpk_ladder(k))


def test_recursion_matches_product_forms():
    for parts in _PART_TUPLES:
        assert atwinv_product(parts) == _atw_product_formula(parts), parts


def test_weights_match_the_closed_forms():
    for parts in _PART_TUPLES:
        wv, atw = weights(parts), atwinv_product(parts)
        assert wv.parameters == atw.contacts
        assert wv.rational == tuple(1 / e for e in atw.entries)
        integer, multiplier = _integer_weights(parts)
        assert dict(zip(wv.parameters, wv.integer)) == integer, parts
        assert wv.multiplier == multiplier and gcd(*wv.integer) == 1, parts


def test_one_part_has_the_names_of_cp_k():
    # a single part k is cp_k: every route names its contacts x0, w, x1, ...
    for k in range(2, 7):
        assert product_ideal([k]).pairs == cpk_ideal(k).pairs
        assert atw_to_inv(atwinv_product([k])) == inv_recursion(product_ideal([k])) == inv_cpk(k)


def test_many_parts_keep_the_factor_order():
    # with ten or more factors, ties stay in factor order, not in the
    # string order of the names (x10_1 before x1_1)
    for parts in ([2] * 10, [3] * 11, [2, 3] * 6):
        assert atw_to_inv(atwinv_product(parts)) == inv_recursion(product_ideal(parts))
        assert atwinv_product(parts) == _atw_product_formula(parts)


def test_recursion_input_validation():
    with pytest.raises(ValueError):
        inv_recursion(MonomialMarkedIdeal([({"x0": 2, "x1": 1}, 2)]))
    with pytest.raises(ValueError):
        inv_recursion(MonomialMarkedIdeal([({"x0": 3}, 2)]))
    with pytest.raises(ValueError):
        inv_recursion(MonomialMarkedIdeal([({"x0": 2, "w": 1}, 2)]))  # no divisor-free slot


def test_sequence_validation():
    with pytest.raises(ValueError):
        InvSequence((Fraction(3, 2), Fraction(1)), ("a", "b"))  # leading entry not integral
    with pytest.raises(ValueError):
        InvSequence((Fraction(2),), ("a", "b"))
