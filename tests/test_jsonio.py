import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import json_nodes, json_replace

from circforge import (
    AbelianGroup,
    Cyclo,
    FracPoly,
    ProductNormalFormSpec,
    VarSpace,
    atwinv_product,
    cpk_spec,
    inv_cpk,
    jsonio,
    klein_spec,
    root_of_unity,
    subgroup_from_generators,
    z2z4_spec,
)

_G = AbelianGroup((2, 4))
_SPACE = VarSpace([("w", 2), ("u", 3)], ["x", "z"])


def _poly():
    w, u, x, z = (FracPoly.variable(_SPACE, n) for n in ("w", "u", "x", "z"))
    half_w = FracPoly.monomial(_SPACE, {"w": Fraction(1, 2)})
    return z * z - half_w * x.scale(root_of_unity(6)) + u * w * Fraction(-2, 7)


# (value, encoder, parser), where the parser takes only the JSON object.
CASES = {
    "group": (_G, jsonio.group_to_json, jsonio.group_from_json),
    "element": (_G.element((1, 3)), jsonio.element_to_json, lambda obj: jsonio.element_from_json(_G, obj)),
    "subgroup": (
        subgroup_from_generators(_G, [_G.element((1, 2))]),
        jsonio.subgroup_to_json,
        lambda obj: jsonio.subgroup_from_json(_G, obj),
    ),
    "cyclo": (root_of_unity(5, 2) * Fraction(-3, 4) + Fraction(1, 3), jsonio.cyclo_to_json, jsonio.cyclo_from_json),
    "space": (_SPACE, jsonio.space_to_json, jsonio.space_from_json),
    "poly": (_poly(), jsonio.poly_to_json, jsonio.poly_from_json),
    "spec": (z2z4_spec(), jsonio.spec_to_json, jsonio.spec_from_json),
    "product-spec": (ProductNormalFormSpec((cpk_spec(2), cpk_spec(2))), jsonio.spec_to_json, jsonio.spec_from_json),
    "inv": (inv_cpk(4), jsonio.sequence_to_json, jsonio.inv_from_json),
    "atw": (atwinv_product([3, 2]), jsonio.sequence_to_json, jsonio.atw_from_json),
}


@pytest.mark.parametrize("name", CASES)
def test_round_trip(name):
    value, encode, parse = CASES[name]
    back = parse(encode(value))
    assert back == value
    assert encode(back) == encode(value)


def test_round_trip_named_specs():
    for spec in (klein_spec(), cpk_spec(5)):
        assert jsonio.spec_from_json(jsonio.spec_to_json(spec)) == spec


@pytest.mark.parametrize("name", CASES)
def test_dropping_any_key_is_a_value_error(name):
    value, encode, parse = CASES[name]
    obj = encode(value)
    dropped = 0
    for path, node in json_nodes(obj):
        for key in node if isinstance(node, dict) else ():
            with pytest.raises(ValueError, match="missing key"):
                parse(json_replace(obj, path, {k: v for k, v in node.items() if k != key}))
            dropped += 1
    assert dropped or isinstance(obj, list)


@pytest.mark.parametrize(
    "moduli",
    [[2.9, "3"], [True, 3], [2.0], ["2"], [None], [[2]]],
)
def test_integers_are_json_integers(moduli):
    with pytest.raises(ValueError, match=r"group\.moduli\[0\]: expected int"):
        jsonio.group_from_json({"moduli": moduli})


@pytest.mark.parametrize("entry", ["1.5", "1e3", " 3", "3/0", "3/-4", "+3", "", "\u0663", 1.5, True, None])
def test_rationals_are_integers_or_p_over_q(entry):
    with pytest.raises(ValueError, match=r"inv\.entries\[0\]: expected an integer or a \"p/q\" string"):
        jsonio.inv_from_json({"entries": [entry], "contacts": ["x0"]})


def test_rationals_accept_integers_and_p_over_q():
    seq = jsonio.atw_from_json({"entries": [3, "4/6", "07/02"], "contacts": ["a", "b", "c"]})
    assert seq.entries == (Fraction(3), Fraction(2, 3), Fraction(7, 2))
    assert jsonio.gamma_from_json([["-1/2", 0]]) == [[Fraction(-1, 2), Fraction(0)]]


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4), st.integers(1, 50))
def test_frac_to_str_prints_lowest_terms(n, d, m):
    q = Fraction(n, d)
    want = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    assert jsonio.frac_to_str(n, d) == jsonio.frac_to_str(q) == jsonio.frac_to_str(str(q)) == want
    assert jsonio.frac_to_str(q, m) == jsonio.frac_to_str(q / m)


def test_rationals_past_the_int_str_limit_round_trip():
    # Python 3.10.7+ refuses int <-> str conversions past 4300 digits by
    # default; jsonio converts longer numbers without lifting that limit
    default = getattr(sys.int_info, "default_max_str_digits", 0)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if default:
        sys.set_int_max_str_digits(default)
    try:
        num, den = 7 * 10**4999 + 3, 2**15000  # 5000 and 4516 digits, coprime
        q = Fraction(-num, den)
        text = jsonio.frac_to_str(q)
        assert text.startswith("-7" + "0" * 4998 + "3/") and len(text) == 1 + 5000 + 1 + 4516
        obj = json.loads(json.dumps(jsonio.poly_to_json(FracPoly.constant(_SPACE, q) + _poly())))
        back = jsonio.poly_from_json(obj)
        assert back.constant_coefficient().as_rational() == q
        assert jsonio.poly_to_json(back) == obj
        assert jsonio.inv_from_json({"entries": [num, text[1:]], "contacts": ["a", "b"]}).entries == (num, -q)
    finally:
        if limit or default:
            sys.set_int_max_str_digits(limit)


def test_integral_coefficients_past_the_digit_limit_print_like_fractions():
    # a Cyclo with denominator 1 prints its numerators through frac_to_str's
    # integer shortcut, and one past the least int/str digit limit still
    # converts in halves
    digits = "8" * 699 + "1"
    n = int(digits)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(640)
    try:
        c = Cyclo(4, [n, -n])
        assert jsonio.cyclo_to_json(c) == {"order": 4, "coeffs": [digits, "-" + digits, "0", "0"]}
        assert c.coeff_strings == [jsonio.frac_to_str(q) for q in c.coeffs]
        assert jsonio.cyclo_to_json(c * Fraction(1, 2))["coeffs"][:2] == [digits + "/2", "-" + digits + "/2"]
        poly = FracPoly.constant(_SPACE, n) + FracPoly.variable(_SPACE, "x").scale(c)
        obj = jsonio.poly_to_json(poly)
        assert [t["coeff"]["coeffs"] for t in obj["terms"]] == [[digits], [digits, "-" + digits, "0", "0"]]
        assert jsonio.poly_to_json(jsonio.poly_from_json(json.loads(json.dumps(obj)))) == obj
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_error_names_the_first_bad_path():
    obj = jsonio.poly_to_json(_poly())
    obj["terms"][1]["coeff"]["coeffs"][0] = []
    with pytest.raises(ValueError, match=r"^--poly\.terms\[1\]\.coeff\.coeffs\[0\]: expected an integer"):
        jsonio.poly_from_json(obj, "--poly")
    obj = jsonio.poly_to_json(_poly())
    obj["terms"][0]["free"] = [0]
    with pytest.raises(ValueError, match=r"^poly\.terms\[0\]: expected 2 'w' and 2 'free' exponents"):
        jsonio.poly_from_json(obj)
    obj = jsonio.poly_to_json(_poly())
    obj["terms"].append(dict(obj["terms"][1], coeff={"order": 1, "coeffs": ["2"]}))
    with pytest.raises(ValueError, match=r"^poly\.terms\[3\]: repeats the exponents of an earlier term"):
        jsonio.poly_from_json(obj)
    obj = jsonio.poly_to_json(_poly())
    obj["terms"][2]["coeff"] = {"order": 2, "coeffs": ["1", "1", "1"]}
    with pytest.raises(ValueError, match=r"^poly\.terms\[2\]\.coeff\.coeffs: expected 2 entries, got 3"):
        jsonio.poly_from_json(obj)
    with pytest.raises(ValueError, match=r"^cyclo\.coeffs: expected 3 entries, got 0"):
        jsonio.cyclo_from_json({"order": 3, "coeffs": []})
    with pytest.raises(ValueError, match=r"^--action\.weights\.x\[0\]: expected int"):
        jsonio.action_from_json({"moduli": [2], "weights": {"x": ["1"]}}, "--action")
    with pytest.raises(ValueError, match=r"^ideal\[0\]: missing key 'order'"):
        jsonio.ideal_from_json([{"monomial": {"x": 2}}])
