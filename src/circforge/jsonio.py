"""JSON encoding of the public value types.

The shape tables below (GROUP ... SEQUENCE) are the one description of the
payload format.  A shape is `int` (a JSON integer: no bool, float or
string), `str`, `RATIONAL` (an integer or a string "p" or "p/q"), `[s]` (an
array of s), `{str: s}` (an object mapping names to s) or `{key: s, ...}`
(an object with at least these keys).  Every parser runs `check` first, so
a malformed payload is a ValueError naming the first bad path, such as
"--action.moduli[0]: expected int".  Cyclotomic numbers travel as
full-length coefficient vectors, polynomials with their variable space and
deterministically ordered terms; every encoder round-trips through its parser.
Each parser imports the module of the type it builds only after `check`
has passed, so this module loads no other circforge module by itself.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

RATIONAL = Fraction
GROUP = {"moduli": [int]}
CYCLO = {"order": int, "coeffs": [RATIONAL]}
SPACE = {"divisorial": [{"name": str, "bound": int}], "free": [str]}
POLY = {"space": SPACE, "terms": [{"w": [RATIONAL], "free": [int], "coeff": CYCLO}]}
GAMMA = [[RATIONAL]]
SPEC = {"moduli": [int], "k": int, "gamma": GAMMA, "quotient": GROUP, "labels": [[int]]}
PRODUCT_SPEC = {"factors": [SPEC]}
ACTION = {**GROUP, "weights": {str: [int]}}
IDEAL = [{"monomial": {str: RATIONAL}, "order": RATIONAL}]
SEQUENCE = {"entries": [RATIONAL], "contacts": [str]}

_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def check(obj, shape, where: str) -> None:
    """Raise a ValueError naming the first path of obj that does not fit shape."""
    if isinstance(shape, list):
        expected, ok = "a list", isinstance(obj, list)
    elif isinstance(shape, dict):
        expected, ok = "an object", isinstance(obj, dict)
    elif shape is RATIONAL:
        expected = 'an integer or a "p/q" string'
        ok = type(obj) is int or (type(obj) is str and _RATIONAL_TEXT.fullmatch(obj) is not None)
    else:
        expected, ok = shape.__name__, type(obj) is shape
    if not ok:
        raise ValueError(f"{where}: expected {expected}")
    if isinstance(shape, list):
        for i, item in enumerate(obj):
            check(item, shape[0], f"{where}[{i}]")
    elif isinstance(shape, dict) and str in shape:
        for key, value in obj.items():
            check(value, shape[str], f"{where}.{key}")
    elif isinstance(shape, dict):
        for key, sub in shape.items():
            if key not in obj:
                raise ValueError(f"{where}: missing key {key!r}")
            check(obj[key], sub, f"{where}.{key}")


# Python refuses int <-> str conversions past sys.get_int_max_str_digits()
# digits, a limit no setting puts below 640; ints of at most this many bits
# (fewer than 600 digits) or strings of at most this many digits convert
# directly, and longer ones convert in halves
_DIRECT_BITS = 1990
_DIRECT_DIGITS = 600


def _int_to_str(n: int) -> str:
    """str(n) for an int of any length, under any int/str digit limit."""
    if n.bit_length() <= _DIRECT_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_to_str(-n)
    d = n.bit_length() * 3 // 20  # about half of n's digits, log10(2) > 3/10
    hi, lo = divmod(n, 10**d)
    return _int_to_str(hi) + _int_to_str(lo).zfill(d)


def _str_to_int(text: str) -> int:
    """int(text) for a decimal string of any length, under any int/str
    digit limit."""
    if len(text) <= _DIRECT_DIGITS:
        return int(text)
    if text[0] == "-":
        return -_str_to_int(text[1:])
    d = len(text) // 2
    return _str_to_int(text[:-d]) * 10**d + _str_to_int(text[-d:])


def frac_to_str(q, den: int = 1) -> str:
    """The rational q / den as "n" or "n/d" in lowest terms: q an int or any
    value `Fraction` takes, den a positive int."""
    if type(q) is not int:
        q = Fraction(q)
        q, den = q.numerator, q.denominator * den
    if den == 1:
        return _int_to_str(q)
    g = gcd(q, den)
    return _int_to_str(q // g) if g == den else f"{_int_to_str(q // g)}/{_int_to_str(den // g)}"


def rational_from_json(obj) -> Fraction:
    """The value of a RATIONAL payload (already `check`ed): a JSON integer
    or a string "p" or "p/q" of any length."""
    if type(obj) is int:
        return Fraction(obj)
    num, _, den = obj.partition("/")
    return Fraction(_str_to_int(num), _str_to_int(den) if den else 1)


def group_to_json(g: AbelianGroup) -> dict:
    return {"moduli": list(g.moduli)}


def group_from_json(obj, where: str = "group") -> AbelianGroup:
    check(obj, GROUP, where)
    from .abelian import AbelianGroup

    return AbelianGroup(tuple(obj["moduli"]))


def element_to_json(e: GroupElement) -> list:
    return list(e.residues)


def element_from_json(g: AbelianGroup, obj, where: str = "element") -> GroupElement:
    check(obj, [int], where)
    return g.element(obj)


def subgroup_to_json(h: Subgroup) -> list:
    return [element_to_json(e) for e in h.sorted_elements()]


def subgroup_from_json(g: AbelianGroup, obj, where: str = "subgroup") -> Subgroup:
    check(obj, [[int]], where)
    from .abelian import Subgroup

    return Subgroup(g, [g.element(e) for e in obj])


def cyclo_to_json(c: Cyclo) -> dict:
    return {"order": c.order, "coeffs": c.coeff_strings}


def cyclo_from_json(obj, where: str = "cyclo") -> Cyclo:
    check(obj, CYCLO, where)
    from .cyclotomic import Cyclo

    order, coeffs = obj["order"], obj["coeffs"]
    if order > 0 and len(coeffs) != order:
        raise ValueError(f"{where}.coeffs: expected {order} entries, got {len(coeffs)}")
    return Cyclo(order, [rational_from_json(c) for c in coeffs])


def space_to_json(sp: VarSpace) -> dict:
    return {
        "divisorial": [{"name": n, "bound": b} for n, b in zip(sp.div_names, sp.div_bounds)],
        "free": list(sp.free_names),
    }


def space_from_json(obj, where: str = "space") -> VarSpace:
    check(obj, SPACE, where)
    from .polyring import VarSpace

    return VarSpace([(d["name"], d["bound"]) for d in obj["divisorial"]], obj["free"])


def poly_to_json(f: FracPoly) -> dict:
    # a scaled key holds k_i = e_i * b_i on divisorial position i; each
    # distinct divisorial part is rendered once, and every term gets its
    # own copy, so that no two payload lists are shared
    bounds = f.space.div_bounds
    nd = len(bounds)
    rendered: dict = {}
    terms = []
    for key, coeff in f.sorted_items():
        div = key[:nd]
        w = rendered.get(div)
        if w is None:
            w = rendered[div] = list(map(frac_to_str, div, bounds))
        terms.append({"w": w.copy(), "free": list(key[nd:]), "coeff": cyclo_to_json(coeff)})
    return {"space": space_to_json(f.space), "terms": terms}


def poly_from_json(obj, where: str = "poly") -> FracPoly:
    check(obj, POLY, where)
    from .polyring import FracPoly

    sp = space_from_json(obj["space"])
    terms = {}
    for i, t in enumerate(obj["terms"]):
        if (len(t["w"]), len(t["free"])) != (sp.ndiv, len(sp.free_names)):
            raise ValueError(f"{where}.terms[{i}]: expected {sp.ndiv} 'w' and {len(sp.free_names)} 'free' exponents")
        key = tuple(map(rational_from_json, t["w"])) + tuple(t["free"])
        if key in terms:
            raise ValueError(f"{where}.terms[{i}]: repeats the exponents of an earlier term")
        terms[key] = cyclo_from_json(t["coeff"], f"{where}.terms[{i}].coeff")
    return FracPoly(sp, terms)


def poly_list_from_json(obj, where: str = "polys") -> list[FracPoly]:
    check(obj, [POLY], where)
    return [poly_from_json(p, f"{where}[{i}]") for i, p in enumerate(obj)]


def gamma_from_json(obj, where: str = "gamma") -> list[list[Fraction]]:
    check(obj, GAMMA, where)
    return [list(map(rational_from_json, row)) for row in obj]


def spec_to_json(spec) -> dict:
    if hasattr(spec, "factors"):  # a ProductNormalFormSpec
        return {"factors": [spec_to_json(f) for f in spec.factors]}
    return {
        "moduli": list(spec.moduli),
        "k": spec.k,
        "gamma": [[frac_to_str(e) for e in row] for row in spec.gamma],
        "quotient": group_to_json(spec.quotient_group),
        "labels": [element_to_json(l) for l in spec.labels],
    }


def spec_from_json(obj, where: str = "spec"):
    """A NormalFormSpec, or a ProductNormalFormSpec from {"factors": [...]}."""
    product = isinstance(obj, dict) and "factors" in obj
    check(obj, PRODUCT_SPEC if product else SPEC, where)
    from .gcirc import ProductNormalFormSpec

    factors = tuple(_normal_form_spec(f) for f in (obj["factors"] if product else [obj]))
    return ProductNormalFormSpec(factors) if product else factors[0]


def _normal_form_spec(obj) -> NormalFormSpec:
    from .gcirc import NormalFormSpec

    quotient = group_from_json(obj["quotient"])
    return NormalFormSpec(
        moduli=tuple(obj["moduli"]),
        k=obj["k"],
        gamma=gamma_from_json(obj["gamma"]),
        quotient_group=quotient,
        labels=tuple(quotient.element(l) for l in obj["labels"]),
    )


def action_from_json(obj, where: str = "action") -> DiagonalAction:
    check(obj, ACTION, where)
    from .polyring import DiagonalAction

    return DiagonalAction(group_from_json(obj), {n: tuple(w) for n, w in obj["weights"].items()})


def ideal_from_json(obj, where: str = "ideal") -> MonomialMarkedIdeal:
    check(obj, IDEAL, where)
    from .resinv import MonomialMarkedIdeal

    return MonomialMarkedIdeal(
        [({v: rational_from_json(e) for v, e in p["monomial"].items()}, rational_from_json(p["order"])) for p in obj]
    )


def sequence_to_json(seq) -> dict:
    return {"entries": [frac_to_str(e) for e in seq.entries], "contacts": list(seq.contacts)}


def inv_from_json(obj, where: str = "inv") -> InvSequence:
    check(obj, SEQUENCE, where)
    from .resinv import InvSequence

    return InvSequence(tuple(map(rational_from_json, obj["entries"])), tuple(obj["contacts"]))


def atw_from_json(obj, where: str = "atw") -> ATWSequence:
    check(obj, SEQUENCE, where)
    from .resinv import ATWSequence

    return ATWSequence(tuple(map(rational_from_json, obj["entries"])), tuple(obj["contacts"]))
