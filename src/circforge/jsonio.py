"""JSON encoding of the public value types.

Rationals travel as decimal-free strings "p/q" (or "p"), cyclotomic numbers
as full-length coefficient vectors, polynomials with their variable space
and deterministically ordered terms.  Every encoder here round-trips
through the matching parser.
"""

from __future__ import annotations

from fractions import Fraction

from .abelian import AbelianGroup, GroupElement, Subgroup
from .cyclotomic import Cyclo
from .gcirc import NormalFormSpec, ProductNormalFormSpec
from .polyring import FracPoly, VarSpace
from .resinv import ATWSequence, InvSequence


def frac_to_str(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def frac_from_str(s) -> Fraction:
    return Fraction(str(s))


def required(obj, key: str):
    """obj[key] of a JSON object, with a ValueError naming a missing key."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object with key {key!r}")
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    return obj[key]


def group_to_json(g: AbelianGroup) -> dict:
    return {"moduli": list(g.moduli)}


def group_from_json(obj) -> AbelianGroup:
    return AbelianGroup(tuple(int(x) for x in required(obj, "moduli")))


def element_to_json(e: GroupElement) -> list:
    return list(e.residues)


def element_from_json(g: AbelianGroup, obj) -> GroupElement:
    return g.element(tuple(int(x) for x in obj))


def subgroup_to_json(h: Subgroup) -> list:
    return [element_to_json(e) for e in h.sorted_elements()]


def subgroup_from_json(g: AbelianGroup, obj) -> Subgroup:
    return Subgroup(g, [element_from_json(g, e) for e in obj])


def cyclo_to_json(c: Cyclo) -> dict:
    return {"order": c.order, "coeffs": [frac_to_str(x) for x in c.coeffs]}


def cyclo_from_json(obj) -> Cyclo:
    return Cyclo(int(required(obj, "order")), [frac_from_str(x) for x in required(obj, "coeffs")])


def space_to_json(sp: VarSpace) -> dict:
    return {
        "divisorial": [{"name": n, "bound": b} for n, b in zip(sp.div_names, sp.div_bounds)],
        "free": list(sp.free_names),
    }


def space_from_json(obj) -> VarSpace:
    return VarSpace(
        [(required(d, "name"), int(required(d, "bound"))) for d in required(obj, "divisorial")],
        list(required(obj, "free")),
    )


def poly_to_json(f: FracPoly) -> dict:
    nd = f.space.ndiv
    terms = []
    for key, coeff in f.sorted_terms():
        terms.append(
            {
                "w": [frac_to_str(e) for e in key[:nd]],
                "free": [int(e) for e in key[nd:]],
                "coeff": cyclo_to_json(coeff),
            }
        )
    return {"space": space_to_json(f.space), "terms": terms}


def poly_from_json(obj) -> FracPoly:
    sp = space_from_json(required(obj, "space"))
    terms = {}
    for t in required(obj, "terms"):
        key = tuple(frac_from_str(e) for e in required(t, "w")) + tuple(int(e) for e in required(t, "free"))
        terms[key] = cyclo_from_json(required(t, "coeff"))
    return FracPoly(sp, terms)


def spec_to_json(spec) -> dict:
    if isinstance(spec, ProductNormalFormSpec):
        return {"factors": [spec_to_json(f) for f in spec.factors]}
    return {
        "moduli": list(spec.moduli),
        "k": spec.k,
        "gamma": [[frac_to_str(e) for e in row] for row in spec.gamma],
        "quotient": group_to_json(spec.quotient_group),
        "labels": [element_to_json(l) for l in spec.labels],
    }


def spec_from_json(obj):
    if isinstance(obj, dict) and "factors" in obj:
        return ProductNormalFormSpec(tuple(spec_from_json(f) for f in obj["factors"]))
    quotient = group_from_json(required(obj, "quotient"))
    return NormalFormSpec(
        moduli=tuple(int(p) for p in required(obj, "moduli")),
        k=int(required(obj, "k")),
        gamma=tuple(tuple(frac_from_str(e) for e in row) for row in required(obj, "gamma")),
        quotient_group=quotient,
        labels=tuple(element_from_json(quotient, l) for l in required(obj, "labels")),
    )


def sequence_to_json(seq) -> dict:
    return {"entries": [frac_to_str(e) for e in seq.entries], "contacts": list(seq.contacts)}


def inv_from_json(obj) -> InvSequence:
    return InvSequence(tuple(frac_from_str(e) for e in obj["entries"]), tuple(obj["contacts"]))


def atw_from_json(obj) -> ATWSequence:
    return ATWSequence(tuple(frac_from_str(e) for e in obj["entries"]), tuple(obj["contacts"]))
