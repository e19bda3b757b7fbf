"""Command-line front end.

Each subcommand prints a human-readable summary by default or structured
JSON with --format json.  Inputs are inline JSON, @file, or - for stdin.
Exit codes: 0 success, 1 domain error or a result whose check failed
(printed in full, such as {"verified": false} from split verify),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import DomainError

# A handler imports the layers it calls once it has parsed its input, so a
# process loads only what its subcommand uses, and malformed input fails
# before any layer loads.


def _load(text: str, where: str, parse):
    """parse(payload, where) of a JSON payload given inline, as @file or as - (stdin);
    a payload that is not JSON is a ValueError naming the flag."""
    try:
        if text == "-":
            obj = json.load(sys.stdin)
        elif text.startswith("@"):
            with open(text[1:]) as fh:
                obj = json.load(fh)
        else:
            obj = json.loads(text)
    except OSError as exc:
        raise DomainError(f"{where}: cannot read {text[1:]!r}: {exc.strerror}") from None
    except ValueError as exc:  # json.JSONDecodeError, or a file that is not UTF-8 text
        raise ValueError(f"{where}: {exc}") from None
    return parse(obj, where)


def _int(piece: str, flag: str) -> int:
    try:
        return int(piece)
    except ValueError:
        raise ValueError(f"{flag}: expected an integer, got {piece!r}") from None


def _parse_group(text: str | None) -> AbelianGroup:
    from .abelian import AbelianGroup

    if text is None:
        raise DomainError("need --group")
    text = text.strip()
    if text.lower().startswith("z"):
        parts = [p for p in text.lower().replace("z", "").split("x") if p]
        if not parts:
            raise ValueError("--group: expected at least one factor")
        return AbelianGroup(tuple(_int(p, "--group") for p in parts))
    return AbelianGroup(tuple(_int(p, "--group") for p in text.split(",")))


def _parse_elements(group: AbelianGroup, text: str, flag: str):
    out = []
    for chunk in text.replace("(", " ").replace(")", " ").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        out.append(group.element(tuple(_int(x, flag) for x in chunk.split(","))))
    return out


def _parse_spec(text: str):
    from . import jsonio

    name = text.strip().lower()
    cpk = re.fullmatch(r"cp(?:k:)?(\d+)", name)
    if not cpk and name not in ("klein", "z2z4"):
        return _load(text, "--spec", jsonio.spec_from_json)
    from .gcirc import cpk_spec, klein_spec, z2z4_spec

    if cpk:
        return cpk_spec(int(cpk[1]))
    return klein_spec() if name == "klein" else z2z4_spec()


def _single_spec(text: str, command: str):
    """The --spec of a command that takes a single normal form; a product
    spec is a DomainError naming the command."""
    spec = _parse_spec(text)
    from .gcirc import ProductNormalFormSpec

    if isinstance(spec, ProductNormalFormSpec):
        raise DomainError(f"{command} expects a single normal form")
    return spec


def _parse_ints(text: str, flag: str):
    return [_int(x, flag) for x in text.split(",") if x.strip()]


# -- abelian ---------------------------------------------------------------------


def _group_and_subgroup(args):
    """The group of --group and the subgroup its --sub elements generate
    (the whole group without --sub)."""
    from .abelian import full_subgroup, subgroup_from_generators

    g = _parse_group(args.group)
    return g, subgroup_from_generators(g, _parse_elements(g, args.sub, "--sub")) if args.sub else full_subgroup(g)


def _pairing(args, g):
    from .abelian import PairingContext

    return PairingContext(g, args.k) if args.k is not None else PairingContext.natural(g)


def cmd_abelian_perp(args):
    from . import jsonio
    from .abelian import perp

    g, h = _group_and_subgroup(args)
    ctx = _pairing(args, g)
    comp = perp(ctx, h)
    payload = {
        "group": jsonio.group_to_json(g),
        "k": ctx.k,
        "subgroup": jsonio.subgroup_to_json(h),
        "perp": jsonio.subgroup_to_json(comp),
    }
    lines = [f"group {g}, k = {ctx.k}", f"H = {h}  (order {h.order})", f"perp = {comp}  (order {comp.order})"]
    return payload, lines


def cmd_abelian_xi(args):
    from . import jsonio
    from .abelian import xi

    g, h = _group_and_subgroup(args)
    ctx = _pairing(args, g)
    ells = _parse_elements(g, args.ell, "--ell")
    if len(ells) != 1:
        raise ValueError(f"--ell: expected one element, got {len(ells)}")
    (ell,) = ells
    val = xi(ctx, h, ell)
    return {"xi": jsonio.cyclo_to_json(val)}, [f"xi_{ell} = {val}"]


def cmd_abelian_quotient(args):
    from . import jsonio
    from .abelian import quotient

    g, h = _group_and_subgroup(args)
    cs = quotient(g, h)
    payload = {"representatives": [jsonio.element_to_json(r) for r in cs.representatives]}
    return payload, ["representatives: " + ", ".join(str(r) for r in cs.representatives)]


def cmd_abelian_factors(args):
    from .abelian import invariant_factors, quotient_invariant_factors

    g, h = _group_and_subgroup(args)
    facs = quotient_invariant_factors(g, h) if args.quotient else invariant_factors(h)
    what = "G/H" if args.quotient else "H"
    return {"invariant_factors": facs}, [f"invariant factors of {what}: {facs or '[]'}"]


# -- gcirc -----------------------------------------------------------------------


# `gcirc matrix` builds and prints order^2 entries, so it refuses larger groups
MATRIX_ORDER_LIMIT = 512


def cmd_gcirc_matrix(args):
    from . import jsonio
    from .gcirc import circulant_matrix

    g = _parse_group(args.group)
    if g.order > MATRIX_ORDER_LIMIT:
        raise DomainError(f"gcirc matrix: group order {g.order} exceeds the limit {MATRIX_ORDER_LIMIT}")
    mat = circulant_matrix(g)
    rows = mat.rows_as_symbols()
    payload = {"ordering": [jsonio.element_to_json(e) for e in mat.ordering], "rows": rows}
    return payload, ["[" + "  ".join(r) + "]" for r in rows]


def cmd_gcirc_det(args):
    from . import jsonio

    if not (args.cpk or args.spec or args.values):
        raise DomainError("need --cpk, --spec, or --values")
    from .gcirc import cpk_spec, gcirc_det, normal_form_poly

    if args.cpk:
        g = _parse_group(args.group)
        if len(g.moduli) != 1:
            raise DomainError("--cpk requires a cyclic group")
        poly = normal_form_poly(cpk_spec(g.moduli[0]))
    elif args.spec:
        poly = normal_form_poly(_parse_spec(args.spec))
    else:
        g = _parse_group(args.group)
        poly = gcirc_det(g, _load(args.values, "--values", jsonio.poly_list_from_json))
    return {"polynomial": jsonio.poly_to_json(poly)}, [str(poly)]


def cmd_gcirc_normal_form(args):
    from . import jsonio

    spec = _parse_spec(args.spec)
    from .gcirc import normal_form_poly

    poly = normal_form_poly(spec)
    return {"polynomial": jsonio.poly_to_json(poly)}, [str(poly)]


def cmd_gcirc_validate(args):
    from . import jsonio

    spec = _single_spec(args.spec, "gcirc validate")
    from .gcirc import validate_normal_form

    rep = validate_normal_form(spec)
    payload = {
        "valid": rep.valid,
        "transitive": rep.transitive,
        "stabilizer": jsonio.subgroup_to_json(rep.stabilizer) if rep.stabilizer else None,
        "stabilizer_order": rep.stabilizer.order if rep.stabilizer else None,
        "quotient_isomorphic": rep.quotient_isomorphic,
        "exponents_in_range": rep.exponents_in_range,
        "denominators_realized": list(rep.denominators_realized),
        "multiset_condition": list(rep.multiset_condition),
    }
    lines = [
        f"valid: {rep.valid}",
        f"irreducible (transitive): {rep.transitive}",
        f"stabilizer H: {rep.stabilizer} (order {rep.stabilizer.order if rep.stabilizer else '?'})",
        f"G/H isomorphic to declared quotient: {rep.quotient_isomorphic}",
    ]
    return payload, lines


def cmd_gcirc_codim1(args):
    from . import jsonio

    spec = _single_spec(args.spec, "gcirc codim1")
    from .gcirc import codim1_factor

    rep = codim1_factor(spec, args.index)
    payload = {
        "verified": rep.verified,
        "factors": [jsonio.poly_to_json(f) for f in rep.factor_polys],
        "transform": {
            name: [[jsonio.cyclo_to_json(c), x] for c, x in rows] for name, rows in rep.transform.items()
        },
    }
    lines = [f"{len(rep.factor_polys)} factors along stratum {args.index}; identity verified: {rep.verified}"]
    for name in sorted(rep.transform):
        rows = rep.transform[name]
        lines.append(f"  {name} = " + " + ".join(f"({c})*{x}" for c, x in rows))
    lines += [f"  factor: {f}" for f in rep.factor_polys]
    return payload, lines


def cmd_gcirc_merge(args):
    from . import jsonio
    from .gcirc import product_merge

    rep = product_merge(args.k, args.r)
    payload = {
        "k": rep.k,
        "r": rep.r,
        "verified": rep.verified,
        "transform": {
            f"x_{i}_{j}": [jsonio.cyclo_to_json(c) for c in coeffs] for (i, j), coeffs in rep.transform.items()
        },
    }
    return payload, [f"product merge ({args.k}, {args.r}) verified: {rep.verified}"], rep.verified


def cmd_gcirc_clean(args):
    from . import jsonio

    gamma, moduli = _load(args.gamma, "--gamma", jsonio.gamma_from_json), _parse_ints(args.moduli, "--moduli")
    from .gcirc import clean_exponents

    ladder = clean_exponents(gamma, moduli)
    payload = {
        "order": list(ladder.order),
        "delta": [[jsonio.frac_to_str(e) for e in row] for row in ladder.delta],
        "beta": [list(row) for row in ladder.beta],
    }
    lines = [f"row order: {list(ladder.order)}"]
    for d, b in zip(ladder.delta, ladder.beta):
        lines.append("  delta " + ",".join(map(str, d)) + "  beta " + ",".join(map(str, b)))
    return payload, lines


# -- resinv ----------------------------------------------------------------------


def _parts(args):
    if args.parts is None:
        raise DomainError("need --k or --parts")
    return _parse_ints(args.parts, "--parts")


def _sequence_output(seq):
    """The payload and the one text line of a resolution invariant sequence."""
    from . import jsonio

    return jsonio.sequence_to_json(seq), [",".join(jsonio.frac_to_str(e) for e in seq.entries)]


def cmd_resinv_inv(args):
    from .resinv import inv_cpk, inv_recursion, product_ideal

    return _sequence_output(inv_cpk(args.k) if args.k is not None else inv_recursion(product_ideal(_parts(args))))


def cmd_resinv_atw(args):
    from .resinv import atwinv_cpk, atwinv_product

    return _sequence_output(atwinv_cpk(args.k) if args.k is not None else atwinv_product(_parts(args)))


def cmd_resinv_weights(args):
    from . import jsonio
    from .resinv import weights

    wv = weights(_parse_ints(args.parts, "--parts"))
    payload = {
        "parameters": list(wv.parameters),
        "rational": [jsonio.frac_to_str(q) for q in wv.rational],
        "integer": list(wv.integer),
        "multiplier": jsonio.frac_to_str(wv.multiplier),
    }
    lines = [
        "parameters: " + ",".join(wv.parameters),
        "integer weights: " + ",".join(map(str, wv.integer)),
        "rational weights: " + ",".join(jsonio.frac_to_str(q) for q in wv.rational),
    ]
    return payload, lines


def cmd_resinv_recursion(args):
    from . import jsonio
    from .resinv import cpk_ideal, inv_recursion, product_ideal

    if args.cpk is not None:
        ideal = cpk_ideal(args.cpk)
    elif args.parts:
        ideal = product_ideal(_parse_ints(args.parts, "--parts"))
    elif args.ideal:
        ideal = _load(args.ideal, "--ideal", jsonio.ideal_from_json)
    else:
        raise DomainError("need --cpk, --parts, or --ideal")
    return _sequence_output(inv_recursion(ideal))


# -- blowup ----------------------------------------------------------------------


def _atlas_from_args(args):
    from .blowup import charts
    from .polyring import VarSpace

    divisorial = []
    if args.divisorial:
        for chunk in args.divisorial.split(","):
            if chunk.count(":") != 1:
                raise ValueError(f"--divisorial: expected name:bound, got {chunk!r}")
            name, bound = chunk.split(":")
            divisorial.append((name, _int(bound, "--divisorial")))
    params = args.params.split(",")
    free = [p for p in params if p not in dict(divisorial)]
    ambient = VarSpace(divisorial, free)
    return charts(ambient, params, _parse_ints(args.weights, "--weights"))


def cmd_blowup_charts(args):
    atlas = _atlas_from_args(args)
    payload = {"charts": []}
    lines = []
    for cmap, action in atlas.charts:
        subs = {k: str(v) for k, v in cmap.substitutions.items()}
        payload["charts"].append(
            {
                "index": cmap.index,
                "chart_var": cmap.chart_var,
                "substitutions": subs,
                "group_order": action.group.moduli[0],
                "action_weights": {n: list(w) for n, w in action.weights.items()},
            }
        )
        lines.append(f"chart {cmap.index}: " + "; ".join(f"{k} = {v}" for k, v in subs.items()) + f"  [mu_{action.group.moduli[0]}]")
    return payload, lines


def cmd_blowup_transition(args):
    from .blowup import transition

    atlas = _atlas_from_args(args)
    tr = transition(atlas, args.i, args.j)
    payload = {
        "pair": list(tr.pair),
        "relation_i": tr.relation_i,
        "relation_j": tr.relation_j,
        "iso": tr.iso,
        "equivariant": tr.equivariant,
        "commutes_with_projection": tr.commutes_with_projection,
    }
    lines = [
        f"cover over chart {args.i}: {', '.join(tr.cover_i_vars)}  with {tr.relation_i}",
        f"cover over chart {args.j}: {', '.join(tr.cover_j_vars)}  with {tr.relation_j}",
        "iso: " + "; ".join(f"{k} -> {v}" for k, v in tr.iso.items()),
        f"equivariant: {tr.equivariant}; commutes with projections: {tr.commutes_with_projection}",
    ]
    return payload, lines, tr.equivariant and tr.commutes_with_projection


def cmd_blowup_pullback(args):
    from . import jsonio

    spec = _single_spec(args.spec, "blowup pullback")
    if spec.r != 1:
        raise DomainError("chart pullback via this command supports one divisor; use pipeline")
    from .blowup import pullback
    from .gcirc import normal_form_poly, validate_normal_form

    if not validate_normal_form(spec).valid:
        raise DomainError("blowup pullback: the spec fails validation (see gcirc validate)")
    total, st, mult = pullback(normal_form_poly(spec), _divisor_atlas(spec), args.chart)
    payload = {
        "pullback": jsonio.poly_to_json(total),
        "strict_transform": jsonio.poly_to_json(st),
        "multiplicity": jsonio.frac_to_str(mult),
    }
    return payload, [f"multiplicity: {mult}", f"strict transform: {st}"]


def _divisor_atlas(spec):
    """Atlas of the first weighted blow-up of the pipeline on spec: the
    divisor w and the x's with weights divisor_weights(spec, 0)."""
    from .blowup import charts, divisor_weights
    from .gcirc import spec_space

    wts = divisor_weights(spec, 0)
    return charts(spec_space(spec), wts, wts.values())


def cmd_blowup_hilbert(args):
    from .blowup import hilbert_basis
    from .gcirc import cpk_spec

    _cmap, action = _divisor_atlas(cpk_spec(args.cpk)).charts[0]
    hb = hilbert_basis(action)
    payload = {
        "variables": list(hb.variables),
        "generators": [dict(zip(hb.variables, g)) for g in hb.generators],
        "degree_bound": hb.degree_bound,
    }
    lines = [f"{len(hb.generators)} generators (degree bound {hb.degree_bound}):"]
    lines += [f"  g{i} = {hb.monomial(i)}" for i in range(len(hb.generators))]
    return payload, lines


def cmd_blowup_relations(args):
    from .blowup import hilbert_basis, relations
    from .gcirc import cpk_spec

    _cmap, action = _divisor_atlas(cpk_spec(args.cpk)).charts[0]
    hb = hilbert_basis(action)
    rels = relations(hb)
    payload = {"relations": [{"left": list(r.left), "right": list(r.right)} for r in rels.relations]}
    lines = []
    names = hb.names()
    for r in rels.relations:
        lhs = "*".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(r.left) if e) or "1"
        rhs = "*".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(r.right) if e) or "1"
        lines.append(f"{lhs} = {rhs}")
    return payload, lines or ["no relations"]


def cmd_blowup_quotient(args):
    from . import jsonio
    from .blowup import hilbert_basis, pullback, quotient_image
    from .gcirc import cpk_spec, normal_form_poly

    spec = cpk_spec(args.cpk)
    atlas = _divisor_atlas(spec)
    _total, st, _mult = pullback(normal_form_poly(spec), atlas, 0)
    hb = hilbert_basis(atlas.charts[0][1])
    img = quotient_image(st, hb)
    generators = {name: str(hb.monomial(i)) for i, name in enumerate(hb.names())}
    payload = {"image": jsonio.poly_to_json(img), "generators": generators}
    lines = [f"strict transform: {st}", f"image: {img}"]
    lines += [f"  {name} = {mono}" for name, mono in generators.items()]
    return payload, lines


def cmd_blowup_pipeline(args):
    from . import jsonio

    spec = _parse_spec(args.spec)
    from .blowup import gcirc_blowup_sequence

    rep = gcirc_blowup_sequence(spec)
    payload = {
        "steps": [
            {
                "divisor_index": s.divisor_index,
                "chart_var": s.chart_var,
                "multiplicity": s.multiplicity,
                "expected_multiplicity": s.expected_multiplicity,
                "group_order": s.group_order,
            }
            for s in rep.steps
        ],
        "group_moduli": list(rep.group_moduli),
        "group_order": rep.group_order,
        "order_bound": rep.order_bound,
        "cyclic_orders_bounded": rep.cyclic_orders_bounded,
        "normal_crossings": rep.normal_crossings,
        "product_verified": rep.product_verified,
        "strict_transform": jsonio.poly_to_json(rep.final_strict_transform),
    }
    lines = [
        f"steps: {len(rep.steps)}; multiplicities {[s.multiplicity for s in rep.steps]}",
        f"composite group: mu_{' x mu_'.join(map(str, rep.group_moduli))} (order {rep.group_order})",
        f"cyclic chart orders bounded by {rep.order_bound}: {rep.cyclic_orders_bounded}",
        f"normal crossings: {rep.normal_crossings}; product verified: {rep.product_verified}",
        f"strict transform: {rep.final_strict_transform}",
    ]
    return payload, lines


# -- split -----------------------------------------------------------------------


def cmd_split_newton(args):
    from . import jsonio

    f = _load(args.poly, "--poly", jsonio.poly_from_json)
    from .splitting import split_newton

    roots = split_newton(f, args.z, powers=args.powers, degree_bound=args.degree, branch_cap=args.cap)
    payload = {"roots": [jsonio.poly_to_json(r) for r in roots]}
    return payload, [f"root {i}: {r}" for i, r in enumerate(roots)]


def cmd_split_verify(args):
    from . import jsonio

    f = _load(args.poly, "--poly", jsonio.poly_from_json)
    roots = _load(args.roots, "--roots", jsonio.poly_list_from_json)
    from .splitting import verify_split

    ok = verify_split(f, args.powers, roots, args.degree, z=args.z)
    return {"verified": ok}, [f"verified: {ok}"], ok


def cmd_split_example_basic(args):
    from . import jsonio
    from .polyring import FracPoly, VarSpace, strict_transform, substitute_power, truncate
    from .splitting import DEFAULT_DEGREE_BOUND, split_newton

    degree = DEFAULT_DEGREE_BOUND if args.degree is None else args.degree
    sp = VarSpace([("w", 2)], ["x", "z"])
    w = FracPoly.variable(sp, "w")
    x = FracPoly.variable(sp, "x")
    z = FracPoly.variable(sp, "z")
    f = z * z + (w ** 3 + x) * x * x
    lines = [f"start: {f}"]
    current = f
    stages = [f]
    for step in range(3):
        blown = current.substitute({"x": w * x, "z": w * z}, target_space=sp)
        current, mult = strict_transform(blown, "w")
        stages.append(current)
        lines.append(f"after blow-up {step + 1} (w-chart, dividing w^{mult}): {current}")
    sub = substitute_power(current, "w", 2)
    lines.append(f"substitute w = v^2: {sub}")
    # split_newton verifies the roots it returns, or raises NoSplit
    roots = split_newton(current, "z", powers=2, degree_bound=degree)
    for i, r in enumerate(roots):
        lines.append(f"root {i}: {truncate(r, 8)} + ...")
    lines.append(f"splits to degree {degree}: True")
    payload = {
        "stages": [jsonio.poly_to_json(s) for s in stages],
        "substituted": jsonio.poly_to_json(sub),
        "roots": [jsonio.poly_to_json(r) for r in roots],
        "verified": True,
    }
    return payload, lines


# -- ncquot ----------------------------------------------------------------------


def cmd_ncquot_semiinv(args):
    from . import jsonio

    action = _load(args.action, "--action", jsonio.action_from_json)
    gens = _load(args.gens, "--gens", jsonio.poly_list_from_json)
    from .quotient_nc import semi_invariant_generators

    out = semi_invariant_generators(gens, action)
    payload = {"generators": [jsonio.poly_to_json(g) for g in out]}
    return payload, [str(g) for g in out]


def cmd_ncquot_adapt(args):
    from . import jsonio

    action = _load(args.action, "--action", jsonio.action_from_json)
    divisors = _load(args.divisors, "--divisors", jsonio.poly_list_from_json) if args.divisors else []
    stratum = _load(args.stratum, "--stratum", jsonio.poly_list_from_json)
    from .quotient_nc import adapted_coordinates

    ac = adapted_coordinates(action, divisors, stratum)
    payload = {
        "coordinates": [{"name": n, "poly": jsonio.poly_to_json(p), "role": role} for n, p, role in ac.coordinates],
        "verified": ac.verified,
    }
    lines = [f"{n} = {p}   [{role}]" for n, p, role in ac.coordinates] + [f"verified: {ac.verified}"]
    return payload, lines, ac.verified


def cmd_ncquot_normalize(args):
    from . import jsonio

    action = _load(args.action, "--action", jsonio.action_from_json)
    factors = _load(args.factors, "--factors", jsonio.poly_list_from_json)
    from .quotient_nc import InvariantNCInput, invariant_nc_normal_form

    nf = invariant_nc_normal_form(InvariantNCInput(action, factors))
    payload = {
        "chain": list(nf.chain),
        "chain_generators": list(nf.chain_generators),
        "stabilizer": jsonio.subgroup_to_json(nf.stabilizer),
        "coordinates": {"".join(map(str, k)): jsonio.poly_to_json(v) for k, v in sorted(nf.parts.items())},
        "matrix": [[jsonio.cyclo_to_json(c) for c in row] for row in nf.matrix],
        "determinant": jsonio.cyclo_to_json(nf.determinant),
        "scalar": jsonio.cyclo_to_json(nf.scalar),
        "verified": True,
    }
    lines = [
        f"chain of cyclic quotients: {list(nf.chain)} from generators {list(nf.chain_generators)}",
        f"stabilizer: {nf.stabilizer}",
        "coordinates:",
    ]
    lines += [f"  h{''.join(map(str, kk))} = {v}" for kk, v in sorted(nf.parts.items())]
    lines += [f"matrix determinant: {nf.determinant}", f"product scalar: {nf.scalar}", "verified: True"]
    return payload, lines


# -- parser ----------------------------------------------------------------------


def _arg(flag: str, **kwargs):
    return flag, kwargs


_GROUP = _arg("--group", required=True)
_SUB = _arg("--sub", default="")
_K = _arg("--k", type=int)
_SPEC = _arg("--spec", required=True)
_CPK = _arg("--cpk", type=int, required=True)
_PARTS = _arg("--parts")
_ATLAS = (_arg("--params", required=True), _arg("--weights", required=True), _arg("--divisorial", default=""))
_SPLIT = (_arg("--z", default="z"), _arg("--powers", type=int, default=1), _arg("--degree", type=int))
_ACTION = _arg("--action", required=True)

# {group: {subcommand: (handler, *arguments)}}, in --help order.
COMMANDS = {
    "abelian": {
        "perp": (cmd_abelian_perp, _GROUP, _SUB, _K),
        "xi": (cmd_abelian_xi, _GROUP, _SUB, _arg("--ell", required=True), _K),
        "quotient": (cmd_abelian_quotient, _GROUP, _SUB),
        "factors": (cmd_abelian_factors, _GROUP, _SUB, _arg("--quotient", action="store_true")),
    },
    "gcirc": {
        "matrix": (cmd_gcirc_matrix, _GROUP),
        "det": (
            cmd_gcirc_det, _arg("--group"), _arg("--cpk", action="store_true"), _arg("--spec"), _arg("--values")
        ),
        "normal-form": (cmd_gcirc_normal_form, _SPEC),
        "validate": (cmd_gcirc_validate, _SPEC),
        "codim1": (cmd_gcirc_codim1, _SPEC, _arg("--index", type=int, default=0)),
        "merge": (cmd_gcirc_merge, _arg("--k", type=int, required=True), _arg("--r", type=int, required=True)),
        "clean": (cmd_gcirc_clean, _arg("--gamma", required=True), _arg("--moduli", required=True)),
    },
    "resinv": {
        "inv": (cmd_resinv_inv, _K, _PARTS),
        "atw": (cmd_resinv_atw, _K, _PARTS),
        "weights": (cmd_resinv_weights, _arg("--parts", required=True)),
        "recursion": (cmd_resinv_recursion, _arg("--cpk", type=int), _PARTS, _arg("--ideal")),
    },
    "blowup": {
        "charts": (cmd_blowup_charts, *_ATLAS),
        "transition": (
            cmd_blowup_transition, *_ATLAS, _arg("--i", type=int, required=True), _arg("--j", type=int, required=True)
        ),
        "pullback": (cmd_blowup_pullback, _SPEC, _arg("--chart", type=int, default=0)),
        "hilbert": (cmd_blowup_hilbert, _CPK),
        "relations": (cmd_blowup_relations, _CPK),
        "quotient": (cmd_blowup_quotient, _CPK),
        "pipeline": (cmd_blowup_pipeline, _SPEC),
    },
    "split": {
        "newton": (cmd_split_newton, _arg("--poly", required=True), *_SPLIT, _arg("--cap", type=int)),
        "verify": (cmd_split_verify, _arg("--poly", required=True), _arg("--roots", required=True), *_SPLIT),
        "example-basic": (cmd_split_example_basic, _arg("--degree", type=int)),
    },
    "ncquot": {
        "semiinv": (cmd_ncquot_semiinv, _ACTION, _arg("--gens", required=True)),
        "adapt": (cmd_ncquot_adapt, _ACTION, _arg("--divisors"), _arg("--stratum", required=True)),
        "normalize": (cmd_ncquot_normalize, _ACTION, _arg("--factors", required=True)),
    },
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of the command line argv.  Every group gets a parser, so
    the top-level help and usage list them all, but only the group that
    argv runs gets its subcommands: the first token of argv that names a
    group (the one top-level option, --format, takes only text or json).
    When no token names a group, every group gets its subcommands."""
    ap = argparse.ArgumentParser(prog="circforge", description=__doc__)
    ap.add_argument("--format", choices=["text", "json"], default="text")
    groups = ap.add_subparsers(dest="command", required=True)
    named = next((token for token in argv if token in COMMANDS), None)
    for group, commands in COMMANDS.items():
        group_parser = groups.add_parser(group)
        if named not in (None, group):
            continue
        subs = group_parser.add_subparsers(dest="sub", required=True)
        for name, (handler, *arguments) in commands.items():
            p = subs.add_parser(name)
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=handler)
    return ap


def run(argv=None) -> int:
    """Run one command line, print its result or error, and return the exit
    code.  A handler returns (payload, lines), or (payload, lines, ok) when
    its result can fail a check; a false ok exits 1."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        payload, lines, *ok = args.func(args)
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
    except (DomainError, ValueError, ZeroDivisionError) as exc:
        if args.format == "json":
            print(json.dumps({"error": str(exc)}, sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(ok) else 1


def main() -> None:
    if hasattr(sys, "set_int_max_str_digits"):  # Python before 3.10.7 has no limit
        sys.set_int_max_str_digits(0)  # print and parse exact results of any length
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`circforge ... | head -1`).  Point
        # stdout at devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
