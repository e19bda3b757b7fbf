"""Weighted blow-up charts, invariant algebras, and the full pipeline.

Run:  python demos/07_weighted_blowup_quotients.py
"""

from circforge import (
    charts,
    cpk_spec,
    expand_quotient_image,
    gcirc_blowup_sequence,
    hilbert_basis,
    klein_spec,
    normal_form_poly,
    pullback,
    quotient_image,
    relations,
    transition,
    z2z4_spec,
)

# Blow up the pinch point with weights (2, 3, 2) on (w, z, x): the divisor
# chart w = t^2, z = t^3 z', x = t^2 x' carries an order-2 group action.
k = 2
poly = normal_form_poly(cpk_spec(k))
params = ["w", "z", "x"]
atlas = charts(poly.space, params, [2, 3, 2])
cmap, action = atlas.charts[0]
print("chart:", {p: str(s) for p, s in cmap.substitutions.items()})
print("action weights:", action.weights)

total, st, mult = pullback(poly, atlas, 0)
print(f"pullback divides t^{mult}; strict transform: {st}")

# Chart overlaps glue through an auxiliary root variable; the isomorphism
# is equivariant and compatible with the projections.
tr = transition(atlas, 0, 1)
print("\ntransition iso:", tr.iso)
print("equivariant:", tr.equivariant, "| projections commute:", tr.commutes_with_projection)

# The invariant algebra of the chart action has a finite minimal generating
# set (complete up to the group-order degree bound) and binomial relations.
hb = hilbert_basis(action)
print("\ninvariant generators:")
for i in range(len(hb.generators)):
    print(f"  {hb.names()[i]} = {hb.monomial(i)}")
rels = relations(hb)
for r in rels.relations:
    names = hb.names()
    lhs = "*".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(r.left) if e)
    rhs = "*".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(r.right) if e)
    print(f"  relation: {lhs} = {rhs}")

# The strict transform, being invariant, rewrites in the generators; the
# rewriting re-expands exactly.
img = quotient_image(st, hb)
print("quotient image:", img)
assert expand_quotient_image(img, hb) == st

# The staged pipeline blows up one divisor at a time and ends with plain
# normal crossings in the final chart.
for name, spec in (("Klein", klein_spec()), ("Z2xZ4 quotient", z2z4_spec())):
    rep = gcirc_blowup_sequence(spec)
    print(f"\n{name}: multiplicities {[s.multiplicity for s in rep.steps]}, "
          f"group order {rep.group_order}, normal crossings {rep.normal_crossings}")
    print("  final strict transform:", rep.final_strict_transform)
