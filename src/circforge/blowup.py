"""Weighted blow-up charts with cyclic group actions, invariant Hilbert bases,
binomial relations, orbifold quotient equations, and the staged blow-up of
group-circulant normal forms.

The blow-up of parameters (x_1, ..., x_n) with weights (w_1, ..., w_n) is
covered by n charts; in chart i the substitution is x_i = t^{w_i},
x_j = t^{w_j} y_j, and the cyclic group of order w_i acts by t -> s t,
y_j -> s^{-w_j} y_j.  The action is free off the exceptional divisor t = 0.
"""

from __future__ import annotations

import itertools
from math import prod
from operator import lshift, mul

from .abelian import AbelianGroup
from .cyclotomic import Cyclo
from .gcirc import _parts, spec_factors, spec_space, validate_normal_form
from .polyring import (
    DiagonalAction,
    FracPoly,
    VarSpace,
    _face,
    _merge,
    is_invariant,
    linear_part,
    linear_rank,
    product,
    strict_transform,
    substitute_all,
)
from .record import Record
from .smith import in_lattice, kernel_basis


def _fresh(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


class ChartMap(Record):
    # y_names: parameter -> fresh chart coordinate (None for the chart's own)
    # substitutions: original variable name -> FracPoly over new_space
    __slots__ = ("index", "chart_var", "y_names", "substitutions", "new_space")

    def apply(self, f: FracPoly) -> FracPoly:
        mapping = {n: v for n, v in self.substitutions.items() if n in f.space}
        return f.substitute(mapping)


class ChartAtlas(Record):
    # charts: (ChartMap, DiagonalAction) pairs
    __slots__ = ("params", "weights", "ambient", "charts")

    def chart(self, i: int) -> tuple[ChartMap, DiagonalAction]:
        if not 0 <= i < len(self.charts):
            raise ValueError(f"chart index {i} outside 0..{len(self.charts) - 1}")
        return self.charts[i]


def _chart(ambient: VarSpace, params: tuple, wts: tuple, i: int) -> tuple[ChartMap, DiagonalAction]:
    """Chart i of the weighted blow-up of the parameters (tuples of names in
    ambient and positive int weights): its map and the cyclic action of
    order w_i.  Its fresh names depend only on the ambient names."""
    pi, wi = params[i], wts[i]
    spectator_div = [(n, b) for n, b in zip(ambient.div_names, ambient.div_bounds) if n not in params]
    spectator_free = [n for n in ambient.free_names if n not in params]
    taken_base = set(ambient.names)
    t = _fresh("t", taken_base)
    ynames: dict = {pi: None}
    for j, pj in enumerate(params):
        if j != i:
            ynames[pj] = _fresh(pj + "'", taken_base | {t} | {v for v in ynames.values() if v})
    space = VarSpace(spectator_div, spectator_free + [t] + [ynames[p] for p in params if ynames[p]])
    # t and the y's are free, so an exponent vector over them is its scaled key
    zero, tpos, one = space.zero_key, len(spectator_div) + len(spectator_free), Cyclo.one()
    subs = {pi: FracPoly._raw(space, {zero[:tpos] + (wi,) + zero[tpos + 1 :]: one})}
    for ypos, j in enumerate((j for j in range(len(params)) if j != i), tpos + 1):
        key = zero[:tpos] + (wts[j],) + zero[tpos + 1 : ypos] + (1,) + zero[ypos + 1 :]
        subs[params[j]] = FracPoly._raw(space, {key: one})
    action_weights = {n: (0,) for n in space.names}
    action_weights[t] = (1,)
    for j, pj in enumerate(params):
        if j != i:
            action_weights[ynames[pj]] = ((-wts[j]) % wi,)
    action = DiagonalAction(AbelianGroup((wi,)), action_weights)
    return ChartMap(i, t, ynames, subs, space), action


def charts(ambient: VarSpace, params, weight_vector) -> ChartAtlas:
    """Atlas of the weighted blow-up of the listed parameters; other
    variables of the ambient space ride along untouched.  A weight must
    be an int: a float (even 2.0), a Fraction or a bool is refused, never
    truncated."""
    params = tuple(params)
    wts = tuple(weight_vector)
    if len(params) != len(wts):
        raise ValueError("one weight per parameter")
    for p, w in zip(params, wts):
        if type(w) is not int:
            raise ValueError(f"weight {w!r} on {p} is not an int")
    if any(w < 1 for w in wts):
        raise ValueError("weights must be positive integers")
    for p in params:
        if p not in ambient:
            raise ValueError(f"parameter {p} not in the ambient space")
    return ChartAtlas(params, wts, ambient, tuple(_chart(ambient, params, wts, i) for i in range(len(params))))


def pullback(f: FracPoly, atlas: ChartAtlas, i: int):
    """Total pullback in chart i plus its strict transform and multiplicity."""
    cmap, _action = atlas.chart(i)
    total = cmap.apply(f)
    st, mult = strict_transform(total, cmap.chart_var)
    return total, st, mult


# -- transitions ---------------------------------------------------------------


class TransitionChart(Record):
    # cover_i_vars, cover_j_vars: variables of the auxiliary covers over charts i and j
    # relation_i, relation_j: "<var> = <root>^w" descriptions of the added root variables
    # iso: generator of cover-over-i -> Laurent monomial over cover-over-j
    __slots__ = (
        "pair", "cover_i_vars", "cover_j_vars", "relation_i", "relation_j", "iso", "equivariant",
        "commutes_with_projection",
    )


def intertwines(iso: dict, action_i: DiagonalAction, action_j: DiagonalAction) -> bool:
    """Whether the monomial map iso (variable name -> one-term FracPoly)
    commutes with two diagonal actions of one group: whether each variable
    and its image carry the same integer characters (weights mod p_i)."""
    moduli = action_i.group.moduli
    for v, image in iso.items():
        (key,) = image.terms
        if tuple(w % p for w, p in zip(action_i.weights[v], moduli)) != action_j.characters(image.space, key):
            return False
    return True


def transition(atlas: ChartAtlas, i: int, j: int) -> TransitionChart:
    """Auxiliary presentations gluing charts i and j, with the equivariance
    check on integer characters (`intertwines`) and the projection check
    performed symbolically on Laurent monomials.

    The cover over chart i adds a w_j-th root u of the chart-i coordinate of
    parameter j (and symmetrically); the glueing sends the chart-i variable
    s to t*u, inverts the root, and rescales the remaining coordinates.
    """
    if i == j:
        raise ValueError("need two distinct charts")
    (cmi, _ai), (cmj, _aj) = atlas.chart(i), atlas.chart(j)
    params, wts = atlas.params, atlas.weights
    wi, wj = wts[i], wts[j]
    s, t = cmi.chart_var, cmj.chart_var
    yi, yj = cmi.y_names, cmj.y_names

    u_i = _fresh("u", set(cmi.new_space.names))
    u_j = _fresh("u", set(cmj.new_space.names))
    cover_i_space = cmi.new_space.union(VarSpace((), (u_i,)))
    cover_j_space = cmj.new_space.union(VarSpace((), (u_j,)))

    group = AbelianGroup((wi, wj))
    ai_weights = {n: (0, 0) for n in cover_i_space.names}
    ai_weights[s] = (1, 0)
    ai_weights[u_i] = (-1, 1)
    for p, w in zip(params, wts):
        if yi[p] is not None:
            ai_weights[yi[p]] = (-w, 0)
    action_i = DiagonalAction(group, ai_weights)

    aj_weights = {n: (0, 0) for n in cover_j_space.names}
    aj_weights[t] = (0, 1)
    aj_weights[u_j] = (1, -1)
    for p, w in zip(params, wts):
        if yj[p] is not None:
            aj_weights[yj[p]] = (0, -w)
    action_j = DiagonalAction(group, aj_weights)

    # isomorphism: cover-over-i generators expressed over the cover-over-j
    iso = {
        s: FracPoly.monomial(cover_j_space, {t: 1, u_j: 1}),
        u_i: FracPoly.monomial(cover_j_space, {u_j: -1}),
        yi[params[j]]: FracPoly.monomial(cover_j_space, {u_j: -wj}),
    }
    for m, p in enumerate(params):
        if m != i and m != j:
            iso[yi[p]] = FracPoly.monomial(cover_j_space, {u_j: -wts[m], yj[p]: 1})

    equivariant = intertwines(iso, action_i, action_j)

    # both projections to the ambient coordinates agree after gluing
    commutes = True
    root_j = {yj[params[i]]: FracPoly.monomial(cover_j_space, {u_j: wi})}
    for p in params:
        via_j = cmj.substitutions[p].in_space(cover_j_space).substitute(root_j, target_space=cover_j_space)
        via_i = cmi.substitutions[p].in_space(cover_i_space)
        glue = {v: img for v, img in iso.items() if v in via_i.space}
        via_i_glued = via_i.substitute(glue, target_space=cover_j_space)
        if via_i_glued != via_j:
            commutes = False

    return TransitionChart(
        pair=(i, j),
        cover_i_vars=tuple(cover_i_space.names),
        cover_j_vars=tuple(cover_j_space.names),
        relation_i=f"{yi[params[j]]} = {u_i}^{wj}",
        relation_j=f"{yj[params[i]]} = {u_j}^{wi}",
        iso={v: str(img) for v, img in iso.items()},
        equivariant=equivariant,
        commutes_with_projection=commutes,
    )


# -- invariant Hilbert bases -----------------------------------------------------


class HilbertBasis(Record):
    # generators: exponent vectors over variables
    # space: the free space of the variables, where a generator's vector is its key
    # gen_space: the free space of the generator names g0, g1, ..., where images live
    __slots__ = ("action", "variables", "generators", "degree_bound", "space", "gen_space")

    def names(self) -> list[str]:
        return list(self.gen_space.free_names)

    def monomial(self, idx: int) -> FracPoly:
        return FracPoly._raw(self.space, {self.generators[idx]: Cyclo.one()})

    def find(self, exps: dict) -> int | None:
        """Index of the generator with the exponents exps ({variable:
        exponent}, absent ones 0), or None; a name that is not one of the
        basis variables is a ValueError."""
        for v in exps:
            if v not in self.variables:
                raise ValueError(f"variable {v} is not a variable of the basis")
        vec = tuple(exps.get(v, 0) for v in self.variables)
        for v, e in zip(self.variables, vec):
            if isinstance(e, float):
                raise ValueError(f"float exponent {e!r} on {v}: give an int or a Fraction")
        try:
            return self.generators.index(vec)  # a fractional exponent equals no int
        except ValueError:
            return None


def hilbert_basis(action: DiagonalAction, variables=None) -> HilbertBasis:
    """Minimal generating monomials of the invariant algebra (its Hilbert
    basis), over the listed variables (all the action's, sorted, when None),
    in the order of degree, then exponents.

    Write chi_j for the character of variable j in G and res(u) = sum_j u_j
    chi_j for an exponent vector u, so x^u is invariant exactly when
    res(u) = 0.  A nonzero invariant u is a generator exactly when no
    nonzero proper sub-vector v < u is invariant: its characters, chi_j
    repeated u_j times, form a minimal zero-sum sequence over G (Sturmfels,
    Algorithms in Invariant Theory; Geroldinger and Halter-Koch,
    Non-Unique Factorizations).  The search walks the vectors u with no
    invariant nonzero sub-vector, adding unit vectors e_p in non-decreasing
    position order and carrying the set of residues of u's nonzero
    sub-vectors.  No sub-vector v < u has res(v) = res(u), or u - v would
    be invariant, so u + e_p is a generator exactly when res(u) + chi_p =
    0; any other zero among its new residues (chi_p, or s + chi_p for a
    residue s of a sub-vector) is an invariant proper sub-vector of u + e_p
    and of every vector above it, which ends the branch.  Every generator
    is reached once, from itself minus the unit vector of its last
    position.  Degree bound: among the |G| prefix sums of a sequence of
    |G| characters, either one is zero or two of them are equal, and then
    the block between them sums to zero (pigeonhole), so a walked vector
    has degree below |G| and a generator has degree at most |G|
    (`degree_bound`; the Davenport constant D(G) is at most |G|).
    """
    if variables is None:
        variables = tuple(sorted(action.weights))
    variables = tuple(variables)
    for v in variables:
        if v not in action.weights:
            raise ValueError(f"variable {v} is not covered by the action")
    moduli = action.group.moduli
    # group elements as ints, in the mixed radix of the moduli
    elements = list(itertools.product(*(range(p) for p in moduli)))
    index = {g: i for i, g in enumerate(elements)}
    chars, shifts, negs = [], [], []
    for v in variables:
        chi = tuple(w % p for w, p in zip(action.weights[v], moduli))
        chars.append(index[chi])
        negs.append(index[tuple(-w % p for w, p in zip(chi, moduli))])
        shifts.append([index[tuple((a + w) % p for a, w, p in zip(g, chi, moduli))] for g in elements])
    gens: list[tuple[int, ...]] = []
    # (u, first position to add, res(u), residues of u's nonzero sub-vectors)
    stack = [((0,) * len(variables), 0, 0, frozenset())]
    while stack:
        vec, start, res, subs = stack.pop()
        for p in range(start, len(variables)):
            up = vec[:p] + (vec[p] + 1,) + vec[p + 1 :]
            if negs[p] == res:
                gens.append(up)
            elif negs[p] and negs[p] not in subs:
                shift = shifts[p]
                stack.append((up, p, shift[res], subs | {chars[p]} | {shift[s] for s in subs}))
    gens.sort(key=lambda v: (sum(v), v))
    gen_space = VarSpace((), [f"g{i}" for i in range(len(gens))])
    return HilbertBasis(action, variables, tuple(gens), action.group.order, VarSpace((), variables), gen_space)


def _monomial_identity(left, right, generators) -> bool:
    """Whether prod g_i^left_i = prod g_i^right_i for the monomials g_i with
    the given exponent vectors: two products of monomials are equal exactly
    when their exponent vectors are, sum_i left_i g_i = sum_i right_i g_i."""
    return all(sum(map(mul, left, col)) == sum(map(mul, right, col)) for col in zip(*generators))


class Relation(Record):
    # left, right: exponents over generators
    __slots__ = ("left", "right")

    def vector(self):
        return tuple(l - r for l, r in zip(self.left, self.right))


class RelationSet(Record):
    __slots__ = ("basis", "relations", "lattice_rank")

    def ambient_identity_holds(self, rel: Relation) -> bool:
        return _monomial_identity(rel.left, rel.right, self.basis.generators)

    def contains(self, rel: Relation) -> bool:
        vectors = [r.vector() for r in self.relations]
        return in_lattice(vectors, rel.vector())


def relations(basis: HilbertBasis) -> RelationSet:
    """Binomial relation lattice of the generators (integer kernel of the
    exponent matrix); every basis relation is an exact monomial identity."""
    nvars = len(basis.variables)
    ngens = len(basis.generators)
    rows = kernel_basis([[basis.generators[g][v] for g in range(ngens)] for v in range(nvars)])
    rels = []
    for row in rows:
        left = tuple(int(x) if x > 0 else 0 for x in row)
        right = tuple(int(-x) if x < 0 else 0 for x in row)
        rels.append(Relation(left, right))
    out = RelationSet(basis, tuple(rels), lattice_rank=len(rels))
    for rel in out.relations:
        if not out.ambient_identity_holds(rel):
            raise AssertionError("kernel relation fails as a monomial identity")
    return out


def quotient_image(f: FracPoly, basis: HilbertBasis) -> FracPoly:
    """Rewrite the invariant polynomial f in the basis generators.

    Greedy division with backtracking per monomial (`_decompose`, on packed
    exponent vectors); representations are not unique (the relations
    identify them) so correctness is certified by re-expansion, see
    expand_quotient_image.  The one-term images are merged in term order
    into one map, as `poly_sum` of them would be.
    """
    if not is_invariant(f, basis.action):
        raise ValueError("polynomial is not invariant under the basis action")
    gens, variables = basis.generators, basis.variables
    var_index = {v: i for i, v in enumerate(variables)}
    src, src_names = f.space, f.space.names
    # a key entry bounds its exponent, so this bounds every entry of a vector met
    top = max(itertools.chain.from_iterable(f.terms), default=0)
    width = max(top, max(itertools.chain.from_iterable(gens), default=0)).bit_length() + 1
    shifts = [width * i for i in range(len(variables))]
    guards = sum(1 << (s + width - 1) for s in shifts)
    order = sorted(range(len(gens)), key=lambda i: (-sum(gens[i]), gens[i]))
    gens_desc = [(i, sum(map(lshift, gens[i], shifts))) for i in order]
    memo: dict = {}  # a decomposition depends only on the vector, so the terms share it

    def images():
        for key, coeff in f.terms.items():
            vec = [0] * len(variables)
            for pos, k in enumerate(key):
                if k:
                    name = src_names[pos]
                    if name not in var_index:
                        raise ValueError(f"variable {name} is not a variable of the basis")
                    e, r = divmod(k, src.bounds[pos])
                    if r:
                        raise ValueError(f"exponent {_face(src, pos, k)} on {name} is not an integer")
                    vec[var_index[name]] = e
            decomp = None  # no generator lies below a vector with a negative entry
            if min(vec, default=0) >= 0:
                decomp = _decompose(sum(map(lshift, vec, shifts)), gens_desc, guards, memo)
            if decomp is None:
                raise ValueError(f"monomial {dict(zip(variables, vec))} not expressible in the generators")
            counts = [0] * len(gens)
            for idx in decomp:
                counts[idx] += 1
            yield tuple(counts), coeff

    return FracPoly._raw(basis.gen_space, _merge({}, images()))


def _decompose(vec: int, gens_desc, guards: int, memo):
    """The generator indices, with repeats, of a decomposition of the packed
    exponent vector vec, or None: the first generator of gens_desc ((index,
    packed vector) pairs) that lies below vec, then a decomposition of the
    rest, and on failure the next generator (backtracking).

    Each variable has a field of W bits, W = bit_length(M) + 1 for M at
    least every entry of the vectors packed, so an entry stays below the
    field's top bit, its guard, and so does every entry of a difference
    taken below.  With the guards set, field j of (vec | guards) - g holds
    2^(W-1) + v_j - g_j, which lies in [1, 2^W) as 0 <= v_j, g_j < 2^(W-1):
    no field borrows from the next, and the guard survives exactly when
    g_j <= v_j.  So g <= vec in every position exactly when every guard
    survives, and vec - g is then the packed difference.  Packing is one
    to one, so the search tries the generators of the tuple search in its
    order and its memo holds the same decompositions."""
    if not vec:
        return []
    if vec in memo:
        return memo[vec]
    raised = vec | guards
    for idx, g in gens_desc:
        if (raised - g) & guards == guards:
            rest = _decompose(vec - g, gens_desc, guards, memo)
            if rest is not None:
                memo[vec] = [idx] + rest
                return memo[vec]
    memo[vec] = None
    return None


def expand_quotient_image(img: FracPoly, basis: HilbertBasis) -> FracPoly:
    """Substitute the generator monomials back; inverse check for quotient_image."""
    mapping = {name: basis.monomial(i) for i, name in enumerate(basis.names())}
    return img.substitute(mapping, target_space=basis.space)


# -- toric transform of the relation family ----------------------------------------


class TransformedRelation(Record):
    __slots__ = ("nu", "trivialized", "verified")


def toric_relation_transform(rel: Relation, basis: HilbertBasis, w_index: int, s_index: int) -> TransformedRelation:
    """Chart transform of a relation prod X^lambda = W^(sum lambda - nu) * S
    under the blow-up of the common zero locus of its generators, in the
    W-chart: S/W = W^(nu-1) prod (X/W)^lambda."""
    left, right = rel.left, rel.right
    if left[s_index] or not right[s_index]:
        left, right = right, left
    if right[s_index] != 1 or right[w_index] < 0 or any(left[i] and i in (w_index, s_index) for i in range(len(left))):
        raise ValueError("relation is not of the product = W^a * S family")
    lam_total = sum(left)
    nu = lam_total - right[w_index]
    if nu < 1:
        raise ValueError("relation has nonpositive residual order")
    # With X = W X' and S = W S' the relation becomes the claim
    # S' = W^(nu-1) prod X'^lambda exactly when it is an identity of
    # monomials.
    return TransformedRelation(
        nu=nu,
        trivialized=(nu == 1 and lam_total == 1),
        verified=_monomial_identity(left, right, basis.generators),
    )


# -- the staged blow-up of a (product) group-circulant normal form -------------------


class PipelineStep(Record):
    __slots__ = (
        "divisor_index", "chart_var", "weight_map", "multiplicity", "expected_multiplicity", "group_order",
    )


class PipelineReport(Record):
    __slots__ = (
        "steps", "final_factors", "final_strict_transform", "group_moduli", "group_order", "order_bound",
        "cyclic_orders_bounded", "normal_crossings",
    )
    # gcirc_blowup_sequence raises on a part that fails validation, and
    # validation implies that the product of the eigen factors is the
    # strict transform (see its docstring): no report can be unverified
    product_verified = True


def divisor_weights(spec, i: int) -> dict:
    """Weights of the weighted blow-up along the i-th divisor of a (product)
    spec, keyed by the names of spec_space(spec): p_i on w_i, and p_i - mu + 1
    on each x, mu the residue p_i gamma_i of its exponent on w_i."""
    if not 0 <= i < len(spec.moduli):
        raise ValueError(f"divisor index {i} is outside 0..{len(spec.moduli) - 1}")
    w = spec.w_names()[i]
    p = spec.moduli[i]
    mus = [e.residues[i] for part in _parts(spec) for e in part.exponent_elements()]
    return {w: p, **{x: p - mu + 1 for x, mu in zip(spec.x_names(), mus)}}


def gcirc_blowup_sequence(spec) -> PipelineReport:
    """One weighted blow-up per divisorial variable (`divisor_weights`),
    following the w-charts and pulling back only the eigen factors; the
    final strict transform is their product, and normal crossings means
    the final factors are linear forms with independent linear parts.

    The report's product_verified, that this product is the strict
    transform of the normal form, holds by construction and is the class
    constant True: the pipeline raises on a part that fails validation, a
    valid part is transitive, and a transitive part passes
    `_additive_gamma`, an exact check on integers that validation runs, so
    the pipeline does not run it again.  Then the strict transform of the
    normal form is the product of those of the factors, and each step's
    multiplicity is the sum of theirs, because:
    - a circulant determinant is the product of its eigen factors;
    - labels -> gamma mod Z additive gives the determinant integral
      w-exponents, so the normal form is exactly that product (see
      `normal_form_poly`), and so is a product of parts;
    - a chart is a monomial substitution, hence a ring map, so it pulls
      the normal form back to the product of the pulled-back factors;
    - ord_t is additive on products: each strict transform has a nonzero
      t-free part, and those parts multiply to a nonzero polynomial, so
      st(prod f_i) = prod st(f_i) and ord_t(prod f_i) = sum ord_t(f_i)."""
    parts = _parts(spec)
    reports = [validate_normal_form(f, allow_omitted_divisors=len(parts) > 1) for f in parts]
    if not all(rep.valid for rep in reports):
        raise ValueError("factor fails validation")
    moduli = spec.moduli
    factors = [f for part_factors in spec_factors(spec) for f in part_factors]
    steps = []
    space = spec_space(spec)
    current = {x: x for x in spec.x_names()}  # x name -> its name in the current chart
    for i, p in enumerate(moduli):
        wt_map = {current.get(n, n): wt for n, wt in divisor_weights(spec, i).items()}
        cmap, _action = _chart(space, tuple(wt_map), tuple(wt_map.values()), 0)  # the divisor chart
        pulled = substitute_all(factors, cmap.substitutions, cmap.new_space)
        transforms = [strict_transform(f, cmap.chart_var) for f in pulled]
        factors = [st for st, _ in transforms]
        steps.append(
            PipelineStep(
                divisor_index=i,
                chart_var=cmap.chart_var,
                weight_map=dict(wt_map),
                multiplicity=int(sum(m for _, m in transforms)),
                expected_multiplicity=spec.k * (p + 1),
                group_order=p,
            )
        )
        current = {n: cmap.y_names[c] for n, c in current.items()}  # renamed by the chart
        space = cmap.new_space

    # step i gives w_i the weight p_i, so the bound on the steps bounds every p_i
    order_bound = sum(moduli) + 1
    return PipelineReport(
        steps=tuple(steps),
        final_factors=tuple(factors),
        final_strict_transform=product(factors),
        group_moduli=tuple(moduli),
        group_order=prod(moduli),
        order_bound=order_bound,
        cyclic_orders_bounded=all(max(s.weight_map.values()) <= order_bound for s in steps),
        normal_crossings=_independent_linear_parts(factors, list(current.values())),
    )


def _independent_linear_parts(factors, var_names) -> bool:
    """Each factor a linear form in the listed variables, jointly of full rank."""
    lins = [linear_part(f) for f in factors]
    if any(len(lin) != len(f.terms) or not set(lin) <= set(var_names) for lin, f in zip(lins, factors)):
        return False
    return linear_rank(lins, var_names) == len(factors)
