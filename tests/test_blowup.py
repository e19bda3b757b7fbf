import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circforge import (
    AbelianGroup,
    DiagonalAction,
    FracPoly,
    ProductNormalFormSpec,
    Relation,
    VarSpace,
    apply_group,
    charts,
    cpk_spec,
    expand_quotient_image,
    gcirc_blowup_sequence,
    hilbert_basis,
    is_invariant,
    klein_spec,
    normal_form_poly,
    pullback,
    quotient_image,
    relations,
    root_of_unity,
    strict_transform,
    toric_relation_transform,
    transition,
    weights,
    z2z4_spec,
)
from circforge import blowup, gcirc
from circforge.gcirc import spec_space
from circforge.polyring import poly_sum

from conftest import groups_of_order_up_to, invariant_exponent_vectors, trivial_modulus_product, valid_specs


def _cpk_atlas(k):
    spec = cpk_spec(k)
    poly = normal_form_poly(spec)
    names = list(poly.space.names)
    params = ["w"] + [n for n in names if n != "w"]
    wts = [k] + [k - j + 1 for j in range(k)]
    return poly, charts(poly.space, params, wts)


def test_standard_blowup_trivial_groups():
    sp = VarSpace([], ["a", "b"])
    atlas = charts(sp, ["a", "b"], [1, 1])
    for cmap, action in atlas.charts:
        assert action.group.order == 1
    f = FracPoly.variable(sp, "a") ** 2 + FracPoly.variable(sp, "b") ** 2
    total, st, mult = pullback(f, atlas, 0)
    assert mult == 2


def test_charts_refuse_a_weight_that_is_not_an_int():
    # int() would truncate 1.5 and Fraction(3, 2) to the weight-1 chart
    sp = VarSpace([], ["x", "y"])
    for bad in (1.5, 2.0, Fraction(3, 2), Fraction(2), True):
        with pytest.raises(ValueError, match=f"weight {re.escape(repr(bad))} on x is not an int"):
            charts(sp, ["x", "y"], [bad, 1])
    assert charts(sp, ["x", "y"], [2, 1]).weights == (2, 1)


def test_divisor_weights_refuses_an_index_outside_the_divisors():
    for spec in (cpk_spec(3), klein_spec()):
        r = len(spec.moduli)
        assert blowup.divisor_weights(spec, r - 1)
        for i in (r, -1):
            with pytest.raises(ValueError, match=rf"divisor index {i} is outside 0\.\.{r - 1}"):
                blowup.divisor_weights(spec, i)


def test_cp2_chart_action():
    _poly, atlas = _cpk_atlas(2)
    cmap, action = atlas.charts[0]
    assert str(cmap.substitutions["w"]) == "t^2"
    assert action.group.moduli == (2,)
    assert action.weights[cmap.chart_var] == (1,)
    # z carries weight 3 -> acts by -1; x carries weight 2 -> fixed
    assert action.weights[cmap.y_names["z"]] == (1,)
    assert action.weights[cmap.y_names["x"]] == (0,)


def test_cpk_chart_action_general():
    for k in (3, 4):
        _poly, atlas = _cpk_atlas(k)
        cmap, action = atlas.charts[0]
        names = cpk_spec(k).x_names()
        for j, n in enumerate(names):
            assert action.weights[cmap.y_names[n]] == ((j - 1) % k,)


def test_pullback_multiplicity():
    for k in (2, 3, 4):
        poly, atlas = _cpk_atlas(k)
        total, st, mult = pullback(poly, atlas, 0)
        assert mult == k * (k + 1)
        # strict transform is the pure determinant in the dotted variables
        cmap, action = atlas.charts[0]
        from circforge import gcirc_det

        names = cpk_spec(k).x_names()
        vals = [FracPoly.variable(st.space, cmap.y_names[n]) for n in names]
        assert st == gcirc_det(AbelianGroup((k,)), vals)


def test_transitions_verified():
    _poly, atlas = _cpk_atlas(2)
    for i, j in itertools.permutations(range(3), 2):
        tr = transition(atlas, i, j)
        assert tr.equivariant and tr.commutes_with_projection
    sp = VarSpace([], ["a", "b", "c"])
    atlas2 = charts(sp, ["a", "b", "c"], [2, 3, 5])
    tr = transition(atlas2, 0, 2)
    assert tr.equivariant and tr.commutes_with_projection


def _intertwines_by_apply_group(iso, space, action_i, action_j):
    """Oracle: each generator scales every variable and its image by the
    same factor, compared on the polynomials (`apply_group`)."""
    for v, image in iso.items():
        for gi in range(action_i.group.rank):
            g = action_i.group.generator(gi)
            ((_, lc),) = apply_group(FracPoly.variable(space, v), action_i, g).terms.items()
            if image.scale(lc) != apply_group(image, action_j, g):
                return False
    return True


@st.composite
def _monomial_maps(draw):
    """(source space, iso, source action, target action) over one group of
    rank 1 or 2: iso sends each source variable to a Laurent monomial in
    the target variables; each source weight is, half of the time, the
    weight of its image (so that it is equivariant) and otherwise random."""
    group = AbelianGroup(tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))))
    weight = st.tuples(*(st.integers(-7, 7) for _ in group.moduli))
    source, target = VarSpace([], ["a", "b", "c"]), VarSpace([], ["s", "t", "u"])
    target_weights = {n: draw(weight) for n in target.names}
    iso, source_weights = {}, {}
    for v in source.names:
        exps = {n: draw(st.integers(-3, 3)) for n in target.names}
        iso[v] = FracPoly.monomial(target, exps)
        own = tuple(sum(e * target_weights[n][i] for n, e in exps.items()) for i in range(group.rank))
        source_weights[v] = own if draw(st.booleans()) else draw(weight)
    return source, iso, DiagonalAction(group, source_weights), DiagonalAction(group, target_weights)


@settings(max_examples=100, deadline=None)
@given(_monomial_maps())
def test_intertwines_is_the_apply_group_check(drawn):
    source, iso, action_i, action_j = drawn
    assert blowup.intertwines(iso, action_i, action_j) == _intertwines_by_apply_group(iso, source, action_i, action_j)


def test_transition_equivariance_and_a_wrong_image():
    # a glueing of the shape transition builds between charts 0 and 1 of
    # weights (2, 3, 5): s -> t u, v -> 1/u, y1 -> u^-3, y2 -> u^-5 y2';
    # then one image exponent off by one
    group = AbelianGroup((2, 3))
    cover_i, cover_j = VarSpace([], ["s", "y1", "y2", "v"]), VarSpace([], ["t", "x0", "y2'", "u"])
    action_i = DiagonalAction(group, {"s": (1, 0), "v": (-1, 1), "y1": (-3, 0), "y2": (-5, 0)})
    action_j = DiagonalAction(group, {"t": (0, 1), "u": (1, -1), "x0": (0, -2), "y2'": (0, -5)})
    iso = {
        "s": FracPoly.monomial(cover_j, {"t": 1, "u": 1}),
        "v": FracPoly.monomial(cover_j, {"u": -1}),
        "y1": FracPoly.monomial(cover_j, {"u": -3}),
        "y2": FracPoly.monomial(cover_j, {"u": -5, "y2'": 1}),
    }
    assert blowup.intertwines(iso, action_i, action_j)
    assert _intertwines_by_apply_group(iso, cover_i, action_i, action_j)
    iso["y2"] = FracPoly.monomial(cover_j, {"u": -4, "y2'": 1})
    assert not blowup.intertwines(iso, action_i, action_j)
    assert not _intertwines_by_apply_group(iso, cover_i, action_i, action_j)


def test_chart_action_free_off_exceptional():
    # off the divisor the chart variable is invertible and carries weight 1,
    # so every nonzero group element moves the point: the weight lattice of
    # the invertible coordinates has trivial kernel
    for k in (2, 3, 4):
        _poly, atlas = _cpk_atlas(k)
        for cmap, action in atlas.charts:
            g = action.group
            for el in g.elements():
                if el.is_identity():
                    continue
                phases = [
                    sum(a * b for a, b in zip(action.weights[cmap.chart_var], el.residues)) % g.moduli[0]
                ]
                assert any(p != 0 for p in phases)


def test_hilbert_basis_cp2():
    _poly, atlas = _cpk_atlas(2)
    cmap, action = atlas.charts[0]
    hb = hilbert_basis(action)
    mons = {str(hb.monomial(i)) for i in range(len(hb.generators))}
    t, z1, x1 = cmap.chart_var, cmap.y_names["z"], cmap.y_names["x"]
    assert mons == {f"{t}^2", f"{t}*{z1}", f"{z1}^2", f"{x1}"}


def test_hilbert_basis_trivial_group():
    act = DiagonalAction(AbelianGroup((1,)), {"a": (0,), "b": (0,)})
    hb = hilbert_basis(act)
    assert {str(hb.monomial(i)) for i in range(len(hb.generators))} == {"a", "b"}


def test_hilbert_basis_cp3_matches_displayed_family():
    _poly, atlas = _cpk_atlas(3)
    cmap, action = atlas.charts[0]
    hb = hilbert_basis(action)
    t = cmap.chart_var
    names = [cmap.y_names[n] for n in cpk_spec(3).x_names()]  # dotted x_0, x_1, x_2
    mons = {str(hb.monomial(i)) for i in range(len(hb.generators))}
    x0d, x1d, x2d = names
    # W, X_0 = t x0., X_1 = x1., X_2 = t^{k-j+1} x2. = t^2 x2., and the
    # S-family members of degree <= 3
    expected = {
        str(FracPoly.monomial(hb.space, e))
        for e in (
            {t: 3},
            {t: 1, x0d: 1},
            {x1d: 1},
            {t: 2, x2d: 1},
            {x0d: 3},
            {x2d: 3},
            {x0d: 1, x2d: 1},
            {t: 1, x2d: 2},
        )
    }
    assert mons == expected
    # the S_{mu,lambda} congruence: mu + 3 lambda_0 - (lambda_0 + ... ) per
    # displayed constraint mu + lambda_0(k-1) + sum_{j>=1} lambda_j (j-1) = 0 mod k
    for gen in hb.generators:
        exps = dict(zip(hb.variables, gen))
        mu = exps.get(t, 0)
        lam = [exps.get(n, 0) for n in names]
        assert (mu + lam[0] * 2 + lam[2] * 1) % 3 == 0


def test_hilbert_basis_completeness_bruteforce():
    for k in (2, 3):
        _poly, atlas = _cpk_atlas(k)
        _cmap, action = atlas.charts[0]
        hb = hilbert_basis(action)
        allinv = invariant_exponent_vectors(action, hb.variables, action.group.order)
        # completeness: every invariant monomial up to the bound factors
        # through the generators
        for vec in allinv:
            m = FracPoly.monomial(hb.space, dict(zip(hb.variables, vec)))
            assert expand_quotient_image(quotient_image(m, hb), hb) == m
        # minimality: no generator contains a smaller invariant monomial
        for gen in hb.generators:
            for a in allinv:
                if a == gen:
                    continue
                assert not all(x <= y for x, y in zip(a, gen))


def test_relations_cp2():
    _poly, atlas = _cpk_atlas(2)
    cmap, action = atlas.charts[0]
    hb = hilbert_basis(action)
    rels = relations(hb)
    iW = hb.find({cmap.chart_var: 2})
    iX0 = hb.find({cmap.chart_var: 1, cmap.y_names["z"]: 1})
    iS = hb.find({cmap.y_names["z"]: 2})
    vec_left = [0] * len(hb.generators)
    vec_left[iX0] = 2
    vec_right = [0] * len(hb.generators)
    vec_right[iW] = 1
    vec_right[iS] = 1
    rel = Relation(tuple(vec_left), tuple(vec_right))
    assert rels.ambient_identity_holds(rel)
    assert rels.contains(rel)
    for r in rels.relations:
        assert rels.ambient_identity_holds(r)


def test_ambient_identity_matches_expanded_products():
    # the exponent-vector test against the products of the generator
    # monomials multiplied out, on kernel relations and on random pairs
    import random

    _poly, atlas = _cpk_atlas(3)
    hb = hilbert_basis(atlas.charts[0][1])
    rels = relations(hb)
    rng = random.Random(5)
    pairs = [(r.left, r.right) for r in rels.relations]
    pairs += [tuple(tuple(rng.randint(0, 2) for _ in hb.generators) for _side in "lr") for _ in range(40)]
    pairs += [(r.left, r.right[:-1] + (r.right[-1] + 1,)) for r in rels.relations]
    seen = set()
    for left, right in pairs:
        lhs = rhs = FracPoly.constant(hb.space, 1)
        for idx, (el, er) in enumerate(zip(left, right)):
            lhs = lhs * hb.monomial(idx) ** el
            rhs = rhs * hb.monomial(idx) ** er
        holds = rels.ambient_identity_holds(Relation(left, right))
        assert holds == (lhs == rhs), (left, right)
        seen.add(holds)
    assert seen == {True, False}


def test_relations_trivial_group_empty():
    act = DiagonalAction(AbelianGroup((1,)), {"a": (0,), "b": (0,)})
    hb = hilbert_basis(act)
    assert relations(hb).relations == ()


def test_relations_cp3_family():
    _poly, atlas = _cpk_atlas(3)
    cmap, action = atlas.charts[0]
    hb = hilbert_basis(action)
    rels = relations(hb)
    x0d = cmap.y_names["z"]
    iW = hb.find({cmap.chart_var: 3})
    iX0 = hb.find({cmap.chart_var: 1, x0d: 1})
    iS0 = hb.find({x0d: 3})
    vec_left = [0] * len(hb.generators)
    vec_left[iX0] = 3
    vec_right = [0] * len(hb.generators)
    vec_right[iW] = 1
    vec_right[iS0] = 1
    rel = Relation(tuple(vec_left), tuple(vec_right))
    assert rels.ambient_identity_holds(rel)
    assert rels.contains(rel)
    # lattice rank = generators - rank of exponent matrix
    a = [[g[v] for g in hb.generators] for v in range(len(hb.variables))]
    from circforge.smith import smith_normal_form

    d, _u, _v = smith_normal_form(a)
    rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    assert rels.lattice_rank == len(hb.generators) - rank


def test_quotient_image_cp2():
    _poly, atlas = _cpk_atlas(2)
    cmap, action = atlas.charts[0]
    _total, st, _mult = pullback(_poly, atlas, 0)
    hb = hilbert_basis(action)
    img = quotient_image(st, hb)
    assert expand_quotient_image(img, hb) == st
    # image is S - X1^2 in generator symbols
    names = hb.names()
    iS = hb.find({cmap.y_names["z"]: 2})
    iX1 = hb.find({cmap.y_names["x"]: 1})
    gen_space = img.space
    s_sym = FracPoly.variable(gen_space, names[iS])
    x1_sym = FracPoly.variable(gen_space, names[iX1])
    assert img == s_sym - x1_sym * x1_sym


def test_quotient_image_constant():
    act = DiagonalAction(AbelianGroup((2,)), {"a": (1,)})
    hb = hilbert_basis(act)
    f = FracPoly.constant(VarSpace((), ("a",)), 7)
    assert quotient_image(f, hb) == 7


def test_quotient_image_requires_invariance():
    _poly, atlas = _cpk_atlas(2)
    cmap, action = atlas.charts[0]
    hb = hilbert_basis(action)
    t = FracPoly.variable(hb.space, cmap.chart_var)
    with pytest.raises(ValueError):
        quotient_image(t, hb)


def _compositions(total, n):
    """The vectors of n nonnegative ints summing to total, lexicographically."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


def _enumerated_generators(action, variables):
    """The Hilbert basis by enumeration: every vector of degree 1..|G| in
    order of degree, kept when invariant and above no vector kept before,
    then sorted by (degree, vector)."""
    gens = []
    for total in range(1, action.group.order + 1):
        for vec in _compositions(total, len(variables)):
            invariant = all(
                sum(action.weights[v][i] * e for v, e in zip(variables, vec)) % p == 0
                for i, p in enumerate(action.group.moduli)
            )
            reducible = any(all(g[t] <= vec[t] for t in range(len(vec))) for g in gens)
            if invariant and not reducible:
                gens.append(vec)
    gens.sort(key=lambda v: (sum(v), v))
    return tuple(gens)


@st.composite
def _diagonal_actions(draw):
    """A diagonal action of an abelian group of order <= 12 (or Z/1) on 0-5
    variables, weights in -p..p per modulus p, zero often."""
    group = draw(st.sampled_from(groups_of_order_up_to(12) + [AbelianGroup((1,))]))
    weights = {
        f"v{j}": tuple(draw(st.integers(-p, p) | st.just(0)) for p in group.moduli)
        for j in range(draw(st.integers(0, 5)))
    }
    return DiagonalAction(group, weights)


@settings(max_examples=100, deadline=None)
@given(_diagonal_actions())
def test_hilbert_basis_equals_the_enumeration(action):
    hb = hilbert_basis(action)
    assert hb.variables == tuple(sorted(action.weights))
    assert hb.generators == _enumerated_generators(action, hb.variables)
    assert hb.degree_bound == action.group.order


def test_quotient_image_is_the_sum_of_the_one_term_images():
    def items(f):
        return [(k, c.order, c.coeff_strings) for k, c in f.terms.items()]

    for k in (2, 3, 4, 5, 6):
        poly, atlas = _cpk_atlas(k)
        _cmap, action = atlas.charts[0]
        _total, st_, _mult = pullback(poly, atlas, 0)
        hb = hilbert_basis(action)
        img = quotient_image(st_, hb)
        terms = [FracPoly(st_.space, {st_.space.face_key(key): c}) for key, c in st_.terms.items()]
        assert items(img) == items(poly_sum(img.space, [quotient_image(t, hb) for t in terms]))


def _reference_quotient_image(f, basis):
    """quotient_image by the tuple search: each term's exponent vector,
    compared and reduced entry by entry, decomposed greedily with
    backtracking, and the one-term images added by poly_sum."""
    if not is_invariant(f, basis.action):
        raise ValueError("polynomial is not invariant under the basis action")
    gens, variables = basis.generators, basis.variables
    gen_space = VarSpace((), [f"g{i}" for i in range(len(gens))])
    var_index = {v: i for i, v in enumerate(variables)}
    src = f.space
    gens_desc = sorted(range(len(gens)), key=lambda i: (-sum(gens[i]), gens[i]))
    memo = {}

    def decompose(vec):
        if not any(vec):
            return []
        if vec in memo:
            return memo[vec]
        for idx in gens_desc:
            if all(a <= b for a, b in zip(gens[idx], vec)):
                rest = decompose(tuple(b - a for a, b in zip(gens[idx], vec)))
                if rest is not None:
                    memo[vec] = [idx] + rest
                    return memo[vec]
        memo[vec] = None
        return None

    images = []
    for key, coeff in f.terms.items():
        vec = [0] * len(variables)
        for pos, k in enumerate(key):
            if k:
                name = src.names[pos]
                if name not in var_index:
                    raise ValueError(f"variable {name} is not a variable of the basis")
                e, r = divmod(k, src.bounds[pos])
                if r:
                    face = Fraction(k, src.bounds[pos]) if pos < src.ndiv else k
                    raise ValueError(f"exponent {face} on {name} is not an integer")
                vec[var_index[name]] = e
        decomp = decompose(tuple(vec))
        if decomp is None:
            raise ValueError(f"monomial {dict(zip(variables, vec))} not expressible in the generators")
        images.append(FracPoly(gen_space, {tuple(decomp.count(i) for i in range(len(gens))): coeff}))
    return poly_sum(gen_space, images)


_COEFFS = (1, -1, Fraction(-2, 3), root_of_unity(3, 1), root_of_unity(4, 1) * 5, root_of_unity(12, 7))


@st.composite
def _invariant_polynomials(draw):
    """A basis over `_diagonal_actions`, sometimes with an added divisorial
    w of weight 0, and a polynomial of up to six terms (zero when none),
    each a sum of generators, one maybe raised to degree 50-400 (exponents
    far above any generator's); then maybe one more term, Laurent (a term
    less enough copies of a generator free of w) or fractional (a term
    times w to a non-integer power)."""
    action = draw(_diagonal_actions())
    divisorial = []
    if draw(st.booleans()):
        divisorial = [("w", draw(st.sampled_from([2, 3])))]
        action = DiagonalAction(action.group, {**action.weights, "w": (0,) * action.group.rank})
    basis = hilbert_basis(action)
    variables = basis.variables
    space = VarSpace(divisorial, [v for v in variables if v != "w"])
    gens = basis.generators
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        vec = [0] * len(variables)
        if gens:
            for idx in draw(st.lists(st.integers(0, len(gens) - 1), max_size=3)):
                vec = [a + b for a, b in zip(vec, gens[idx])]
            if draw(st.booleans()):
                g = gens[draw(st.integers(0, len(gens) - 1))]
                m = draw(st.integers(50, 400)) // sum(g)
                vec = [a + b * m for a, b in zip(vec, g)]
        exps = {v: e for v, e in zip(variables, vec) if e}
        terms[tuple(exps.get(n, 0) for n in space.names)] = draw(st.sampled_from(_COEFFS))
    bad = draw(st.sampled_from(["none", "laurent", "fractional"]))
    free_gens = [g for g in gens if not dict(zip(variables, g)).get("w")]
    if terms and bad == "laurent" and free_gens:
        # a term less m times a generator, m past the term's own multiple of it
        g = draw(st.sampled_from(free_gens))
        exps = dict(zip(space.names, draw(st.sampled_from(sorted(terms)))))
        m = max(exps[v] // e for v, e in zip(variables, g) if e) + draw(st.integers(1, 60))
        terms[tuple(exps[n] - m * dict(zip(variables, g))[n] for n in space.names)] = -1
    if terms and bad == "fractional" and divisorial:
        key = list(draw(st.sampled_from(sorted(terms))))
        key[0] += Fraction(draw(st.integers(1, divisorial[0][1] - 1)), divisorial[0][1])
        terms[tuple(key)] = 2
    return FracPoly(space, terms), basis


@settings(max_examples=150, deadline=None)
@given(_invariant_polynomials())
@example(
    (FracPoly.monomial(VarSpace((), ["v0"]), {"v0": 300}), hilbert_basis(DiagonalAction(AbelianGroup((2,)), {"v0": (1,)})))
)
def test_quotient_image_matches_the_reference_search(drawn):
    # the packed search against the tuple search it replaced: the same keys
    # in the same map order, every Cyclo order and coefficient, or the same
    # error; v0^300 needs a field of ten bits, the guard included
    f, basis = drawn

    def outcome(image):
        try:
            img = image(f, basis)
        except ValueError as exc:
            return str(exc)
        return img.space, [(k, c.order, c.coeff_strings) for k, c in img.terms.items()]

    assert outcome(quotient_image) == outcome(_reference_quotient_image)


def test_quotient_image_takes_a_long_decomposition_without_recursion():
    # 1500 steps of one generator: a decomposition that recursed once per
    # step ran out of stack here
    hb = hilbert_basis(DiagonalAction(AbelianGroup((2,)), {"x": (0,)}))
    assert hb.generators == ((1,),)
    img = quotient_image(FracPoly.monomial(VarSpace((), ["x"]), {"x": 1500}), hb)
    assert img == FracPoly.monomial(hb.gen_space, {hb.names()[0]: 1500})
    assert expand_quotient_image(img, hb) == FracPoly.monomial(hb.space, {"x": 1500})


def test_quotient_image_refuses_a_fractional_exponent():
    # w has weight 0, so w^(1/2) x^2 is invariant, but no generator product
    # has a fractional exponent (the integer part alone would give x^2)
    hb = hilbert_basis(DiagonalAction(AbelianGroup((2,)), {"w": (0,), "x": (1,)}))
    f = FracPoly.monomial(VarSpace([("w", 2)], ["x"]), {"w": Fraction(1, 2), "x": 2})
    with pytest.raises(ValueError, match="exponent 1/2 on w is not an integer"):
        quotient_image(f, hb)
    # a variable the action covers but the basis leaves out
    hb_x = hilbert_basis(DiagonalAction(AbelianGroup((2,)), {"x": (1,), "y": (0,)}), ["x"])
    with pytest.raises(ValueError, match="variable y is not a variable of the basis"):
        quotient_image(FracPoly.variable(VarSpace([], ["x", "y"]), "y"), hb_x)


def test_find_refuses_a_fractional_exponent():
    hb = hilbert_basis(DiagonalAction(AbelianGroup((4,)), {"t": (2,), "x": (1,)}))
    assert hb.generators[hb.find({"t": 2})] == (2, 0)
    assert hb.find({"t": Fraction(5, 2)}) is None  # not t^2
    with pytest.raises(ValueError, match="float exponent 2.5 on t"):
        hb.find({"t": 5 / 2})
    with pytest.raises(ValueError, match="variable q is not a variable of the basis"):
        hb.find({"q": 1})


def test_hilbert_basis_refuses_an_uncovered_variable():
    action = DiagonalAction(AbelianGroup((2,)), {"t": (1,)})
    with pytest.raises(ValueError, match="variable q is not covered by the action"):
        hilbert_basis(action, ["t", "q"])


def test_toric_relation_transform():
    _poly, atlas = _cpk_atlas(2)
    cmap, action = atlas.charts[0]
    hb = hilbert_basis(action)
    iW = hb.find({cmap.chart_var: 2})
    iX0 = hb.find({cmap.chart_var: 1, cmap.y_names["z"]: 1})
    iS = hb.find({cmap.y_names["z"]: 2})
    left = [0] * len(hb.generators)
    left[iX0] = 2
    right = [0] * len(hb.generators)
    right[iW] = 1
    right[iS] = 1
    rel = Relation(tuple(left), tuple(right))
    out = toric_relation_transform(rel, hb, w_index=iW, s_index=iS)
    assert out.verified and out.nu == 1 and not out.trivialized
    # singleton lambda with nu = 1 trivializes
    act = DiagonalAction(AbelianGroup((2,)), {"t": (1,), "x": (1,)})
    hb2 = hilbert_basis(act)
    iW2 = hb2.find({"t": 2})
    iS2 = hb2.find({"x": 2})
    iX2 = hb2.find({"t": 1, "x": 1})
    left = [0] * len(hb2.generators)
    left[iX2] = 1
    right = [0] * len(hb2.generators)
    right[iS2] = 1
    # t x = x^2 has the shape W^0 * S with nu = 1 but is not an identity
    bogus = toric_relation_transform(Relation(tuple(left), tuple(right)), hb2, w_index=iW2, s_index=iS2)
    assert bogus.nu == 1 and not bogus.verified
    # the genuine relation (t x)^2 = t^2 x^2 = W * S
    left2 = [0] * len(hb2.generators)
    left2[iX2] = 2
    right2 = [0] * len(hb2.generators)
    right2[iW2] = 1
    right2[iS2] = 1
    rel2 = Relation(tuple(left2), tuple(right2))
    rels2 = relations(hb2)
    assert rels2.ambient_identity_holds(rel2)
    out2 = toric_relation_transform(rel2, hb2, w_index=iW2, s_index=iS2)
    assert out2.verified and out2.nu == 1


def test_pipeline_cpk():
    for k in (2, 3):
        rep = gcirc_blowup_sequence(cpk_spec(k))
        assert len(rep.steps) == 1
        assert rep.steps[0].multiplicity == k * (k + 1)
        assert rep.group_moduli == (k,)
        assert rep.normal_crossings and rep.product_verified
        assert rep.cyclic_orders_bounded


def test_pipeline_klein():
    rep = gcirc_blowup_sequence(klein_spec())
    assert [s.multiplicity for s in rep.steps] == [12, 12]
    assert rep.group_moduli == (2, 2) and rep.group_order == 4
    assert rep.group_order <= rep.order_bound
    assert rep.normal_crossings and rep.product_verified and rep.cyclic_orders_bounded
    assert len(rep.final_factors) == 4


def test_pipeline_z2z4():
    rep = gcirc_blowup_sequence(z2z4_spec())
    assert rep.group_moduli == (2, 4)
    assert rep.normal_crossings and rep.product_verified and rep.cyclic_orders_bounded
    assert [s.expected_multiplicity for s in rep.steps] == [12, 20]
    assert [s.multiplicity for s in rep.steps] == [12, 20]


@pytest.mark.parametrize(
    "spec",
    [cpk_spec(k) for k in range(2, 7)] + [klein_spec(), z2z4_spec()],
    ids=[f"cpk:{k}" for k in range(2, 7)] + ["klein", "z2z4"],
)
def test_pipeline_weights_are_the_resinv_weights(spec):
    # each step blows up with the weights of cp(p) x ... x cp(p), k/p factors
    rep = gcirc_blowup_sequence(spec)
    assert len(rep.steps) == len(spec.moduli)
    for step in rep.steps:
        p, w = step.group_order, spec.w_names()[step.divisor_index]
        wv = weights([p] * (spec.k // p))
        expected = dict(zip(wv.parameters, wv.integer))
        assert step.weight_map[w] == expected.pop("w")
        assert sorted(v for n, v in step.weight_map.items() if n != w) == sorted(expected.values())


def test_pipeline_with_a_trivial_modulus():
    rep = gcirc_blowup_sequence(trivial_modulus_product())
    assert [s.multiplicity for s in rep.steps] == [s.expected_multiplicity for s in rep.steps] == [12, 8]
    assert rep.steps[1].weight_map["w2"] == 1
    assert rep.normal_crossings and rep.product_verified and rep.cyclic_orders_bounded


def _check_against_the_expanded_normal_form(spec, rep):
    """The derivation the pipeline no longer runs: expand the normal form,
    pull it back and strict-transform it at every step through the chart
    rebuilt from the step's weight map; each multiplicity and the final
    strict transform must be the report's."""
    total = normal_form_poly(spec)
    space = spec_space(spec)
    for step in rep.steps:
        cmap, _action = charts(space, step.weight_map, step.weight_map.values()).charts[0]
        total, mult = strict_transform(cmap.apply(total), cmap.chart_var)
        assert cmap.chart_var == step.chart_var and mult == step.multiplicity
        space = cmap.new_space
    assert total == rep.final_strict_transform


@pytest.mark.parametrize(
    "spec",
    [cpk_spec(k) for k in range(2, 9)]
    + [klein_spec(), z2z4_spec(), trivial_modulus_product()]
    + [ProductNormalFormSpec((cpk_spec(k), cpk_spec(k))) for k in (2, 3)],
    ids=[f"cpk:{k}" for k in range(2, 9)] + ["klein", "z2z4", "z2xz1 cp2xcp2", "cp2xcp2", "cp3xcp3"],
)
def test_pipeline_is_the_strict_transform_of_the_normal_form(spec):
    _check_against_the_expanded_normal_form(spec, gcirc_blowup_sequence(spec))


_valid_products = valid_specs().flatmap(lambda a: valid_specs(a.moduli).map(lambda b: ProductNormalFormSpec((a, b))))


@settings(max_examples=40, deadline=None)
@given(st.one_of(valid_specs(), _valid_products))
def test_pipeline_on_valid_specs(spec):
    rep = gcirc_blowup_sequence(spec)
    assert [s.multiplicity for s in rep.steps] == [spec.k * (p + 1) for p in spec.moduli]
    assert rep.normal_crossings and rep.product_verified
    _check_against_the_expanded_normal_form(spec, rep)


def test_product_verified_holds_by_construction(monkeypatch):
    # the additivity check runs once per part, inside validation: a part
    # that fails it is not transitive, so the pipeline refuses it instead
    # of reporting an unverified product, and a report that exists has a
    # verified product
    assert blowup.PipelineReport.product_verified is True
    assert "product_verified" not in blowup.PipelineReport.__slots__
    monkeypatch.setattr(gcirc, "_additive_gamma", lambda part: part.k != 3)
    assert gcirc_blowup_sequence(cpk_spec(2)).product_verified
    with pytest.raises(ValueError, match="factor fails validation"):
        gcirc_blowup_sequence(cpk_spec(3))


def test_final_factors_are_independent_linear_forms():
    rep = gcirc_blowup_sequence(klein_spec())
    st = rep.final_strict_transform
    # nc(4): product of 4 independent linear forms
    assert rep.normal_crossings
    prod = rep.final_factors[0]
    for f in rep.final_factors[1:]:
        prod = prod * f
    assert prod == st


def test_chart_apply_is_ring_homomorphism():
    import random

    random.seed(17)
    _poly, atlas = _cpk_atlas(2)
    cmap, _action = atlas.charts[0]
    sp = atlas.ambient
    names = list(sp.names)
    for _ in range(12):
        f = FracPoly.zero(sp)
        g = FracPoly.zero(sp)
        for _t in range(3):
            f = f + FracPoly.monomial(sp, {random.choice(names): random.randint(0, 2)}, random.randint(-2, 2))
            g = g + FracPoly.monomial(sp, {random.choice(names): random.randint(0, 2)}, random.randint(-2, 2))
        assert cmap.apply(f * g) == cmap.apply(f) * cmap.apply(g)
