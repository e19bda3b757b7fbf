import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circforge import (
    AbelianGroup,
    DiagonalAction,
    FracPoly,
    NonPolynomial,
    NormalFormSpec,
    PairingContext,
    ProductNormalFormSpec,
    VarSpace,
    apply_group,
    circulant_matrix,
    clean_exponents,
    codim1_factor,
    cpk_spec,
    cyclic_factor_orbit_transitive,
    eigen_system,
    gcirc_det,
    invariant_factors,
    irreducible_exponents,
    klein_spec,
    leibniz_det,
    normal_form_poly,
    pairing,
    permute_to_standard,
    perp,
    product_merge,
    quotient,
    quotient_invariant_factors,
    roots_to_coords,
    split_newton,
    subgroup_from_generators,
    validate_normal_form,
    verify_eigen_system,
    z2z4_spec,
)
from circforge import gcirc
from circforge.gcirc import eigen_factors, lex_ordering, spec_space, spec_values

from conftest import groups_of_order_up_to, specialized, trivial_modulus_product


def _symbol_values(group):
    sp = VarSpace([], [f"X{i}" for i in range(group.order)])
    return [FracPoly.variable(sp, f"X{i}") for i in range(group.order)]


def test_circulant_matrix_shapes():
    z2 = AbelianGroup((2,))
    assert circulant_matrix(z2).rows_as_symbols() == [["X0", "X1"], ["X1", "X0"]]
    z3 = AbelianGroup((3,))
    assert circulant_matrix(z3).rows_as_symbols() == [
        ["X0", "X1", "X2"],
        ["X2", "X0", "X1"],
        ["X1", "X2", "X0"],
    ]
    klein = AbelianGroup((2, 2))
    assert circulant_matrix(klein).rows_as_symbols() == [
        ["X0", "X1", "X2", "X3"],
        ["X1", "X0", "X3", "X2"],
        ["X2", "X3", "X0", "X1"],
        ["X3", "X2", "X1", "X0"],
    ]
    with pytest.raises(ValueError):
        circulant_matrix(z3, ordering=[z3.element((1,)), z3.element((0,)), z3.element((2,))])


def test_eigen_identity_small_groups():
    for g in groups_of_order_up_to(8):
        mat = circulant_matrix(g)
        assert verify_eigen_system(mat, eigen_system(g))


def test_eigen_standard_cyclic_form():
    z3 = AbelianGroup((3,))
    from circforge import root_of_unity

    # each eigenvector is also its eigenvalue's coefficient vector
    for ell, vec in enumerate(eigen_system(z3)):
        for i in range(3):
            assert vec[i] == root_of_unity(3, i * ell)


def _multiset_equal(a, b):
    rem = list(b)
    for f in a:
        hit = next((i for i, g in enumerate(rem) if f == g), None)
        if hit is None:
            return False
        rem.pop(hit)
    return not rem


def test_det_ordering_independence():
    random.seed(5)
    for g in groups_of_order_up_to(8):
        if g.order not in (2, 3, 4, 6, 8):
            continue
        vals = _symbol_values(g)
        base_factors = eigen_factors(g, vals)
        base_det = gcirc_det(g, vals) if g.order <= 6 else None
        natural = lex_ordering(g)
        index = {e: i for i, e in enumerate(natural)}
        others = [e for e in natural if not e.is_identity()]
        for _ in range(20):
            random.shuffle(others)
            ordering = [g.identity] + others
            # the value list follows the ordering: value i belongs to ordering[i]
            perm_vals = [vals[index[e]] for e in ordering]
            # the factor multiset is ordering-independent, hence so is the
            # product; the product itself is expanded for the smaller orders
            assert _multiset_equal(eigen_factors(g, perm_vals, ordering=ordering), base_factors)
            if base_det is not None:
                assert gcirc_det(g, perm_vals, ordering=ordering) == base_det


def test_leibniz_cross_check_small():
    for g in groups_of_order_up_to(4):
        if g.order > 4 or g.order < 2:
            continue
        vals = _symbol_values(g)
        assert gcirc_det(g, vals) == leibniz_det(circulant_matrix(g), vals)


def test_leibniz_oracle_stays_off_the_packed_product(monkeypatch):
    # the oracle multiplies by one-term values only, so it never runs the
    # packed kernel that gcirc_det's eigen-factor products run on
    from circforge import polyring

    spec = cpk_spec(4)
    space = spec_space(spec)
    values = spec_values(spec, space)
    want = gcirc_det(spec.quotient_group, values, ordering=spec.labels)

    def refuse(*_args):
        raise AssertionError("packed product in the Leibniz oracle")

    monkeypatch.setattr(polyring, "_product_terms", refuse)
    mat = circulant_matrix(spec.quotient_group, ordering=spec.labels)
    assert leibniz_det(mat, values) == want


def test_cpk_polynomials():
    p2 = normal_form_poly(cpk_spec(2))
    sp = p2.space
    z, x, w = (FracPoly.variable(sp, n) for n in ("z", "x", "w"))
    assert p2 == z * z - w * x * x
    p3 = normal_form_poly(cpk_spec(3))
    sp = p3.space
    z, y, x, w = (FracPoly.variable(sp, n) for n in ("z", "y", "x", "w"))
    assert p3 == z ** 3 + w * y ** 3 + w * w * x ** 3 - (w * x * y * z).scale(3)


def test_klein_polynomial_matches_product_of_factors():
    spec = klein_spec()
    poly = normal_form_poly(spec)
    sp = spec_space(spec)
    vals = spec_values(spec, sp)
    assert poly == leibniz_det(circulant_matrix(spec.quotient_group), vals)
    # hand expansion: prod over signs of (x0 + a w1^(1/2) x1 + b w2^(1/2) x2 + ab w1^(1/2) w2^(1/2) x3)
    x0, x1, x2, x3 = (FracPoly.variable(sp, n) for n in spec.x_names())
    w1h = FracPoly.monomial(sp, {"w1": Fraction(1, 2)})
    w2h = FracPoly.monomial(sp, {"w2": Fraction(1, 2)})
    prod = FracPoly.constant(sp, 1)
    for a in (1, -1):
        for b in (1, -1):
            prod = prod * (x0 + w1h * x1.scale(a) + w2h * x2.scale(b) + w1h * w2h * x3.scale(a * b))
    assert poly == prod


@pytest.mark.parametrize("spec", [klein_spec(), z2z4_spec()], ids=["klein", "z2z4"])
def test_normal_form_matches_leibniz_det(spec):
    # gamma is additive on a non-cyclic group (klein) and on the quotient of a
    # non-smooth normalization (z2z4), so only the integral-exponent part of
    # the eigen-factor product is formed; the permutation expansion forms all
    vals = spec_values(spec, spec_space(spec))
    assert normal_form_poly(spec) == leibniz_det(circulant_matrix(spec.quotient_group, ordering=spec.labels), vals)


def test_normal_form_nonpolynomial():
    # gamma is not additive here, so the whole product is formed and its
    # residual fractional exponents are found
    z4 = AbelianGroup((4,))
    bad = NormalFormSpec(
        moduli=(4,),
        k=4,
        gamma=((Fraction(1, 4),), (Fraction(1, 4),), (Fraction(1, 4),)),
        quotient_group=z4,
        labels=tuple(z4.element((j,)) for j in range(4)),
    )
    with pytest.raises(NonPolynomial):
        normal_form_poly(bad)


def test_validate_cpk():
    for k in (2, 3, 4):
        rep = validate_normal_form(cpk_spec(k))
        assert rep.valid and rep.transitive
        assert rep.stabilizer.order == 1


def test_validate_z2z4():
    rep = validate_normal_form(z2z4_spec())
    assert rep.valid
    assert rep.stabilizer.order == 2
    g = AbelianGroup((2, 4))
    assert quotient_invariant_factors(g, rep.stabilizer) == [4]


def test_validate_non_transitive():
    z4 = AbelianGroup((4,))
    spec = NormalFormSpec(
        moduli=(2,),
        k=4,
        gamma=((Fraction(1, 2),), (Fraction(0),), (Fraction(1, 2),)),
        quotient_group=z4,
        labels=tuple(z4.element((j,)) for j in range(4)),
    )
    rep = validate_normal_form(spec)
    assert not rep.valid


@st.composite
def _specs_with_stray_exponents(draw):
    """A spec over a quotient group of order 2..6 whose exponent columns are
    often outside (1/p_i)Z: each column is either a character of the
    quotient at the labels, so the generator permutes the eigen factors,
    or draws each entry with denominator p_i, 2 or 3."""
    moduli = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=2)))
    q = draw(st.sampled_from([g for g in groups_of_order_up_to(6) if g.order > 1]))
    labels = (q.identity, *draw(st.permutations([e for e in q.elements() if not e.is_identity()])))
    ctx = PairingContext.natural(q)
    cols = []
    for p in moduli:
        if draw(st.booleans()):
            j = draw(st.sampled_from(list(q.elements())))
            cols.append([Fraction(pairing(ctx, j, l), ctx.k) for l in labels[1:]])
        else:
            dens = [draw(st.sampled_from([p, 2, 3])) for _ in labels[1:]]
            cols.append([Fraction(draw(st.integers(0, d - 1)), d) for d in dens])
    return NormalFormSpec(moduli, q.order, tuple(zip(*cols)), q, labels)


@settings(max_examples=150, deadline=None)
@given(_specs_with_stray_exponents())
def test_validate_reports_stray_exponents_instead_of_raising(spec):
    # a character column whose order does not divide p_i permutes the
    # factors, but not as an action of Z/p_i: that is a report, not an error
    rep = validate_normal_form(spec)
    if not rep.exponents_in_range:
        assert not rep.valid


def test_irreducible_exponents():
    assert irreducible_exponents(4, (0, 1, 2, 3))
    assert not irreducible_exponents(4, (0, 2, 0, 2))
    assert irreducible_exponents(4, (0, 3, 2, 1))
    for k in range(2, 7):
        for mu in range(k):
            h = tuple((mu * j) % k for j in range(k))
            assert irreducible_exponents(k, h) == cyclic_factor_orbit_transitive(k, h)


@pytest.mark.parametrize("h", [(0, 1), (0, 1, 2, 5, 7)], ids=["short", "long"])
def test_orbit_transitivity_needs_k_residues(h):
    # a residue list of the wrong length is refused, not read past its end or in part
    for check in (irreducible_exponents, cyclic_factor_orbit_transitive):
        with pytest.raises(ValueError, match="need k residues"):
            check(3, h)


def test_permute_to_standard():
    assert permute_to_standard((1, 2), 3).verified
    assert permute_to_standard((2, 1), 3).verified
    assert permute_to_standard((1, 2, 3), 4).verified
    assert permute_to_standard((3, 2, 1), 4).verified  # h_j = 3j mod 4
    assert not permute_to_standard((1, 3, 2), 4).verified  # not of the form mu*j
    with pytest.raises(ValueError):
        permute_to_standard((1, 1, 2), 4)


def test_product_merge():
    for k, r in ((2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)):
        assert product_merge(k, r).verified


def test_product_merge_certificate_fails_on_a_wrong_transform(monkeypatch):
    # at (k, r) = (3, 2) only the transform takes square roots of unity;
    # with each of them 1, both copies are combinations of x_j + x_(3+j),
    # and their factors match none of the order-6 ladder's
    real = gcirc.root_of_unity
    monkeypatch.setattr(gcirc, "root_of_unity", lambda n, e=1: real(n, 0 if n == 2 else e))
    assert not product_merge(3, 2).verified


def _expanded_merge(rep):
    """Both sides of the product-merge identity, expanded from the report's
    transform (the oracle for the factor-matching certificate)."""
    k, r = rep.k, rep.r
    space = VarSpace([("w", k)], [f"x{m}" for m in range(r * k)])
    xs = [FracPoly.variable(space, f"x{m}") for m in range(r * k)]
    ladder = [FracPoly.monomial(space, {"w": Fraction(j, k)}) for j in range(k)]
    lhs = FracPoly.constant(space, 1)
    for i in range(r):
        vals = []
        for j in range(k):
            comb = FracPoly.zero(space)
            for m, c in enumerate(rep.transform[(i, j)]):
                comb = comb + xs[m * k + j].scale(c)
            vals.append(comb * ladder[j])
        lhs = lhs * gcirc_det(AbelianGroup((k,)), vals)
    rhs = gcirc_det(AbelianGroup((r * k,)), [xs[m] * ladder[m % k] for m in range(r * k)])
    return lhs, rhs


@pytest.mark.parametrize("k,r", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_product_merge_matches_expansion(k, r):
    rep = product_merge(k, r)
    lhs, rhs = _expanded_merge(rep)
    assert rep.verified and lhs == rhs


@pytest.mark.parametrize("k", [3, 4])
def test_permute_to_standard_matches_expansion(k):
    """The certificate agrees with the expanded determinants for every h,
    the non-ladder permutations (verified False) included."""
    seen = set()
    for h in itertools.permutations(range(1, k)):
        rep = permute_to_standard(h, k)
        space = VarSpace([("w", k)], ["z"] + [f"x{j}" for j in range(1, k)] + [f"y{j}" for j in range(1, k)])
        zk = AbelianGroup((k,))
        z = FracPoly.variable(space, "z")
        lhs = gcirc_det(
            zk, [z] + [FracPoly.monomial(space, {f"y{h[j-1]}": 1, "w": Fraction(h[j - 1], k)}) for j in range(1, k)]
        )
        rhs = gcirc_det(zk, [z] + [FracPoly.monomial(space, {f"y{j}": 1, "w": Fraction(j, k)}) for j in range(1, k)])
        assert rep.verified == (lhs == rhs)
        seen.add(rep.verified)
    assert seen == ({True, False} if k == 4 else {True})


def test_roots_to_coords_recovers_ladder():
    for k in (2, 3):
        spec = cpk_spec(k)
        poly = normal_form_poly(spec)
        roots = split_newton(poly, "z", powers=k, degree_bound=8)
        rep = roots_to_coords(roots, AbelianGroup((k,)), v_names=["v"])
        assert rep.stabilizer.order == 1
        sp = next(iter(rep.coords.values())).space
        names = spec.x_names()
        g = AbelianGroup((k,))
        for j in range(k):
            got = rep.coords[g.element((j,))]
            if j == 0:
                assert got == FracPoly.variable(sp, "z")
            else:
                assert got == FracPoly.monomial(sp, {"v": j, names[j]: 1})
        # the inverse transform: the eigen factors of the coordinate forms
        back = eigen_factors(g, list(rep.coords.values()), ordering=rep.coords)
        zv = FracPoly.variable(sp, "z")
        expected = [zv + r.in_space(sp) for r in roots]
        for val in back:
            assert any(val == e for e in expected)


def test_roots_to_coords_constant_roots():
    sp = VarSpace([], ["v", "u"])
    b = FracPoly.variable(sp, "u")
    g2 = AbelianGroup((2,))
    rep = roots_to_coords([b, b], g2, v_names=["v"])
    assert rep.stabilizer.order == 2
    ident = g2.identity
    zv = FracPoly.variable(next(iter(rep.coords.values())).space, "z")
    assert rep.coords[ident] == zv + b.in_space(zv.space)
    assert rep.coords[g2.element((1,))].is_zero()


def _brute_force_stabilizer(base, group, v_names):
    """The g with g . b = b, found by comparing translates as polynomials."""
    weights = {n: (0,) * group.rank for n in base.space.names}
    weights.update({v: tuple(int(t == i) for t in range(group.rank)) for i, v in enumerate(v_names)})
    action = DiagonalAction(group, weights)
    return action, {g for g in group.elements() if apply_group(base, action, g) == base}


def test_roots_to_coords_stabilizer_is_the_brute_force_one():
    # the stabilizer read off the base root's integer characters (perp)
    # equals the one found by comparing its |G| translates
    sp = VarSpace([], ["v", "v1", "v2", "u", "t"])
    v, v1, v2, u, t = (FracPoly.variable(sp, n) for n in sp.names)
    cases = [
        (AbelianGroup((4,)), ["v"], v * v * u + v ** 4 * t),
        (AbelianGroup((4,)), ["v"], v * u + v * v * t),
        (AbelianGroup((2, 2)), ["v1", "v2"], v1 * v2 * u + v1 * v1 * t),
        (AbelianGroup((2, 4)), ["v1", "v2"], v1 * v2 * v2 * u),
        (AbelianGroup((3,)), ["v"], u + t),
        (AbelianGroup((2,)), ["v"], FracPoly.zero(sp)),
    ]
    orders = []
    for group, v_names, base in cases:
        action, stab = _brute_force_stabilizer(base, group, v_names)
        roots = [apply_group(base, action, g) for g in group.elements()]
        rep = roots_to_coords(roots, group, v_names=v_names)
        assert rep.stabilizer.elements == stab
        orders.append(len(stab))
    assert orders == [2, 1, 2, 4, 3, 2]


def test_codim1_z2z4():
    rep = codim1_factor(z2z4_spec(), 0)
    assert rep.verified
    assert len(rep.factor_polys) == 2
    sp = rep.factor_polys[0].space
    z, x1, x2, x3 = (FracPoly.variable(sp, n) for n in ("z", "x1", "x2", "x3"))
    w1 = FracPoly.variable(sp, "w1")
    plus = (z + x2) ** 2 - w1 * (x1 + x3) ** 2
    minus = (z - x2) ** 2 + w1 * (x1 - x3) ** 2
    assert any(f == plus for f in rep.factor_polys)
    assert any(f == minus for f in rep.factor_polys)
    # the product is exactly the w2 = 1 specialization
    total = rep.factor_polys[0] * rep.factor_polys[1]
    spec_poly = specialized(z2z4_spec(), 0)
    assert total == spec_poly.in_space(total.space.union(spec_poly.space))


def test_codim1_klein():
    rep = codim1_factor(klein_spec(), 0)
    assert rep.verified and len(rep.factor_polys) == 2
    rep2 = codim1_factor(klein_spec(), 1)
    assert rep2.verified and len(rep2.factor_polys) == 2


def test_codim1_cpk_trivial():
    rep = codim1_factor(cpk_spec(3), 0)
    assert rep.verified and len(rep.factor_polys) == 1
    assert rep.factor_polys[0] == normal_form_poly(cpk_spec(3)).in_space(rep.factor_polys[0].space)


@pytest.mark.parametrize(
    "spec,i",
    [(z2z4_spec(), 0), (z2z4_spec(), 1), (klein_spec(), 0), (klein_spec(), 1), (cpk_spec(3), 0), (cpk_spec(5), 0)],
    ids=["z2z4-0", "z2z4-1", "klein-0", "klein-1", "cpk3-0", "cpk5-0"],
)
def test_codim1_product_is_specialized(spec, i):
    """The expanded product of the factors equals the specialized normal
    form (the oracle for the factor-matching certificate)."""
    rep = codim1_factor(spec, i)
    total = FracPoly.constant(rep.factor_polys[0].space, 1)
    for f in rep.factor_polys:
        total = total * f
    assert rep.verified and total == specialized(spec, i)


def test_codim1_certificate_fails_on_wrong_cosets(monkeypatch):
    # over the cosets of the trivial subgroup the betas repeat, so there are
    # more standard factors than eigen factors of the normal form
    monkeypatch.setattr(gcirc, "quotient", lambda g, h: quotient(g, subgroup_from_generators(g, [])))
    assert not codim1_factor(z2z4_spec(), 0).verified


def test_codim1_index_out_of_range():
    for i in (-1, 1):
        with pytest.raises(ValueError, match="outside"):
            codim1_factor(cpk_spec(3), i)


def test_clean_exponents():
    ladder = clean_exponents([(Fraction(5, 2),)], (2,))
    assert ladder.beta == ((2,),) and ladder.delta == ((Fraction(1, 2),),)
    ladder = clean_exponents([(Fraction(1, 3),), (Fraction(2, 3),)], (3,))
    assert ladder.delta == ((Fraction(1, 3),), (Fraction(1, 3),))
    assert ladder.beta == ((0,), (0,))
    with pytest.raises(ValueError):
        clean_exponents([(Fraction(1, 2), 0), (0, Fraction(1, 2))], (2, 2))
    for p in (0, -6):
        with pytest.raises(ValueError, match="moduli must be positive"):
            clean_exponents([(Fraction(1, 2),), (Fraction(1, 3),)], (p,))


def test_clean_exponents_reconstruction():
    rows = [(Fraction(3, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)), (Fraction(5, 2), Fraction(3, 2))]
    ladder = clean_exponents(rows, (2, 2))
    acc = [Fraction(0), Fraction(0)]
    for idx, (d, b) in enumerate(zip(ladder.delta, ladder.beta)):
        acc = [a + dd + bb for a, dd, bb in zip(acc, d, b)]
        assert tuple(acc) == rows[ladder.order[idx]]
        assert all(0 <= dd < 1 for dd in d)


def test_normal_form_invariance_after_power_substitution():
    from circforge import DiagonalAction, apply_group, is_invariant, substitute_power

    for spec in (cpk_spec(2), cpk_spec(3), klein_spec(), z2z4_spec()):
        poly = normal_form_poly(spec)
        g = spec.group
        sub = poly
        vnames = []
        for i, wname in enumerate(spec.w_names()):
            sub = substitute_power(sub, wname, spec.moduli[i], new_name=f"v{i}")
            vnames.append(f"v{i}")
        weights = {n: tuple(0 for _ in spec.moduli) for n in sub.space.names}
        for i, vn in enumerate(vnames):
            weights[vn] = tuple(1 if t == i else 0 for t in range(len(spec.moduli)))
        act = DiagonalAction(g, weights)
        assert is_invariant(sub, act)


def test_eigen_system_embedded_in_ambient():
    # the quotient realized as the orthogonal complement inside the ambient
    # group: eigenvectors indexed by coset representatives, pairing ambient
    from circforge import quotient, subgroup_from_generators
    from circforge.gcirc import eigen_system, subgroup_circulant_matrix, verify_eigen_system

    g = AbelianGroup((2, 4))
    ctx = PairingContext.natural(g)
    h = subgroup_from_generators(g, [g.element((1, 2))])
    k = perp(ctx, h)
    reps = quotient(g, h).representatives
    mat = subgroup_circulant_matrix(k)
    vectors = eigen_system(g, ordering=mat.ordering, ctx=ctx, reps=reps)
    assert len(vectors) == k.order == 4
    assert verify_eigen_system(mat, vectors)


def test_pipeline_product_spec():
    from circforge import gcirc_blowup_sequence

    spec = ProductNormalFormSpec((cpk_spec(2), cpk_spec(2)))
    rep = gcirc_blowup_sequence(spec)
    assert len(rep.steps) == 1
    assert rep.steps[0].multiplicity == 12  # k (l + l/k1) with k=4, l=k1=2
    assert rep.normal_crossings and rep.product_verified
    assert len(rep.final_factors) == 4


def test_product_spec_values_are_its_parts_values_renamed():
    parts = (cpk_spec(2), cpk_spec(2))
    spec = ProductNormalFormSpec(parts)
    assert spec.part_x_names() == (("x1_0", "x1_1"), ("x2_0", "x2_1"))
    assert spec.x_names() == sum(spec.part_x_names(), ())
    space = spec_space(spec)
    values = spec_values(spec, space)
    for part, names, start in zip(parts, spec.part_x_names(), (0, 2)):
        renamed = {old: FracPoly.variable(space, new) for old, new in zip(part.x_names(), names)}
        own = spec_values(part, spec_space(part))
        assert values[start : start + part.k] == [v.substitute(renamed, target_space=space) for v in own]


def _factor_action_oracle(spec):
    """Independent route: act on the factor polynomials themselves (after
    clearing denominators).  None when the rotations do not permute the
    factors; otherwise whether the orbit of the first factor f_0 has k
    elements, and the residues of the g with g . f_0 = f_0.  Clearing is a
    ring map, so it clears the matrix values before the factors are formed."""
    from circforge import DiagonalAction, apply_group, substitute_power
    from circforge.gcirc import eigen_factors, spec_space, spec_values

    values = []
    for f in spec_values(spec, spec_space(spec)):
        for i, wname in enumerate(spec.w_names()):
            f = substitute_power(f, wname, spec.moduli[i], new_name=f"v{i}")
        values.append(f)
    cleared = eigen_factors(spec.quotient_group, values, spec.labels)
    vnames = [f"v{i}" for i in range(spec.r)]
    space = cleared[0].space
    weights = {n: tuple(0 for _ in spec.moduli) for n in space.names}
    for i, vn in enumerate(vnames):
        weights[vn] = tuple(1 if t == i else 0 for t in range(spec.r))
    act = DiagonalAction(spec.group, weights)
    perms = []
    for i in range(spec.r):
        gen = spec.group.generator(i)
        perm = []
        for f in cleared:
            moved = apply_group(f, act, gen)
            hit = next((idx for idx, other in enumerate(cleared) if moved == other), None)
            if hit is None:
                return None  # the rotation does not permute the factors
            perm.append(hit)
        perms.append(perm)
    orbit = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for perm in perms:
            nxt = perm[cur]
            if nxt not in orbit:
                orbit.add(nxt)
                frontier.append(nxt)
    stab = {g.residues for g in spec.group.elements() if apply_group(cleared[0], act, g) == cleared[0]}
    return len(orbit) == spec.k, stab


# (moduli, quotient moduli): cyclic and Klein quotients over cyclic and
# non-cyclic acting groups
_SWEEP_GROUPS = (
    ((2,), (2,)), ((3,), (3,)), ((4,), (4,)), ((2, 2), (2,)), ((2, 2), (4,)), ((2, 4), (4,)),
    ((2, 2), (2, 2)), ((4,), (2, 2)), ((2, 4), (2, 2)), ((6,), (6,)), ((2, 3), (6,)), ((2, 3), (2, 3)),
    ((6,), (3,)), ((2, 4), (2,)), ((1, 2), (2,)), ((2, 1), (2,)),
)


def test_validate_transitivity_matches_polynomial_orbits():
    # sweep small specifications, labels in lex order, shuffled with the
    # identity first and shuffled with the identity second: the
    # combinatorial transitivity flag and stabilizer must agree with those
    # computed on the factor polynomials themselves.  Transitive implies
    # that labels -> exponent elements is injective, so the labels
    # enumerate the quotient with the identity first and the exponent
    # elements form a subgroup of order k; validation checks neither apart.
    # Validation reads the quotient isomorphism and the multiset condition
    # off transitivity: under both allow_omitted_divisors values, the report
    # must equal the isomorphism of invariant factors and the validity with
    # all five conditions
    rng = random.Random(99)
    cases = []
    for moduli, qmoduli in _SWEEP_GROUPS:
        quotient_group = AbelianGroup(qmoduli)
        k = quotient_group.order
        rows = list(itertools.product(*([Fraction(q, p) for q in range(p)] for p in moduli)))
        all_specs = list(itertools.product(rows, repeat=k - 1))
        if len(all_specs) > 200:
            all_specs = rng.sample(all_specs, 200)
        lex = lex_ordering(quotient_group)
        for gamma in all_specs:
            shuffled = list(lex[1:])
            rng.shuffle(shuffled)
            for labels in (lex, (lex[0], *shuffled), (shuffled[0], lex[0], *shuffled[1:])):
                cases.append(NormalFormSpec(moduli, k, gamma, quotient_group, labels))
    factors = {}  # invariant factors of each quotient group and each G/Stab
    outcomes = {True: 0, False: 0, None: 0}
    valid_by_flag = {False: 0, True: 0}
    for spec in cases:
        oracle = _factor_action_oracle(spec)
        q = spec.quotient_group
        if q not in factors:
            factors[q] = invariant_factors(subgroup_from_generators(q, q.elements()))
        for allow in (False, True):
            rep = validate_normal_form(spec, allow_omitted_divisors=allow)
            if rep.stabilizer is None:
                # the rotations fail to permute the factors on both routes
                assert oracle is None, (spec.moduli, spec.gamma, spec.labels)
                assert not rep.transitive
                iso = False
            else:
                stab = {e.residues for e in rep.stabilizer.elements}
                assert oracle == (rep.transitive, stab), (spec.moduli, spec.gamma, spec.labels)
                key = (spec.group, rep.stabilizer)
                if key not in factors:
                    factors[key] = quotient_invariant_factors(*key)
                iso = factors[key] == factors[q]
            assert rep.quotient_isomorphic == iso, (spec.moduli, spec.gamma, spec.labels)
            valid = (
                rep.exponents_in_range
                and all(rep.denominators_realized)
                and all(rep.multiset_condition)
                and rep.transitive
                and iso
            )
            assert rep.valid == valid, (spec.moduli, spec.gamma, spec.labels, allow)
            valid_by_flag[allow] += valid
        outcomes[None if rep.stabilizer is None else rep.transitive] += 1
        if rep.transitive:
            exps = frozenset(spec.exponent_elements())
            assert spec.labels[0].is_identity() and set(spec.labels) == set(spec.quotient_group.elements())
            assert len(exps) == spec.k and subgroup_from_generators(spec.group, exps).elements == exps
    assert all(outcomes.values()), outcomes  # every branch is reached
    # the omitted divisors of the (1, 2) and (2, 1) sweeps are valid only when allowed
    assert 0 < valid_by_flag[False] < valid_by_flag[True], valid_by_flag
    assert len(cases) > 2000


GOLDEN_PRODUCTS = Path(__file__).parent / "golden" / "circulant_products.json"


def _circulant_payloads() -> dict:
    """{name: JSON payload} of the large eigen-factor products: normal forms
    as `gcirc normal-form` prints them, and the `gcirc merge` and
    `gcirc codim1` payloads."""
    from circforge import jsonio

    specs = [(f"cpk:{k}", cpk_spec(k)) for k in range(2, 9)] + [("klein", klein_spec()), ("z2z4", z2z4_spec())]
    out = {f"normal_form {name}": {"polynomial": jsonio.poly_to_json(normal_form_poly(spec))} for name, spec in specs}
    for k, r in ((2, 4), (4, 2)):
        rep = product_merge(k, r)
        out[f"product_merge {k},{r}"] = {
            "k": rep.k,
            "r": rep.r,
            "verified": rep.verified,
            "transform": {
                f"x_{i}_{j}": [jsonio.cyclo_to_json(c) for c in coeffs] for (i, j), coeffs in rep.transform.items()
            },
        }
    rep = codim1_factor(cpk_spec(7), 0)
    out["codim1 cpk:7 0"] = {
        "verified": rep.verified,
        "factors": [jsonio.poly_to_json(f) for f in rep.factor_polys],
        "transform": {name: [[jsonio.cyclo_to_json(c), x] for c, x in rows] for name, rows in rep.transform.items()},
    }
    return out


def _circulant_digests() -> dict:
    return {
        name: hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        for name, payload in _circulant_payloads().items()
    }


def test_circulant_products_golden():
    # the printed bytes of every coefficient, including its `order`, which
    # follows the arithmetic history of the products
    assert _circulant_digests() == json.loads(GOLDEN_PRODUCTS.read_text())


GOLDEN_CHAINS = Path(__file__).parent / "golden" / "product_chains.json"


def _chain_digests() -> dict:
    """sha256 of the products of more than two factors outside the circulant
    file: normal forms of product specs, and the final strict transform
    of the blow-up pipeline with its product check."""
    from circforge import gcirc_blowup_sequence, jsonio

    out = {}
    for name, ks in (("cp2xcp2", (2, 2)), ("cp4xcp4", (4, 4)), ("cp3xcp3xcp3", (3, 3, 3))):
        poly = normal_form_poly(ProductNormalFormSpec(tuple(cpk_spec(k) for k in ks)))
        out[f"normal_form {name}"] = {"polynomial": jsonio.poly_to_json(poly)}
    specs = [(f"cpk:{k}", cpk_spec(k)) for k in range(2, 8)] + [("klein", klein_spec()), ("z2z4", z2z4_spec())]
    specs += [(f"cp{k}xcp{k}", ProductNormalFormSpec((cpk_spec(k), cpk_spec(k)))) for k in (2, 3)]
    specs += [("z2xz1 cp2xcp2", trivial_modulus_product())]
    for name, spec in specs:
        rep = gcirc_blowup_sequence(spec)
        out[f"pipeline {name}"] = {
            "product_verified": rep.product_verified,
            "strict_transform": jsonio.poly_to_json(rep.final_strict_transform),
        }
    return {name: hashlib.sha256(json.dumps(p, sort_keys=True).encode()).hexdigest() for name, p in out.items()}


def test_product_chains_golden():
    assert _chain_digests() == json.loads(GOLDEN_CHAINS.read_text())


if __name__ == "__main__":
    # python tests/test_gcirc.py > tests/golden/circulant_products.json
    # python tests/test_gcirc.py chains > tests/golden/product_chains.json
    import sys

    print(json.dumps(_chain_digests() if sys.argv[1:] == ["chains"] else _circulant_digests(), indent=1))
