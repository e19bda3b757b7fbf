"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion.
"""

import itertools
import random
from fractions import Fraction
from math import prod

from circforge import (
    AbelianGroup,
    DegenerateInput,
    DiagonalAction,
    FracPoly,
    InvariantNCInput,
    PairingContext,
    Relation,
    SplitsInvariantly,
    VarSpace,
    all_subgroups,
    apply_group,
    atw_to_inv,
    atwinv_cpk,
    atwinv_product,
    charts,
    circulant_matrix,
    codim1_factor,
    cpk_ideal,
    cpk_spec,
    cyclic_factor_orbit_transitive,
    eigen_system,
    expand_quotient_image,
    gcirc_blowup_sequence,
    gcirc_det,
    hilbert_basis,
    inv_cpk,
    inv_recursion,
    inv_to_atw,
    invariant_factors,
    invariant_nc_normal_form,
    irreducible_exponents,
    klein_spec,
    leibniz_det,
    normal_form_poly,
    perp,
    product_ideal,
    product_merge,
    pullback,
    quotient_image,
    quotient_invariant_factors,
    relations,
    split_newton,
    strict_transform,
    validate_normal_form,
    verify_eigen_system,
    verify_split,
    weights,
    xi,
    z2z4_spec,
)
from circforge.blowup import divisor_weights
from circforge.cli import run as cli_run
from circforge.gcirc import eigen_factors, lex_ordering, spec_space, spec_values
from circforge.polyring import linear_part, match_scalar
from circforge.smith import rank

from conftest import groups_of_order_up_to, invariant_exponent_vectors, specialized


def _report(n: int, description: str):
    print(f"ACCEPTANCE {n:2d}: PASS  {description}")


def _vars(space, *names):
    return tuple(FracPoly.variable(space, n) for n in names)


def test_criterion_01_pinch_point_and_cp3(capsys):
    p2 = normal_form_poly(cpk_spec(2))
    z, x, w = _vars(p2.space, "z", "x", "w")
    assert p2 == z * z - w * x * x
    p3 = normal_form_poly(cpk_spec(3))
    z, y, x, w = _vars(p3.space, "z", "y", "x", "w")
    assert p3 == z ** 3 + w * y ** 3 + w * w * x ** 3 - (w * x * y * z).scale(3)
    assert cli_run(["gcirc", "det", "--group", "Z2", "--cpk"]) == 0
    assert cli_run(["gcirc", "det", "--group", "Z3", "--cpk"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "z^2 - w*x^2"
    assert out[1] == "z^3 + w*y^3 - 3*w*z*y*x + w^2*x^3"
    with capsys.disabled():
        _report(1, "gcirc det reproduces the pinch point and the order-3 circulant exactly")


def _multiset_equal(a, b):
    rem = list(b)
    for f in a:
        hit = next((i for i, g in enumerate(rem) if f == g), None)
        if hit is None:
            return False
        rem.pop(hit)
    return not rem


def test_criterion_02_ordering_independence(capsys):
    rng = random.Random(2)
    for g in groups_of_order_up_to(8):
        if g.order not in (2, 3, 4, 6, 8):
            continue
        sp = VarSpace([], [f"X{i}" for i in range(g.order)])
        vals = [FracPoly.variable(sp, f"X{i}") for i in range(g.order)]
        base_factors = eigen_factors(g, vals)
        base_det = gcirc_det(g, vals) if g.order <= 6 else None
        natural = lex_ordering(g)
        index = {e: i for i, e in enumerate(natural)}
        others = [e for e in natural if not e.is_identity()]
        for _ in range(20):
            rng.shuffle(others)
            ordering = [g.identity] + others
            perm_vals = [vals[index[e]] for e in ordering]
            assert _multiset_equal(eigen_factors(g, perm_vals, ordering=ordering), base_factors)
            if base_det is not None:
                assert gcirc_det(g, perm_vals, ordering=ordering) == base_det
    with capsys.disabled():
        _report(2, "determinant identical over 20 random orderings for |G| in {2,3,4,6,8}")


def test_criterion_03_eigen_identity(capsys):
    for g in groups_of_order_up_to(8):
        assert verify_eigen_system(circulant_matrix(g), eigen_system(g))
    with capsys.disabled():
        _report(3, "C*psi = Y*psi symbolically for every eigenpair, |G| <= 8")


def test_criterion_04_duality_suite(capsys):
    for g in groups_of_order_up_to(16):
        ctx = PairingContext.natural(g)
        for h in all_subgroups(g):
            comp = perp(ctx, h)
            assert comp.order * h.order == g.order
            assert perp(ctx, comp) == h
            assert invariant_factors(comp) == quotient_invariant_factors(g, h)
            for ell in g.elements():
                assert xi(ctx, h, ell) == (h.order if ell in comp else 0)
    with capsys.disabled():
        _report(4, "duality suite exhaustively on all subgroups of all groups of order <= 16")


def test_criterion_05_klein_example(capsys):
    spec = klein_spec()
    mat = circulant_matrix(spec.quotient_group)
    assert mat.rows_as_symbols() == [
        ["X0", "X1", "X2", "X3"],
        ["X1", "X0", "X3", "X2"],
        ["X2", "X3", "X0", "X1"],
        ["X3", "X2", "X1", "X0"],
    ]
    poly = normal_form_poly(spec)
    sp = spec_space(spec)
    vals = spec_values(spec, sp)
    assert poly == leibniz_det(mat, vals)
    x0, x1, x2, x3 = _vars(sp, *spec.x_names())
    w1h = FracPoly.monomial(sp, {"w1": Fraction(1, 2)})
    w2h = FracPoly.monomial(sp, {"w2": Fraction(1, 2)})
    expected = FracPoly.constant(sp, 1)
    for a in (1, -1):
        for b in (1, -1):
            expected = expected * (x0 + w1h * x1.scale(a) + w2h * x2.scale(b) + w1h * w2h * x3.scale(a * b))
    assert poly == expected
    with capsys.disabled():
        _report(5, "Klein four-group: nested block matrix, determinant expansion, Leibniz oracle")


def test_criterion_06_z2z4_example(capsys):
    spec = z2z4_spec()
    rep = validate_normal_form(spec)
    assert rep.valid
    g = AbelianGroup((2, 4))
    assert rep.stabilizer.order == 2
    assert quotient_invariant_factors(g, rep.stabilizer) == [4]

    c = codim1_factor(spec, 0)
    assert c.verified and len(c.factor_polys) == 2
    sp = c.factor_polys[0].space
    z, x1, x2, x3, w1 = _vars(sp, "z", "x1", "x2", "x3", "w1")
    # displayed factorization, with the second combination rescaled by a
    # 4th root of unity (the example's final change of variables)
    plus = (z + x2) ** 2 - w1 * (x1 + x3) ** 2
    minus = (z - x2) ** 2 + w1 * (x1 - x3) ** 2
    assert any(f == plus for f in c.factor_polys)
    assert any(f == minus for f in c.factor_polys)
    total = c.factor_polys[0] * c.factor_polys[1]
    spec_poly = specialized(spec, 0)
    assert total == spec_poly.in_space(total.space.union(spec_poly.space))
    with capsys.disabled():
        _report(6, "order-4 quotient of Z2 x Z4 validates; codimension-one stratum factors as two pinch points")


def test_criterion_07_irreducibility_sweep(capsys):
    for k in range(2, 7):
        for mu in range(k):
            h = tuple((mu * j) % k for j in range(k))
            brute = cyclic_factor_orbit_transitive(k, h)
            assert brute == irreducible_exponents(k, h)
    with capsys.disabled():
        _report(7, "permutation criterion agrees with orbit transitivity for k <= 6")


def test_criterion_08_product_merge(capsys):
    for k, r in ((2, 2), (2, 3), (3, 2)):
        assert product_merge(k, r).verified
    with capsys.disabled():
        _report(8, "product-merge identity exact for (k,r) in {(2,2),(2,3),(3,2)}")


def test_criterion_09_invariant_sequences(capsys):
    for k in range(2, 6):
        got = inv_recursion(cpk_ideal(k))
        assert got.entries == inv_cpk(k).entries and got.contacts == inv_cpk(k).contacts
    for parts in ([2, 2], [3, 2], [2, 3]):
        assert inv_to_atw(inv_recursion(product_ideal(parts))).entries == atwinv_product(parts).entries
    for k in range(2, 7):
        assert inv_to_atw(inv_cpk(k)).entries == atwinv_cpk(k).entries
        assert atw_to_inv(atwinv_cpk(k)).entries == inv_cpk(k).entries
    for k in range(2, 7):
        lookup = dict(zip(weights([k]).parameters, weights([k]).integer))
        assert lookup["w"] == k
        for j in range(k):
            assert lookup[f"x{j}"] == k - j + 1
    w22 = dict(zip(weights([2, 2]).parameters, weights([2, 2]).integer))
    base = dict(zip(weights([2]).parameters, weights([2]).integer))
    assert w22 == {"w": base["w"], "x1_0": base["x0"], "x1_1": base["x1"], "x2_0": base["x0"], "x2_1": base["x1"]}
    with capsys.disabled():
        _report(9, "recursion matches closed forms (k <= 5, partitions of 4 and 5); transforms and weights agree")


def test_criterion_10_blowup_multiplicity(capsys):
    # the weights of the pipeline's first blow-up of cp(k) are the closed
    # form (k; k + 1, k, ..., 2) on (w; x_0, ..., x_(k-1))
    for k in range(2, 9):
        closed_form = [k] + [k - j + 1 for j in range(k)]
        assert divisor_weights(cpk_spec(k), 0) == dict(zip(["w", *cpk_spec(k).x_names()], closed_form))
    for k in (2, 3, 4):
        poly = normal_form_poly(cpk_spec(k))
        names = list(poly.space.names)
        params = ["w"] + [n for n in names if n != "w"]
        wts = [k] + [k - j + 1 for j in range(k)]
        atlas = charts(poly.space, params, wts)
        _total, st, mult = pullback(poly, atlas, 0)
        assert mult == k * (k + 1)
        cmap, _action = atlas.charts[0]
        vals = [FracPoly.variable(st.space, cmap.y_names[n]) for n in cpk_spec(k).x_names()]
        assert st == gcirc_det(AbelianGroup((k,)), vals)
    with capsys.disabled():
        _report(10, "divisor-chart multiplicity k(k+1), strict transform the pure circulant, k <= 4")


def _cpk_chart(k):
    poly = normal_form_poly(cpk_spec(k))
    names = list(poly.space.names)
    params = ["w"] + [n for n in names if n != "w"]
    wts = [k] + [k - j + 1 for j in range(k)]
    atlas = charts(poly.space, params, wts)
    cmap, action = atlas.charts[0]
    _total, st, _mult = pullback(poly, atlas, 0)
    return cmap, action, st


def test_criterion_11_hilbert_bases(capsys):
    for k in (2, 3):
        cmap, action, _st = _cpk_chart(k)
        hb = hilbert_basis(action)
        # brute force to the group-order bound: completeness and minimality
        allinv = invariant_exponent_vectors(action, hb.variables, action.group.order)
        for vec in allinv:
            m = FracPoly.monomial(hb.space, dict(zip(hb.variables, vec)))
            assert expand_quotient_image(quotient_image(m, hb), hb) == m
        for gen in hb.generators:
            assert not any(a != gen and all(x <= y for x, y in zip(a, gen)) for a in allinv)
        rels = relations(hb)
        for r in rels.relations:
            assert rels.ambient_identity_holds(r)
        # the displayed family instance X0^{lambda_0} = W^{lambda_0 - nu_0} S_(0)
        # with lambda_0 = k and nu_0 = k - 1 (smallest admissible exponent)
        x0d = cmap.y_names[cpk_spec(k).x_names()[0]]
        iW = hb.find({cmap.chart_var: k})
        iX0 = hb.find({cmap.chart_var: 1, x0d: 1})
        iS0 = hb.find({x0d: k})
        assert None not in (iW, iX0, iS0)
        left = [0] * len(hb.generators)
        left[iX0] = k
        right = [0] * len(hb.generators)
        right[iW] = 1
        right[iS0] = 1
        rel = Relation(tuple(left), tuple(right))
        assert rels.ambient_identity_holds(rel)
        assert rels.contains(rel)
    # k = 3 basis matches the displayed generator family (degree <= 3 members)
    cmap, action, _st = _cpk_chart(3)
    hb = hilbert_basis(action)
    t = cmap.chart_var
    x0d, x1d, x2d = (cmap.y_names[n] for n in cpk_spec(3).x_names())
    expected = [
        {t: 3},
        {t: 1, x0d: 1},
        {x1d: 1},
        {t: 2, x2d: 1},
        {x0d: 3},
        {x2d: 3},
        {x0d: 1, x2d: 1},
        {t: 1, x2d: 2},
    ]
    got = {
        tuple(sorted((v, e) for v, e in zip(hb.variables, g) if e)) for g in hb.generators
    }
    want = {tuple(sorted(d.items())) for d in expected}
    assert got == want
    with capsys.disabled():
        _report(11, "Hilbert bases match brute force and the displayed family; relations are exact identities")


def test_criterion_12_quotient_equation(capsys):
    for k in (2, 3):
        cmap, action, st = _cpk_chart(k)
        hb = hilbert_basis(action)
        img = quotient_image(st, hb)
        assert expand_quotient_image(img, hb) == st
        # the displayed quotient generator W^{-2} Delta(W X0, W^{1+1/k} X1, W^{j/k} Xj)
        big = VarSpace([("W", k)], [f"X{j}" for j in range(k)])
        wbig = FracPoly.variable(big, "W")
        args = [wbig * FracPoly.variable(big, "X0")]
        args.append(FracPoly.monomial(big, {"W": 1 + Fraction(1, k), "X1": 1}))
        for j in range(2, k):
            args.append(FracPoly.monomial(big, {"W": Fraction(j, k), f"X{j}": 1}))
        disp = gcirc_det(AbelianGroup((k,)), args)
        from circforge import divide_exact

        disp = divide_exact(disp, wbig * wbig)
        assert disp is not None
        # standard form after a permutation of (X0, ..., X_{k-1})
        found = False
        for sigma in itertools.permutations(range(k)):
            std_args = []
            for j in range(k):
                e = Fraction(j, k)
                mono = {f"X{sigma[j]}": 1}
                if e:
                    mono["W"] = e
                std_args.append(FracPoly.monomial(big, mono))
            if disp == gcirc_det(AbelianGroup((k,)), std_args):
                found = True
                break
        assert found
        # the displayed form maps to t^{k(k-1)} times the strict transform
        names = cpk_spec(k).x_names()
        gens = {
            "W": FracPoly.monomial(hb.space, {cmap.chart_var: k}),
            "X0": FracPoly.monomial(hb.space, {cmap.chart_var: 1, cmap.y_names[names[0]]: 1}),
            "X1": FracPoly.monomial(hb.space, {cmap.y_names[names[1]]: 1}),
        }
        for j in range(2, k):
            gens[f"X{j}"] = FracPoly.monomial(hb.space, {cmap.chart_var: k - j + 1, cmap.y_names[names[j]]: 1})
        ambient = disp.substitute(gens, target_space=hb.space)
        tpow = FracPoly.monomial(hb.space, {cmap.chart_var: k * (k - 1)})
        assert ambient == tpow * st.in_space(hb.space)
    with capsys.disabled():
        _report(12, "quotient image re-expands exactly; displayed generator is the standard form after a permutation")


def test_criterion_13_pipeline(capsys):
    for spec, expect_moduli in ((klein_spec(), (2, 2)), (z2z4_spec(), (2, 4))):
        rep = gcirc_blowup_sequence(spec)
        assert rep.group_moduli == expect_moduli
        assert rep.normal_crossings  # nc(4): four factors, independent linear parts
        assert len(rep.final_factors) == 4
        assert rep.product_verified
        assert rep.cyclic_orders_bounded  # every chart's cyclic order <= p1 + ... + pr + 1
        assert max(rep.group_moduli) + 1 <= rep.order_bound
    with capsys.disabled():
        _report(13, "pipeline ends in nc(4) with chart group orders within the stated bound")


def test_criterion_14_splitting_chain(capsys):
    code = cli_run(["split", "example-basic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "z^2 + w*x^3 + w^3*x^2" in out  # after the first blow-up
    assert "z^2 + w^2*x^3 + w^3*x^2" in out  # after the second
    assert "z^2 + w^3*x^2 + w^3*x^3" in out  # after the third
    assert "z^2 + x^2*v^6 + x^3*v^6" in out  # after w = v^2
    assert "splits to degree 12: True" in out
    # library-level: the displayed chain and the final verification
    sp = VarSpace([("w", 2)], ["x", "z"])
    w, x, z = _vars(sp, "w", "x", "z")
    f = z * z + (w ** 3 + x) * x * x
    cur = f
    for _ in range(3):
        cur, _m = strict_transform(cur.substitute({"x": w * x, "z": w * z}, target_space=sp), "w")
    assert cur == z * z + w ** 3 * (1 + x) * x * x
    roots = split_newton(cur, "z", powers=2, degree_bound=12)
    assert verify_split(cur, 2, roots, 12)
    with capsys.disabled():
        _report(14, "splitting chain reproduces the displayed transforms; final split verifies to degree 12")


def _random_orbit_instance(rng):
    pool = [
        (2,), (3,), (4,), (6,), (8,), (12,), (16,),
        (2, 2), (2, 4), (2, 8), (4, 4), (2, 2, 2), (2, 2, 4), (3, 3), (2, 6),
    ]
    moduli = rng.choice(pool)
    g = AbelianGroup(moduli)
    nvars = 8
    names = [f"x{i}" for i in range(nvars)]
    sp = VarSpace([], names)
    weights_map = {n: tuple(rng.randrange(p) for p in moduli) for n in names}
    act = DiagonalAction(g, weights_map)
    f1 = FracPoly.zero(sp)
    for n in names:
        f1 = f1 + FracPoly.variable(sp, n).scale(rng.randint(-2, 2))
    for _ in range(2):
        i, j = rng.choice(names), rng.choice(names)
        f1 = f1 + FracPoly.monomial(sp, {i: 1}) * FracPoly.monomial(sp, {j: 1}, rng.randint(-1, 1))
    orbit = []
    for el in g.elements():
        moved = apply_group(f1, act, el)
        if not any(match_scalar(moved, o) is not None for o in orbit):
            orbit.append(moved)
    return act, orbit


def _balanced_product(polys):
    polys = list(polys)
    while len(polys) > 1:
        nxt = [a * b for a, b in zip(polys[::2], polys[1::2])]
        if len(polys) % 2:
            nxt.append(polys[-1])
        polys = nxt
    return polys[0]


def test_criterion_15_invariant_nc_roundtrip(capsys):
    rng = random.Random(515)
    successes = 0
    attempts = 0
    while successes < 100 and attempts < 2000:
        attempts += 1
        act, orbit = _random_orbit_instance(rng)
        if len(orbit) > 8:
            continue
        sp = orbit[0].space
        if rank([[linear_part(f).get(n, 0) for n in sp.names] for f in orbit]) != len(orbit):
            continue
        try:
            nf = invariant_nc_normal_form(InvariantNCInput(act, orbit))
        except (SplitsInvariantly, DegenerateInput):
            continue
        assert not nf.determinant.is_zero()
        # independent reconstruction check by full expansion of both products
        lhs = _balanced_product(nf.factors)
        rhs = _balanced_product(orbit)
        assert lhs == rhs.scale(nf.scalar)
        assert prod(nf.chain) == len(orbit) if nf.chain else len(orbit) == 1
        successes += 1
    assert successes == 100, f"only {successes} instances succeeded in {attempts} attempts"
    with capsys.disabled():
        _report(15, "100 random invariant-nc instances normalize with exact reconstruction")
