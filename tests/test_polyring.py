import json
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circforge import (
    AbelianGroup,
    Cyclo,
    DiagonalAction,
    FracPoly,
    VarSpace,
    apply_group,
    divide_exact,
    linear_part,
    linear_rank,
    match_factors,
    match_scalar,
    root_of_unity,
    semi_invariant_parts,
    semi_invariant_split,
    semi_invariant_weight,
    strict_transform,
    substitute_power,
    truncate,
)
from circforge.modular import prime_field, rank_mod
from circforge.smith import rank
from conftest import largest_nonzero_minor


@pytest.fixture
def sp():
    return VarSpace([("w", 2)], ["x0", "x1", "z"])


def _vars(space, *names):
    return tuple(FracPoly.variable(space, n) for n in names)


def test_pinch_point_product(sp):
    x0, x1 = _vars(sp, "x0", "x1")
    wh = FracPoly.monomial(sp, {"w": Fraction(1, 2)})
    assert (x0 - wh * x1) * (x0 + wh * x1) == x0 * x0 - FracPoly.variable(sp, "w") * x1 * x1


def test_ring_identities(sp):
    x0, z = _vars(sp, "x0", "z")
    f = z * z + x0
    assert f * 1 == f
    assert (z + x0) ** 3 == z ** 3 + (z * z * x0).scale(3) + (z * x0 * x0).scale(3) + x0 ** 3


def test_exponent_legality(sp):
    with pytest.raises(ValueError):
        FracPoly.monomial(sp, {"w": Fraction(1, 3)})
    with pytest.raises(ValueError):
        FracPoly.monomial(sp, {"w": -1})
    with pytest.raises(ValueError):
        FracPoly.monomial(sp, {"x0": Fraction(1, 2)})


def test_substitute_power(sp):
    x0, x1, z = _vars(sp, "x0", "x1", "z")
    w = FracPoly.variable(sp, "w")
    f = x0 * x0 - w * x1 * x1
    g = substitute_power(f, "w", 2)
    v = FracPoly.variable(g.space, "v")
    x0v, x1v = _vars(g.space, "x0", "x1")
    assert g == x0v * x0v - v * v * x1v * x1v
    # p = 1 is the identity map up to renaming the cleared variable
    g1 = substitute_power(f, "w", 1)
    v1 = FracPoly.variable(g1.space, "v")
    x0w, x1w = _vars(g1.space, "x0", "x1")
    assert g1 == x0w * x0w - v1 * x1w * x1w
    h = z * z + w ** 3 * (1 + x0) * x0 * x0
    hv = substitute_power(h, "w", 2)
    assert hv.degree_in("v") == 6
    wh = FracPoly.monomial(sp, {"w": Fraction(1, 2)})
    with pytest.raises(ValueError):
        substitute_power(wh, "w", 1)  # does not clear the denominator


def test_strict_transform(sp):
    x0, x1, z = _vars(sp, "x0", "x1", "z")
    w = FracPoly.variable(sp, "w")
    f = z * z + w * (w * w + x0) * x0 * x0
    st, m = strict_transform(w * w * f, "w")
    assert m == 2 and st == f
    st2, m2 = strict_transform(f, "x1")
    assert m2 == 0 and st2 == f
    with pytest.raises(ValueError):
        strict_transform(FracPoly.zero(sp), "w")


def test_a_name_outside_the_space_is_a_value_error(sp):
    w = FracPoly.variable(sp, "w")
    for f in (w, FracPoly.zero(sp)):
        with pytest.raises(ValueError, match="variable q not in the space"):
            f.degree_in("q")
    with pytest.raises(ValueError, match="variable q not in the space"):
        strict_transform(w, "q")


def test_strict_transform_additivity(sp):
    x0 = FracPoly.variable(sp, "x0")
    w = FracPoly.variable(sp, "w")
    f = x0 + w * x0
    st, m = strict_transform(f, "w")
    st2, m2 = strict_transform(f * w ** 3, "w")
    assert st2 == st and m2 == m + 3


def test_truncate(sp):
    x0 = FracPoly.variable(sp, "x0")
    f = 1 + x0 + x0 * x0
    assert truncate(f, 1) == 1 + x0
    assert truncate(f, 10) == f
    z = FracPoly.variable(sp, "z")
    v6 = FracPoly.monomial(sp, {"w": 3})
    g = z * z + v6 * x0 * x0
    assert truncate(g, 3) == z * z
    # fractional face-value degrees
    wh = FracPoly.monomial(sp, {"w": Fraction(1, 2)})
    assert truncate(wh, Fraction(1, 4)).is_zero()
    assert truncate(wh, Fraction(1, 2)) == wh


def test_blowup_substitution_is_homomorphism(sp):
    # chart substitution x -> w x, z -> w z on random small polynomials
    import random

    random.seed(3)
    names = ["x0", "x1", "z"]
    for _ in range(15):
        f = FracPoly.zero(sp)
        g = FracPoly.zero(sp)
        for _t in range(3):
            f = f + FracPoly.monomial(
                sp, {random.choice(names): random.randint(0, 2), "w": random.randint(0, 1)}, random.randint(-2, 2)
            )
            g = g + FracPoly.monomial(sp, {random.choice(names): random.randint(0, 2)}, random.randint(-2, 2))
        sub = {"x0": FracPoly.variable(sp, "w") * FracPoly.variable(sp, "x0")}
        assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)


def test_diagonal_action_refuses_a_weight_that_is_not_an_int():
    # int() would truncate 2.5 to the weight 2, and read "2" and True as ints
    g4 = AbelianGroup((4,))
    for bad in (2.5, 2.0, "2", True, Fraction(5, 2)):
        with pytest.raises(ValueError, match=f"weight {re.escape(repr(bad))} on t is not an int"):
            DiagonalAction(g4, {"x": (1,), "t": (bad,)})
    assert DiagonalAction(g4, {"x": (1,), "t": (-2,)}).weights == {"x": (1,), "t": (-2,)}


def test_apply_group_examples():
    g2 = AbelianGroup((2,))
    sp2 = VarSpace([], ["t", "x"])
    act = DiagonalAction(g2, {"t": (1,), "x": (1,)})
    t, x = _vars(sp2, "t", "x")
    assert apply_group(t * x, act, g2.element((1,))) == t * x
    assert apply_group(t * x, act, g2.identity) == t * x
    g4 = AbelianGroup((4,))
    spv = VarSpace([], ["v"])
    act4 = DiagonalAction(g4, {"v": (1,)})
    v = FracPoly.variable(spv, "v")
    assert apply_group(v * v, act4, g4.element((1,))) == (v * v).scale(-1)


def test_apply_group_is_action():
    g = AbelianGroup((2, 3))
    sp2 = VarSpace([], ["a", "b"])
    act = DiagonalAction(g, {"a": (1, 2), "b": (0, 1)})
    a, b = _vars(sp2, "a", "b")
    f = a * a + b.scale(3) + a * b
    for g1 in g.elements():
        for g2 in g.elements():
            lhs = apply_group(f, act, g1 + g2)
            rhs = apply_group(apply_group(f, act, g2), act, g1)
            assert lhs == rhs
    # ring automorphism
    h = a + b * b
    e = g.element((1, 1))
    assert apply_group(f * h, act, e) == apply_group(f, act, e) * apply_group(h, act, e)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_group_is_a_ring_action(data):
    # g.(h.f) = (g+h).f, the identity fixes f, and each g is a ring
    # automorphism, on polynomials whose terms have integral weights only
    draw = data.draw
    group = AbelianGroup(tuple(draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=1, max_size=3))))
    names = _ACTED_SPACE.names
    weights = {n: [draw(st.integers(0, 2 * p)) for p in group.moduli] for n in names}
    action = DiagonalAction(group, weights)

    def integral_poly():
        terms = {}
        for _ in range(draw(st.integers(1, 6))):
            key = (
                Fraction(draw(st.integers(0, 4)), 2),
                Fraction(draw(st.integers(0, 6)), 3),
                draw(st.integers(-2, 3)),
                draw(st.integers(0, 3)),
            )
            if all(sum(e * weights[n][i] for e, n in zip(key, names)).denominator == 1 for i in range(group.rank)):
                terms[key] = draw(_product_coeffs())
        return FracPoly(_ACTED_SPACE, terms)

    f, h = integral_poly(), integral_poly()
    elements = list(group.elements())
    g1, g2 = draw(st.sampled_from(elements)), draw(st.sampled_from(elements))
    assert apply_group(apply_group(f, action, g2), action, g1) == apply_group(f, action, g1 + g2)
    assert apply_group(f, action, group.identity) == f
    assert apply_group(f * h, action, g1) == apply_group(f, action, g1) * apply_group(h, action, g1)
    assert apply_group(f + h, action, g1) == apply_group(f, action, g1) + apply_group(h, action, g1)


def test_apply_group_refuses_a_term_of_fractional_weight():
    # w^(1/2) has weight 1/2 under the generator of Z2, which no character
    # of Z2 takes: a phase e_4 would make g.(g.f) = -w^(1/2) + x differ
    # from (g+g).f = f
    sp = VarSpace([("w", 2)], ["x"])
    act = DiagonalAction(AbelianGroup((2,)), {"w": (1,), "x": (0,)})
    f = FracPoly.monomial(sp, {"w": Fraction(1, 2)}) + FracPoly.variable(sp, "x")
    for g in act.group.elements():
        with pytest.raises(ValueError, match=r"^term w\^\(1/2\) has fractional weight"):
            apply_group(f, act, g)


def test_semi_invariant_split_examples():
    g2 = AbelianGroup((2,))
    sp2 = VarSpace([], ["x", "y"])
    act = DiagonalAction(g2, {"x": (0,), "y": (1,)})
    x, y = _vars(sp2, "x", "y")
    parts = semi_invariant_split(x + y, act, 0)
    assert parts == [x, y]
    t_act = DiagonalAction(g2, {"x": (0,), "y": (1,)})
    f = (1 + y) * (1 + x)
    parts = semi_invariant_split(f, t_act, 0)
    assert parts[0] == 1 + x and parts[1] == y + y * x
    # already semi-invariant
    parts = semi_invariant_split(y, act, 0)
    assert parts[0].is_zero() and parts[1] == y


def test_semi_invariant_split_random():
    import random

    random.seed(11)
    for moduli in [(2,), (3,), (2, 2), (12,), (2, 3)]:
        g = AbelianGroup(moduli)
        names = ["a", "b", "c"]
        sp2 = VarSpace([], names)
        act = DiagonalAction(g, {n: tuple(random.randrange(p) for p in moduli) for n in names})
        f = FracPoly.zero(sp2)
        for _ in range(6):
            f = f + FracPoly.monomial(
                sp2, {n: random.randint(0, 3) for n in names}, random.randint(-3, 3)
            )
        for i in range(g.rank):
            parts = semi_invariant_split(f, act, i)
            assert sum(parts[1:], parts[0]) == f
            for m, part in enumerate(parts):
                if part.is_zero():
                    continue
                moved = apply_group(part, act, g.generator(i))
                assert moved == part.scale(root_of_unity(moduli[i], m))


def test_semi_invariant_weight():
    g = AbelianGroup((4,))
    sp2 = VarSpace([], ["u", "v"])
    act = DiagonalAction(g, {"u": (1,), "v": (2,)})
    u, v = _vars(sp2, "u", "v")
    assert semi_invariant_weight(u * v, act) == (3,)
    assert semi_invariant_weight(u + v, act) is None


def test_divide_exact(sp):
    x0, x1 = _vars(sp, "x0", "x1")
    f = x0 * x0 - x1 * x1
    assert divide_exact(f, x0 + x1) == x0 - x1
    assert divide_exact(f, x0 + x1 + 1) is None
    assert divide_exact(FracPoly.zero(sp), x0) == FracPoly.zero(sp)


def test_divide_exact_long_quotient():
    x = FracPoly.variable(VarSpace([], ["x"]), "x")
    q = divide_exact(x**10001 - 1, x - 1)
    assert q is not None and len(q.terms) == 10001
    assert all(c == 1 for c in q.terms.values())
    assert q * (x - 1) == x**10001 - 1


def _product(factors):
    out = FracPoly.constant(factors[0].space, 1)
    for f in factors:
        out = out * f
    return out


def test_match_scalar(sp):
    z, x0, x1 = _vars(sp, "z", "x0", "x1")
    e3 = root_of_unity(3)
    f = z + x0 * FracPoly.monomial(sp, {"w": Fraction(1, 2)})
    assert match_scalar(f.scale(e3), f) == e3
    assert match_scalar(f, f.scale(e3)) == e3.inverse()
    assert match_scalar(f, f + x1) is None
    assert match_scalar(f, z - x0) is None
    assert match_scalar(FracPoly.zero(sp), f) is None


def test_match_factors(sp):
    z, x0, x1 = _vars(sp, "z", "x0", "x1")
    e3 = root_of_unity(3)
    lhs = [z + x0 * FracPoly.monomial(sp, {"w": Fraction(1, 2)}), z - x1, z + x0 + x1, z.scale(2) - x0]
    rhs = [lhs[2], lhs[0].scale(e3), lhs[3].scale(e3 * e3), lhs[1]]
    assert match_factors(lhs, rhs) == 1
    assert _product(lhs) == _product(rhs)
    # one factor perturbed by a single term: no partner
    assert match_factors(lhs, [rhs[0], rhs[1] + x1, rhs[2], rhs[3]]) is None
    assert match_factors(lhs, [rhs[0], rhs[1] + z.scale(e3), rhs[2], rhs[3]]) is None
    # lengths differ
    assert match_factors(lhs, rhs[:-1]) is None
    assert match_factors(lhs[:-1], rhs) is None
    # one factor scaled by a cube root of unity: matched, with scalar e3 != 1
    scaled = [lhs[0].scale(e3)] + lhs[1:]
    c = match_factors(scaled, rhs)
    assert c == e3 and c != 1
    assert _product(scaled) == _product(rhs).scale(c)
    # repeated factors pair one to one
    assert match_factors([z, z, x0], [x0, z.scale(2), z]) == Fraction(1, 2)
    assert match_factors([z, z, x0], [x0, x0, z]) is None


def test_space_merging():
    a = VarSpace([("w", 2)], ["x"])
    b = VarSpace([("w", 4)], ["y"])
    u = a.union(b)
    assert u.bound("w") == 4
    f = FracPoly.variable(a, "x") + FracPoly.variable(b, "y")
    assert set(f.space.names) >= {"x", "y", "w"}
    with pytest.raises(ValueError):
        VarSpace([("x", 2)], []).union(VarSpace([], ["x"]))


def test_union_of_many_spaces():
    a = VarSpace([("w", 2)], ["x"])
    b = VarSpace([("v", 3), ("w", 3)], ["y", "x"])
    c = VarSpace([("w", 4)], ["z"])
    u = a.union(b, c)
    # names keep their first position; a shared divisorial name takes the lcm
    assert u.div_names == ("w", "v") and u.div_bounds == (12, 3)
    assert u.free_names == ("x", "y", "z")
    assert u == a.union(b).union(c)
    assert a.union() == a
    # a name divisorial in one space and free in the third
    with pytest.raises(ValueError):
        a.union(b, VarSpace([], ["v"]))
    with pytest.raises(ValueError):
        a.union(b, VarSpace([("y", 2)], []))


def test_coefficients_in(sp):
    z, x0 = _vars(sp, "z", "x0")
    f = z * z + z * x0.scale(2) + 1
    coeffs = f.coefficients_in("z")
    assert coeffs[2] == FracPoly.constant(sp, 1)
    assert coeffs[1] == x0.scale(2)
    assert coeffs[0] == FracPoly.constant(sp, 1)


def test_json_roundtrip(sp):
    from circforge import jsonio

    x0 = FracPoly.variable(sp, "x0")
    wh = FracPoly.monomial(sp, {"w": Fraction(1, 2)}, root_of_unity(4))
    f = x0 ** 2 + wh.scale(Fraction(2, 3)) - 5
    assert jsonio.poly_from_json(jsonio.poly_to_json(f)) == f


def test_semi_invariant_parts():
    sp = VarSpace([], ["a", "b", "c"])
    act = DiagonalAction(AbelianGroup((2, 3)), {"a": (1, 0), "b": (0, 1), "c": (1, 2)})
    a, b, c = _vars(sp, "a", "b", "c")
    f = (a + b.scale(2) + c + 1) ** 3
    parts = semi_invariant_parts(f, act)
    assert sum(parts, FracPoly.zero(sp)) == f
    weights = [semi_invariant_weight(p, act) for p in parts]
    # each piece is nonzero with one weight, and no two pieces share it
    assert all(parts) and None not in weights and len(set(weights)) == len(parts) > 1
    assert semi_invariant_parts(FracPoly.zero(sp), act) == []
    assert semi_invariant_parts(f, DiagonalAction(AbelianGroup(()), {n: () for n in sp.names})) == [f]


def test_linear_rank():
    one, two, e3 = Cyclo.one(), Cyclo.rational(2), root_of_unity(3)
    names = ["x", "y", "z"]
    assert linear_rank([], names) == 0
    assert linear_rank([{}, {"x": one}], names) == 1
    assert linear_rank([{"x": one, "y": e3}, {"x": two, "y": e3 * two}], names) == 1
    assert linear_rank([{"x": one}, {"y": one}, {"x": one, "y": e3}], names) == 2
    assert linear_rank([{"x": one}, {"y": one}, {"z": e3}], names) == 3
    # only the listed names count
    assert linear_rank([{"x": one}, {"z": one}], ["x", "y"]) == 1
    sp = VarSpace([("w", 2)], names)
    w, x, y, z = _vars(sp, "w", "x", "y", "z")
    lins = [linear_part(f) for f in (x + y * y + w * z, y + x * x, (x + y).scale(e3) + z * z)]
    assert linear_rank(lins, sp.names) == 2
    assert linear_rank(lins[:2], sp.names) == 2


_ORDERS = (1, 2, 3, 4, 6, 8, 12)


@st.composite
def _cyclo(draw):
    order = draw(st.sampled_from(_ORDERS))
    numerators = draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order))
    return Cyclo(order, [Fraction(n, draw(st.integers(1, 3))) for n in numerators])


@st.composite
def _cyclo_rows(draw):
    """Up to five rows of random Cyclo entries; each row after the first is,
    half of the time, a combination of the rows before it."""
    ncols = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if rows and draw(st.booleans()):
            scalars = [draw(_cyclo()) for _ in rows]
            rows.append([sum((c * r[j] for c, r in zip(scalars, rows)), Cyclo.zero()) for j in range(ncols)])
        else:
            rows.append([draw(_cyclo()) for _ in range(ncols)])
    return rows


@settings(max_examples=80, deadline=None)
@given(_cyclo_rows())
def test_linear_rank_is_the_exact_rank(rows):
    names = [f"v{j}" for j in range(len(rows[0]))]
    assert linear_rank([dict(zip(names, row)) for row in rows], names) == rank(rows)


@st.composite
def _sparse_linear_parts(draw):
    """(names, linear parts): up to six rows over v0.. and two names that are
    not listed, each row empty or holding up to three entries of order at
    most 12.  Some entries are zero, and some have a denominator or
    numerators divisible by the prime l of the image of the listed entries;
    some rows are multiples of an earlier one."""
    names = [f"v{j}" for j in range(draw(st.integers(1, 5)))]
    shape = []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.lists(st.sampled_from(names + ["u", "t"]), max_size=3, unique=True))
        kinds = st.sampled_from(("1", "1", "2", "l/", "l*"))
        shape.append([(name, draw(st.integers(1, 12)), draw(kinds)) for name in row])
    ell = prime_field(lcm(*(order for row in shape for name, order, _kind in row if name in names)))[0]
    scale = {"1": Fraction(1), "2": Fraction(1, 2), "l/": Fraction(1, ell), "l*": Fraction(ell)}
    parts = []
    for row in shape:
        if parts and draw(st.integers(0, 3)) == 0:
            parts.append({n: c * draw(st.integers(-2, 2)) for n, c in draw(st.sampled_from(parts)).items()})
            continue
        lin = {}
        for name, order, kind in row:
            numerators = draw(st.lists(st.integers(-2, 2), min_size=order, max_size=order))
            lin[name] = Cyclo(order, [a * scale[kind] for a in numerators])
        parts.append(lin)
    return names, parts


@settings(max_examples=150, deadline=None)
@given(_sparse_linear_parts())
@example(
    # rank 3, read as 2 from singular values at 50 digits
    (
        ["v0", "v1", "v2"],
        [
            {},
            {"u": Cyclo(1, [0]), "v1": Cyclo(1, [1]), "v2": Cyclo(1, [Fraction(1, 2147483659)])},
            {"v1": Cyclo(1, [1])},
            {"v2": Cyclo(1, [2147483659]), "v0": Cyclo(1, [Fraction(1, 2147483659)]), "v1": Cyclo(1, [0])},
        ],
    )
)
def test_linear_rank_is_the_exact_rank_of_sparse_rows(drawn):
    # entries of mixed orders up to 12 put the elimination at their lcm
    names, parts = drawn
    zero = Cyclo.zero()
    rows = [[lin.get(n, zero) for n in names] for lin in parts]
    assert linear_rank(parts, names) == rank(rows) == largest_nonzero_minor(rows)


def test_linear_rank_settles_a_rank_deficient_image_exactly():
    # rows of full rank whose image in F_l has lower rank, or none: an entry
    # l, a denominator l, a minor l, and the same at order 12
    zero, one = Cyclo.zero(), Cyclo.one()
    ell, ell12 = prime_field(1)[0], prime_field(12)[0]
    e12 = root_of_unity(12)
    cases = [
        [[Cyclo.rational(ell), zero], [zero, one]],
        [[Cyclo.rational(Fraction(1, ell)), zero], [zero, one]],
        [[one, one], [one, Cyclo.rational(1 + ell)]],
        [[e12 * ell12, zero], [zero, e12]],
        [[e12, one], [one, (e12 + ell12).inverse()]],
    ]
    names = ["x", "y"]
    for rows in cases:
        image = rank_mod(rows)
        assert image is None or image < 2
        assert linear_rank([dict(zip(names, row)) for row in rows], names) == rank(rows) == 2


def test_linear_part():
    sp = VarSpace([("w", 2), ("v", 2)], ["x", "y", "z"])
    w, x, y, z = _vars(sp, "w", "x", "y", "z")
    f = x.scale(3) + w - y * y + FracPoly.monomial(sp, {"w": Fraction(1, 2), "v": Fraction(1, 2)}) + 7
    assert linear_part(f) == {"x": Cyclo.rational(3), "w": Cyclo.one()}
    # a Laurent term of face-value degree one is not linear
    assert linear_part(FracPoly.monomial(sp, {"x": 1, "y": 1, "z": -1}) + z) == {"z": Cyclo.one()}


def test_float_exponents_are_refused():
    sp = VarSpace([("w", 2)], ["x"])
    # a float used to be truncated: x^1.5 printed as x, {(0, 2.7): 1} as x^2
    with pytest.raises(ValueError):
        FracPoly.monomial(sp, {"x": 1.5})
    with pytest.raises(ValueError):
        FracPoly(sp, {(0, 2.7): 1})
    # refused even when integral or exactly representable
    for exps in ({"x": 2.0}, {"w": 0.5}, {"w": 1.0}):
        with pytest.raises(ValueError):
            FracPoly.monomial(sp, exps)
    # any non-integral exponent on a free variable
    for e in (Fraction(3, 2), "1/2"):
        with pytest.raises(ValueError):
            FracPoly.monomial(sp, {"x": e})
    assert FracPoly.monomial(sp, {"x": Fraction(4, 2)}) == FracPoly.variable(sp, "x") ** 2


def _golden_polys():
    a = VarSpace([("w", 2)], ["x", "y"])
    b = VarSpace([("w", 3)], ["x", "z"])
    e3 = root_of_unity(3)
    # w has bound 2 in one factor and 3 in the other: the product has bound 6
    f = (FracPoly.monomial(a, {"w": Fraction(1, 2), "x": 1}) + FracPoly.variable(a, "y").scale(Fraction(-2, 3))) * (
        FracPoly.monomial(b, {"w": Fraction(1, 3), "z": -1}, e3) - FracPoly.monomial(b, {"x": 2, "z": -2}) + 5
    )
    h = FracPoly.monomial(a, {"w": Fraction(1, 2), "x": 1}) * 2 + FracPoly.monomial(b, {"w": Fraction(4, 3), "z": -1})
    return f, h


def test_golden_output_bytes():
    from circforge import jsonio

    f, h = _golden_polys()
    st, mult = strict_transform(h, "w")
    space = '"space": {"divisorial": [{"bound": 6, "name": "w"}], "free": ["x", "y", "z"]}'
    assert str(f) == (
        "(-2/3*E3)*w^(1/3)*y*z^-1 + (E3)*w^(5/6)*x*z^-1 - 10/3*y + 2/3*x^2*y*z^-2 + 5*w^(1/2)*x - w^(1/2)*x^3*z^-2"
    )
    assert json.dumps(jsonio.poly_to_json(f), sort_keys=True) == (
        "{" + space + ', "terms": ['
        '{"coeff": {"coeffs": ["0", "-2/3", "0"], "order": 3}, "free": [0, 1, -1], "w": ["1/3"]}, '
        '{"coeff": {"coeffs": ["0", "1", "0"], "order": 3}, "free": [1, 0, -1], "w": ["5/6"]}, '
        '{"coeff": {"coeffs": ["-10/3"], "order": 1}, "free": [0, 1, 0], "w": ["0"]}, '
        '{"coeff": {"coeffs": ["2/3"], "order": 1}, "free": [2, 1, -2], "w": ["0"]}, '
        '{"coeff": {"coeffs": ["5"], "order": 1}, "free": [1, 0, 0], "w": ["1/2"]}, '
        '{"coeff": {"coeffs": ["-1"], "order": 1}, "free": [3, 0, -2], "w": ["1/2"]}]}'
    )
    # face values: a Fraction on the divisorial position, ints on the free ones
    assert repr([(k, str(c)) for k, c in f.sorted_terms()]) == (
        "[((Fraction(1, 3), 0, 1, -1), '-2/3*E3'), ((Fraction(5, 6), 1, 0, -1), 'E3'), "
        "((Fraction(0, 1), 0, 1, 0), '-10/3'), ((Fraction(0, 1), 2, 1, -2), '2/3'), "
        "((Fraction(1, 2), 1, 0, 0), '5'), ((Fraction(1, 2), 3, 0, -2), '-1')]"
    )
    assert repr(mult) == "Fraction(1, 2)"
    assert str(st) == "w^(5/6)*z^-1 + 2*x"
    assert json.dumps(jsonio.poly_to_json(st), sort_keys=True) == (
        "{" + space + ', "terms": ['
        '{"coeff": {"coeffs": ["1"], "order": 1}, "free": [0, 0, -1], "w": ["5/6"]}, '
        '{"coeff": {"coeffs": ["2"], "order": 1}, "free": [1, 0, 0], "w": ["0"]}]}'
    )
    assert repr([(k, str(c)) for k, c in st.sorted_terms()]) == (
        "[((Fraction(5, 6), 0, 0, -1), '1'), ((Fraction(0, 1), 1, 0, 0), '2')]"
    )
    assert repr((h.total_degree(), h.order(), f.degree_in("w"), f.degree_in("z"))) == (
        "(Fraction(3, 2), Fraction(1, 3), Fraction(5, 6), 0)"
    )
    assert repr(list(f.homogeneous_parts())) == "[Fraction(1, 3), Fraction(5, 6), Fraction(1, 1), Fraction(3, 2)]"
    assert sorted(f.coefficients_in("x")) == [0, 1, 2, 3]


# -- ring axioms over mixed spaces ---------------------------------------------------


@st.composite
def _polys(draw):
    """A polynomial over its own small space: divisorial w and v with bounds
    1-6 (so a union with another draw can raise an lcm bound and rescale
    keys), free x with exponents 0-2 and free y with exponents -2..2."""
    div = [(n, draw(st.integers(1, 6))) for n in ("w", "v") if draw(st.booleans())]
    free = [n for n in ("x", "y") if draw(st.booleans())]
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        key = [Fraction(draw(st.integers(0, 2 * b)), b) for _n, b in div]
        key += [draw(st.integers(0, 2) if n == "x" else st.integers(-2, 2)) for n in free]
        q = draw(st.fractions(-3, 3, max_denominator=3))
        terms[tuple(key)] = Cyclo.rational(q) * root_of_unity(draw(st.sampled_from([1, 3, 4])), draw(st.integers(0, 3)))
    return FracPoly(VarSpace(div, free), terms)


def _faces(f):
    """{frozenset of (name, nonzero face-value exponent): coefficient}: a
    term map that does not depend on the space or on the key layout."""
    return {frozenset((n, e) for n, e in zip(f.space.names, key) if e): c for key, c in f.sorted_terms()}


def _face_sum(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Cyclo.zero()) + c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _face_product(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            exps = dict(ka)
            for n, e in kb:
                exps[n] = exps.get(n, 0) + e
            key = frozenset((n, e) for n, e in exps.items() if e)
            out[key] = out.get(key, Cyclo.zero()) + ca * cb
    return {k: c for k, c in out.items() if not c.is_zero()}


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_axioms_across_spaces(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + FracPoly.zero(b.space) == a and a * FracPoly.constant(c.space, 1) == a
    assert (a - a).is_zero() and a - a == 0
    # against a face-value oracle, which never sees a scaled key
    assert _faces(a + b) == _face_sum(_faces(a), _faces(b))
    assert _faces(a * b) == _face_product(_faces(a), _faces(b))


@settings(max_examples=40, deadline=None)
@given(_polys(), _polys(), _polys())
def test_substitute_is_a_ring_homomorphism(a, b, g):
    # x -> g, and w -> u^60, which clears every bound 1-6
    images = {"x": g, "w": FracPoly.monomial(VarSpace([], ["u"]), {"u": 60})}

    def sub(f):
        return f.substitute({n: p for n, p in images.items() if n in f.space})

    assert sub(a * b) == sub(a) * sub(b)
    assert sub(a + b) == sub(a) + sub(b)
    assert sub(a - b) == sub(a) - sub(b)
    assert sub(FracPoly.constant(a.space, 1)) == 1


# -- the product against the pairwise term loop --------------------------------------

_PRODUCT_SPACE = VarSpace([("w", 3)], ["x", "y"])
_SMALL_SCALARS = [1, -1, Fraction(1, 4), Fraction(-2, 3)]


@st.composite
def _product_coeffs(draw):
    """A nonzero coefficient of order 1, 2, 3, 4, 6 or 12, rational or not,
    with denominators up to 5; small values often, so sums cancel."""
    order = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    if draw(st.booleans()):
        return Cyclo.rational(draw(st.sampled_from(_SMALL_SCALARS)), order) * root_of_unity(
            draw(st.sampled_from([1, order])), draw(st.integers(0, 11))
        )
    coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=5), min_size=order, max_size=order))
    c = Cyclo(order, coeffs)
    return c if c else Cyclo.rational(-1, order)


@st.composite
def _product_polys(draw):
    """1-6 terms over w (bound 3, exponents 0..4/3) and free x, y
    (exponents -2..2)."""
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        key = (Fraction(draw(st.integers(0, 4)), 3), draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        terms[key] = draw(_product_coeffs())
    return FracPoly(_PRODUCT_SPACE, terms)


def _pairwise_product(a, b):
    """The product as the schoolbook term loop forms it, with public Cyclo
    + and *: each running sum that reaches zero leaves the map."""
    terms = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            s = c1 * c2 if key not in terms else terms[key] + c1 * c2
            if s.is_zero():
                del terms[key]
            else:
                terms[key] = s
    return FracPoly(a.space, {a.space.face_key(k): c for k, c in terms.items()})


@settings(max_examples=100, deadline=None)
@given(_product_polys(), _product_polys())
def test_product_matches_pairwise_loop(a, b):
    from circforge import jsonio

    # in (a + b) * (a - b) every cross product meets its negative
    for lhs, rhs in ((a, b), (a + b, a - b)):
        got, want = lhs * rhs, _pairwise_product(lhs, rhs)
        assert jsonio.poly_to_json(got) == jsonio.poly_to_json(want)
        # the map order too: the next product's term loop runs in it
        assert list(got.terms) == list(want.terms)


def test_product_order_follows_zero_reset():
    # the xyz coefficient is e4 - e4 + 1: its running sum reaches zero after
    # two products and restarts from the rational 1, so it prints as order 1;
    # with a's terms in the other order the sum never restarts and keeps
    # order 4 (until coefficients are printed in their minimal field)
    from circforge import jsonio

    sp = VarSpace([], ["x", "y", "z"])
    x, y, z = (FracPoly.variable(sp, n) for n in "xyz")
    e4 = root_of_unity(4)
    b = y * z + x * z + x * y
    first = (x.scale(e4) - y.scale(e4) + z) * b
    assert jsonio.cyclo_to_json(first.terms[(1, 1, 1)]) == {"order": 1, "coeffs": ["1"]}
    assert list(first.terms)[-1] == (1, 1, 1)  # re-entered the map last
    second = (z - y.scale(e4) + x.scale(e4)) * b
    assert jsonio.cyclo_to_json(second.terms[(1, 1, 1)]) == {"order": 4, "coeffs": ["1", "0", "0", "0"]}
    assert list(second.terms)[2] == (1, 1, 1)


# -- a product of many factors against the left fold of the pairwise loop ------------

_CHAIN_SPACES = [
    _PRODUCT_SPACE,
    VarSpace([("w", 2)], ["x"]),
    VarSpace([], ["y", "z"]),
    VarSpace([("w", 6)], ["z", "x"]),
]


@st.composite
def _chain_factors(draw):
    """1-4 terms in one of four spaces that share w (bounds 3, 2, 1 and 6)
    and x, y, z: either any coefficient on small exponents, or a root of
    unity (up to sign) on exponents 0 and 1, so that running sums cancel."""
    space = draw(st.sampled_from(_CHAIN_SPACES))
    units = draw(st.booleans())
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = tuple(
            draw(st.integers(0, 1 if units else 2)) * Fraction(1, 1 if units else b)
            if i < space.ndiv
            else draw(st.integers(0 if units else -1, 1))
            for i, b in enumerate(space.bounds)
        )
        if units:
            terms[key] = root_of_unity(draw(st.sampled_from([1, 2, 3, 4])), draw(st.integers(0, 3)))
        else:
            terms[key] = draw(_product_coeffs())
    return FracPoly(space, terms)


@st.composite
def _chains(draw):
    """2-6 factors; often one of them twice, the second time with some
    signs flipped, as in (a + b) * (a - b)."""
    factors = draw(st.lists(_chain_factors(), min_size=2, max_size=5))
    if draw(st.booleans()):
        f = draw(st.sampled_from(factors))
        flips = draw(st.lists(st.booleans(), min_size=len(f.terms), max_size=len(f.terms)))
        g = FracPoly(f.space, {k: -c if flip else c for (k, c), flip in zip(_face_items(f), flips)})
        factors.insert(draw(st.integers(0, len(factors))), g)
    return factors


def _fold_product(factors):
    """f_1 * ... * f_n as the left fold of the pairwise term loop, each step
    in the union of its two spaces, as `*` aligns them."""
    acc = factors[0]
    for f in factors[1:]:
        space = acc.space.union(f.space)
        acc = _pairwise_product(acc.in_space(space), f.in_space(space))
    return acc


def _assert_same_product(got, want):
    from circforge import jsonio

    assert got.space == want.space
    assert jsonio.poly_to_json(got) == jsonio.poly_to_json(want)
    # the map order and every coefficient's order, which the next product's
    # term loop and the printed bytes depend on
    assert [(k, c.order) for k, c in got.terms.items()] == [(k, c.order) for k, c in want.terms.items()]


@settings(max_examples=100, deadline=None)
@given(_chains())
def test_chain_product_matches_the_fold(factors):
    from circforge.polyring import product

    _assert_same_product(product(factors), _fold_product(factors))


def test_chain_product_restarts_at_an_intermediate_level():
    # the xyz coefficient of the first two factors reaches zero, leaves the
    # map and enters it again at the end with the rational 1 (see
    # test_product_order_follows_zero_reset); the third factor's products
    # then start from that order-1 coefficient at its new place
    from circforge.polyring import product

    sp = VarSpace([], ["x", "y", "z"])
    x, y, z = (FracPoly.variable(sp, n) for n in "xyz")
    e4 = root_of_unity(4)
    factors = [x.scale(e4) - y.scale(e4) + z, y * z + x * z + x * y, x * x + z]
    _assert_same_product(product(factors), _fold_product(factors))


def test_chain_product_edge_cases():
    from circforge.polyring import product

    sp = VarSpace([("w", 2)], ["x"])
    x, w = FracPoly.variable(sp, "x"), FracPoly.monomial(sp, {"w": Fraction(1, 2)})
    f = x + w
    _assert_same_product(product([f]), f)
    assert product([f, FracPoly.zero(sp), f]).is_zero()
    g = FracPoly.variable(VarSpace([], ["y"]), "y") - 1
    _assert_same_product(product([f, g, f]), _fold_product([f, g, f]))
    # a space without variables has the one key ()
    consts = [FracPoly.constant(VarSpace(), c) for c in (2, root_of_unity(3), Fraction(1, 5))]
    _assert_same_product(product(consts), _fold_product(consts))
    with pytest.raises(ValueError):
        product([])


# -- the integral-exponent projection against the filtered full product -------------

_INTEGRAL_SPACES = [
    VarSpace([("w", 2)], ["x"]),
    VarSpace([("w", 3), ("u", 4)], ["x"]),
    VarSpace([("w", 4), ("u", 2)], ["x", "y"]),
]


@st.composite
def _integral_factors(draw, space):
    """1-3 terms of space with divisorial exponents 0..(b+1)/b and free ones
    0..1: any coefficient of order 1, 2, 3, 4, 6 or 12, or a root of unity
    (up to sign), so that running sums cancel."""
    units = draw(st.booleans())
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        key = tuple(
            Fraction(draw(st.integers(0, b + 1)), b) if i < space.ndiv else draw(st.integers(0, 1))
            for i, b in enumerate(space.bounds)
        )
        terms[key] = root_of_unity(draw(st.sampled_from([1, 2, 4, 6])), draw(st.integers(0, 5))) if units else draw(_product_coeffs())
    return FracPoly(space, terms)


@st.composite
def _integral_chains(draw):
    """2-7 factors of one space and a nonempty set of its divisorial names;
    often the last factor is an earlier one with some signs flipped, so
    that keys restart at the last level."""
    space = draw(st.sampled_from(_INTEGRAL_SPACES))
    factors = draw(st.lists(_integral_factors(space), min_size=2, max_size=6))
    if draw(st.booleans()):
        f = draw(st.sampled_from(factors))
        flips = draw(st.lists(st.booleans(), min_size=len(f.terms), max_size=len(f.terms)))
        factors.append(FracPoly(space, {k: -c if flip else c for (k, c), flip in zip(_face_items(f), flips)}))
    names = draw(st.lists(st.sampled_from(space.div_names), min_size=1, unique=True))
    return factors, names


def _integral_part(f, names):
    """The terms of f with integer exponents on names, in f's map order."""
    face = f.space.face_key
    pos = [f.space.names.index(n) for n in names]
    return FracPoly(f.space, {face(k): c for k, c in f.terms.items() if all(face(k)[i].denominator == 1 for i in pos)})


def _assert_integral_part(factors, names):
    # the oracle is the pairwise term loop's fold, which never runs the kernel
    from circforge.polyring import product

    got, full = product(factors, integral=names), _fold_product(factors)
    _assert_same_product(got, _integral_part(full, names))
    return got, full


@settings(max_examples=100, deadline=None)
@given(_integral_chains())
def test_integral_product_is_the_integral_part(chain):
    _assert_integral_part(*chain)


def test_integral_product_keeps_a_restart_at_the_last_level():
    # the x*y*z coefficient (e4 - e4 + 1, see test_product_order_follows_zero_reset)
    # restarts at the last level next to terms with w^(1/2), which are dropped
    sp = VarSpace([("w", 2)], ["x", "y", "z"])
    x, y, z = (FracPoly.variable(sp, n) for n in "xyz")
    h = FracPoly.monomial(sp, {"w": Fraction(1, 2)})
    e4 = root_of_unity(4)
    factors = [x.scale(e4) - y.scale(e4) + z + h * x, y * z + x * z + x * y + h * y.scale(e4)]
    got, full = _assert_integral_part(factors, ["w"])
    assert got.terms[(0, 1, 1, 1)].order == 1
    assert len(got.terms) < len(full.terms)
    # three factors: the restart happens in the middle level, which is not projected
    factors.append(h * x + z)
    _assert_integral_part(factors, ["w"])


def test_last_level_rational_sum_keeps_its_order():
    # the x^2 coefficient e4 * e4 = -1 is rational and has order 4, while
    # K = lcm(4, 3) = 12: the last level reads it from its lowest slot and
    # keeps the order of its products, not K
    from circforge import jsonio

    sp = VarSpace([("w", 2)], ["x", "y", "z"])
    x, y, z = (FracPoly.variable(sp, n) for n in "xyz")
    e4, e3 = root_of_unity(4), root_of_unity(3)
    factors = [x.scale(e4) + y.scale(e3), x.scale(e4) + z]
    for names in ([], ["w"]):
        got, _full = _assert_integral_part(factors, names)
        assert jsonio.cyclo_to_json(got.terms[(0, 2, 0, 0)]) == {"order": 4, "coeffs": ["-1", "0", "0", "0"]}


def test_integral_product_edge_cases():
    from circforge.polyring import product

    sp = VarSpace([("w", 2)], ["x"])
    x, h = FracPoly.variable(sp, "x"), FracPoly.monomial(sp, {"w": Fraction(1, 2)})
    _assert_same_product(product([x + h], integral=["w"]), x)
    assert product([h, h * x, h], integral=["w"]).is_zero()
    with pytest.raises(ValueError, match="x is not a divisorial variable"):
        product([x + h, x], integral=["x"])


# -- the degree-bounded product against the truncated fold ------------------------


def _truncated_fold(factors, d, exclude):
    """acc = f_1, acc = truncate(acc * f_i, d, exclude): the pairwise term
    loop's fold, each product truncated as it is formed."""
    acc = factors[0]
    for f in factors[1:]:
        space = acc.space.union(f.space)
        acc = truncate(_pairwise_product(acc.in_space(space), f.in_space(space)), d, exclude)
    return acc


@settings(max_examples=100, deadline=None)
@given(_chains(), st.sampled_from([0, 1, Fraction(3, 2), 2, 3, 4]), st.data())
def test_bounded_product_is_the_truncated_fold(factors, d, data):
    # _chains draws negative free exponents, one-term factors, and a copy of
    # a factor with signs flipped, whose running sums reach zero mid-level
    from circforge.polyring import product

    names = VarSpace.union(*(f.space for f in factors)).names
    exclude = set(data.draw(st.lists(st.sampled_from(names), unique=True, max_size=2)))
    _assert_same_product(product(factors, degree=d, exclude=exclude), _truncated_fold(factors, d, exclude))
    for a, b in zip(factors, factors[1:]):  # two operands: the pairwise loop or the kernel
        _assert_same_product(product([a, b], degree=d, exclude=exclude), _truncated_fold([a, b], d, exclude))


def test_bounded_product_keeps_the_pairs_at_the_bound():
    from circforge.polyring import product

    sp = VarSpace([("w", 2)], ["x", "y", "z"])
    w, x, y, z = (FracPoly.monomial(sp, {n: Fraction(1, 2) if n == "w" else 1}) for n in "wxyz")
    f, g = x + y, x * x + y.scale(root_of_unity(3)) + w
    for factors, d in (([f, g, f], 3), ([f, g, f], Fraction(5, 2)), ([g, f + w, g], 4), ([x, g], 3), ([g, y], 2)):
        got = product(factors, degree=d)
        _assert_same_product(got, _truncated_fold(factors, d, set()))
        assert got.total_degree() == d  # the pairs at the bound are kept
    # z is not counted: (z + x)(z + y) keeps z^2, z*x and z*y at degree 1
    got = product([z + x, z + y], degree=1, exclude={"z"})
    assert got == z * z + z * x + z * y
    # a factor wholly past the bound, and one factor alone, which is not truncated
    assert product([f, x * x * x, f], degree=4).is_zero()
    _assert_same_product(product([g], degree=1), g)
    # with integral=, both projections hold at the last level
    got = product([g, f + w, g], integral=["w"], degree=4)
    _assert_same_product(got, _integral_part(_truncated_fold([g, f + w, g], 4, set()), ["w"]))
    with pytest.raises(ValueError, match="degree bound must be >= 0"):
        product([f, g], degree=-1)


def _long_division(f, g):
    """The quotient by the long division against g, with public operations:
    each step cancels the remainder's largest term in the term order."""
    quot, rem = {}, f
    lead_key, lead = g.sorted_items()[-1]
    while not rem.is_zero():
        key, c = rem.sorted_items()[-1]
        diff = tuple(a - b for a, b in zip(key, lead_key))
        if min(diff) < 0:
            return None
        quot[diff] = c * lead.inverse()
        rem = rem - FracPoly(f.space, {f.space.face_key(diff): quot[diff]}) * g
    return FracPoly(f.space, {f.space.face_key(k): c for k, c in quot.items()})


@settings(max_examples=100, deadline=None)
@given(_product_polys(), _product_polys())
def test_division_by_one_term_is_the_long_division(f, g):
    # a one-term divisor is divided term by term, in the long division's order
    (key, c), = g.sorted_items()[:1]
    mono = FracPoly(g.space, {g.space.face_key(key): c})
    for num in (f, f * mono):
        got, want = divide_exact(num, mono), _long_division(num, mono)
        if want is None:
            assert got is None
        else:
            _assert_same_product(got, want)


# -- the slot bound at equality ------------------------------------------------------


def test_product_slot_bound_at_equality():
    # R_K * ||f_1|| ... ||f_n|| bounds every numerator; for one-term factors
    # c_i * x with ||c_i|| = |c_i| the product's largest numerator equals it.
    # R_1 = 1, and R_105 = 2: e_105^48 reduces to entries of magnitude 2.
    from circforge.polyring import product

    sp = VarSpace([], ["x"])
    x = FracPoly.variable(sp, "x")
    e = root_of_unity(105, 16)
    for factors, bound in (
        ([x.scale(c) for c in (3, -5, 7, 2**20 - 1)], 3 * 5 * 7 * (2**20 - 1)),
        ([x.scale(e * c) for c in (3, 5, 7)], 2 * 3 * 5 * 7),
    ):
        got = product(factors)
        _assert_same_product(got, _fold_product(factors))
        (coeff,) = got.terms.values()
        assert max(abs(q) for q in coeff.coeffs) == bound
    # a dense chain with all coefficients positive: nothing cancels
    dense = [
        FracPoly(sp, {(i,): Cyclo(12, [(i + j + m) % 5 + 1 for j in range(4)]) for i in range(4)}) for m in range(5)
    ]
    _assert_same_product(product(dense), _fold_product(dense))


# -- term-map merges against a pairwise oracle -----------------------------------------

_MERGE_KEYS = [(Fraction(n, 3), a, b) for n in range(5) for a in range(3) for b in range(-2, 3)]


def _merge_oracle(terms, items):
    """Add the items into terms pairwise, left to right, with public Cyclo +:
    a key whose sum is zero is popped, and a later item appends it again."""
    for key, c in items:
        if key in terms:
            c = terms[key] + c
            if c.is_zero():
                del terms[key]
                continue
        terms[key] = c
    return terms


def _face_items(f):
    return [(f.space.face_key(k), c) for k, c in f.terms.items()]


def _assert_merged(got, want: dict):
    from circforge import jsonio

    assert jsonio.poly_to_json(got) == jsonio.poly_to_json(FracPoly(got.space, want))
    assert [k for k, _c in _face_items(got)] == list(want)  # the map order too


@st.composite
def _spelled(draw, key):
    """key with each exponent as an int, a Fraction or a string, so that
    distinct dict keys can name one term."""
    out = []
    for e in key:
        forms = [Fraction(e), str(Fraction(e))] + ([int(e)] if Fraction(e).denominator == 1 else [])
        out.append(draw(st.sampled_from(forms)))
    return tuple(out)


@st.composite
def _merge_items(draw):
    """(face key, coefficient) items over w (bound 3), x and y; a key often
    repeats, some items cancel the running sum at their key, and the key
    may then come back."""
    items, sums = [], {}
    for _ in range(draw(st.integers(1, 8))):
        key = draw(st.sampled_from(_MERGE_KEYS[:6] if draw(st.booleans()) else _MERGE_KEYS))
        c = draw(_product_coeffs())
        if key in sums and draw(st.booleans()):
            items.append((key, -sums.pop(key)))
            if draw(st.booleans()):
                continue
        items.append((key, c))
        _merge_oracle(sums, [(key, c)])
    return items


@settings(max_examples=80, deadline=None)
@given(_merge_items(), st.data())
def test_constructor_merges_like_the_pairwise_oracle(items, data):
    terms = {}
    for key, c in items:
        terms[data.draw(_spelled(key))] = c  # a repeated spelling keeps its place
    want = _merge_oracle({}, ((tuple(map(Fraction, k)), c) for k, c in terms.items()))
    _assert_merged(FracPoly(_PRODUCT_SPACE, terms), want)


@settings(max_examples=80, deadline=None)
@given(_merge_items(), _merge_items(), st.data())
def test_sum_merges_like_the_pairwise_oracle(items_a, items_b, data):
    a = FracPoly(_PRODUCT_SPACE, dict(items_a))
    # b also cancels some of a's terms outright
    cancel = data.draw(st.lists(st.sampled_from(_face_items(a)), max_size=3, unique_by=lambda kc: kc[0])) if a else []
    b = FracPoly(_PRODUCT_SPACE, {**dict(items_b), **{k: -c for k, c in cancel}})
    _assert_merged(a + b, _merge_oracle(dict(_face_items(a)), _face_items(b)))


@st.composite
def _addends(draw):
    """0-5 polynomials with coefficients of mixed orders; often the negated
    sum of a prefix follows it, so every running sum of the prefix reaches
    zero, and later addends restart some of its keys."""
    polys = draw(st.lists(_product_polys(), max_size=5))
    if polys and draw(st.booleans()):
        cut = draw(st.integers(1, len(polys)))
        total = FracPoly.zero(_PRODUCT_SPACE)
        for p in polys[:cut]:
            total = total + p
        polys.insert(cut, -total)
    return polys


@settings(max_examples=100, deadline=None)
@given(_addends())
def test_poly_sum_matches_left_to_right_addition(polys):
    from circforge.polyring import poly_sum

    got = poly_sum(_PRODUCT_SPACE, polys)
    want = FracPoly.zero(_PRODUCT_SPACE)
    for p in polys:
        want = want + p
    _assert_same_product(got, want)
    _assert_merged(got, _merge_oracle({}, (kc for p in polys for kc in _face_items(p))))


def test_poly_sum_spaces():
    from circforge.polyring import poly_sum

    sp = VarSpace([("w", 2)], ["x"])
    assert poly_sum(sp, []).is_zero() and poly_sum(sp, []).space == sp
    # an addend in a smaller space is brought in; one with a variable the
    # space lacks is refused, never mixed in
    y = FracPoly.variable(VarSpace([], ["y"]), "y")
    with pytest.raises(ValueError, match="missing variable y"):
        poly_sum(sp, [FracPoly.variable(sp, "x"), y])
    got = poly_sum(sp.union(y.space), [FracPoly.variable(sp, "x"), y])
    assert got == FracPoly.variable(sp, "x") + y and got.space == sp.union(y.space)


@settings(max_examples=60, deadline=None)
@given(_merge_items(), _product_coeffs())
def test_substitute_merges_like_the_pairwise_oracle(items, c):
    # x -> x + c*y; each term w^n x^a y^b (a >= 1) comes with w^n y^(a+b),
    # whose image cancels the y^(a+b) part of the first image
    sp = VarSpace([], ["x", "y"])
    g = FracPoly.variable(sp, "x") + FracPoly.variable(sp, "y").scale(c)
    terms = {}
    for (n, a, b), d in items:
        terms[n, a, b] = d
        if a:
            terms[n, 0, a + b] = -d * c ** a
    f = FracPoly(_PRODUCT_SPACE, terms)
    got = f.substitute({"x": g})
    tsp, gt = got.space, g.in_space(got.space)
    want = {}
    for key, d in _face_items(f):
        term = FracPoly.constant(tsp, d)
        for name, e in zip(f.space.names, key):
            if e:
                term = term * (gt ** int(e) if name == "x" else FracPoly.monomial(tsp, {name: e}))
        _merge_oracle(want, _face_items(term))
    _assert_merged(got, want)


# -- substitute against the term-by-term fold ------------------------------------------

_SUB_SOURCE = VarSpace([("w", 2), ("s", 3)], ["x", "y", "z", "u", "v"])
# s is not substituted and its bound rises from 3 to 6; u is not substituted
_SUB_TARGET = VarSpace([("s", 6)], ["t", "u", "y", "z"])


def _fold_power(image, e):
    """image ** e by public operations: any polynomial to a nonnegative
    integer power, else a one-term image, its coefficient raised by Cyclo
    ** when e is an integer and refused unless 1 when it is not."""
    if e >= 0 and Fraction(e).denominator == 1:
        return image ** int(e)
    ((key, c),) = _face_items(image)
    if Fraction(e).denominator != 1:
        assert c == 1
        c = Cyclo.one()
    else:
        c = c ** int(e)
    return FracPoly.monomial(image.space, {n: k * e for n, k in zip(image.space.names, key) if k}, c)


def _fold_substitute(f, mapping, space):
    """The term-by-term FracPoly fold: each term's coefficient times, in
    position order, the power of a substituted variable's image or the
    monomial of an unsubstituted variable, merged pairwise."""
    want = {}
    for key, d in _face_items(f):
        term = FracPoly.constant(space, d)
        for name, e in zip(f.space.names, key):
            if e:
                term = term * (_fold_power(mapping[name], e) if name in mapping else FracPoly.monomial(space, {name: e}))
        _merge_oracle(want, _face_items(term))
    return want


@st.composite
def _sub_keys(draw, y_low=0):
    """A face key of _SUB_SOURCE."""
    return (
        Fraction(draw(st.integers(0, 3)), 2),  # w: integral and fractional powers of a unit image
        Fraction(draw(st.integers(0, 3)), 3),  # s: rescaled into bound 6
        draw(st.integers(-2, 2)),  # x: negative powers of a non-unit image
        draw(st.integers(y_low, 2)),  # y: a negative power of a two-term image is refused
        draw(st.integers(0, 2)),
        draw(st.integers(-1, 1)),
        draw(st.integers(-2, 2)),  # v: negative powers of a unit image
    )


def _sub_mapping(draw):
    """Images of every kind over _SUB_TARGET: one-term images of w and v
    with coefficient a rational 1 (of order 1 or more), a one-term image of
    x with another coefficient, and multi-term images of y and z."""
    t, y, z = (FracPoly.variable(_SUB_TARGET, n) for n in ("t", "y", "z"))
    one = draw(st.sampled_from([Cyclo.one(), Cyclo.one(4), Cyclo.one(6)]))
    c = draw(st.sampled_from([Cyclo.rational(3, 4), root_of_unity(8, 3)]))
    return {
        "w": FracPoly.monomial(_SUB_TARGET, {"t": 2 * draw(st.integers(0, 2)), "u": 2 * draw(st.integers(-1, 1))}, one),
        "x": FracPoly.monomial(_SUB_TARGET, {"t": draw(st.integers(-1, 2)), "u": 1}, c),
        "y": y + t.scale(draw(_product_coeffs())),
        "z": z * z - t.scale(draw(_product_coeffs())) + draw(st.sampled_from([0, 1, Fraction(1, 3)])),
        "v": FracPoly.monomial(_SUB_TARGET, {"t": draw(st.integers(-1, 1)), "y": 1}, one),
    }


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_matches_the_term_by_term_fold(data):
    draw = data.draw
    # one term mixes every kind of image: a unit one at a fractional or
    # integral power (w) and at a negative one (v), a non-unit one-term
    # image (x) and a multi-term one (z)
    mixed = draw(_sub_keys())
    mixed = (
        Fraction(draw(st.integers(1, 3)), 2), mixed[1], draw(st.sampled_from([-2, -1, 1, 2])), mixed[3],
        draw(st.integers(1, 2)), mixed[5], draw(st.sampled_from([-2, -1, 1, 2])),
    )
    terms = {mixed: draw(_product_coeffs())}
    for _ in range(draw(st.integers(0, 6))):
        terms[draw(_sub_keys())] = draw(_product_coeffs())
    f = FracPoly(_SUB_SOURCE, terms)
    mapping = _sub_mapping(draw)
    got = f.substitute(mapping, target_space=_SUB_TARGET)
    assert got.space == _SUB_TARGET
    _assert_merged(got, _fold_substitute(f, mapping, _SUB_TARGET))


def _substituted(run):
    """The spaces and the (key, order, integer data) items of the
    polynomials run() returns, in map order, or the message of the
    ValueError it raises."""
    try:
        return [(g.space, [(k, c.order, c.integer_data) for k, c in g.terms.items()]) for g in run()]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_substitute_all_is_substitute_polynomial_by_polynomial(data):
    from circforge.polyring import substitute_all

    draw = data.draw
    # the polynomials draw their keys from one pool, so they meet the same
    # (position, entry) pairs; a negative y entry fails its polynomial
    pool = draw(st.lists(_sub_keys(y_low=draw(st.sampled_from([0, -2]))), min_size=1, max_size=5))
    polys = [
        FracPoly(_SUB_SOURCE, {key: draw(_product_coeffs()) for key in draw(st.lists(st.sampled_from(pool), max_size=4))})
        for _ in range(draw(st.integers(1, 4)))
    ]
    mapping = _sub_mapping(draw)
    target = draw(st.sampled_from([_SUB_TARGET, None]))
    want = _substituted(lambda: [f.substitute(mapping, target) for f in polys])
    assert _substituted(lambda: substitute_all(polys, mapping, target)) == want


def test_substitute_all_edge_cases():
    from circforge.polyring import substitute_all

    t = FracPoly.variable(_SUB_TARGET, "t")
    assert substitute_all([], {"x": t}) == []
    # the error of the first polynomial that fails (z's image has three
    # terms), not that of a later one
    y, z = (FracPoly.variable(_SUB_SOURCE, n) for n in ("y", "z"))
    bad = [y, FracPoly.monomial(_SUB_SOURCE, {"z": -1}), FracPoly.monomial(_SUB_SOURCE, {"y": -1})]
    with pytest.raises(ValueError, match="cannot raise a 3-term polynomial to power -1"):
        substitute_all(bad, {"y": t + 1, "z": t * t + t + 1})
    with pytest.raises(ValueError, match="polynomials of one space"):
        substitute_all([y, FracPoly.variable(_SUB_TARGET, "y")], {"y": t})


def test_substitute_refuses_what_the_target_cannot_hold():
    x, u = (FracPoly.variable(_SUB_SOURCE, n) for n in ("x", "u"))
    target = VarSpace([], ["t"])
    # an unsubstituted variable the target lacks
    with pytest.raises(ValueError, match="missing variable u"):
        (x * u).substitute({"x": FracPoly.variable(target, "t")}, target_space=target)
    # an unsubstituted exponent the target's bound cannot hold
    s3 = FracPoly.monomial(_SUB_SOURCE, {"s": Fraction(1, 3)})
    with pytest.raises(ValueError, match="1/3 on s is not legal"):
        s3.substitute({}, target_space=VarSpace([("s", 2)], ["w", "x", "y", "z", "u"]))
    # a negative free exponent made divisorial
    with pytest.raises(ValueError, match="negative exponent on divisorial variable u"):
        (x * FracPoly.monomial(_SUB_SOURCE, {"u": -1})).substitute(
            {"x": FracPoly.variable(target, "t")}, target_space=VarSpace([("u", 1)], ["t", "w", "s", "y", "z"])
        )
    # a unit one-term image whose power the target cannot hold
    w, v = (FracPoly.monomial(_SUB_SOURCE, {n: e}) for n, e in (("w", Fraction(1, 2)), ("v", -1)))
    with pytest.raises(ValueError, match="fractional exponent 1/2 on free variable t"):
        w.substitute({"w": FracPoly.variable(target, "t")}, target_space=target)
    s = VarSpace([("s", 2)], [])
    with pytest.raises(ValueError, match="negative exponent on divisorial variable s"):
        v.substitute({"v": FracPoly.variable(s, "s")}, target_space=s)


# -- one change-of-space rule, one monomial power, one invariance test ------------------


def test_in_space_refuses_a_negative_exponent_made_divisorial():
    from circforge.polyring import poly_sum

    src = VarSpace([], ["x", "y", "u"])
    f = FracPoly.monomial(src, {"x": -1, "y": 1})
    target = VarSpace([("x", 2)], ["y", "u"])
    with pytest.raises(ValueError, match="negative exponent on divisorial variable x"):
        f.in_space(target)
    with pytest.raises(ValueError, match="negative exponent on divisorial variable x"):
        poly_sum(target, [f])
    # u is in f's space but in no term of it, so a space without u takes f
    small = VarSpace([], ["y", "x"])
    want = FracPoly.monomial(small, {"x": -1, "y": 1})
    for got in (f.in_space(small), poly_sum(small, [f])):
        assert got.space == small and got.terms == want.terms
    # a variable that a term uses is still refused
    with pytest.raises(ValueError, match="missing variable u"):
        (f * FracPoly.variable(src, "u")).in_space(small)


def _power_oracle(p, n):
    """p ** n by square-and-multiply from 1 with public *, the accumulator
    on the left of every product."""
    acc, base = FracPoly.constant(p.space, 1), p
    while n:
        if n & 1:
            acc = acc * base
        base = base * base if n > 1 else base
        n >>= 1
    return acc


_POWER_SPACE = VarSpace([("w", 3)], ["x", "y"])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_power_matches_square_and_multiply(data):
    draw = data.draw
    # 3 stored at order 4, 3/4 at order 1, e_8^3, i, and -1 stored at order 2
    coeffs = [Cyclo.rational(3, 4), Cyclo.rational(Fraction(3, 4)), root_of_unity(8, 3), root_of_unity(4, 1), root_of_unity(2, 1)]
    c = draw(st.sampled_from(coeffs))
    exps = {"w": Fraction(draw(st.integers(0, 4)), 3), "x": draw(st.integers(-2, 2)), "y": draw(st.integers(0, 2))}
    p = FracPoly.monomial(_POWER_SPACE, exps, c)
    if draw(st.booleans()):  # a two-term p takes the polynomial steps
        p = p + FracPoly.monomial(_POWER_SPACE, {"x": draw(st.integers(0, 2)), "y": 1}, draw(_product_coeffs()))
    n = draw(st.integers(0, 6))
    _assert_same_product(p ** n, _power_oracle(p, n))


def _fixed_by_every_generator(f, action):
    """Whether every generator fixes every term of f.  apply_group refuses a
    term of fractional weight, which no generator fixes; every term is
    acted on, so a term with a variable the action does not cover raises."""
    fixed = True
    for key, coeff in f.sorted_terms():
        term = FracPoly(f.space, {key: coeff})
        try:
            fixed &= all(apply_group(term, action, action.group.generator(i)) == term for i in range(action.group.rank))
        except ValueError as exc:
            if "fractional weight" not in str(exc):
                raise
            fixed = False
    return fixed


_ACTED_SPACE = VarSpace([("w", 2), ("s", 3)], ["x", "y"])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_invariant_is_fixed_by_every_generator(data):
    from circforge import is_invariant

    draw = data.draw
    group = AbelianGroup(tuple(draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=2))))
    # the action may leave a variable out; w and s take fractional weights
    # on their fractional exponents
    names = draw(st.lists(st.sampled_from(_ACTED_SPACE.names), unique=True, min_size=3))
    action = DiagonalAction(group, {n: [draw(st.integers(0, p - 1)) for p in group.moduli] for n in names})
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        key = (
            Fraction(draw(st.integers(0, 4)), 2),
            Fraction(draw(st.integers(0, 6)), 3),
            draw(st.integers(-2, 3)),
            draw(st.integers(0, 3)),
        )
        # exponents times 12 give weights divisible by every modulus
        scale = draw(st.sampled_from([1, 12]))
        terms[tuple(e * scale for e in key)] = draw(_product_coeffs())
    f = FracPoly(_ACTED_SPACE, terms)
    try:
        want = _fixed_by_every_generator(f, action)
    except ValueError:
        with pytest.raises(ValueError, match="not covered by the action"):
            is_invariant(f, action)
        return
    assert is_invariant(f, action) == want
