import json
import math
import random
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circforge import (
    AbelianGroup,
    Ambiguous,
    Cyclo,
    DiagonalAction,
    FracPoly,
    NoSplit,
    Unsupported,
    VarSpace,
    apply_group,
    cpk_spec,
    jsonio,
    normal_form_poly,
    root_of_unity,
    split_newton,
    splitting,
    truncate,
    verify_split,
)
from circforge.polyring import poly_sum, product
from circforge.splitting import DEFAULT_BRANCH_CAP

from conftest import binomial_series

GOLDEN_OUTCOMES = Path(__file__).parent / "golden" / "split_outcomes.json"


@pytest.fixture
def example_poly():
    sp = VarSpace([("w", 2)], ["x", "z"])
    w, x, z = (FracPoly.variable(sp, n) for n in ("w", "x", "z"))
    return z * z + w ** 3 * (1 + x) * x * x


def test_split_example_against_binomial_series(example_poly):
    roots = split_newton(example_poly, "z", powers=2, degree_bound=12)
    assert len(roots) == 2
    assert verify_split(example_poly, 2, roots, 12)
    # oracle: +- E4 v^3 x (1+x)^(1/2); individual roots are pinned to the
    # degree where the residual order exceeds the bound
    sp = roots[0].space
    series = FracPoly.zero(sp)
    e4 = root_of_unity(4)
    for i, c in enumerate(binomial_series(Fraction(1, 2), 8)):
        series = series + FracPoly.monomial(sp, {"v": 3, "x": 1 + i}, e4 * Cyclo.rational(c))
    for r in roots:
        assert truncate(r, 8) == truncate(series, 8) or truncate(r, 8) == truncate(-series, 8)


def test_split_exact_difference_of_squares():
    sp = VarSpace([], ["v", "x", "z"])
    v, x, z = (FracPoly.variable(sp, n) for n in ("v", "x", "z"))
    f = z * z - v * v * x * x
    roots = split_newton(f, "z", powers=1, degree_bound=12)
    assert any(r == v * x for r in roots) and any(r == -(v * x) for r in roots)
    assert verify_split(f, 1, roots, 12)
    # permuted roots verify identically; a corrupted root fails
    assert verify_split(f, 1, list(reversed(roots)), 12)
    assert not verify_split(f, 1, [roots[0], roots[0]], 12)


def test_split_newton_checks_the_candidate_of_the_search(monkeypatch):
    # a search that returns a wrong candidate ends in NoSplit, never in a
    # returned factorization
    from circforge import splitting

    sp = VarSpace([], ["v", "x", "z"])
    v, x, z = (FracPoly.variable(sp, n) for n in ("v", "x", "z"))
    find = splitting._find_roots
    monkeypatch.setattr(splitting, "_find_roots", lambda coeffs, space, state: find(coeffs, space, state)[:1] * max(coeffs))
    with pytest.raises(NoSplit, match="failed verification"):
        split_newton(z * z - v * v * x * x, "z", powers=1, degree_bound=12)


def test_split_odd_order_obstruction():
    sp = VarSpace([("w", 2)], ["x", "z"])
    w, x, z = (FracPoly.variable(sp, n) for n in ("w", "x", "z"))
    f = z * z + w * x
    with pytest.raises(NoSplit) as err:
        split_newton(f, "z", powers=2, degree_bound=8)
    assert err.value.degree is not None


@pytest.mark.parametrize(
    "build",
    [
        lambda x, z: z**2 + x**13 * z + x**12,
        lambda x, z: z**2 + x**13 * z - x**12,
        lambda x, z: z**3 + x**13 * z + x**6,
    ],
    ids=["z2+x13z+x12", "z2+x13z-x12", "z3+x13z+x6"],
)
def test_coefficient_truncated_to_zero_splits(build):
    # the z-coefficient x^13 lies wholly past the bound 12; it is dropped,
    # not kept as a coefficient without an order
    sp = VarSpace([], ["x", "z"])
    x, z = FracPoly.variable(sp, "x"), FracPoly.variable(sp, "z")
    f = build(x, z)
    roots = split_newton(f, "z", degree_bound=12)
    assert verify_split(f, 1, roots, 12)
    if f == z**2 + x**13 * z + x**12:
        i = root_of_unity(4)
        assert roots == [(x**6).scale(i), (x**6).scale(-i)]


_I = root_of_unity(4)


@pytest.mark.parametrize(
    ("roots", "match"),
    [
        pytest.param(lambda x, y: [x, 2 * x, 3 * x], "edge equation of extent 3", id="x,2x,3x"),
        pytest.param(lambda x, y: [x, y, x + y], "edge equation of extent 3", id="x,y,x+y"),
        pytest.param(lambda x, y: [x + y, x - y, 2 * x + y], "edge equation of extent 3", id="x+y,x-y,2x+y"),
        pytest.param(lambda x, y: [x, x + y, y + x * x], "edge equation of extent 3", id="x,x+y,y+x^2"),
        # (z + e3 x)(z + e4 x): the discriminant (e3 - e4)^2 x^2 is a square in Q(e12)
        pytest.param(
            lambda x, y: [x.scale(-root_of_unity(3)), x.scale(-_I)],
            "no 2-th root of the coefficient",
            id="-e3x,-e4x",
        ),
        # z^4 + 4x^4: -4 = (1 + i)^4
        pytest.param(
            lambda x, y: [x.scale(s * (1 + t * _I)) for s in (1, -1) for t in (1, -1)],
            "no 4-th root of the coefficient -4",
            id="z^4+4x^4",
        ),
    ],
)
@pytest.mark.parametrize("divisorial", [False, True], ids=["free", "divisorial"])
def test_unsolved_edge_is_unsupported_not_nosplit(roots, match, divisorial):
    # Each product splits, but an edge equation is beyond the edge solver: a
    # cubic with interior terms, or a cyclotomic root that cyclo_nth_root
    # does not find.  Neither is a proof of "no split".
    sp = VarSpace([("x", 1)], ["y", "z"]) if divisorial else VarSpace([], ["x", "y", "z"])
    x, y, z = (FracPoly.variable(sp, n) for n in ("x", "y", "z"))
    f = math.prod(z - r for r in roots(x, y))
    with pytest.raises(Unsupported, match=match):
        split_newton(f, "z")


_MONOMIAL_ROOTS = st.lists(
    st.tuples(
        st.one_of(
            st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool).map(Cyclo.rational),
            st.sampled_from([root_of_unity(3), root_of_unity(4)]),
        ),
        st.tuples(*(st.integers(0, 2) for _ in "vxy")).filter(any),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(_MONOMIAL_ROOTS)
def test_monomial_root_products_never_nosplit(drawn):
    # prod(z + c_i * m_i) splits, so the search may give up (Unsupported,
    # Ambiguous) but never claim that it does not
    sp = VarSpace([], ["v", "x", "y", "z"])
    roots = [FracPoly.monomial(sp, dict(zip("vxy", exps)), c) for c, exps in drawn]
    f = math.prod(FracPoly.variable(sp, "z") + b for b in roots)
    bound = int(sum(b.total_degree() for b in roots)) + 1
    try:
        found = split_newton(f, "z", degree_bound=bound)
    except (Unsupported, Ambiguous):
        return
    for b in roots:
        hit = next((i for i, r in enumerate(found) if r == b), None)
        assert hit is not None, f"missing root {b}"
        found.pop(hit)
    assert not found


def _outcome(f, bound):
    """The roots split_newton returns, or the class and message it raises."""
    try:
        return split_newton(f, "z", degree_bound=bound)
    except (NoSplit, Unsupported, Ambiguous) as err:
        return type(err), str(err)


_PAST_BOUND_TERMS = st.lists(
    st.tuples(
        st.one_of(st.integers(-3, 3).filter(bool).map(Cyclo.rational), st.sampled_from([root_of_unity(3), root_of_unity(4)])),
        st.integers(0, 3),
        st.tuples(*(st.integers(0, 2) for _ in "vxy")),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(_MONOMIAL_ROOTS, _PAST_BOUND_TERMS)
def test_terms_past_the_bound_do_not_move_the_outcome(drawn, extra):
    # prod(z + c_i * m_i) plus terms c * v^(bound+1+a) x^b y^c * z^m with
    # m < k: each added term lies past the degree bound, so the roots (as
    # values, in order) or the exception and its message stay the same
    sp = VarSpace([], ["v", "x", "y", "z"])
    roots = [FracPoly.monomial(sp, dict(zip("vxy", exps)), c) for c, exps in drawn]
    z = FracPoly.variable(sp, "z")
    f = math.prod(z + b for b in roots)
    bound = int(sum(b.total_degree() for b in roots)) + 1
    tail = [
        FracPoly.monomial(sp, {"v": bound + 1 + a, "x": b, "y": c, "z": m % len(roots)}, coeff)
        for coeff, m, (a, b, c) in extra
    ]
    want, got = _outcome(f, bound), _outcome(sum(tail, f), bound)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, list) and len(got) == len(want)
        assert all(r == s for r, s in zip(got, want))


_LINEAR_TERMS = st.lists(
    st.tuples(
        st.one_of(st.integers(-3, 3).filter(bool).map(Cyclo.rational), st.sampled_from([root_of_unity(3), root_of_unity(4)])),
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
    ),
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(_LINEAR_TERMS, st.integers(1, 8), st.integers(0, 6))
def test_a_linear_root_is_its_coefficient_truncated(drawn, d, cap):
    # z + c has the one root truncate(c, d), in the search's space (which
    # holds the edge unknown $Y) or, when c truncates to zero, in f's; each
    # degree part of it is one branch of the search
    sp = VarSpace([], ["x", "y", "z"])
    c = FracPoly.zero(sp)
    for coeff, (i, j) in drawn:
        c = c + FracPoly.monomial(sp, {"x": i, "y": j}, coeff)
    want = truncate(c, d)
    try:
        (root,) = split_newton(FracPoly.variable(sp, "z") + c, "z", degree_bound=d, branch_cap=cap)
    except Ambiguous:
        assert len(want.homogeneous_parts()) > cap
        return
    assert len(want.homogeneous_parts()) <= cap
    assert root.space == (sp if want.is_zero() else VarSpace([], ["x", "y", "z", "$Y"]))
    assert jsonio.poly_to_json(root) == jsonio.poly_to_json(want.in_space(root.space))


def test_a_linear_root_charges_a_branch_per_degree_part():
    sp = VarSpace([], ["x", "y", "z"])
    x, y, z = (FracPoly.variable(sp, n) for n in "xyz")
    f = z + x + x * y + y ** 3 + x ** 9
    with pytest.raises(Ambiguous, match="branch cap 2 exceeded"):
        split_newton(f, "z", degree_bound=8, branch_cap=2)
    assert split_newton(f, "z", degree_bound=8, branch_cap=3) == [x + x * y + y ** 3]
    # a Laurent part closes no branch: at degree 0 before any charge, at
    # degree 2 (x^3/y has no polynomial quotient) after the part x
    inv = FracPoly.monomial(sp, {"y": -1})
    with pytest.raises(NoSplit, match="obstruction at degree 0"):
        split_newton(z + x * inv + x, "z", branch_cap=0)
    with pytest.raises(NoSplit, match="obstruction at degree 2"):
        split_newton(z + x + x ** 3 * inv, "z", branch_cap=1)
    with pytest.raises(Ambiguous):
        split_newton(z + x + x ** 3 * inv, "z", branch_cap=0)
    # the last of two roots: z^2 - x^2 charges one branch per root
    with pytest.raises(Ambiguous):
        split_newton(z * z - x * x, "z", branch_cap=1)
    assert len(split_newton(z * z - x * x, "z", branch_cap=2)) == 2
    # a first root lifted along a linear edge whose Y^1 part is one term (x):
    # three parts, three branches, and one for the last root x
    g = (z + y * y + x * y * y + y ** 4) * (z + x)
    with pytest.raises(Ambiguous, match="branch cap 3 exceeded"):
        split_newton(g, "z", degree_bound=8, branch_cap=3)
    assert split_newton(g, "z", degree_bound=8, branch_cap=4) == [y * y + x * y * y + y ** 4, x]


def _reference_root_candidates(a, root, delta_min, state):
    """The search without the linear chain, on FracPolys: the node's term
    maps a, by the power of Y, become {m: FracPoly} and its root map b."""
    psi = {m: FracPoly._raw(state.space, dict(t)) for m, t in enumerate(a) if t}
    yield from _reference_search(psi, FracPoly._raw(state.space, dict(root)), delta_min, state)


def _reference_search(psi, b, delta_min, state):
    """Every node, a linear one too, is a generic node, with the Horner
    shift on FracPolys."""
    c0 = psi.get(0)
    if c0 is None:
        yield b
        return
    points = sorted((m, c.order()) for m, c in psi.items())
    for (ma, oa), (mb, ob) in splitting._lower_hull_edges(points):
        slope = Fraction(oa - ob, mb - ma)
        if slope.denominator != 1 or slope < delta_min:
            continue
        delta = int(slope)
        terms = {}
        for m in range(ma, mb + 1):
            cm = psi.get(m)
            # the terms of cm of this degree, in map order
            part = cm.homogeneous_parts().get(oa - delta * (m - ma)) if cm is not None else None
            if part is not None:
                terms[m - ma] = part
        for h in splitting._solve_edge(terms, delta, state):
            state.charge_branch()
            yield from _reference_search(_reference_taylor_shift(psi, h, _reference_bound(state)), b + h, delta + 1, state)
    state.failed_at = max(state.failed_at, c0.order())


def _reference_bound(state):
    """The face-value degree bound of the search."""
    return Fraction(state.bound[0], state.space.lcm)


def _reference_taylor_shift(psi, h, bound):
    n = max(psi)
    a = [psi.get(m) or FracPoly.zero(h.space) for m in range(n + 1)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] = a[j] + product([h, a[j + 1]], degree=bound)
    return {m: c for m, c in enumerate(a) if not c.is_zero()}


def _reference_deflate(coeffs, b, state):
    """The quotient's coefficient term maps, formed on FracPolys with a
    truncated product and a truncation."""
    d = _reference_bound(state)
    polys = {m: FracPoly._raw(state.space, t) for m, t in coeffs.items()}
    k = max(polys)
    zero = FracPoly.zero(b.space)
    q = {k - 1: polys[k]}
    for m in range(k - 1, 0, -1):
        q[m - 1] = truncate(polys.get(m, zero) - product([b, q[m]], degree=d), d)
    return {m: c.terms for m, c in q.items()}


def _search_record(f, bound, powers=1):
    """The outcome at the default branch cap (the roots as JSON, map order
    and Cyclo orders included, or the exception's class and message), and
    the least branch cap at which the search ends without Ambiguous."""

    def outcome(cap):
        try:
            roots = split_newton(f, "z", powers=powers, degree_bound=bound, branch_cap=cap)
        except (NoSplit, Unsupported, Ambiguous) as err:
            return type(err), str(err)
        return [jsonio.poly_to_json(r) for r in roots]

    # a search capped below its branch count is the same search up to the
    # charge past the cap, so the outcome is Ambiguous exactly below the count
    lo, hi = 0, DEFAULT_BRANCH_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        if outcome(mid) == (Ambiguous, f"branch cap {mid} exceeded"):
            lo = mid + 1
        else:
            hi = mid
    return outcome(None), lo


def _against_the_reference(f, bound, powers=1):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(splitting, "_root_candidates", _reference_root_candidates)
        mp.setattr(splitting, "_deflate", _reference_deflate)
        want = _search_record(f, bound, powers)
    assert _search_record(f, bound, powers) == want


def _chain_cases():
    sp = VarSpace([], ["x", "y", "z"])
    x, y, z = (FracPoly.variable(sp, n) for n in "xyz")
    inv = FracPoly.monomial(sp, {"y": -1})
    return [
        # the chain lifts y^2 + x y^2 + x^2 y + y^4 whole, then x is the last root
        ("whole", (z + y * y + x * y * y + x * x * y + y ** 4) * (z + x), 8),
        # y^2 + x^4/y: below the first part, x^4/y has no polynomial quotient
        ("laurent-below", (z + y * y + x ** 4 * inv) * (z + x), 8),
        # x^3/y ends the chain at its first node; the edge of y^2 follows
        ("laurent-first", (z + x ** 3 * inv + x ** 4) * (z + y * y) * (z + x), 8),
        # the chain's root is found, z^2 - x^3 has none, and the search
        # resumes the chain, which then records its nodes' orders
        ("resumed", (z + y * y + x ** 3) * (z * z - x ** 3), 8),
        ("resumed-at-a-leaf", (z + x + x * x) * (z * z - y ** 3), 6),
        # one root, which the chain lifts from the root node: x/y ends it
        # there, x^3/y below the part x; x^9 lies past the bound, and x^13
        # leaves c_0 truncated to zero, the zero root
        ("last-laurent-first", z + x * inv + x, 8),
        ("last-laurent-below", z + x + x ** 3 * inv, 8),
        ("last-past-the-bound", z + x + x * y + y ** 3 + x ** 9, 8),
        ("last-truncated-to-zero", z + x ** 13, 12),
    ]


@pytest.mark.parametrize(("f", "bound"), [c[1:] for c in _chain_cases()], ids=[c[0] for c in _chain_cases()])
def test_the_linear_chain_ends_as_the_recursive_search_does(f, bound):
    # each way the chain ends: its root found, a Laurent part below or at
    # its first node, and a root found and then given up; for the last
    # root too
    _against_the_reference(f, bound)


def test_the_linear_chain_runs_on_example_basic():
    sp = VarSpace([("w", 2)], ["x", "z"])
    w, x, z = (FracPoly.variable(sp, n) for n in "wxz")
    f = z * z + w ** 3 * (1 + x) * x * x
    for bound in (12, 30):
        _against_the_reference(f, bound, powers=2)


_CHAIN_COEFFS = st.one_of(
    st.integers(-3, 3).filter(bool).map(Cyclo.rational), st.sampled_from([root_of_unity(3), root_of_unity(4)])
)
# (twice the exponent of w, exponent of x, exponent of y): w^(1/2) is a
# fractional part, y^-1 a Laurent one
_CHAIN_MONOMIALS = st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(-1, 2))
_CHAIN_ROOTS = st.lists(
    st.tuples(_CHAIN_COEFFS, _CHAIN_MONOMIALS.filter(any), st.lists(st.tuples(_CHAIN_COEFFS, _CHAIN_MONOMIALS), max_size=5)),
    min_size=2,
    max_size=3,
)


@settings(max_examples=100, deadline=None)
@given(_CHAIN_ROOTS, st.integers(2, 8))
def test_the_linear_chain_matches_the_recursive_search(drawn, bound):
    # prod(z + b_i), each b_i a one-term lowest part c*m plus terms c'*m*m'
    # of higher degree, some past the bound: the roots, NoSplit's degree
    # and message, and the least branch cap are those of the search
    # without the chain
    sp = VarSpace([("w", 2)], ["x", "y", "z"])

    def term(coeff, exps):
        return FracPoly.monomial(sp, {"w": Fraction(exps[0], 2), "x": exps[1], "y": exps[2]}, coeff)

    roots = []
    for coeff, lowest, rest in drawn:
        low = term(coeff, lowest)
        higher = (term(c, tuple(map(add, lowest, exps))) for c, exps in rest)
        roots.append(poly_sum(sp, [low] + [t for t in higher if t.order() > low.order()]))
    f = math.prod(FracPoly.variable(sp, "z") + b for b in roots)
    # split_newton refuses a product whose roots y and 1/y leave a constant
    # in a non-leading coefficient
    assume(all(c.constant_coefficient().is_zero() for m, c in f.coefficients_in("z").items() if m < len(roots)))
    _against_the_reference(f, bound, powers=2)


def test_split_cp3_exact():
    p3 = normal_form_poly(cpk_spec(3))
    roots = split_newton(p3, "z", powers=3, degree_bound=10)
    assert len(roots) == 3
    assert verify_split(p3, 3, roots, 10)
    # roots are exactly eps^j v y + eps^{2j} v^2 x
    sp = roots[0].space
    v, y, x = (FracPoly.variable(sp, n) for n in ("v", "y", "x"))
    for j in range(3):
        expected = (v * y).scale(root_of_unity(3, j)) + (v * v * x).scale(root_of_unity(3, 2 * j))
        assert any(r == expected for r in roots)


def test_root_system_rotation_stable():
    # successful splits are stable under v -> eps v, as multisets
    for k in (2, 3):
        poly = normal_form_poly(cpk_spec(k))
        roots = split_newton(poly, "z", powers=k, degree_bound=8)
        sp = roots[0].space
        act = DiagonalAction(AbelianGroup((k,)), {n: ((1 if n == "v" else 0),) for n in sp.names})
        g = AbelianGroup((k,)).element((1,))
        rotated = [apply_group(r, act, g) for r in roots]
        for r in rotated:
            assert any(r == s for s in roots)


def test_split_monic_validation():
    sp = VarSpace([], ["x", "z"])
    x, z = FracPoly.variable(sp, "x"), FracPoly.variable(sp, "z")
    with pytest.raises(ValueError):
        split_newton(x * z * z, "z", powers=1)
    with pytest.raises(ValueError):
        split_newton(z * z + 1, "z", powers=1)


def test_split_refuses_powers_below_one_and_a_negative_cap():
    sp = VarSpace([], ["x", "z"])
    x, z = FracPoly.variable(sp, "x"), FracPoly.variable(sp, "z")
    f = z * z - x * x
    for powers in (0, -2, {"w": 0}):
        with pytest.raises(ValueError, match="^powers must be at least 1"):
            split_newton(f, "z", powers=powers)
        with pytest.raises(ValueError, match="^powers must be at least 1"):
            verify_split(f, powers, [x, -x])
    with pytest.raises(ValueError, match="^branch_cap must be at least 0, got -1$"):
        split_newton(f, "z", branch_cap=-1)
    # a cap of 0 is a budget, not an error
    with pytest.raises(Ambiguous):
        split_newton(f, "z", branch_cap=0)


def test_split_refuses_powers_without_a_divisorial_variable():
    sp = VarSpace([("w", 2)], ["x", "z"])
    w, x, z = (FracPoly.variable(sp, n) for n in ("w", "x", "z"))
    f = z * z - w * x * x
    match = "^powers gives no power for the divisorial variable w$"
    with pytest.raises(ValueError, match=match):
        split_newton(f, "z", powers={"u": 2})
    with pytest.raises(ValueError, match=match):
        verify_split(f, {"u": 2}, [x, -x])


def test_branch_cap_ambiguous():
    from circforge import Ambiguous

    p3 = normal_form_poly(cpk_spec(3))
    with pytest.raises(Ambiguous):
        split_newton(p3, "z", powers=3, degree_bound=10, branch_cap=1)
    assert len(split_newton(p3, "z", powers=3, degree_bound=10, branch_cap=64)) == 3


def test_split_repeated_roots():
    sp = VarSpace([], ["v", "x", "z"])
    v, x, z = (FracPoly.variable(sp, n) for n in ("v", "x", "z"))
    f = (z + v * x) ** 2
    roots = split_newton(f, "z", powers=1, degree_bound=10)
    assert len(roots) == 2
    assert all(r == v * x for r in roots)
    g = (z + v * x) ** 2 * (z - v * v) 
    roots = split_newton(g, "z", powers=1, degree_bound=10)
    assert sum(1 for r in roots if r == v * x) == 2
    assert sum(1 for r in roots if r == -(v * v)) == 1


def test_split_per_divisor_powers():
    sp = VarSpace([("w1", 2), ("w2", 3)], ["x", "y", "z"])
    w1, w2, x, y, z = (FracPoly.variable(sp, n) for n in ("w1", "w2", "x", "y", "z"))
    f = z * z - w1 * w2 ** 2 * x * x
    roots = split_newton(f, "z", powers={"w1": 2, "w2": 3}, degree_bound=14)
    assert verify_split(f, {"w1": 2, "w2": 3}, roots, 14)
    vs = roots[0].space
    v1, v2, xv = (FracPoly.variable(vs, n) for n in ("v1", "v2", "x"))
    expected = v1 * v2 ** 3 * xv
    assert any(r == expected for r in roots) and any(r == -expected for r in roots)


def test_split_products_sharing_initial_degree():
    # several factors whose roots share the same initial degree land on one
    # polygon edge; the edge solver peels them through exponent-gcd
    # recursion, square-free reduction, and monomial root candidates
    sp = VarSpace([], ["v", "x", "y", "z"])
    v, x, y, z = (FracPoly.variable(sp, n) for n in ("v", "x", "y", "z"))
    h = (z * z - v * v * x * x) * (z * z - v * v * y * y)
    roots = split_newton(h, "z", powers=1, degree_bound=10)
    assert verify_split(h, 1, roots, 10)
    assert sorted(str(r) for r in roots) == sorted([str(v * x), str(-(v * x)), str(v * y), str(-(v * y))])
    t = (z * z - v * v * x * x) * (z + v * y) ** 2
    roots = split_newton(t, "z", powers=1, degree_bound=12)
    assert verify_split(t, 1, roots, 12)
    assert sum(1 for r in roots if r == v * y) == 2


def test_split_product_circulant_with_series_tails():
    sp = VarSpace([("w", 2)], ["x1", "x2", "z"])
    w, x1, x2, z = (FracPoly.variable(sp, n) for n in ("w", "x1", "x2", "z"))
    f = (z * z - w * x1 * x1) * (z * z - w * (1 + x1) * x2 * x2)
    roots = split_newton(f, "z", powers=2, degree_bound=10)
    assert verify_split(f, 2, roots, 10)
    vs = roots[0].space
    v, x1v, x2v = (FracPoly.variable(vs, n) for n in ("v", "x1", "x2"))
    assert any(r == v * x1v for r in roots) and any(r == -(v * x1v) for r in roots)
    # the other pair carries the binomial series of (1 + x1)^(1/2)
    tail = next(r for r in roots if truncate(r, 2) == v * x2v)
    assert truncate(tail, 3) == v * x2v + (v * x2v * x1v).scale(Fraction(1, 2))


def test_split_random_monomial_root_roundtrip():
    # random products of linear factors with monomial roots reconstruct
    # exactly once the degree bound exceeds the total degree (at most two
    # roots per monomial direction, distinct scalars within a direction)
    import random

    from circforge import Cyclo, root_of_unity

    rng = random.Random(424242)
    sp = VarSpace([], ["v", "x", "y", "z"])
    zvar = FracPoly.variable(sp, "z")
    scalars = [Cyclo.rational(1), Cyclo.rational(-1), Cyclo.rational(2), root_of_unity(4), -root_of_unity(3)]
    for _trial in range(25):
        k = rng.randint(1, 4)
        roots = []
        used = {}
        while len(roots) < k:
            mono = {"v": rng.randint(1, 2), "x": rng.randint(0, 2), "y": rng.randint(0, 1)}
            key = tuple(sorted(mono.items()))
            c = scalars[rng.randrange(len(scalars))]
            if used.get(key, 0) >= 2:
                continue
            prev = used.get((key, "vals"), [])
            if any(c == p for p in prev):
                continue
            used[key] = used.get(key, 0) + 1
            used[(key, "vals")] = prev + [c]
            roots.append(FracPoly.monomial(sp, mono, c))
        f = FracPoly.constant(sp, 1)
        for b in roots:
            f = f * (zvar + b)
        bound = int(sum(b.total_degree() for b in roots)) + 1
        found = split_newton(f, "z", powers=1, degree_bound=bound)
        assert verify_split(f, 1, found, bound)
        remaining = list(found)
        for b in roots:
            hit = next((i for i, r in enumerate(remaining) if r == b), None)
            assert hit is not None, f"missing root {b}"
            remaining.pop(hit)
        assert not remaining


def _golden_cases():
    """(name, f, powers, degree bound) for the recorded split outcomes: every
    arm of the edge solver, its obstructions, and seeded random products."""
    sp = VarSpace([], ["v", "x", "y", "z"])
    v, x, y, z = (FracPoly.variable(sp, n) for n in ("v", "x", "y", "z"))
    e3, e4 = root_of_unity(3), root_of_unity(4)
    cases = [
        # repeated roots: the square-free path
        ("repeated-square", (z + v * x) ** 2, 1, 10),
        ("repeated-square-times-simple", (z + v * x) ** 2 * (z - v * v), 1, 10),
        ("repeated-cube", (z - v * x) ** 3, 1, 10),
        ("repeated-pair-of-squares", (z - v * x) ** 2 * (z + v * y) ** 2, 1, 10),
        ("repeated-e3", (z + (v * x).scale(e3)) ** 2 * (z - v * y), 1, 10),
        # roots sharing an initial degree: exponent gcd and monomial candidates
        ("shared-two-binomials", (z * z - v * v * x * x) * (z * z - v * v * y * y), 1, 10),
        ("shared-binomial-and-square", (z * z - v * v * x * x) * (z + v * y) ** 2, 1, 12),
        ("shared-three-monomials", (z - v * x) * (z - v * y) * (z - x * y), 1, 10),
        ("shared-cube-binomial", z ** 3 - v ** 3 * x ** 3, 1, 10),
        ("shared-e4-pair", (z - (v * x).scale(e4)) * (z + v * y) * (z - x * y.scale(2)), 1, 10),
        ("shared-sixth-binomial", z ** 6 - v ** 6 * x ** 6, 1, 8),
        ("shared-scalar-cube-roots", (z ** 3 - v ** 3 * x ** 3) * (z - 2 * v * y), 1, 10),
        ("shared-non-square-subroots", (z * z - v * x) * (z * z - v * y), 1, 10),
        ("binomial-non-square-form", z * z - v * v * x * x - v * v * y * y, 1, 10),
        ("shared-quartic-gcd", (z * z - v * v * x * x) * (z * z + 4 * v * v * y * y), 1, 10),
    ]
    cases += [(f"cp{k}", normal_form_poly(cpk_spec(k)), k, bound) for k, bound in ((2, 10), (3, 10), (4, 8))]
    probes = [
        ("x,2x,3x", lambda x, y: [x, 2 * x, 3 * x]),
        ("x,y,x+y", lambda x, y: [x, y, x + y]),
        ("x+y,x-y,2x+y", lambda x, y: [x + y, x - y, 2 * x + y]),
        ("x,x+y,y+x^2", lambda x, y: [x, x + y, y + x * x]),
    ]
    for label, space in (("free", VarSpace([], ["x", "y", "z"])), ("divisorial", VarSpace([("x", 1)], ["y", "z"]))):
        px, py, pz = (FracPoly.variable(space, n) for n in ("x", "y", "z"))
        cases += [(f"extent3-{name}-{label}", math.prod(pz - r for r in roots(px, py)), 1, 12) for name, roots in probes]
    sx = VarSpace([], ["x", "z"])
    qx, qz = FracPoly.variable(sx, "x"), FracPoly.variable(sx, "z")
    cases.append(("e3-e4-quadratic", (qz + qx.scale(e3)) * (qz + qx.scale(e4)), 1, 12))
    cases.append(("z4-plus-4x4", qz ** 4 + 4 * qx ** 4, 1, 12))
    sw = VarSpace([("w", 2)], ["x", "z"])
    w, wx, wz = (FracPoly.variable(sw, n) for n in ("w", "x", "z"))
    cases.append(("odd-order-obstruction", wz * wz + w * wx, 2, 8))
    cases.append(("example-basic-series", wz * wz + w ** 3 * (1 + wx) * wx * wx, 2, 12))
    rng = random.Random(8080)
    scalars = [Cyclo.rational(1), Cyclo.rational(-1), Cyclo.rational(2), Cyclo.rational(Fraction(-1, 2)), e3, -e3, e4, e3 * e3]
    for i in range(80):
        exps = [{"v": rng.randint(0, 2), "x": rng.randint(0, 2), "y": rng.randint(1, 2)} for _ in range(rng.randint(2, 4))]
        roots = [FracPoly.monomial(sp, e, rng.choice(scalars)) for e in exps]
        bound = int(sum(b.total_degree() for b in roots)) + 1
        cases.append((f"random-{i:02d}", math.prod(z + b for b in roots), 1, bound))
    return cases


def _split_outcomes() -> dict:
    """{case: {"roots": [poly_to_json, ...]}} or {case: {"error", "message"}}."""
    out = {}
    for name, f, powers, bound in _golden_cases():
        try:
            roots = split_newton(f, "z", powers=powers, degree_bound=bound)
        except (NoSplit, Unsupported, Ambiguous) as err:
            out[name] = {"error": type(err).__name__, "message": str(err)}
        else:
            out[name] = {"roots": [jsonio.poly_to_json(r) for r in roots]}
    return out


def test_split_outcomes_golden():
    # every ordered root list (as JSON) and every exception message; a change
    # that moves a row says which, and why, in CHANGES.md
    want = json.loads(GOLDEN_OUTCOMES.read_text())
    got = _split_outcomes()
    assert list(got) == list(want)
    assert [name for name in got if got[name] != want[name]] == []


if __name__ == "__main__":
    # python tests/test_splitting.py > tests/golden/split_outcomes.json
    rows = [json.dumps(name) + ": " + json.dumps(row, sort_keys=True) for name, row in _split_outcomes().items()]
    print("{\n" + ",\n".join(rows) + "\n}")
