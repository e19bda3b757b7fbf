import math
from fractions import Fraction

import pytest

from circforge import (
    AbelianGroup,
    Cyclo,
    DiagonalAction,
    FracPoly,
    NoSplit,
    Unsupported,
    VarSpace,
    apply_group,
    cpk_spec,
    normal_form_poly,
    root_of_unity,
    split_newton,
    substitute_power,
    truncate,
    verify_split,
)

from conftest import binomial_series


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


def test_split_odd_order_obstruction():
    sp = VarSpace([("w", 2)], ["x", "z"])
    w, x, z = (FracPoly.variable(sp, n) for n in ("w", "x", "z"))
    f = z * z + w * x
    with pytest.raises(NoSplit) as err:
        split_newton(f, "z", powers=2, degree_bound=8)
    assert err.value.degree is not None


@pytest.mark.parametrize(
    "roots",
    [
        lambda x, y: [x, 2 * x, 3 * x],
        lambda x, y: [x, y, x + y],
        lambda x, y: [x + y, x - y, 2 * x + y],
        lambda x, y: [x, x + y, y + x * x],
    ],
    ids=["x,2x,3x", "x,y,x+y", "x+y,x-y,2x+y", "x,x+y,y+x^2"],
)
@pytest.mark.parametrize("divisorial", [False, True], ids=["free", "divisorial"])
def test_unsolved_edge_is_unsupported_not_nosplit(roots, divisorial):
    # Each product splits, but its first edge equation is a cubic with interior
    # terms, which the edge solver cannot decide: not a proof of "no split".
    sp = VarSpace([("x", 1)], ["y", "z"]) if divisorial else VarSpace([], ["x", "y", "z"])
    x, y, z = (FracPoly.variable(sp, n) for n in ("x", "y", "z"))
    f = math.prod(z - r for r in roots(x, y))
    with pytest.raises(Unsupported, match="edge equation of extent 3"):
        split_newton(f, "z")


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
