import hashlib
import json
import math
import random
from argparse import Namespace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circforge import (
    AbelianGroup,
    Cyclo,
    DegenerateInput,
    DiagonalAction,
    FracPoly,
    GroupElement,
    InvariantNCInput,
    SplitsInvariantly,
    VarSpace,
    adapted_coordinates,
    apply_group,
    invariant_nc_normal_form,
    nc_ideal_reduction,
    root_of_unity,
    semi_invariant_generators,
    semi_invariant_weight,
)
from circforge import jsonio, polyring, quotient_nc
from circforge.cli import cmd_ncquot_normalize
from circforge.polyring import linear_part, linear_rank, match_scalar
from circforge.smith import rank


@pytest.fixture
def mu2():
    sp = VarSpace([], ["y0", "y1"])
    act = DiagonalAction(AbelianGroup((2,)), {"y0": (0,), "y1": (1,)})
    return sp, act


def test_semi_invariant_generators_bucketing(mu2):
    sp, act = mu2
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    out = semi_invariant_generators([y0 + y1], act)
    assert len(out) == 2
    assert any(g == y0 for g in out) and any(g == y1 for g in out)
    # already semi-invariant inputs come back unchanged
    assert semi_invariant_generators([y1], act) == [y1]
    # (y0+y1)^2 buckets into y0^2+y1^2 and 2 y0 y1
    out2 = semi_invariant_generators([(y0 + y1) ** 2], act)
    assert any(g == y0 * y0 + y1 * y1 for g in out2)
    assert any(g == (y0 * y1).scale(2) for g in out2)


def test_semi_invariant_generators_weights(mu2):
    sp, act = mu2
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    for g in semi_invariant_generators([(y0 + y1) ** 3, y0 * y1], act):
        assert semi_invariant_weight(g, act) is not None


def test_membership_detection(mu2):
    sp, act = mu2
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    with pytest.raises(ValueError):
        semi_invariant_generators([y0 + y1], act, membership_factors=[y0 + y1])
    out = semi_invariant_generators([y0 + y1, y0 - y1], act, membership_factors=[y0 + y1, y0 - y1])
    assert len(out) == 2


def test_nc_ideal_reduction():
    sp = VarSpace([], ["x", "y", "u"])
    x, y, u = (FracPoly.variable(sp, n) for n in ("x", "y", "u"))
    factors = [x + y * y, y]
    assert nc_ideal_reduction(x + y * y, factors).is_zero()
    assert nc_ideal_reduction((x + y * y) * u + y * x, factors).is_zero()
    assert nc_ideal_reduction(x + y, factors).is_zero()  # (x + y^2, y) = (x, y)
    assert not nc_ideal_reduction(u, factors).is_zero()
    assert not nc_ideal_reduction(x + u, factors).is_zero()
    assert not nc_ideal_reduction(FracPoly.constant(sp, 1) + x, factors).is_zero()
    # no pivot occurs in the substitution x = y^7, so the image is exact;
    # degree 6, the truncation degree of an f of degree 1, dropped y^7
    assert nc_ideal_reduction(x, [x - y**7]) == y**7


def _random_poly(rng, sp, names, min_degree, max_degree, max_terms):
    """Up to max_terms random monomials in names with rational coefficients."""
    f = FracPoly.zero(sp)
    for _ in range(rng.randint(1, max_terms)):
        exps = dict.fromkeys(names, 0)
        for _ in range(rng.randint(min_degree, max_degree)):
            exps[rng.choice(names)] += 1
        f = f + FracPoly.monomial(sp, exps, Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3)))
    return f


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_nc_ideal_reduction_of_solved_systems_is_exact(rng):
    # in x_i - h_i(y) every x_i is a pivot and no pivot occurs in a
    # substitution, so membership is decided exactly, past degree 6 too
    xs = [f"x{i}" for i in range(rng.randint(1, 3))]
    sp = VarSpace([], xs + ["y0", "y1"])
    hs = [_random_poly(rng, sp, ["y0", "y1"], 1, 9, 3) for _ in xs]
    factors = [FracPoly.variable(sp, x) - h for x, h in zip(xs, hs)]
    combo = sum((_random_poly(rng, sp, sp.names, 0, 2, 2) * f for f in factors), FracPoly.zero(sp))
    assert nc_ideal_reduction(combo, factors).is_zero()
    for x, h in zip(xs, hs):
        assert nc_ideal_reduction(FracPoly.variable(sp, x), factors) == h


def test_adapted_coordinates_trivial_group():
    sp = VarSpace([], ["x", "y", "u"])
    act = DiagonalAction(AbelianGroup(()), {n: () for n in sp.names})
    x, y = FracPoly.variable(sp, "x"), FracPoly.variable(sp, "y")
    ac = adapted_coordinates(act, [], [x + y])
    assert ac.verified
    assert len(ac.coordinates) == 3


def test_adapted_coordinates_divisor_unit(mu2):
    sp = VarSpace([], ["x", "y"])
    act = DiagonalAction(AbelianGroup((2,)), {"x": (1,), "y": (0,)})
    x, y = FracPoly.variable(sp, "x"), FracPoly.variable(sp, "y")
    ac = adapted_coordinates(act, [x * (1 + x * x)], [x, y])
    assert ac.verified
    roles = {role for _n, _p, role in ac.coordinates}
    # the divisor x(1+x^2) contains the stratum {x=y=0}, so it leads the
    # stratum system (the two-step branch)
    assert any(role.startswith("stratum+divisor") for role in roles)
    names = {n: p for n, p, _role in ac.coordinates}
    assert any(p == x * (1 + x * x) for p in names.values())


def test_adapted_coordinates_two_step_branch():
    sp = VarSpace([], ["x", "y", "u"])
    act = DiagonalAction(AbelianGroup((2,)), {"x": (1,), "y": (0,), "u": (0,)})
    x, y, u = (FracPoly.variable(sp, n) for n in ("x", "y", "u"))
    ac = adapted_coordinates(act, [x + x * y], [x, y])
    assert ac.verified
    polys = [p for _n, p, _role in ac.coordinates]
    assert any(p == x + x * y for p in polys)
    assert any(p == y for p in polys)
    assert any(p == u for p in polys)


def test_normal_form_k2(mu2):
    sp, act = mu2
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    nf = invariant_nc_normal_form(InvariantNCInput(act, [y0 + y1, y0 - y1]))
    assert nf.chain == (2,)
    assert nf.scalar == 1
    assert nf.determinant == -2  # 2x2 Vandermonde with rows (1,1),(1,-1)
    prod = nf.factors[0] * nf.factors[1]
    assert prod == y0 * y0 - y1 * y1
    assert {str(p) for p in nf.parts.values()} == {"y0", "y1"}


def test_normal_form_k1(mu2):
    sp, act = mu2
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    nf = invariant_nc_normal_form(InvariantNCInput(act, [y0 + y1 * y1]))
    assert nf.chain == () and nf.factors[0] == y0 + y1 * y1


def test_normal_form_splits(mu2):
    sp, act = mu2
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    with pytest.raises(SplitsInvariantly) as err:
        invariant_nc_normal_form(InvariantNCInput(act, [y0, y1]))
    assert err.value.partition == ((0,), (1,))


def test_normal_form_under_the_rank_zero_group():
    # the trivial group (moduli []) has no generator map to read the number
    # of factors from; it fixes every factor ideal
    sp = VarSpace([], ["y0", "y1"])
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    act = DiagonalAction(AbelianGroup(()), {"y0": (), "y1": ()})
    with pytest.raises(SplitsInvariantly) as err:
        invariant_nc_normal_form(InvariantNCInput(act, [y0, y1]))
    assert err.value.partition == ((0,), (1,))
    nf = invariant_nc_normal_form(InvariantNCInput(act, [y0 + y1 * y1]))
    assert nf.chain == () and nf.factors == [y0 + y1 * y1] and nf.stabilizer.order == 1


def test_normal_form_degenerate(mu2):
    # dependent factors that the group does not permute: the sign maps
    # y0 + y1 to y0 - y1, which matches no factor, and the rank decides
    sp, act = mu2
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    with pytest.raises(DegenerateInput, match="^factor linear parts are not independent$"):
        invariant_nc_normal_form(InvariantNCInput(act, [y0 + y1, (y0 + y1).scale(2)]))


def test_normal_form_klein_orbit():
    sp = VarSpace([], ["a", "b", "c", "d"])
    g = AbelianGroup((2, 2))
    act = DiagonalAction(g, {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)})
    f1 = sum((FracPoly.variable(sp, n) for n in ("b", "c", "d")), FracPoly.variable(sp, "a"))
    orbit = [apply_group(f1, act, el) for el in g.elements()]
    nf = invariant_nc_normal_form(InvariantNCInput(act, orbit))
    assert nf.chain == (2, 2)
    assert sorted(str(p) for p in nf.parts.values()) == ["a", "b", "c", "d"]
    assert not nf.determinant.is_zero()
    # nested block structure: the matrix is (V2 tensor V2) up to diagonal scalings
    assert len(nf.matrix) == 4 and len(nf.matrix[0]) == 4


def _random_form(rng, sp):
    """A random linear form over sp plus two random quadratic terms."""
    names = sp.names
    f = FracPoly.zero(sp)
    for n in names:
        f = f + FracPoly.variable(sp, n).scale(rng.randint(-2, 2))
    for _ in range(2):
        i, j = rng.choice(names), rng.choice(names)
        f = f + FracPoly.monomial(sp, {i: 1}) * FracPoly.monomial(sp, {j: 1}, rng.randint(-1, 1))
    return f


def _orbit(f, act):
    """The translates of f, one per ideal, in group enumeration order."""
    orbit = []
    for el in act.group.elements():
        moved = apply_group(f, act, el)
        if not any(match_scalar(moved, o) is not None for o in orbit):
            orbit.append(moved)
    return orbit


def _random_orbit_instance(rng, moduli, nvars):
    names = [f"x{i}" for i in range(nvars)]
    act = DiagonalAction(AbelianGroup(moduli), {n: tuple(rng.randrange(p) for p in moduli) for n in names})
    return act, _orbit(_random_form(rng, VarSpace([], names)), act)


def _independent(factors):
    sp = VarSpace.union(*(f.space for f in factors))
    return rank([[linear_part(f).get(n, 0) for n in sp.names] for f in factors]) == len(factors)


def test_normal_form_random_roundtrip():
    rng = random.Random(20240809)
    verified = 0
    attempts = 0
    pool = [(2,), (3,), (4,), (2, 2), (2, 4), (8,), (2, 2, 2), (3, 3), (2, 8), (16,), (4, 4), (2, 2, 4)]
    while verified < 25 and attempts < 400:
        attempts += 1
        moduli = rng.choice(pool)
        act, orbit = _random_orbit_instance(rng, moduli, rng.randint(4, 8))
        if len(orbit) > 8:
            continue
        if not _independent(orbit):
            continue
        try:
            nf = invariant_nc_normal_form(InvariantNCInput(act, orbit))
        except (SplitsInvariantly, DegenerateInput):
            continue
        prod = nf.factors[0]
        for f in nf.factors[1:]:
            prod = prod * f
        inprod = orbit[0]
        for f in orbit[1:]:
            inprod = inprod * f
        assert prod == inprod.scale(nf.scalar)
        assert not nf.determinant.is_zero()
        from math import prod as iprod

        assert iprod(nf.chain) == len(orbit) if nf.chain else len(orbit) == 1
        verified += 1
    assert verified == 25


def test_nested_parts_have_predicted_weights():
    # each nested coordinate piece is exactly semi-invariant, with the weight
    # along chain generator t given by gamma(prefix) + l_t * p/q
    sp = VarSpace([], ["a", "b", "c", "d"])
    g = AbelianGroup((2, 2))
    act = DiagonalAction(g, {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)})
    f1 = sum((FracPoly.variable(sp, n) for n in ("b", "c", "d")), FracPoly.variable(sp, "a"))
    orbit = [apply_group(f1, act, el) for el in g.elements()]
    nf = invariant_nc_normal_form(InvariantNCInput(act, orbit))
    for lvec, part in nf.parts.items():
        w = semi_invariant_weight(part, act)
        assert w is not None
        for t, i in enumerate(nf.chain_generators):
            p = g.moduli[i]
            q = nf.chain[t]
            gamma = nf.gamma[(i,) + lvec[:t]]
            assert w[i] == (gamma + lvec[t] * (p // q)) % p


def test_normal_form_refuses_a_non_permuted_system(mu2):
    sp, act = mu2
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    # the sign generator sends y0 + y1 to y0 - y1, which is no multiple of a factor
    with pytest.raises(ValueError, match="does not permute the factor ideals"):
        invariant_nc_normal_form(InvariantNCInput(act, [y0 + y1, y0 + y1.scale(2)]))


# -- brute-force oracle over every group element -----------------------------------

_ORACLE_POOL = [(2,), (3,), (4,), (2, 2), (2, 4), (6,), (3, 3), (2, 2, 2)]


def _draw_orbit(rng, min_factors=1, max_factors=6):
    """A random action and orbit with independent linear parts, or None."""
    for _ in range(40):
        act, orbit = _random_orbit_instance(rng, rng.choice(_ORACLE_POOL), rng.randint(4, 7))
        if min_factors <= len(orbit) <= max_factors and _independent(orbit):
            return act, orbit
    return None


def _draw_orbit_with_a_stabilizer(rng):
    """A random action, a non-identity element s and an orbit with
    independent linear parts whose first factor s rescales, or None.

    Every term of the first factor has one character value c at s: its
    linear terms are the variables of class c, and its quadratic terms are
    products of two variables whose classes add up to c."""
    group = AbelianGroup(rng.choice(_ORACLE_POOL))
    s = rng.choice([el for el in group.elements() if not el.is_identity()])
    vectors = list(group.elements())
    cls = _character_class(s)
    for _ in range(40):
        c = cls(rng.choice(vectors).residues)
        in_class = [v.residues for v in vectors if cls(v.residues) == c]
        names = [f"x{i}" for i in range(rng.randint(4, 7))]
        weights = {m: rng.choice(in_class if rng.random() < 0.6 else [v.residues for v in vectors]) for m in names}
        act = DiagonalAction(group, weights)
        f = _form_of_class(rng, act, s, c)
        if f.is_zero():
            continue
        orbit = _orbit(f, act)
        if len(orbit) <= 6 and _independent(orbit):
            return act, s, orbit
    return None


def _character_class(s):
    """The exponent of the character value e_N^(.) at s of a weight vector,
    N the lcm of the moduli."""
    moduli = s.group.moduli
    n = math.lcm(*moduli)
    return lambda w: sum(r * x * (n // p) for r, x, p in zip(s.residues, w, moduli)) % n


def _form_of_class(rng, act, s, c):
    """A form over the variables of act whose terms all have the character
    value e_N^c at s (see `_character_class`), so that s rescales it: the
    variables of class c and at most two products of two variables whose
    classes add up to c.  It is zero when no variable has class c."""
    cls, names, weights = _character_class(s), list(act.weights), act.weights
    n = math.lcm(*act.group.moduli)
    sp = VarSpace([], names)
    f = FracPoly.zero(sp)
    for m in names:
        if cls(weights[m]) == c:
            f = f + FracPoly.variable(sp, m).scale(rng.choice([-2, -1, 1, 2, 3]))
    pairs = [(u, v) for u in names for v in names if u <= v and (cls(weights[u]) + cls(weights[v])) % n == c]
    for u, v in rng.sample(pairs, min(2, len(pairs))):
        f = f + FracPoly.variable(sp, u) * FracPoly.variable(sp, v).scale(rng.choice([-1, 1]))
    return f


def _random_scalar(rng):
    if rng.random() < 0.5:
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    order = rng.choice([2, 3, 4, 6])
    return root_of_unity(order, rng.randrange(order))


def _rescaled_and_shuffled(rng, factors):
    out = [f.scale(_random_scalar(rng)) for f in factors]
    rng.shuffle(out)
    return out


def _brute_orbits(act, factors):
    """The G-orbits of the factor ideals, as sorted index tuples in order of
    their least index, or None when some element moves a factor ideal off
    the system."""
    images = []
    for f in factors:
        image = set()
        for el in act.group.elements():
            moved = apply_group(f, act, el)
            idx = next((i for i, h in enumerate(factors) if match_scalar(moved, h) is not None), None)
            if idx is None:
                return None
            image.add(idx)
        images.append(tuple(sorted(image)))
    return tuple(orb for j, orb in enumerate(images) if orb[0] == j)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_normal_form_against_brute_force(rng):
    # orbits of rank 1-3 groups, rescaled and shuffled; half of them have
    # a first factor that a non-identity element s rescales
    if rng.random() < 0.5:
        drawn = _draw_orbit_with_a_stabilizer(rng)
        assume(drawn is not None)
        act, s, orbit = drawn
    else:
        drawn = _draw_orbit(rng)
        assume(drawn is not None)
        (act, orbit), s = drawn, None
    factors = _rescaled_and_shuffled(rng, orbit)
    nf = invariant_nc_normal_form(InvariantNCInput(act, factors))
    f0 = factors[0]
    stab = {el for el in act.group.elements() if match_scalar(apply_group(f0, act, el), f0) is not None}
    assert s is None or s in stab
    assert nf.stabilizer.elements == stab
    assert math.prod(nf.chain) * len(stab) == act.group.order
    assert math.prod(nf.factors) == math.prod(factors).scale(nf.scalar)
    space = VarSpace.union(*(f.space for f in factors))
    assert linear_rank([linear_part(h) for h in nf.parts.values()], space.names) == len(factors)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_split_partition_is_the_brute_force_orbits(rng):
    # unions of two or three orbits, rescaled and shuffled.  Half the draws
    # start from an orbit whose first factor a non-identity element s
    # rescales, and draw the other orbits from forms that s rescales too,
    # so that every orbit has a nontrivial stabilizer
    drawn = _draw_orbit(rng, max_factors=4) if rng.random() < 0.5 else _draw_orbit_with_a_stabilizer(rng)
    assume(drawn is not None)
    act, s, orbit = drawn if len(drawn) == 3 else (drawn[0], None, drawn[1])
    sp = VarSpace([], list(act.weights))
    orbits = [orbit]
    for _ in range(rng.randint(1, 2)):
        for _ in range(20):
            if s is None:
                f = _random_form(rng, sp)
            else:
                f = _form_of_class(rng, act, s, _character_class(s)(act.weights[rng.choice(sp.names)]))
            new = _orbit(f, act)
            if _independent(sum(orbits, []) + new):
                orbits.append(new)
                break
    assume(len(orbits) > 1)
    factors = _rescaled_and_shuffled(rng, sum(orbits, []))
    with pytest.raises(SplitsInvariantly) as err:
        invariant_nc_normal_form(InvariantNCInput(act, factors))
    assert err.value.partition == _brute_orbits(act, factors)
    assert len(err.value.partition) == len(orbits)


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_non_translate_is_refused(rng):
    drawn = _draw_orbit(rng, min_factors=2)
    assume(drawn is not None)
    act, orbit = drawn
    factors = _rescaled_and_shuffled(rng, orbit)
    j = rng.randrange(len(factors))
    # some generator maps another factor onto f_j's ideal, which f_j no longer holds
    factors[j] = _random_form(rng, factors[j].space)
    assume(all(match_scalar(factors[j], f) is None for f in orbit) and _independent(factors))
    assert _brute_orbits(act, factors) is None
    with pytest.raises(ValueError, match="does not permute the factor ideals"):
        invariant_nc_normal_form(InvariantNCInput(act, factors))


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_proper_part_of_an_orbit_is_refused(rng):
    # no proper part of an orbit is invariant: it would hold the orbit of
    # each of its members.  Half the draws take the translates of f_1 by the
    # multiples of one generator, half a random part
    drawn = _draw_orbit(rng, min_factors=2) if rng.random() < 0.5 else _draw_orbit_with_a_stabilizer(rng)
    assume(drawn is not None)
    act, orbit = drawn[0], drawn[-1]
    assume(len(orbit) >= 2)
    if rng.random() < 0.5:
        i = rng.randrange(act.group.rank)
        part = _orbit(orbit[0], DiagonalAction(AbelianGroup((act.group.moduli[i],)), {
            m: (w[i],) for m, w in act.weights.items()
        }))
    else:
        part = [orbit[0]] + rng.sample(orbit[1:], rng.randrange(len(orbit) - 1))
    assume(len(part) < len(orbit))
    with pytest.raises(ValueError, match="does not permute the factor ideals"):
        invariant_nc_normal_form(InvariantNCInput(act, _rescaled_and_shuffled(rng, part)))


def test_the_orbit_of_one_generator_is_refused():
    # f_1 = a + b + c + d: the first two terms agree on the second
    # generator, the last two do not, so its stabilizer is trivial and the
    # two translates by the first generator are half of its orbit
    sp = VarSpace([], ["a", "b", "c", "d"])
    act = DiagonalAction(AbelianGroup((2, 2)), {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)})
    a, b, c, d = (FracPoly.variable(sp, n) for n in sp.names)
    with pytest.raises(ValueError, match="does not permute the factor ideals"):
        invariant_nc_normal_form(InvariantNCInput(act, [a + b + c + d, a - b + c - d]))


# -- byte-pinned outcomes of seeded random systems -----------------------------------

NC_CORPUS = Path(__file__).parent / "golden" / "nc_corpus.json"
_CORPUS_KINDS = ("orbit", "rescaled", "non_permuted", "split", "dependent", "small_space")


def _corpus_system(seed: int):
    """System `seed` of the corpus: (kind, action, factors).  The kinds are
    plain orbits in enumeration order, rescaled and shuffled orbits, orbits
    with one factor replaced, unions of two orbits, orbits with a rescaled
    copy of one factor added, and orbits on two or three variables, whose
    linear parts are often dependent."""
    rng = random.Random(seed)
    kind = _CORPUS_KINDS[seed % len(_CORPUS_KINDS)]
    nvars = rng.randint(2, 3) if kind == "small_space" else rng.randint(4, 7)
    while True:
        act, orbit = _random_orbit_instance(rng, rng.choice(_ORACLE_POOL + [(8,), (2, 8)]), nvars)
        if len(orbit) <= 6 and (kind == "small_space" or _independent(orbit)):
            break
    factors = orbit
    if kind == "rescaled":
        factors = _rescaled_and_shuffled(rng, orbit)
    elif kind == "non_permuted":
        factors = list(orbit)
        factors[rng.randrange(len(factors))] = _random_form(rng, orbit[0].space)
    elif kind == "split":
        second = (_orbit(_random_form(rng, orbit[0].space), act) for _ in range(20))
        factors = _rescaled_and_shuffled(rng, orbit + next((o for o in second if _independent(orbit + o)), orbit[:1]))
    elif kind == "dependent":
        factors = orbit + [rng.choice(orbit).scale(_random_scalar(rng))]
    return kind, act, factors


def _corpus_outcome(act, factors) -> str:
    """The `ncquot normalize --format json` text of a system, or the class
    and message of the exception it raises."""
    args = Namespace(
        action=json.dumps({"moduli": list(act.group.moduli), "weights": act.weights}),
        factors=json.dumps([jsonio.poly_to_json(f) for f in factors]),
    )
    try:
        payload, _lines = cmd_ncquot_normalize(args)
    except Exception as exc:  # the outcome being pinned
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(payload, indent=2, sort_keys=True)


def corpus_record(seeds) -> list[dict]:
    out = []
    for seed in seeds:
        kind, act, factors = _corpus_system(seed)
        text = _corpus_outcome(act, factors)
        if text.startswith("{"):
            out.append({"seed": seed, "kind": kind, "sha256": hashlib.sha256(text.encode()).hexdigest()})
        else:
            out.append({"seed": seed, "kind": kind, "raises": text})
    return out


def test_nc_corpus_outcomes_are_byte_identical():
    # recorded before the rank, matrix and matching shortcuts of the normal form
    golden = json.loads(NC_CORPUS.read_text())
    assert corpus_record([row["seed"] for row in golden]) == golden


def test_a_changed_result_leaves_the_next_call_alone():
    _kind, act, factors = _corpus_system(0)
    before = _corpus_outcome(act, factors)
    nf = invariant_nc_normal_form(InvariantNCInput(act, factors))
    assert len(nf.matrix) > 1
    nf.matrix[0][0] = Cyclo.rational(7)
    nf.matrix[1] = []
    nf.matrix.append([])
    nf.row_index.append(())
    assert _corpus_outcome(act, factors) == before


def _row_translates(act, factors, nf):
    """g_m . f_1 for each row m of nf, g_m = sum_t m_t * (generator chain_generators[t])."""
    f1 = factors[0].in_space(VarSpace.union(*(f.space for f in factors)))
    out = []
    for mvec in nf.row_index:
        residues = [0] * act.group.rank
        for i, m in zip(nf.chain_generators, mvec):
            residues[i] = m
        out.append(apply_group(f1, act, GroupElement(act.group, tuple(residues))))
    return out


def test_nc_corpus_factors_are_the_row_translates_of_f1():
    normal_forms = 0
    for row in json.loads(NC_CORPUS.read_text()):
        if "sha256" not in row:
            continue
        _kind, act, factors = _corpus_system(row["seed"])
        nf = invariant_nc_normal_form(InvariantNCInput(act, factors))
        assert len(nf.factors) == len(nf.row_index) == len(factors)
        assert nf.factors == _row_translates(act, factors, nf)
        assert math.prod(nf.factors) == math.prod(factors).scale(nf.scalar)
        normal_forms += 1
    assert normal_forms == 114


def test_a_corrupted_matrix_entry_fails_the_recombination_check(monkeypatch):
    # the last entry of one signature's matrix off by a root of unity: the
    # recombined row would differ from its translate in every term of that piece
    _kind, act, factors = _corpus_system(0)
    exact = quotient_nc._coefficient_matrix.__wrapped__

    def corrupted(*signature):
        rows, matrix, determinant = exact(*signature)
        last = matrix[-1][:-1] + (matrix[-1][-1] * root_of_unity(2),)
        return rows, matrix[:-1] + (last,), determinant

    monkeypatch.setattr(quotient_nc, "_coefficient_matrix", corrupted)
    with pytest.raises(AssertionError, match="^recombined factor differs from the group translate$"):
        invariant_nc_normal_form(InvariantNCInput(act, factors))


def test_a_corrupted_entry_fails_the_recombination_check(monkeypatch, request):
    # the first root of unity the matrix is built from is off by one step,
    # so entry (0, 0) is no longer the character value 1 of the identity
    _kind, act, factors = _corpus_system(0)
    calls = []

    def first_root_off_by_one(k, e=1):
        calls.append((k, e))
        return root_of_unity(k, e + (len(calls) == 1))

    # the corrupted matrix must not outlive the test in the signature cache
    quotient_nc._coefficient_matrix.cache_clear()
    request.addfinalizer(quotient_nc._coefficient_matrix.cache_clear)
    monkeypatch.setattr(quotient_nc, "root_of_unity", first_root_off_by_one)
    with pytest.raises(AssertionError, match="^recombined factor differs from the group translate$"):
        invariant_nc_normal_form(InvariantNCInput(act, factors))
    assert len(calls) > 1


# -- independence read off the pieces, and the rank only on failure ----------------

_NOT_INDEPENDENT = "^factor linear parts are not independent$"


def test_a_piece_without_a_linear_part_is_caught_by_the_pieces_check():
    # the sign y0 -> -y0 maps y0 + y1^2 onto -y0 + y1^2: the factors are one
    # orbit, the entry check holds and det M = -2, but the piece y1^2 has no
    # linear part, so the linear parts y0 and -y0 are dependent
    sp = VarSpace([], ["y0", "y1"])
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    act = DiagonalAction(AbelianGroup((2,)), {"y0": (1,), "y1": (0,)})
    with pytest.raises(DegenerateInput, match=_NOT_INDEPENDENT):
        invariant_nc_normal_form(InvariantNCInput(act, [y0 + y1 * y1, -y0 + y1 * y1]))


@pytest.mark.parametrize("system", ["zero_first", "zero_last", "proportional_split"])
def test_a_dependent_system_is_reported_whatever_step_fails(mu2, system):
    # a zero f_1 has no term to read a stabilizer off (an IndexError), a
    # zero last factor is matched by no translate, and the group fixes the
    # ideal of y0, so (y0) and (2 y0) would be two orbits
    sp, act = mu2
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    factors = {
        "zero_first": [FracPoly.zero(sp), y0 + y1],
        "zero_last": [y0 + y1, FracPoly.zero(sp)],
        "proportional_split": [y0, y0.scale(2)],
    }[system]
    with pytest.raises(DegenerateInput, match=_NOT_INDEPENDENT):
        invariant_nc_normal_form(InvariantNCInput(act, factors))


def test_the_corpus_normalizes_without_a_rank(monkeypatch):
    def refused(*_args):
        raise AssertionError("a rank was computed on the success path")

    monkeypatch.setattr(quotient_nc, "linear_rank", refused)
    monkeypatch.setattr(polyring, "rank_mod", refused)
    golden = [row for row in json.loads(NC_CORPUS.read_text()) if "sha256" in row]
    assert len(golden) == 114
    assert corpus_record([row["seed"] for row in golden]) == golden


def _draw_system(rng):
    """An unfiltered system shaped like the benchmark's draws: a random
    diagonal action on two to six variables, a random form f_1 and up to
    four factors, the first translates of f_1 (one per ideal) or random
    ones, each kept, perturbed by a term, rescaled or replaced by a copy of
    an earlier factor."""
    group = AbelianGroup(rng.choice(_ORACLE_POOL))
    names = [f"x{i}" for i in range(rng.randint(2, 6))]
    act = DiagonalAction(group, {n: tuple(rng.randrange(p) for p in group.moduli) for n in names})
    sp = VarSpace([], names)
    f1 = _random_form(rng, sp)
    if rng.random() < 0.5:
        translates = _orbit(f1, act)[:4]
    else:
        translates = [apply_group(f1, act, el) for el in rng.choices(list(group.elements()), k=rng.randint(1, 4))]
    factors = []
    for f in translates:
        how = rng.choice(["keep"] * 5 + ["perturb", "scale", "copy"])
        if how == "perturb":
            f = f + FracPoly.monomial(sp, {rng.choice(names): rng.randint(1, 2)}, rng.choice([-1, 1]))
        elif how == "scale":
            f = f.scale(_random_scalar(rng))
        elif how == "copy" and factors:
            f = rng.choice(factors).scale(_random_scalar(rng))
        factors.append(f)
    return act, factors


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_not_independent_is_raised_exactly_when_the_rank_is_short(rng):
    act, factors = _draw_system(rng)
    try:
        invariant_nc_normal_form(InvariantNCInput(act, factors))
        refused = False
    except DegenerateInput as exc:
        refused = str(exc) == "factor linear parts are not independent"
    except (SplitsInvariantly, ValueError):
        refused = False
    assert refused == (not _independent(factors))


# -- byte-pinned outcomes of systems off the single-orbit path ---------------------

NC_EDGE_CASES = Path(__file__).parent / "golden" / "nc_edge_cases.json"


def _edge_case_systems():
    """(name, action, factors) of systems that are not one orbit of f_1 under
    integer characters, or that sit at its edges: factors over different
    variable spaces, divisorial variables with integral and fractional
    term weights, uncovered variables, the rank-0 group and k = 1,
    generators that fix or rescale the ideal of f_1, two orbits, and
    factors that are no translates."""
    out = []
    sp = VarSpace([], ["y0", "y1"])
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    mu2 = DiagonalAction(AbelianGroup((2,)), {"y0": (0,), "y1": (1,)})
    reordered = VarSpace([], ["y1", "y0"])
    out.append(("spaces_reordered", mu2, [y0 + y1, (y0 - y1).in_space(reordered)]))

    klein = AbelianGroup((2, 2))
    names = ["a", "b", "c", "d"]
    kw = {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)}
    ksp = VarSpace([], names)
    f1 = sum((FracPoly.variable(ksp, n) for n in names[1:]), FracPoly.variable(ksp, "a"))
    f1 = f1 + FracPoly.variable(ksp, "b") * FracPoly.variable(ksp, "c")
    kact = DiagonalAction(klein, kw)
    orbit = [apply_group(f1, kact, el) for el in klein.elements()]
    spaces = [VarSpace([], names[j:] + names[:j] + ["u"] * (j % 2)) for j in range(4)]
    out.append(("spaces_rotated_and_extended", DiagonalAction(klein, {**kw, "u": (0, 0)}),
                [f.in_space(s) for f, s in zip(orbit, spaces)]))
    out.append(("space_with_an_unused_uncovered_variable", kact,
                [orbit[0].in_space(VarSpace([], names + ["u"]))] + orbit[1:]))
    usp = VarSpace([], names + ["u"])
    out.append(("uncovered_variable_in_a_term", kact,
                [orbit[0].in_space(usp) + FracPoly.variable(usp, "u") * FracPoly.variable(usp, "a")] + orbit[1:]))
    out.append(("uncovered_variable_in_a_later_factor", kact,
                orbit[:2] + [orbit[2].in_space(usp) + FracPoly.variable(usp, "u") * FracPoly.variable(usp, "a")] + orbit[3:]))

    dsp = VarSpace([("w", 2)], ["x0", "x1"])
    x0, x1 = FracPoly.variable(dsp, "x0"), FracPoly.variable(dsp, "x1")
    root_w = FracPoly.monomial(dsp, {"w": Fraction(1, 2)})
    h = x0 + x1 + root_w * x0
    act = DiagonalAction(AbelianGroup((2,)), {"w": (2,), "x0": (0,), "x1": (1,)})
    out.append(("divisorial_integral_weights", act, [h, apply_group(h, act, act.group.generator(0))]))
    # under weight 1 the term w^(1/2) * x0 has fractional weight, which
    # apply_group refuses; the second factor gives that term the phase i
    act = DiagonalAction(AbelianGroup((2,)), {"w": (1,), "x0": (0,), "x1": (1,)})
    out.append(("divisorial_fractional_weights", act, [h, x0 - x1 + (root_w * x0).scale(root_of_unity(4, 1))]))
    out.append(("divisorial_fractional_weights_k1", act, [x0 + root_w * x0]))

    rank0 = DiagonalAction(AbelianGroup(()), {"y0": (), "y1": ()})
    out.append(("rank0_k1", rank0, [y0 + y1 * y1]))
    out.append(("rank0_k2", rank0, [y0, y1]))
    out.append(("rank0_uncovered_variable", DiagonalAction(AbelianGroup(()), {"y0": ()}), [y0 + y1 * y1]))
    out.append(("modulus_one_k1", DiagonalAction(AbelianGroup((1,)), {"y0": (0,), "y1": (0,)}), [y0 + y1]))
    out.append(("invariant_k1", mu2, [y0 + y1 * y1]))

    tsp = VarSpace([], ["a", "b", "c"])
    a, b, c = (FracPoly.variable(tsp, n) for n in ("a", "b", "c"))
    for label, weights in (
        ("generator_fixing_the_ideal", {"a": (0, 0), "b": (1, 0), "c": (0, 0)}),
        ("generator_rescaling_the_ideal", {"a": (0, 1), "b": (1, 1), "c": (0, 0)}),
    ):
        act = DiagonalAction(AbelianGroup((2, 3)), weights)
        h = a + b + a * c
        out.append((label, act, [h, apply_group(h, act, AbelianGroup((2, 3)).generator(0))]))
    z4 = DiagonalAction(AbelianGroup((4,)), {"a": (0,), "b": (2,), "c": (1,)})
    out.append(("stabilizer_of_order_two", z4, [a + b, a - b]))
    diag = DiagonalAction(klein, {"a": (0, 0), "b": (1, 1), "c": (1, 0)})
    out.append(("diagonal_stabilizer", diag, [a + b, (a - b).scale(3)]))
    out.append(("orbit_larger_than_k", DiagonalAction(AbelianGroup((4,)), {"a": (0,), "b": (1,), "c": (0,)}),
                [a + b, a - b]))

    z2 = DiagonalAction(AbelianGroup((2,)), {"a": (0,), "b": (1,), "c": (0,)})
    out.append(("orbit_smaller_than_k", z2, [a + b, a - b, c]))
    out.append(("orbit_smaller_than_k_f1_last", z2, [c, a - b, a + b]))
    fsp = VarSpace([], ["y0", "y1", "y2", "y3"])
    v = [FracPoly.variable(fsp, n) for n in fsp.names]
    two = DiagonalAction(AbelianGroup((2,)), {"y0": (0,), "y1": (1,), "y2": (0,), "y3": (1,)})
    out.append(("two_orbits", two, [v[0] + v[1], v[2] - v[3], v[0] - v[1], v[2] + v[3]]))
    out.append(("non_permuted_factor", mu2, [y0 + y1, y0 + y1.scale(2)]))
    out.append(("non_permuted_f1", mu2, [y0 + y1.scale(2), y0 - y1]))
    return out


def edge_case_record() -> list[dict]:
    return [{"name": name, "outcome": _corpus_outcome(act, factors)} for name, act, factors in _edge_case_systems()]


def test_edge_case_outcomes_are_byte_identical():
    # recorded before the normal form read its orbit off integer characters
    assert edge_case_record() == json.loads(NC_EDGE_CASES.read_text())
