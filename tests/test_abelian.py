import random
from math import lcm

import pytest

from circforge import (
    AbelianGroup,
    PairingContext,
    Subgroup,
    all_subgroups,
    invariant_factors,
    pairing,
    perp,
    quotient,
    quotient_invariant_factors,
    subgroup_from_generators,
    xi,
)
from circforge.abelian import full_subgroup, trivial_subgroup

from conftest import groups_of_order_up_to


def test_pairing_examples():
    g = AbelianGroup((2, 2))
    ctx = PairingContext(g, 2)
    assert pairing(ctx, g.element((1, 0)), g.element((1, 1))) == 1
    g2 = AbelianGroup((2, 4))
    ctx2 = PairingContext(g2, 4)
    assert pairing(ctx2, g2.element((1, 1)), g2.element((1, 2))) == 0
    for j in g2.elements():
        assert pairing(ctx2, j, g2.identity) == 0


def test_pairing_preconditions():
    g = AbelianGroup((2, 4))
    with pytest.raises(ValueError):
        PairingContext(g, 2)  # 4 does not divide 2
    for k in (0, -8):  # k = 0 would divide by zero in pairing
        with pytest.raises(ValueError):
            PairingContext(g, k)
    other = AbelianGroup((3,))
    ctx = PairingContext.natural(g)
    with pytest.raises(ValueError):
        pairing(ctx, g.identity, other.identity)


def test_perp_examples():
    z4 = AbelianGroup((4,))
    h = subgroup_from_generators(z4, [z4.element((2,))])
    assert perp(PairingContext.natural(z4), h) == h
    g = AbelianGroup((2, 2))
    assert perp(PairingContext.natural(g), trivial_subgroup(g)) == full_subgroup(g)
    diag = subgroup_from_generators(g, [g.element((1, 1))])
    assert perp(PairingContext(g, 2), diag) == diag


def test_perp_of_an_element_set_is_that_of_its_subgroup():
    # perp of any set of elements equals perp of the subgroup the set
    # generates, and the brute-force complement of the set; it is built
    # without the closure check, which a rebuilt Subgroup runs and passes
    rng = random.Random(28)
    for g in groups_of_order_up_to(12) + [AbelianGroup((2, 6)), AbelianGroup((4, 6))]:
        elements = list(g.elements())
        for ctx in (PairingContext.natural(g), PairingContext(g, 2 * lcm(1, *g.moduli))):
            for _ in range(8):
                xs = rng.sample(elements, rng.randint(0, min(3, len(elements))))
                comp = perp(ctx, iter(xs))
                assert comp == perp(ctx, subgroup_from_generators(g, xs))
                assert comp.elements == {l for l in elements if all(pairing(ctx, l, x) == 0 for x in xs)}
                rebuilt = Subgroup(g, comp.elements)
                assert rebuilt == comp and hash(rebuilt) == hash(comp)
    z4 = AbelianGroup((4,))
    with pytest.raises(ValueError):
        perp(PairingContext.natural(z4), [z4.identity, AbelianGroup((2,)).identity])


def test_quotient_representatives():
    z4 = AbelianGroup((4,))
    h = subgroup_from_generators(z4, [z4.element((2,))])
    cs = quotient(z4, h)
    assert [r.residues for r in cs.representatives] == [(0,), (1,)]
    g = AbelianGroup((2, 4))
    assert quotient(g, full_subgroup(g)).representatives == (g.identity,)
    h2 = subgroup_from_generators(g, [g.element((1, 2))])
    cs2 = quotient(g, h2)
    assert len(cs2.representatives) == 4
    assert cs2.representatives[0].is_identity()


def test_subgroup_from_generators():
    g = AbelianGroup((2, 4))
    assert subgroup_from_generators(g, []).order == 1
    z4 = AbelianGroup((4,))
    assert subgroup_from_generators(z4, [z4.element((2,))]).elements == frozenset(
        {z4.element((0,)), z4.element((2,))}
    )
    assert subgroup_from_generators(g, [g.element((1, 2))]).order == 2


def test_invariant_factors_examples():
    z4 = AbelianGroup((4,))
    assert invariant_factors(full_subgroup(z4)) == [4]
    g = AbelianGroup((2, 4))
    h = subgroup_from_generators(g, [g.element((1, 2))])
    k = perp(PairingContext.natural(g), h)
    assert invariant_factors(k) == quotient_invariant_factors(g, h) == [4]
    assert invariant_factors(trivial_subgroup(g)) == []


def _order_statistics(elements):
    from collections import Counter

    counts = Counter()
    for e in elements:
        o, cur = 1, e
        while not cur.is_identity():
            cur = cur + e
            o += 1
        counts[o] += 1
    return dict(counts)


def test_invariant_factors_against_order_statistics():
    # independent oracle: the invariant factors must reproduce the order
    # statistics of the subgroup's elements
    for g in groups_of_order_up_to(12):
        for h in all_subgroups(g):
            facs = invariant_factors(h)
            model = AbelianGroup(tuple(facs)) if facs else AbelianGroup(())
            assert _order_statistics(h.elements) == _order_statistics(model.elements())


def test_duality_suite_order_16():
    for g in groups_of_order_up_to(16):
        ctx = PairingContext.natural(g)
        for h in all_subgroups(g):
            comp = perp(ctx, h)
            assert comp.order * h.order == g.order
            assert perp(ctx, comp) == h
            assert invariant_factors(comp) == quotient_invariant_factors(g, h)
            for ell in g.elements():
                val = xi(ctx, h, ell)
                assert val == (h.order if ell in comp else 0)


def test_perp_independent_of_k():
    for g in groups_of_order_up_to(12):
        base = lcm(1, *g.moduli)
        ctx1 = PairingContext(g, base)
        ctx2 = PairingContext(g, 2 * base)
        for h in all_subgroups(g):
            assert perp(ctx1, h) == perp(ctx2, h)


def test_subgroup_validation():
    g = AbelianGroup((4,))
    with pytest.raises(ValueError):
        Subgroup(g, [g.element((1,))])  # not closed
    with pytest.raises(ValueError):
        Subgroup(g, [g.element((2,))])  # no identity
    with pytest.raises(ValueError, match="negation"):
        Subgroup(g, [g.identity, g.element((1,))])
    z6 = AbelianGroup((6,))
    with pytest.raises(ValueError, match="addition"):
        Subgroup(z6, [z6.element((r,)) for r in (0, 1, 5)])
    with pytest.raises(ValueError, match="outside"):
        Subgroup(g, [g.identity, z6.identity])


def test_subgroup_is_an_immutable_value():
    # the subgroups built without the closure check (closures, kernels, the
    # whole group, the identity) are the same values as checked ones
    g = AbelianGroup((2, 4))
    h = subgroup_from_generators(g, [g.element((1, 2))])
    ctx = PairingContext.natural(g)
    for built in (h, perp(ctx, perp(ctx, h)), full_subgroup(g), trivial_subgroup(g)):
        checked = Subgroup(g, built.elements)
        assert checked == built and hash(checked) == hash(built)
        with pytest.raises(AttributeError, match="immutable"):
            built.elements = frozenset()
        with pytest.raises(AttributeError, match="immutable"):
            del built.parent
        with pytest.raises(AttributeError):
            built.extra = 1
    assert h.order == 2 and h != full_subgroup(g) and h != "h"
