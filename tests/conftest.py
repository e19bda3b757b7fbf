import itertools
import os
from fractions import Fraction
from math import lcm
from pathlib import Path

import mpmath
from hypothesis import assume
from hypothesis import strategies as st

import circforge
from circforge import (
    AbelianGroup,
    Cyclo,
    NormalFormSpec,
    PairingContext,
    ProductNormalFormSpec,
    normal_form_poly,
    pairing,
    validate_normal_form,
)

# Environment for child interpreters: they import the same circforge as this
# process, also when pytest found it through its `pythonpath` setting rather
# than PYTHONPATH.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(circforge.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def cyclo_numeric(c: Cyclo, dps: int = 30) -> mpmath.mpc:
    """Independent numerical evaluation of a cyclotomic number (Horner's rule
    in exp(2*pi*i/order), so one exponential at any precision)."""
    with mpmath.workdps(dps):
        root = mpmath.expjpi(mpmath.mpf(2) / c.order)
        z = mpmath.mpc(0)
        for q in reversed(c.coeffs):
            z = z * root + mpmath.mpf(q.numerator) / q.denominator
        return z


def numerically_zero(c: Cyclo, dps: int = 30) -> bool:
    with mpmath.workdps(dps):
        return abs(cyclo_numeric(c, dps)) < mpmath.mpf(10) ** (-(dps - 5))


def permutation_det(mat):
    """Determinant as the signed sum over permutations (an oracle that runs
    no elimination)."""
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term = term * mat[i][perm[i]]
        total = total + term
    return total


def largest_nonzero_minor(a) -> int:
    """The size of a largest nonzero minor of a: its rank, by an exact
    route that runs no elimination."""
    m, n = len(a), len(a[0]) if a else 0
    for size in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), size):
            for cols in itertools.combinations(range(n), size):
                if permutation_det([[a[i][j] for j in cols] for i in rows]) != 0:
                    return size
    return 0


def specialized(spec: NormalFormSpec, i: int):
    """The normal form with w_h = 1 for h != i, expanded: the polynomial
    whose factors `codim1_factor(spec, i)` certifies by matching."""
    poly = normal_form_poly(spec)
    subs = {w: 1 for h, w in enumerate(spec.w_names()) if h != i}
    return poly.substitute(subs) if subs else poly


def invariant_exponent_vectors(action, variables, bound: int):
    """Brute force: exponent vectors over variables, of total degree 1..bound,
    whose monomial has weighted degree 0 modulo every modulus of the action."""
    return [
        vec
        for vec in itertools.product(range(bound + 1), repeat=len(variables))
        if 1 <= sum(vec) <= bound
        and all(
            sum(action.weights[v][i] * e for v, e in zip(variables, vec)) % p == 0
            for i, p in enumerate(action.group.moduli)
        )
    ]


def groups_of_order_up_to(n: int):
    """All abelian groups of order <= n, one per isomorphism class."""
    out = [AbelianGroup(())]
    seen = {()}
    for order in range(2, n + 1):
        for mods in _factorizations(order):
            key = tuple(sorted(mods))
            if key not in seen:
                seen.add(key)
                out.append(AbelianGroup(key))
    # distinct isomorphism classes only: keep prime-power cyclic factorizations
    canonical = {}
    for g in out:
        inv = _iso_key(g)
        canonical.setdefault(inv, g)
    return list(canonical.values())


def _factorizations(n: int, minimum: int = 2):
    if n == 1:
        yield ()
        return
    for d in range(minimum, n + 1):
        if n % d == 0:
            for rest in _factorizations(n // d, d):
                yield (d,) + rest


def _iso_key(g: AbelianGroup):
    # order statistics identify small abelian groups
    from collections import Counter

    counts = Counter()
    for e in g.elements():
        o = 1
        cur = e
        while not cur.is_identity():
            cur = cur + e
            o += 1
        counts[o] += 1
    return tuple(sorted(counts.items()))


def trivial_modulus_product() -> ProductNormalFormSpec:
    """Two cp2 parts over Z2 x Z1 that omit the second divisor, so the
    pipeline's second step blows up with weight 1 on w2."""
    z2 = AbelianGroup((2,))
    part = NormalFormSpec(
        moduli=(2, 1), k=2, gamma=((Fraction(1, 2), 0),), quotient_group=z2, labels=(z2.element((0,)), z2.element((1,)))
    )
    return ProductNormalFormSpec((part, part))


def _characters_by_order(q: AbelianGroup, labels) -> dict:
    """The characters l -> <j, l> of q at the labels, as fractions of a
    full turn, keyed by their order."""
    ctx = PairingContext.natural(q)
    out = {}
    for j in q.elements():
        col = [Fraction(pairing(ctx, j, l), ctx.k) for l in labels]
        out.setdefault(lcm(*(e.denominator for e in col)), []).append(col)
    return out


@st.composite
def valid_specs(draw, moduli=None):
    """A valid spec over a quotient group of order 2..6 whose exponent
    column i is a character of order p_i at the labels.  Validation forces
    such columns, so this draws the valid specs of test_gcirc's
    stray-exponent strategy (and those with p_i = 5) without the rejections
    that filtering it would take.  Given moduli, only groups with
    characters of those orders are drawn (for a second part of a product)."""
    groups = [g for g in groups_of_order_up_to(6) if g.order > 1]
    if moduli is not None:
        groups = [g for g in groups if set(moduli) <= set(_characters_by_order(g, tuple(g.elements())))]
    q = draw(st.sampled_from(groups))
    labels = (q.identity, *draw(st.permutations([e for e in q.elements() if not e.is_identity()])))
    chars = _characters_by_order(q, labels)
    if moduli is None:
        moduli = draw(st.lists(st.sampled_from(sorted(set(chars) - {1})), min_size=1, max_size=2))
    cols = [draw(st.sampled_from(chars[p])) for p in moduli]
    spec = NormalFormSpec(tuple(moduli), q.order, tuple(zip(*(col[1:] for col in cols))), q, labels)
    assume(validate_normal_form(spec).valid)
    return spec


def binomial_series(alpha: Fraction, n: int):
    """Coefficients of (1 + x)^alpha up to degree n."""
    coeffs = [Fraction(1)]
    c = Fraction(1)
    for i in range(1, n + 1):
        c = c * (alpha - (i - 1)) / i
        coeffs.append(c)
    return coeffs


def json_nodes(obj, path=()):
    """(path, value) of every node of a JSON value, the root first."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from json_nodes(value, path + (key,))


def json_replace(obj, path, value):
    """A copy of obj with the node at path replaced by value."""
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = json_replace(obj[path[0]], path[1:], value)
    return out
