"""Truncated factorization of a monic polynomial in z into linear factors.

Given f monic of degree k in z whose other coefficients vanish at the
origin, the engine searches for roots b_1, ..., b_k (power series truncated
at a total-degree bound) with f = prod (z + b_i) modulo that bound, after
divisorial variables have been replaced by p-th powers to clear fractional
exponents.

The search lifts one root at a time, degree by degree: the Newton polygon
of the residual (with respect to z and the total degree of the remaining
variables) dictates the admissible degrees for the next homogeneous part,
and each admissible initial form yields one branch.

A node of the search for a root b is the residual psi_b, the coefficients
of Y in g(z = -b - Y), each truncated past the degree bound d.  The search
holds psi_b, b and the coefficients of each deflated g as term maps of one
space (scaled keys, see polyring), with orders as scaled integer degrees;
FracPoly appears only in the edge equations handed to the edge solver and
in the roots returned.  At the root of the search b = 0, and g(z = -Y)
only flips the sign of the odd powers of z.  A branch with the next
homogeneous part h passes its child psi_{b+h}(Y) = psi_b(Y + h), by a
Horner shift in Y on the term maps whose products are formed truncated at
d, never a pair past d, and the root map b with the terms of h added
(parts of distinct degrees share no key); no node substitutes into g.
This is exact: every term of h has total degree delta >= 1 (the slope of
its edge), so multiplying by h or shifting by h never lowers the degree
of a term, and the terms past d that the parent dropped cannot reach
degree <= d in the child.  So truncating before the shift gives the same
coefficients as truncating after it (the Taylor shift of von zur Gathen
and Gerhard, ISSAC 1997; carrying the transformed polynomial down the
tree as in D. Duval, "Rational Puiseux expansions", Compositio Math. 70,
1989).

Below a linear first edge, from (0, o_0) to (1, o_1), whose Y^1 part is
one term c*m, the search has no alternatives, and `_linear_chain` walks
it in one loop on psi's term maps (the carried-down lift of Duval, cited
above).  Each point (m, o_m), m >= 2, lies strictly above the edge's line,
else the edge would be longer, and the part h has degree delta = o_0 -
o_1.  In the child, a term c_j h^(j-m) of the coefficient of Y^m has
order o_j + delta(j - m) or more, so for m >= 2 the points stay strictly
above that line; the Y^1 part stays c*m, since every term added to it
has order above o_1; and c_0 loses its lowest part to c_1 h, the rest
having order above o_0.  So the child's first edge is again linear, to
the same (1, o_1), with an integer slope (every variable is free once
the denominators are cleared) above delta, the least slope allowed, and
its other edges have slopes below delta, which the search skips.
Truncation drops only points above order d >= o_0, above every such
line.  The chain therefore never needs the search again: it ends at a
c_0 truncated to zero, whose root it yields, or at a part with a
negative exponent, a decided obstruction.  It charges one branch per
part and records the largest c_0 order met below its first node, as the
search's nodes do, so roots, NoSplit, Ambiguous and Unsupported are
those of the search.  The first node's other edges are searched after it.
The last root enters the chain at the root node: after k - 1 deflations
g = z + c_0, and psi = c_0 - Y is such an edge, with c*m = -1.  The shift
reads c*m only to add c*m h, minus the lowest part of c_0, to c_0; all
else it adds to c_0 has order above o_0.  So the chain drops c*m once and
deletes that part itself, one product and one sum fewer per root term;
the parts read c_0's keys sorted, so its map order never reaches a root.

An edge equation is a polynomial in Y whose coefficients are homogeneous
forms; a scalar is a form of degree 0, so one solver serves both.
`_radical_roots` solves linear, binomial and quadratic equations, for
initial forms and for the scalars of monomial root candidates alike.
Longer edges go through exponent-gcd substitution, square-free reduction
(one gcd, `_poly_gcd_y`, and one exact division, `polyring.divide_exact`)
and monomial root candidates, whose scalar conditions are intersected with
the same gcd.  The gcd works on plain FracPolys in Y with FracPoly
arithmetic: pseudo-remainders, monomial content removed with
`polyring.strict_transform`, and a monic result from one exact division.

NoSplit is raised only when every edge equation met was decided.  It
carries the highest residual order (the order of the coefficient of Y^0)
at which no branch closed, with the reason "no branch closes at this
degree", or "candidate factorization failed verification" when the roots
found fail the final check.  The search raises Unsupported instead when
no branch closes and an edge was beyond the solver: an edge of extent
>= 3 with interior terms that no monomial candidate solves, or a radical
whose coefficient root `cyclo_nth_root` did not find (it decides only
some shapes).  An exponent not divisible by n under an n-th root, or a
division that is not exact, stays a decided obstruction.  The procedure
is a semi-decision by design, since no a-priori bound on the blow-ups
needed is available.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import gt, mul, sub

from .cyclotomic import Cyclo, cyclo_nth_root, root_of_unity
from .errors import DomainError
from .polyring import FracPoly, VarSpace, _compositions, _degree_limit, _merge, _times, divide_exact, poly_sum, product, strict_transform, substitute_power, truncate

DEFAULT_DEGREE_BOUND = 12
DEFAULT_BRANCH_CAP = 64

_Y = "$Y"  # the unknown of an edge equation
_T = "$T"  # the scalar of a monomial root candidate
_SCALARS = VarSpace((), (_Y,))  # constant forms, and polynomials in Y over them


class NoSplit(DomainError):
    """No branch of the search closes by the degree bound.  degree is the
    highest residual order at which no branch closed; reason says that, or
    that the roots found failed the final verification."""

    def __init__(self, degree, reason: str):
        self.degree = degree
        self.reason = reason
        super().__init__(f"no splitting found (obstruction at degree {degree}): {reason}")


class Ambiguous(DomainError):
    """The branch budget was exhausted before the search finished."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"branch cap {cap} exceeded")


class Unsupported(DomainError):
    """No branch closed, but an edge equation was beyond the solver, so the
    search cannot say that no splitting exists."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"splitting undecided: {reason}")


class _SearchState:
    __slots__ = ("space", "bound", "cap", "branches", "failed_at", "unsupported")

    def __init__(self, space: VarSpace, bound: int, cap: int):
        self.space = space  # of the residuals and the roots
        self.bound = (_degree_limit(space, bound), space.scales)  # (limit, weights) of the scaled degrees
        self.cap = cap
        self.branches = 0
        self.failed_at = Fraction(0)  # the highest residual order at which no branch closed
        self.unsupported: str | None = None  # the first edge equation the solver could not decide

    def charge_branch(self):
        self.branches += 1
        if self.branches > self.cap:
            raise Ambiguous(self.cap)


def clear_denominators(f: FracPoly, powers, z: str) -> FracPoly:
    """Apply substitute_power to every divisorial variable of f.  powers is
    one int or {name: int}, and every power given must be at least 1, also
    when f has no divisorial variable.  The split variable z must not be
    divisorial, since substitute_power would rename it."""
    for p in powers.values() if isinstance(powers, dict) else (powers,):
        if p < 1:
            raise ValueError(f"powers must be at least 1, got {p}")
    if f.space.is_divisorial(z):
        raise ValueError(f"the split variable {z} must be a free variable, not divisorial")
    g = f
    for name in list(f.space.div_names):
        if not isinstance(powers, int) and name not in powers:
            raise ValueError(f"powers gives no power for the divisorial variable {name}")
        g = substitute_power(g, name, powers if isinstance(powers, int) else powers[name])
    return g


def split_newton(
    f: FracPoly,
    z: str,
    powers=1,
    degree_bound: int | None = None,
    branch_cap: int | None = None,
) -> list[FracPoly]:
    """Roots b_1..b_k with f(w -> v^p, ..., z) = prod(z + b_i) mod degree bound.

    Raises NoSplit (with the obstruction degree) when every edge equation of
    the search was decided, Unsupported when one was beyond the solver, or
    Ambiguous.
    """
    d = DEFAULT_DEGREE_BOUND if degree_bound is None else degree_bound
    cap = DEFAULT_BRANCH_CAP if branch_cap is None else branch_cap
    if cap < 0:
        raise ValueError(f"branch_cap must be at least 0, got {cap}")
    g = clear_denominators(f, powers, z)
    coeffs = g.coefficients_in(z)
    k = max(coeffs, default=0)
    if k < 1 or not coeffs[k].is_constant() or coeffs[k].constant_coefficient() != 1:
        raise ValueError("polynomial must be monic in z")
    for m, c in coeffs.items():
        if m < k and not c.constant_coefficient().is_zero():
            raise ValueError("non-leading coefficients must vanish at the origin")
    space = g.space.union(_SCALARS)
    state = _SearchState(space, d, cap)
    roots = _find_roots({m: truncate(c.in_space(space), d).terms for m, c in coeffs.items()}, g.space, state)
    if roots is None and state.unsupported:
        raise Unsupported(state.unsupported)
    if roots is None:
        raise NoSplit(state.failed_at, "no branch closes at this degree")
    if not verify_split(f, powers, roots, d, z=z):
        raise NoSplit(state.failed_at, "candidate factorization failed verification")
    return roots


def verify_split(f: FracPoly, powers, roots, degree_bound: int | None = None, z: str = "z") -> bool:
    """Whether f (after clearing denominators) equals prod(z + b_i) mod the bound."""
    d = DEFAULT_DEGREE_BOUND if degree_bound is None else degree_bound
    if d < 0:  # refused before the roots are counted, never read as a "no"
        raise ValueError("degree bound must be >= 0")
    g = clear_denominators(f, powers, z)
    coeffs = g.coefficients_in(z)
    if len(roots) != max(coeffs, default=0):
        return False
    zvar = FracPoly.variable(g.space, z)
    # from 1, so that the first factor is truncated as the others are
    prod = product([FracPoly.constant(g.space, 1)] + [zvar + b for b in roots], degree=d, exclude={z})
    return truncate(g - prod, d, exclude={z}).is_zero()


# -- the search ---------------------------------------------------------------


def _find_roots(coeffs: dict, space: VarSpace, state: _SearchState):
    """The roots of the monic sum_m coeffs[m] z^m, whose coefficients are
    term maps truncated in the search's space, or None.  A zero root lies
    in space: that of the root found before it, or f's for the first."""
    k = max(coeffs)
    if k == 0:
        return []
    # psi at the root of the search, b = 0: g(z = -Y) flips the sign of the
    # odd powers of z
    a = [coeffs.get(m, {}) for m in range(k + 1)]
    a[1::2] = [{key: -c for key, c in t.items()} for t in a[1::2]]
    # an empty c_0 has the zero root, in space
    for b in _root_candidates(a, {}, 1, state) if a[0] else [FracPoly.zero(space)]:
        rest = _find_roots(_deflate(coeffs, b, state), b.space, state)
        if rest is not None:
            return [b] + rest
    return None


def _root_candidates(a: list, root: dict, delta_min, state: _SearchState):
    """The roots that close below a node: root is the term map of its b,
    and a lists the term maps of the coefficients of Y^m in
    g(z = -b - Y), by m, truncated past the degree bound."""
    if not a[0]:
        yield FracPoly._raw(state.space, root)
        return
    weights = state.bound[1]
    scale = state.space.lcm  # of the scaled degrees
    points = [(m, min(sum(map(mul, key, weights)) for key in t)) for m, t in enumerate(a) if t]
    for (ma, oa), (mb, ob) in _lower_hull_edges(points):
        delta, rem = divmod(oa - ob, (mb - ma) * scale)
        if rem or delta < delta_min:
            continue
        # the edge equation; its two ends (m = 0 and m = mb - ma) are nonzero
        parts = (
            {key: c for key, c in a[ma + i].items() if sum(map(mul, key, weights)) == oa - delta * scale * i}
            for i in range(mb - ma + 1)
        )
        terms = {i: FracPoly._raw(state.space, part) for i, part in enumerate(parts) if part}
        if mb == 1 and len(terms[1].terms) == 1:
            yield from _linear_chain(a, root, terms, state)
            continue
        for h in _solve_edge(terms, delta, state):
            state.charge_branch()
            child = [dict(t) for t in a]
            _taylor_shift(child, h.terms, state.bound)
            yield from _root_candidates(child, {**root, **h.terms}, delta + 1, state)
    state.failed_at = max(state.failed_at, Fraction(points[0][1], scale))


def _linear_chain(a: list, root: dict, edge: dict, state: _SearchState):
    """The roots below the first edge of the node (a, root) when it is
    linear and its Y^1 part edge[1] is one term c*m: the determined chain
    (see the module docstring), walked on copies of a and root.  Each part
    is -edge[0] / (c*m), edge[0] the lowest part of the node's c_0, formed
    term by term in descending key order with one inverse of c, as the
    edge's exact division forms it, and charged as one branch; a part with
    a negative exponent has no polynomial quotient and ends the chain.
    The nodes below the first record, once exhausted, the largest c_0
    order they met, as the search's nodes do.  Each key of c_0 has its
    degree computed once."""
    ((mkey, c),) = edge[1].terms.items()
    ninv = -c.inverse()
    bound = state.bound
    a = [dict(t) for t in a]
    del a[1][mkey]  # read only to cancel the lowest part of c_0, which each node deletes
    c0 = a[0]
    root = dict(root)  # parts of distinct degrees never share a key
    degree = {}  # the scaled degree of each key of c_0 met
    low = edge[0].terms
    top = None  # the c_0 order of the last node below the first
    while True:
        diffs = [(tuple(map(sub, key, mkey)), key) for key in sorted(low, reverse=True)]
        if any(min(diff) < 0 for diff, _key in diffs):
            break
        h = {diff: low[key] * ninv for diff, key in diffs}
        state.charge_branch()
        for key in low:
            del c0[key]
        _taylor_shift(a, h, bound)
        root.update(h)
        if not c0:
            yield FracPoly._raw(state.space, root)
            break
        for key in c0.keys() - degree.keys():
            degree[key] = sum(map(mul, key, bound[1]))
        top = min(map(degree.__getitem__, c0))
        low = {key: coeff for key, coeff in c0.items() if degree[key] == top}
    if top is not None:
        state.failed_at = max(state.failed_at, Fraction(top, state.space.lcm))


def _taylor_shift(a: list, h: dict, bound):
    """Shift a, the term maps of the coefficients of psi by the power of
    Y, in place to those of psi(Y + h), for the term map h of their space.
    Every product is formed truncated at bound, (limit, degree weights),
    which is exact (see the module docstring)."""
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            _merge(a[j], _times(h, a[j + 1], bound).items())


def _lower_hull_edges(points):
    """Edges of the lower convex hull of integer points (m, order)."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies above the segment hull[-2] -> p
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return list(zip(hull, hull[1:]))


# -- edge equations -------------------------------------------------------------
#
# An edge equation is a dict {m: coefficient of Y^m}, which _solve_edge and
# _radical_roots read by index.  Its coefficients are homogeneous forms, or
# constant forms in _SCALARS when the unknown is a scalar.  The gcd and the
# exact division take the edge as one FracPoly in Y (_y_poly builds it,
# coefficients_in(_Y) takes it apart), so one root solver, one gcd and one
# exact division serve both.  Every caller passes a nonzero coefficient at
# m = 0.


def _solve_edge(terms: dict, delta: int, state: _SearchState):
    """Nonzero homogeneous degree-delta roots of sum_m form_m * Y^m.

    Linear, binomial and quadratic edges are solved by radicals; longer
    edges are attacked by recursing on the gcd of the exponents (Y -> Y^d),
    by stripping repeated factors, and by monomial root candidates.  An
    edge that none of these solves marks the search unsupported.
    """
    n = max(terms)
    roots = _radical_roots(terms, state)
    if roots is not None:
        return roots
    d = gcd(*terms)
    if d > 1:
        out = []
        for w in _solve_edge({m // d: f for m, f in terms.items()}, delta * d, state):
            g = _form_nth_root(w, d, state)
            if g is not None:
                out.extend(g.scale(root_of_unity(d, t)) for t in range(d))
        return out
    reduced = _strip_repeated_factors(terms)
    if reduced is not None and max(reduced) < n:
        return _solve_edge(reduced, delta, state)
    mono = _monomial_root_candidates(terms, delta, state)
    if not mono:
        state.unsupported = state.unsupported or f"edge equation of extent {n} with interior terms at degree {delta}"
    return mono


def _radical_roots(terms: dict, state: _SearchState):
    """Nonzero roots of sum_m terms[m] * Y^m when its degree is at most 2
    or it is a binomial (a constant has none); None for any other shape.

    A root that fails to exist is decided when a division is not exact or
    an exponent is not divisible; when only the root of a cyclotomic
    coefficient was not found, _form_nth_root marks the search unsupported.
    """
    n = max(terms)
    if n == 0:
        return []
    if n == 1:
        h = divide_exact(-terms[0], terms[1])
        return [h] if h is not None else []
    if len(terms) == 2:
        f = divide_exact(-terms[0], terms[n])
        if f is None:
            return []
        g = _form_nth_root(f, n, state)
        return [] if g is None else [g.scale(root_of_unity(n, t)) for t in range(n)]
    if n != 2:
        return None
    a0, a1, a2 = terms[0], terms[1], terms[2]
    disc = a1 * a1 - a0 * a2 * 4
    if disc.is_zero():
        h = divide_exact(-a1, a2 * 2)
        return [h] if h is not None else []
    sq = _form_nth_root(disc, 2, state)
    if sq is None:
        return []
    out = []
    for s in (sq, -sq):
        h = divide_exact(-a1 + s, a2 * 2)
        if h is not None and not h.is_zero():
            out.append(h)
    return out


def _monomial_root_candidates(terms: dict, delta: int, state: _SearchState):
    """Roots of the form scalar * monomial, found by sweeping the monomial
    divisors of constant/lead and solving for the scalar exactly.

    Covers edges whose roots all have monomial initial forms (the product
    circulant shapes).  Each residual monomial gives one condition on the
    scalar, an edge equation over constant forms; the conditions are
    intersected with _poly_gcd_y and solved with _radical_roots.
    """
    n = max(terms)
    const, lead = terms[0], terms[n]
    if len(const.terms) != 1 or len(lead.terms) != 1:
        return []
    ratio = divide_exact(const, lead)
    if ratio is None or len(ratio.terms) != 1:
        return []
    (rkey, _rc), = ratio.terms.items()
    space = ratio.space
    tspace = space.union(VarSpace((), (_T,)))
    out = []
    bounds = [int(e) for e in space.face_key(rkey)]
    for key in _compositions(delta, len(bounds)):
        if any(map(gt, key, bounds)):  # not a divisor of the ratio
            continue
        mono = FracPoly(space, {key: Cyclo.one()})
        cand = FracPoly.monomial(tspace, {_T: 1}) * mono.in_space(tspace)
        val = poly_sum(tspace, [f.in_space(tspace) * cand ** m for m, f in terms.items()])
        # per residual monomial, a univariate condition on the scalar
        conditions: dict = {}
        for tdeg, coeffpoly in val.coefficients_in(_T).items():
            for key2, c in coeffpoly.terms.items():
                conditions.setdefault(key2, {})[(tdeg,)] = c
        uni = None
        for cond_terms in conditions.values():
            cond = FracPoly._raw(_SCALARS, cond_terms)
            uni = cond if uni is None else _poly_gcd_y(uni, cond)
            if uni.degree_in(_Y) == 0:
                break
        for c in _radical_roots(uni.coefficients_in(_Y), state) or ():
            h = mono.scale(c.constant_coefficient())
            check = poly_sum(space, [f * h ** m for m, f in terms.items()])
            if check.is_zero() and not any(h == o for o in out):
                out.append(h)
    return out


def _strip_repeated_factors(terms: dict):
    """Square-free part (in Y) of an edge polynomial, or None.

    Divides the edge by its gcd with the Y-derivative; the root set is
    unchanged, only multiplicities drop.  The quotient's forms stay in the
    edge's own space.
    """
    p = _y_poly(terms)
    g = _poly_gcd_y(p, _y_poly({m - 1: f.scale(m) for m, f in terms.items() if m >= 1}))
    if g.degree_in(_Y) == 0:
        return None
    quot = divide_exact(p, g)
    return None if quot is None else quot.coefficients_in(_Y)


def _y_poly(terms: dict) -> FracPoly:
    """sum_m terms[m] * Y^m, in the space of the forms (which holds Y)."""
    space = next(iter(terms.values())).space
    y = FracPoly.variable(space, _Y)
    return poly_sum(space, [f * y ** m for m, f in terms.items()])


def _lead_y(p: FracPoly) -> FracPoly:
    return p.coefficients_in(_Y)[p.degree_in(_Y)]


def _poly_gcd_y(a: FracPoly, b: FracPoly) -> FracPoly:
    """Gcd in Y by pseudo-remainders, with monomial content stripped.

    Over constant forms this is Euclid over the cyclotomic field, and the
    monic result is the unique monic gcd.  The loop ends without a round
    cap: the pseudo-remainder of a by b has Y-degree below that of b, and
    stripping monomial content keeps every Y-degree, so the Y-degree of the
    divisor drops every round until it reaches 0 or the divisor vanishes.
    """
    while not b.is_zero():
        if b.degree_in(_Y) == 0:
            return FracPoly.constant(b.space, 1)
        a, b = b, _strip_monomial_content(_pseudo_rem_y(a, b))
    a = _strip_monomial_content(a)
    monic = divide_exact(a, _lead_y(a))
    return a if monic is None else monic


def _pseudo_rem_y(a: FracPoly, b: FracPoly) -> FracPoly:
    """The pseudo-remainder of a by b in Y: a <- a * lc(b) - lc(a) * Y^(da-db) * b
    until the Y-degree of a drops below that of b."""
    db = b.degree_in(_Y)
    lead = _lead_y(b)
    y = FracPoly.variable(a.space, _Y)
    while not a.is_zero() and a.degree_in(_Y) >= db:
        a = a * lead - _lead_y(a) * y ** (a.degree_in(_Y) - db) * b
    return a


def _strip_monomial_content(p: FracPoly) -> FracPoly:
    """p divided by the largest monomial in the variables other than Y."""
    if p.is_zero():
        return p
    for name in p.space.names:
        if name != _Y:
            p = strict_transform(p, name)[0]
    return p


def _form_nth_root(f: FracPoly, n: int, state: _SearchState):
    """Exact n-th root of a homogeneous polynomial, or None.

    None decides that f is no n-th power, except when the leading
    coefficient has no n-th root that cyclo_nth_root finds: then the
    search is marked unsupported as well.

    The correction loop ends without a step cap.  Each correction c cancels
    the lex-leading term of f - g^n, and every term of f - (g + c)^n lies
    below that term (lex order is compatible with addition, and c lies
    below the leading term of g), so the correction keys strictly decrease.
    Each key is >= 0 in every entry, or divide_exact returns None, and each
    has the root's fixed degree, or the loop returns None; so the keys come
    from a finite set.
    """
    if f.is_zero():
        return f
    lead_key = max(f.terms)
    coeff = f.terms[lead_key]
    # e/n is a legal exponent exactly when the scaled entry e*b is divisible by n
    if any(k % n for k in lead_key):
        return None
    c = cyclo_nth_root(coeff, n)
    if c is None:
        state.unsupported = state.unsupported or f"no {n}-th root of the coefficient {coeff} was found"
        return None
    g0 = FracPoly._raw(f.space, {tuple(k // n for k in lead_key): c})
    g = g0
    denom = g0 ** (n - 1) * n
    while True:
        r = f - g ** n
        if r.is_zero():
            return g
        rkey = max(r.terms)
        corr = divide_exact(FracPoly._raw(r.space, {rkey: r.terms[rkey]}), denom)
        if corr is None or corr.total_degree() != g0.total_degree():
            return None
        g = g + corr


def _deflate(coeffs: dict, b: FracPoly, state: _SearchState) -> dict:
    """The coefficient term maps {m: coefficient of z^m} of the quotient of
    sum_m coeffs[m] z^m by z + b.  Both are truncated at the degree bound,
    so each product is formed truncated and no sum needs truncating."""
    k = max(coeffs)
    q = {k - 1: coeffs[k]}
    for m in range(k - 1, 0, -1):
        bq = _times(b.terms, q[m], state.bound)
        q[m - 1] = _merge(dict(coeffs.get(m, {})), [(key, -c) for key, c in bq.items()])
    return q
