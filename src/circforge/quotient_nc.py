"""Normalization of a normal-crossings ideal invariant under a diagonal
finite abelian group action.

Inputs are polynomial factor systems f_1, ..., f_k with independent linear
parts whose product ideal is invariant.  The normal form extracts, one
group generator at a time, the cyclic quotient order q acting effectively
on the factor ideals, splits the first factor into semi-invariant pieces
indexed by nested weights, and certifies an invertible coefficient matrix
(nested blocks of diagonal times Vandermonde type) recombining the pieces
into the translates of f_1, which it checks entry by entry against the
characters of the terms of f_1.  Ideal membership row-reduces the linear
parts with `smith.echelon`.

The factor ideals are read as G-orbits, one at a time: the stabilizer of
the least factor not yet placed is read off the integer characters of its
terms, and its translates, one per coset, are each matched once against
the factors not yet placed.  A translate that matches none of them proves
that G does not permute the factor ideals; an invariant system is one
orbit, and more than one is a split.

Full rank of the factors' linear parts is decided by `linear_rank`: the
image of the coefficient rows in a prime field F_l (`modular.rank_mod`)
proves it when the image has full rank, and exact elimination decides
every other case.  The coefficient matrix depends on integer data alone,
so it and its determinant are formed once per signature.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from math import lcm
from operator import mul

from .abelian import GroupElement, Subgroup
from .cyclotomic import Cyclo, root_of_unity
from .errors import DomainError
from .polyring import (
    DiagonalAction,
    FracPoly,
    VarSpace,
    _phase,
    apply_group,
    linear_part,
    linear_rank,
    match_scalar,
    poly_sum,
    semi_invariant_parts,
    semi_invariant_split,
    semi_invariant_weight,
    truncate,
)
from .smith import det, echelon


NOT_PERMUTED = "the group does not permute the factor ideals; product is not invariant"
NOT_RECOMBINED = "recombined factor differs from the group translate"


class SplitsInvariantly(DomainError):
    """The ideal factors into invariant pieces; callers recurse on the parts."""

    def __init__(self, partition):
        self.partition = partition
        super().__init__(f"ideal splits into invariant factor groups {partition}")


class DegenerateInput(DomainError):
    pass


def semi_invariant_generators(gens, action: DiagonalAction, membership_factors=None, degree: int | None = None):
    """Replace generators by weight-homogeneous pieces, one group generator
    at a time; the pieces generate the same ideal when the input ideal is
    invariant.

    When membership_factors is given (a normal-crossings system), each piece
    is reduced against it and a nonzero reduction reports a non-invariant
    input ideal.
    """
    out = []
    for gen in gens:
        for part in semi_invariant_parts(gen, action):
            if not any(_match_scalar(part, h) is not None for h in out):
                out.append(part)
    if membership_factors is not None:
        for part in out:
            if not nc_ideal_reduction(part, membership_factors, degree=degree).is_zero():
                raise ValueError("bucketed part fails ideal membership: ideal is not invariant")
    return out


def nc_ideal_reduction(f: FracPoly, factors, degree: int | None = None) -> FracPoly:
    """Image of f in the local quotient by (factors).

    The factors must have independent linear parts; row reduction solves
    them for distinct pivot variables.  When no pivot occurs in any solved
    substitution (every linear system is of this kind), one substitution
    eliminates the pivots and the image is exact: it is zero exactly when f
    lies in the ideal generated by the factors in the polynomial ring.
    Otherwise the solved equations are iterated and truncated at degree
    (default: 2 deg f + 4), and a zero image certifies membership only up to
    that degree.
    """
    factors = list(factors)
    space = f.space.union(*(g.space for g in factors))
    f = f.in_space(space)
    factors = [g.in_space(space) for g in factors]
    rows, pivots = _triangularize(factors, space)
    subs = {}
    for piv, g in zip(pivots, rows):
        pv = FracPoly.variable(space, piv)
        subs[piv] = pv - g  # g has linear part pv + (non-pivot linear) + higher
    pivot_pos = [space.names.index(p) for p in pivots]
    if not any(key[i] for v in subs.values() for key in v.terms for i in pivot_pos):
        return f.substitute(subs, target_space=space)
    if degree is None:
        d = f.total_degree()
        degree = int(2 * (d if d is not None else 1)) + 4
    # iterate the substitution until the pivots are eliminated mod the degree
    sol = {p: truncate(v, degree) for p, v in subs.items()}
    for _ in range(degree + 2):
        changed = False
        for p in sol:
            new = truncate(sol[p].substitute(sol, target_space=space), degree)
            if new != sol[p]:
                sol[p] = new
                changed = True
        if not changed:
            break
    return truncate(f.substitute(sol, target_space=space), degree)


def _triangularize(factors, space: VarSpace):
    """Row-reduce the factor system so each row has a distinct pivot variable
    with unit coefficient in its linear part, and no other row has that
    variable in its linear part.

    echelon runs on the rows [linear-part coefficients | identity row]; the
    identity block records the matrix M with reduced rows M * factors.  Its
    column-by-column search picks the lexicographically first basis of
    variables, and back-substitution to unit pivots makes M unique.
    """
    names = space.names
    n, k = len(names), len(factors)
    zero = Cyclo.zero()
    e, cols, _sign = echelon(
        [[lin.get(name, zero) for name in names] + [int(i == j) for i in range(k)]
         for j, lin in enumerate(map(linear_part, factors))]
    )
    if cols and cols[-1] >= n:
        raise DegenerateInput("factor linear parts are not independent")
    for r in reversed(range(k)):
        inv = e[r][cols[r]].inverse()
        e[r] = [x * inv for x in e[r]]
        for a in range(r):
            c = e[a][cols[r]]
            if c:
                e[a] = [x - c * y for x, y in zip(e[a], e[r])]
    rows = [poly_sum(space, [g.scale(c) for c, g in zip(row[n:], factors) if c]) for row in e]
    return rows, [names[c] for c in cols]


# -- adapted coordinates ---------------------------------------------------------


class AdaptedCoordinates:
    __slots__ = ("coordinates", "verified")

    def __init__(self, coordinates: list, verified: bool):
        self.coordinates = coordinates  # (name, FracPoly, role) with role in {divisor:j, stratum, complement}
        self.verified = verified


def adapted_coordinates(action: DiagonalAction, divisor_gens, s_gens) -> AdaptedCoordinates:
    """Diagonal coordinates in which every divisor ideal is a coordinate and
    the stratum ideal is generated by coordinates.

    Divisor components whose generator lies in the stratum ideal are handled
    by the two-step reduction: their coordinates join the stratum system and
    the remaining stratum coordinates are chosen afterwards.
    """
    divisor_gens = list(divisor_gens)
    s_gens = list(s_gens)
    if not s_gens:
        raise ValueError("need stratum generators")

    def semi_part_with_linear(g: FracPoly) -> FracPoly:
        lin = linear_part(g)
        if not lin:
            raise DegenerateInput("generator has zero linear part")
        for p in semi_invariant_parts(g, action):
            plin = linear_part(p)
            if plin and all(
                (n in plin and plin[n] == c) for n, c in lin.items()
            ):
                return p
        raise ValueError("generator's linear part is not weight-homogeneous; principal ideal cannot be invariant")

    space = VarSpace.union(*(g.space for g in s_gens + divisor_gens))

    transverse = []
    contained = []
    for j, h in enumerate(divisor_gens):
        image = nc_ideal_reduction(h, s_gens)
        (contained if image.is_zero() else transverse).append((j, h))

    coords = []
    used_directions = []  # linearly independent, one per coordinate

    def try_add(name, poly, role) -> bool:
        vec = linear_part(poly)
        if linear_rank(used_directions + [vec], space.names) == len(used_directions):
            return False
        used_directions.append(vec)
        coords.append((name, poly.in_space(space), role))
        return True

    for j, h in transverse:
        if not try_add(f"e{j}", semi_part_with_linear(h), f"divisor:{j}"):
            raise DegenerateInput("divisor linear parts are dependent")
    # two-step reduction: divisor components containing the stratum lead
    # the stratum coordinate system
    s_count = 0
    for j, h in contained:
        if try_add(f"s{s_count}", semi_part_with_linear(h), f"stratum+divisor:{j}"):
            s_count += 1
    # semi-invariant stratum pieces fill out the span of the stratum ideal
    rank_s = linear_rank([linear_part(g) for g in s_gens], space.names)
    pieces = semi_invariant_generators(s_gens, action)
    for p in sorted(pieces, key=lambda q: (q.total_degree(), str(q))):
        if s_count >= rank_s:
            break
        if try_add(f"s{s_count}", p, "stratum"):
            s_count += 1
    if s_count < rank_s:
        raise DegenerateInput("semi-invariant pieces do not span the stratum ideal")
    c_count = 0
    for name in space.names:
        if try_add(f"c{c_count}", FracPoly.variable(space, name), "complement"):
            c_count += 1
    weights = [semi_invariant_weight(poly, action) for _name, poly, _role in coords]
    ok = len(coords) == len(space.names) and all(w is not None for w in weights)
    return AdaptedCoordinates(coordinates=coords, verified=ok)


# -- the nested normal form --------------------------------------------------------


class InvariantNCInput:
    __slots__ = ("action", "factors")

    def __init__(self, action: DiagonalAction, factors: list):
        if not factors:
            raise ValueError("need at least one factor")
        self.action = action
        self.factors = factors


class NestedNormalForm:
    __slots__ = (
        "chain", "chain_generators", "parts", "gamma", "matrix", "row_index", "determinant", "factors", "scalar",
        "stabilizer",
    )

    def __init__(
        self,
        chain: tuple[int, ...],
        chain_generators: tuple[int, ...],
        parts: dict,
        gamma: dict,
        matrix: list,
        row_index: list,
        determinant: Cyclo,
        factors: list,
        scalar: Cyclo,
        stabilizer: Subgroup,
    ):
        self.chain = chain  # cyclic quotient orders q > 1, in generator order
        self.chain_generators = chain_generators  # generator index supplying each q
        self.parts = parts  # (l_1, ..., l_s) -> coordinate polynomial h
        self.gamma = gamma  # prefix tuple -> residual weight used in the matrix formula
        self.matrix = matrix  # rows over m-tuples, columns over l-tuples (Cyclo entries)
        self.row_index = row_index  # the m-tuples, parallel to matrix rows
        self.determinant = determinant
        self.factors = factors  # row translates g_m . f_1, equal to the recombined factors
        self.scalar = scalar  # prod(factors) = scalar * prod(input factors)
        self.stabilizer = stabilizer


def _match_scalar(a: FracPoly, b: FracPoly):
    # defined here so that per-module tracing counts these matches apart
    return match_scalar(a, b)


def _match_rows(translates, factors, free):
    """(index, scalar) of the factor that each translate is a multiple of,
    taken from the indices in free, which loses them.

    The factors must have independent linear parts, so no two of them are
    proportional and a translate is proportional to at most one factor.
    Each translate is therefore matched against the factors not placed yet:
    a translate that matches none of them matches no factor, and G does not
    permute the factor ideals."""
    out = []
    for moved in translates:
        for pos, idx in enumerate(free):
            c = _match_scalar(moved, factors[idx])
            if c is not None:
                break
        else:
            raise ValueError(NOT_PERMUTED)
        del free[pos]
        out.append((idx, c))
    return out


def _character_stabilizer(f: FracPoly, action: DiagonalAction):
    """The residue tuples of the g with g . f proportional to f, read off
    the integer characters that `DiagonalAction.characters` gives.

    Every coefficient of f is nonzero and character values are roots of
    unity, e_N^a = e_N^b exactly when a = b mod N.  So g . f is proportional
    to f exactly when every term t gets the phase of the first term t_0:
    sum_i g_i (w_i(t) - w_i(t_0)) N / p_i = 0 mod N, with N = lcm(p_i) and
    w_i the term weights mod p_i.  A term with a variable the action does
    not cover raises its ValueError; G does not act on a term of fractional
    weight, and so does not permute the factor ideals."""
    moduli = action.group.moduli
    n = lcm(*moduli)
    weights = [action.characters(f.space, key) for key in f.terms]
    if None in weights:
        raise ValueError(NOT_PERMUTED)
    base = weights[0]
    diffs = {tuple((t - t0) * (n // p) % n for t, t0, p in zip(w, base, moduli)) for w in weights}
    diffs.discard((0,) * len(moduli))
    return {
        res
        for res in itertools.product(*map(range, moduli))
        if not any(sum(map(mul, res, d)) % n for d in diffs)
    }


def _quotient_chain(moduli, stab):
    """The cyclic quotient orders q > 1 and the generators supplying them:
    along generator i, q is the least q with q * g_i in the subgroup that
    stab (residue tuples) and the generators before i generate."""
    chain, chain_gens = [], []
    h_cur = set(stab)
    for i, p in enumerate(moduli):
        q = next(qq for qq in range(1, p + 1) if tuple(qq % p if j == i else 0 for j in range(len(moduli))) in h_cur)
        if q > 1:
            chain.append(q)
            chain_gens.append(i)
            h_cur = {r[:i] + ((r[i] + j) % p,) + r[i + 1:] for r in h_cur for j in range(q)}
    return chain, chain_gens


def _row_elements(group, chain, chain_gens) -> list:
    """The element sum_t m_t * g_{chain_gens[t]} of each row m, in the row
    order of the coefficient matrix: one per coset of the stabilizer."""
    out = []
    for mvec in itertools.product(*(range(q) for q in chain)):
        res = [0] * group.rank
        for i, m in zip(chain_gens, mvec):
            res[i] = m
        out.append(GroupElement(group, tuple(res)))
    return out


@lru_cache(maxsize=256)
def _coefficient_matrix(moduli, chain, chain_gens, cols, gamma_items):
    """(rows, matrix, determinant) of the nested normal form's coefficient
    matrix, which depends on the integer data alone: entry (m, l) is the
    product over t of e_{p_i}^(m_t * gamma(i, l_1..l_{t-1})) * e_{q_t}^(m_t * l_t),
    i = chain_gens[t].  Rows and matrix are tuples; callers copy them."""
    gamma = dict(gamma_items)
    rows = tuple(itertools.product(*(range(q) for q in chain)))
    matrix = []
    for mvec in rows:
        row = []
        for lvec in cols:
            entry = Cyclo.one()
            for t, (i, q) in enumerate(zip(chain_gens, chain)):
                g0 = gamma[(i,) + lvec[:t]]
                entry = entry * root_of_unity(moduli[i], mvec[t] * g0) * root_of_unity(q, mvec[t] * lvec[t])
            row.append(entry)
        matrix.append(tuple(row))
    return rows, tuple(matrix), det(matrix)


def invariant_nc_normal_form(data: InvariantNCInput) -> NestedNormalForm:
    """Nested circulant normal form of an invariant normal-crossings system.

    Certified:
    - the input factors have independent linear parts: their rank is full
      in the image in a prime field F_l (a nonzero minor of the image lifts
      to a nonzero minor), or else by exact elimination (`linear_rank`);
    - the factor ideals are the G-orbit of (f_1), with stabilizer Stab:
      Stab is read off integer characters (`_character_stabilizer`), the
      row elements of the chain are one per coset of Stab, and their
      translates of f_1 match distinct factors, each up to a scalar
      (match_scalar, against the factors not placed yet), until every
      factor is placed.  Then every factor ideal is one translate (g . f_1)
      and every translate is one factor ideal, so G permutes the factor
      ideals transitively and Stab is the stabilizer of (f_1).  Factors
      left over are placed the same way, one orbit at a time from the
      least of them: G permutes the factor ideals exactly when every
      translate of every orbit's first factor matches a factor;
    - each recombined factor equals its row translate of f_1, so `factors`
      holds the translates: the pieces split the terms of f_1, and entry
      (m, l) equals the character at g_m of every term in piece l; the
      translates, one orbit, meet every input factor once, which proves
      prod(factors) = scalar * prod(inputs);
    - the coefficient matrix is invertible: its determinant, computed
      exactly once per integer signature, is nonzero;
    - hence the nested pieces have independent linear parts: the
      recombined factors are the matrix times the pieces, and they are
      nonzero multiples of the k inputs, whose linear parts were checked
      independent on entry.

    Raises SplitsInvariantly when G does not act transitively on the factor
    ideals, and ValueError when it does not permute them.
    """
    action = data.action
    group = action.group
    factors = list(data.factors)
    k = len(factors)

    space = VarSpace.union(*(f.space for f in factors))
    if linear_rank([linear_part(f) for f in factors], space.names) != k:
        raise DegenerateInput("factor linear parts are not independent")

    free = list(range(k))
    orbits = []
    while free:  # one orbit per pass, from its least factor
        f = factors[free[0]]
        stab = _character_stabilizer(f, action)
        chain, chain_gens = _quotient_chain(group.moduli, stab)
        elements = _row_elements(group, chain, chain_gens)
        f_space = f.in_space(space)
        translates = [apply_group(f_space, action, el) for el in elements]
        matches = _match_rows(translates, factors, free)
        orbits.append(tuple(sorted(idx for idx, _c in matches)))
    if len(orbits) > 1:
        raise SplitsInvariantly(tuple(orbits))
    # one orbit: the loop ran once, on f = f_1
    stabilizer = Subgroup(group, [GroupElement(group, r) for r in stab])

    parts = {(): f}
    gamma: dict = {}
    for i, q in zip(chain_gens, chain):
        step = group.moduli[i] // q
        new_parts = {}
        for prefix, h in parts.items():
            buckets = semi_invariant_split(h, action, i)
            nonzero = [(m, b) for m, b in enumerate(buckets) if not b.is_zero()]
            if len(nonzero) != q:
                raise DegenerateInput(
                    f"expected {q} weight pieces along generator {i}, found {len(nonzero)}"
                )
            g0 = min(m % step for m, _b in nonzero)
            if any(m % step != g0 for m, _b in nonzero):
                raise DegenerateInput("weight pieces do not lie in one residue ladder")
            gamma[(i,) + prefix] = g0
            for m, b in nonzero:
                ell = (m - g0) // step % q
                new_parts[prefix + (ell,)] = b
        parts = new_parts

    if len(parts) != k:
        raise DegenerateInput(f"nested pieces number {len(parts)}, expected {k}")

    cols = sorted(parts)
    rows, matrix, determinant = _coefficient_matrix(
        group.moduli, tuple(chain), tuple(chain_gens), tuple(cols), tuple(sorted(gamma.items()))
    )

    # row m gives each term t of f, in piece l, the coefficient M[m][l] c_t,
    # and the translate g_m . f gives it c_t times the character of t at g_m
    checks = {(j, action.characters(f.space, key)) for j, lvec in enumerate(cols) for key in parts[lvec].terms}
    for el, row in zip(elements, matrix):
        if any(row[j] != _phase(group.moduli, el.residues, chars) for j, chars in checks):
            raise AssertionError(NOT_RECOMBINED)
    rows, matrix = list(rows), [list(row) for row in matrix]
    scalar = reduce(mul, (c for _idx, c in matches), Cyclo.one())

    if determinant.is_zero():
        raise AssertionError("coefficient matrix is singular")

    return NestedNormalForm(
        chain=tuple(chain),
        chain_generators=tuple(chain_gens),
        parts=parts,
        gamma=gamma,
        matrix=matrix,
        row_index=rows,
        determinant=determinant,
        factors=translates,
        scalar=scalar,
        stabilizer=stabilizer,
    )

