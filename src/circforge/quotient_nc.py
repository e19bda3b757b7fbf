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
parts to unit pivots with `smith.reduced_echelon`, the library's one
back-substitution.

The factor ideals are read as G-orbits, one at a time: the stabilizer of
the least factor not yet placed is the complement (`abelian.perp`) of the
differences of the integer characters of its terms, and its translates,
one per coset, are each matched once against the factors not yet placed.
A translate that matches none of them proves that G does not permute the
factor ideals; an invariant system is one orbit, and more than one is a
split.

Independence of the factors' linear parts is read off the pieces, not
computed: the pieces split the terms of f_1, so their linear parts have
disjoint supports, and once each is nonzero and the matrix is invertible,
the translates, and so the factors, have independent linear parts.  Only
when the normal form fails is the rank computed (`linear_rank`), so that
a dependent input is reported as such whatever step it failed at.

What depends on integer data alone is formed once per signature, the
group moduli and the set of integer characters of the terms of an
orbit's first factor (`_skeleton`, one cache): the stabilizer, the
quotient chain and its row elements, the nested pieces as sets of
characters (so the piece of each character), gamma, the coefficient
matrix and its determinant, and the outcomes of the entry check and of
the determinant check, recorded and raised in their place.  Each call
still reads its terms' characters, translates its first factor and
matches the translates against its factors, groups the terms of f_1 into
the pieces, checks that the pieces number k, and checks each piece's
linear part.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial, reduce
from operator import mul, sub

from .abelian import AbelianGroup, GroupElement, PairingContext, perp
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
    semi_invariant_weight,
    truncate,
)
from .record import Record
from .smith import det, reduced_echelon


NOT_PERMUTED = "the group does not permute the factor ideals; product is not invariant"
NOT_RECOMBINED = "recombined factor differs from the group translate"
NOT_INDEPENDENT = "factor linear parts are not independent"


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

    reduced_echelon runs on the rows [linear-part coefficients | identity
    row]; the identity block records the matrix M with reduced rows
    M * factors.  Its column-by-column search picks the lexicographically
    first basis of variables, and the reduction to unit pivots makes M
    unique.
    """
    names = space.names
    n, k = len(names), len(factors)
    zero = Cyclo.zero()
    e, cols = reduced_echelon(
        [[lin.get(name, zero) for name in names] + [int(i == j) for i in range(k)]
         for j, lin in enumerate(map(linear_part, factors))]
    )
    if cols and cols[-1] >= n:
        raise DegenerateInput(NOT_INDEPENDENT)
    rows = [poly_sum(space, [g.scale(c) for c, g in zip(row[n:], factors) if c]) for row in e]
    return rows, [names[c] for c in cols]


# -- adapted coordinates ---------------------------------------------------------


class AdaptedCoordinates(Record):
    # coordinates: (name, FracPoly, role) with role in {divisor:j, stratum, complement}
    __slots__ = ("coordinates", "verified")


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


class NestedNormalForm(Record):
    # chain: cyclic quotient orders q > 1, in generator order
    # chain_generators: generator index supplying each q
    # parts: (l_1, ..., l_s) -> coordinate polynomial h
    # gamma: prefix tuple -> residual weight used in the matrix formula
    # matrix: rows over m-tuples, columns over l-tuples (Cyclo entries)
    # row_index: the m-tuples, parallel to matrix rows
    # factors: row translates g_m . f_1, equal to the recombined factors
    # scalar: prod(factors) = scalar * prod(input factors)
    __slots__ = (
        "chain", "chain_generators", "parts", "gamma", "matrix", "row_index", "determinant", "factors", "scalar",
        "stabilizer",
    )



def _match_scalar(a: FracPoly, b: FracPoly):
    # defined here so that per-module tracing counts these matches apart
    return match_scalar(a, b)


def _match_rows(translates, factors, free):
    """(index, scalar) of the factor that each translate is a multiple of,
    taken from the indices in free, which loses them.

    When the factors have independent linear parts, no two of them are
    proportional and a translate is proportional to at most one factor.
    Each translate is therefore matched against the factors not placed yet:
    a translate that matches none of them matches no factor, and G does not
    permute the factor ideals.  Matching runs before independence is known:
    on a dependent input it may pair a translate with the wrong factor or
    raise, and either way the normal form fails (success proves
    independence), and `invariant_nc_normal_form` reports the dependence."""
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
    return tuple(chain), tuple(chain_gens)


def _coefficient_matrix(moduli, chain, chain_gens, rows, cols, gamma):
    """(matrix, determinant) of the nested normal form's coefficient matrix:
    entry (m, l) is the product over t of e_{p_i}^(m_t * gamma(i, l_1..l_{t-1})) * e_{q_t}^(m_t * l_t),
    i = chain_gens[t].  The matrix is a tuple of row tuples."""
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
    return tuple(matrix), det(matrix)


class _Skeleton(Record):
    # stabilizer, chain and chain_generators as in NestedNormalForm; rows:
    # the m-tuples, and elements: sum_t m_t * g_{chain_generators[t]} of each;
    # failure: builds the exception a call raises, or None; pieces: the
    # l-tuples in order, None when the split fails; piece_of: term character
    # -> index of its piece; matrix: columns in the order of pieces
    __slots__ = (
        "stabilizer", "chain", "chain_generators", "rows", "elements", "failure", "pieces", "piece_of", "gamma",
        "matrix", "determinant",
    )


@lru_cache(maxsize=256)
def _skeleton(moduli: tuple, chars: frozenset) -> _Skeleton:
    """The part of the normal form of f_1 that depends only on the group
    moduli and on the set chars of the integer characters of the terms of
    f_1, formed once per such signature.

    - The stabilizer: g . f_1 is proportional to f_1 exactly when every
      term of f_1 gets one phase (its coefficients are nonzero and
      character values are roots of unity), so the stabilizer is the
      complement (`perp`) of the differences w - w_0 of the characters,
      whichever w_0.  Then the quotient chain, and the row elements, one
      per coset.
    - The nested split: along chain generator i, with quotient order q,
      the characters of each piece fall into one bucket per weight w_i mod
      p_i.  There must be q buckets, on one residue ladder gamma + step * l
      (step = p_i / q), and bucket gamma + step * l becomes the piece of
      the prefix extended by l.  So a term's piece is a function of its
      character, and pieces come out in lexicographic order, the order of
      the matrix columns.
    - The coefficient matrix and its determinant, and the entry check:
      entry (m, l) must equal the character value at g_m of each character
      in piece l.

    A failed check is recorded, not raised, so that each call raises it in
    its place: a failed split after the orbits are placed, and a failed
    entry check or a zero determinant after the piece count is checked
    against the number of factors."""
    group = AbelianGroup(moduli)
    base = min(chars)
    stab = perp(PairingContext.natural(group), [group.element(map(sub, w, base)) for w in chars])
    chain, chain_gens = _quotient_chain(moduli, {e.residues for e in stab.elements})
    rows = tuple(itertools.product(*(range(q) for q in chain)))
    elements = tuple(
        GroupElement(group, tuple(dict(zip(chain_gens, mvec)).get(i, 0) for i in range(len(moduli)))) for mvec in rows
    )
    pieces, gamma = {(): chars}, {}
    for i, q in zip(chain_gens, chain):
        step = moduli[i] // q
        split = {}
        for prefix, piece in pieces.items():
            weights = sorted({w[i] for w in piece})
            g0, failed = weights[0] % step, None
            if len(weights) != q:
                failed = f"expected {q} weight pieces along generator {i}, found {len(weights)}"
            elif any(m % step != g0 for m in weights):
                failed = "weight pieces do not lie in one residue ladder"
            if failed:
                return _Skeleton(
                    stab, chain, chain_gens, rows, elements, partial(DegenerateInput, failed),
                    pieces=None, piece_of=None, gamma=None, matrix=None, determinant=None,
                )
            gamma[(i,) + prefix] = g0
            for m in weights:
                split[prefix + ((m - g0) // step,)] = [w for w in piece if w[i] == m]
        pieces = split

    matrix, determinant = _coefficient_matrix(moduli, chain, chain_gens, rows, tuple(pieces), gamma)
    piece_of = {w: j for j, piece in enumerate(pieces.values()) for w in piece}
    # row m gives each term t of f_1, in piece l, the coefficient M[m][l] c_t,
    # and the translate g_m . f_1 gives it c_t times the character of t at g_m
    failure = None
    if any(row[j] != _phase(moduli, el.residues, w) for el, row in zip(elements, matrix) for w, j in piece_of.items()):
        failure = partial(AssertionError, NOT_RECOMBINED)
    elif determinant.is_zero():
        failure = partial(AssertionError, "coefficient matrix is singular")
    return _Skeleton(stab, chain, chain_gens, rows, elements, failure, tuple(pieces), piece_of, gamma, matrix, determinant)


def invariant_nc_normal_form(data: InvariantNCInput) -> NestedNormalForm:
    """Nested circulant normal form of an invariant normal-crossings system.

    Certified:
    - the factor ideals are the G-orbit of (f_1), with stabilizer Stab:
      Stab is `perp` of the differences of integer characters
      (`_skeleton`), the row elements of the chain are one per
      coset of Stab, and their translates of f_1 match distinct factors,
      each up to a scalar (match_scalar, against the factors not placed
      yet), until every factor is placed.  Then every factor ideal is one
      translate (g . f_1) and every translate is one factor ideal, so G
      permutes the factor ideals transitively and Stab is the stabilizer
      of (f_1).  Factors left over are placed the same way, one orbit at a
      time from the least of them: G permutes the factor ideals exactly
      when every translate of every orbit's first factor matches a factor;
    - each recombined factor equals its row translate of f_1, so `factors`
      holds the translates: the pieces split the terms of f_1, and entry
      (m, l) equals the character value at g_m of every term in piece l;
      the translates, one orbit, meet every input factor once, which
      proves prod(factors) = scalar * prod(inputs);
    - the coefficient matrix is invertible: its determinant is nonzero.
      The matrix, its determinant and the entry check above depend on the
      signature alone (group moduli, set of characters of the terms of
      f_1), so they are computed exactly once per signature, and each call
      raises their recorded outcome;
    - the input factors have independent linear parts, read off the
      pieces: each term of f_1 lies in one piece, so the pieces' linear
      parts have disjoint supports, and each is checked nonzero, so they
      are independent.  The translates are the invertible matrix times the
      pieces, and the inputs are nonzero multiples of the translates, one
      each, so their linear parts are independent too.  No rank is
      computed on this path.

    Matching runs before independence is known, so a dependent input can
    fail anywhere on the way (a zero factor, proportional factors, a split
    or a translate that matches nothing).  Every failure is therefore
    checked against the rank of the inputs' linear parts first
    (`linear_rank`), so that a dependent input raises DegenerateInput
    whatever step it failed at.

    Raises SplitsInvariantly when G does not act transitively on the factor
    ideals, and ValueError when it does not permute them.
    """
    factors = list(data.factors)
    space = VarSpace.union(*(f.space for f in factors))
    try:
        return _orbit_normal_form(data.action, factors, space)
    except Exception:
        if linear_rank([linear_part(f) for f in factors], space.names) != len(factors):
            raise DegenerateInput(NOT_INDEPENDENT) from None
        raise


def _orbit_normal_form(action: DiagonalAction, factors: list, space: VarSpace) -> NestedNormalForm:
    """The body of `invariant_nc_normal_form`, which decides the rank of
    the factors' linear parts only when this raises.  What depends on the
    signature alone comes from `_skeleton`; each call translates and
    matches its factors, groups the terms of f_1 into the pieces, and
    checks the piece count and the pieces' linear parts."""
    k = len(factors)

    free = list(range(k))
    orbits = []
    while free:  # one orbit per pass, from its least factor
        f = factors[free[0]]
        # a term of fractional weight has no character, and G does not act on it
        chars = action.term_characters(f.space, f.terms)
        if None in chars:
            raise ValueError(NOT_PERMUTED)
        skeleton = _skeleton(action.group.moduli, frozenset(chars))
        f_space = f.in_space(space)
        translates = [apply_group(f_space, action, el) for el in skeleton.elements]
        matches = _match_rows(translates, factors, free)
        orbits.append(tuple(sorted(idx for idx, _c in matches)))
    if len(orbits) > 1:
        raise SplitsInvariantly(tuple(orbits))
    # one orbit: the loop ran once, on f = f_1

    pieces = skeleton.pieces
    if pieces is None:
        raise skeleton.failure()
    if len(pieces) != k:
        raise DegenerateInput(f"nested pieces number {len(pieces)}, expected {k}")
    if skeleton.failure:
        raise skeleton.failure()
    terms = [{} for _l in pieces]
    for (key, coeff), w in zip(f.terms.items(), chars):
        terms[skeleton.piece_of[w]][key] = coeff
    parts = {lvec: FracPoly._raw(f.space, t) for lvec, t in zip(pieces, terms)}
    if not all(map(linear_part, parts.values())):
        raise DegenerateInput(NOT_INDEPENDENT)

    return NestedNormalForm(
        chain=skeleton.chain, chain_generators=skeleton.chain_generators, parts=parts, gamma=dict(skeleton.gamma),
        matrix=[list(row) for row in skeleton.matrix], row_index=list(skeleton.rows), determinant=skeleton.determinant,
        factors=translates, scalar=reduce(mul, (c for _idx, c in matches), Cyclo.one()), stabilizer=skeleton.stabilizer,
    )
