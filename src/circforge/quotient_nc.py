"""Normalization of a normal-crossings ideal invariant under a diagonal
finite abelian group action.

Inputs are polynomial factor systems f_1, ..., f_k with independent linear
parts whose product ideal is invariant.  The normal form extracts, one
group generator at a time, the cyclic quotient order q acting effectively
on the factor ideals, splits the first factor into semi-invariant pieces
indexed by nested weights, and certifies an invertible coefficient matrix
(nested blocks of diagonal times Vandermonde type) recombining the pieces
into the full factor system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abelian import GroupElement, Subgroup
from .cyclotomic import Cyclo, root_of_unity
from .errors import DomainError
from .polyring import (
    DiagonalAction,
    FracPoly,
    VarSpace,
    apply_group,
    linear_part,
    linear_rank,
    match_scalar,
    semi_invariant_parts,
    semi_invariant_split,
    semi_invariant_weight,
    truncate,
)
from .smith import det


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
    """Image of f in the local quotient by (factors), truncated.

    The factors must have independent linear parts; the pivot variables are
    eliminated by iterating the solved equations.  A zero image certifies
    membership up to the truncation degree (default: 2 deg f + 4).
    """
    factors = list(factors)
    if degree is None:
        d = f.total_degree()
        degree = int(2 * (d if d is not None else 1)) + 4
    space = f.space.union(*(g.space for g in factors))
    f = f.in_space(space)
    factors = [g.in_space(space) for g in factors]
    rows, pivots = _triangularize(factors, space)
    subs = {}
    for piv, g in zip(pivots, rows):
        pv = FracPoly.variable(space, piv)
        subs[piv] = pv - g  # g has linear part pv + (non-pivot linear) + higher
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
    image = truncate(f.substitute(sol, target_space=space), degree)
    return image


def _triangularize(factors, space: VarSpace):
    """Row-reduce the factor system so each row has a distinct pivot variable
    with unit coefficient in its linear part."""
    rows = list(factors)
    names = list(space.names)
    pivots = []
    reduced = []
    for g in rows:
        work = g
        for piv, done in zip(pivots, reduced):
            c = linear_part(work).get(piv)
            if c is not None and not c.is_zero():
                work = work - done.scale(c)
        lin = linear_part(work)
        piv = next((n for n in names if n in lin and not lin[n].is_zero() and n not in pivots), None)
        if piv is None:
            raise DegenerateInput("factor linear parts are not independent")
        work = work.scale(lin[piv].inverse())
        pivots.append(piv)
        reduced.append(work)
    # back-substitute so no pivot appears in another row's linear part
    for a in range(len(reduced)):
        for b in range(len(reduced)):
            if a == b:
                continue
            c = linear_part(reduced[a]).get(pivots[b])
            if c is not None and not c.is_zero():
                reduced[a] = reduced[a] - reduced[b].scale(c)
    return reduced, pivots


# -- adapted coordinates ---------------------------------------------------------


@dataclass
class AdaptedCoordinates:
    coordinates: list  # (name, FracPoly, role) with role in {divisor:j, stratum, complement}
    weights: dict  # name -> weight tuple of the coordinate
    verified: bool


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
    weights = {}
    ok = len(coords) == len(space.names)
    for name, poly, _role in coords:
        w = semi_invariant_weight(poly, action)
        if w is None:
            ok = False
        weights[name] = w
    return AdaptedCoordinates(coordinates=coords, weights=weights, verified=ok)


# -- the nested normal form --------------------------------------------------------


@dataclass
class InvariantNCInput:
    action: DiagonalAction
    factors: list

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")


@dataclass
class NestedNormalForm:
    chain: tuple[int, ...]  # cyclic quotient orders q > 1, in generator order
    chain_generators: tuple[int, ...]  # generator index supplying each q
    parts: dict  # (l_1, ..., l_s) -> coordinate polynomial h
    gamma: dict  # prefix tuple -> residual weight used in the matrix formula
    matrix: list  # rows over m-tuples, columns over l-tuples (Cyclo entries)
    row_index: list  # the m-tuples, parallel to matrix rows
    col_index: list  # the l-tuples, parallel to matrix columns
    determinant: Cyclo
    factors: list  # recombined factors, one per m-tuple
    scalar: Cyclo  # prod(factors) = scalar * prod(input factors)
    stabilizer: Subgroup


def _match_scalar(a: FracPoly, b: FracPoly):
    # defined here so that per-module tracing counts these matches apart
    return match_scalar(a, b)


def _factor_permutation(factors, action: DiagonalAction, g: GroupElement):
    """The index map sigma with g . f_j proportional to f_{sigma(j)}, or None
    when g does not permute the factor ideals."""
    out = []
    for f in factors:
        moved = apply_group(f, action, g)
        idx = next((i for i, other in enumerate(factors) if _match_scalar(moved, other) is not None), None)
        if idx is None:
            return None
        out.append(idx)
    if sorted(out) != list(range(len(factors))):
        return None
    return out


def invariant_nc_normal_form(data: InvariantNCInput) -> NestedNormalForm:
    """Nested circulant normal form of an invariant normal-crossings system.

    Certified:
    - each group generator permutes the factor ideals, by matching every
      translate g_i . f_j against the factors up to a scalar (match_scalar);
      the index maps of all other elements are compositions of these along
      the element's residues, so G permutes the factor ideals;
    - each recombined factor equals its group translate of f_1 exactly, and
      that translate is a scalar multiple of the factor the index maps send
      f_1 to; these rows meet every input factor once, which proves
      prod(factors) = scalar * prod(inputs);
    - the coefficient matrix is invertible;
    - hence the nested pieces have independent linear parts: the
      recombined factors are the matrix times the pieces, and they are
      nonzero multiples of the k inputs, whose linear parts were checked
      independent on entry.

    Raises SplitsInvariantly when G does not act transitively on the factor
    ideals, and ValueError when a generator does not permute them.
    """
    action = data.action
    group = action.group
    factors = list(data.factors)
    k = len(factors)

    space = VarSpace.union(*(f.space for f in factors))
    if linear_rank([linear_part(f) for f in factors], space.names) != k:
        raise DegenerateInput("factor linear parts are not independent")

    # powers[i][r]: the index map of r times generator i
    identity = list(range(k))
    powers = []
    for i, p in enumerate(group.moduli):
        table = [identity]
        if p > 1:
            sigma = _factor_permutation(factors, action, group.generator(i))
            if sigma is None:
                raise ValueError("the group does not permute the factor ideals; product is not invariant")
            for _ in range(p - 1):
                table.append([sigma[j] for j in table[-1]])
        powers.append(table)
    perms = {}
    for el in group.elements():
        perm = identity
        for table, r in zip(powers, el.residues):
            if r:
                perm = [table[r][j] for j in perm]
        perms[el] = perm

    orbit0 = {perm[0] for perm in perms.values()}
    if len(orbit0) != k:
        partition = []
        seen = set()
        for j in range(k):
            if j in seen:
                continue
            orb = sorted({perm[j] for perm in perms.values()})
            seen.update(orb)
            partition.append(tuple(orb))
        raise SplitsInvariantly(tuple(partition))

    stab = Subgroup(group, [el for el, perm in perms.items() if perm[0] == 0])

    f1 = factors[0]
    chain = []
    chain_gens = []
    parts = {(): f1}
    gamma: dict = {}
    h_cur = set(stab.elements)  # the subgroup generated by stab and the generators so far
    for i in range(group.rank):
        p = group.moduli[i]
        gen = group.generator(i)
        q = next(qq for qq in range(1, p + 1) if gen.scale(qq) in h_cur)
        if q > 1:
            step = p // q
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
            chain.append(q)
            chain_gens.append(i)
        h_cur = {h + gen.scale(j) for h in h_cur for j in range(q)}

    if len(parts) != k:
        raise DegenerateInput(f"nested pieces number {len(parts)}, expected {k}")

    s = len(chain)
    rows = list(itertools.product(*(range(q) for q in chain)))
    cols = sorted(parts)
    matrix = []
    recombined = []
    for mvec in rows:
        row = []
        for lvec in cols:
            entry = Cyclo.one()
            for t in range(s):
                i = chain_gens[t]
                p = group.moduli[i]
                g0 = gamma[(i,) + lvec[:t]]
                entry = entry * root_of_unity(p, mvec[t] * g0) * root_of_unity(chain[t], mvec[t] * lvec[t])
            row.append(entry)
        matrix.append(row)
        comb = FracPoly.zero(space)
        for entry, lvec in zip(row, cols):
            comb = comb + parts[lvec].in_space(space).scale(entry)
        recombined.append(comb)

    # each recombined factor must be the corresponding group translate of f1,
    # a scalar multiple of the factor the index maps send f1 to; meeting
    # every input factor once certifies prod(recombined) = scalar * prod(inputs)
    f1_aligned = f1.in_space(space)
    hit = []
    scalar = Cyclo.one()
    for mvec, comb in zip(rows, recombined):
        el = group.identity
        for t in range(s):
            el = el + group.generator(chain_gens[t]).scale(mvec[t])
        translate = apply_group(f1_aligned, action, el)
        if comb != translate:
            raise AssertionError("recombined factor differs from the group translate")
        idx = perms[el][0]
        c = _match_scalar(translate, factors[idx])
        if c is None:
            raise AssertionError("group translate is not a multiple of its matched factor")
        hit.append(idx)
        scalar = scalar * c
    if sorted(hit) != list(range(k)):
        raise AssertionError("recombined factors do not match the input system bijectively")

    determinant = det(matrix)
    if determinant.is_zero():
        raise AssertionError("coefficient matrix is singular")

    return NestedNormalForm(
        chain=tuple(chain),
        chain_generators=tuple(chain_gens),
        parts=parts,
        gamma=gamma,
        matrix=matrix,
        row_index=rows,
        col_index=cols,
        determinant=determinant,
        factors=recombined,
        scalar=scalar,
        stabilizer=stab,
    )

