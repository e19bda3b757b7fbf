"""Group-circulant matrices, determinants, normal forms and their combinatorics.

For a finite abelian group of order t with enumeration l_0, ..., l_{t-1}
(identity first), the circulant matrix has (i, j) entry X_{l_j - l_i}.  Its
determinant is the product of the character sums sum_i chi(l_i) X_{l_i},
independent of the enumeration.

A normal-form specification carries moduli (p_1, ..., p_r), an order k, a
(k-1) x r matrix of exponents gamma_{ji} in (1/p_i){0, ..., p_i - 1}, an
abstract quotient group of order k and an enumeration of its elements; the
associated polynomial is the determinant evaluated at x_0, w^gamma_1 x_1,
..., w^gamma_{k-1} x_{k-1}.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm
from operator import add, mod

from .abelian import (
    AbelianGroup,
    GroupElement,
    PairingContext,
    Subgroup,
    pairing,
    perp,
    quotient,
    subgroup_from_generators,
)
from .cyclotomic import Cyclo, root_of_unity
from .errors import DomainError
from .polyring import DiagonalAction, FracPoly, VarSpace, apply_group, match_factors, poly_sum, product, substitute_all
from .record import Record, _immutable


class NonPolynomial(DomainError):
    """The normal-form determinant failed to cancel to integer w-exponents."""


def lex_ordering(group: AbelianGroup) -> tuple[GroupElement, ...]:
    return tuple(sorted(group.elements(), key=lambda g: g.residues))


class CirculantMatrix(Record):
    # entries: symbol indices
    __slots__ = ("ordering", "entries")

    def symbol(self, idx: int) -> str:
        return f"X{idx}"

    def rows_as_symbols(self) -> list[list[str]]:
        return [[self.symbol(e) for e in row] for row in self.entries]


def circulant_matrix(group: AbelianGroup, ordering=None) -> CirculantMatrix:
    if ordering is None:
        ordering = lex_ordering(group)
    ordering = tuple(ordering)
    if set(ordering) != set(group.elements()) or len(ordering) != group.order:
        raise ValueError("ordering must enumerate the group")
    return CirculantMatrix(ordering, _difference_entries(ordering))


def _difference_entries(ordering) -> tuple:
    if not ordering[0].is_identity():
        raise ValueError("ordering must start with the identity")
    index = {g: i for i, g in enumerate(ordering)}
    rows = []
    for gi in ordering:
        row = []
        for gj in ordering:
            diff = gj - gi
            if diff not in index:
                raise ValueError("elements are not closed under differences")
            row.append(index[diff])
        rows.append(tuple(row))
    return tuple(rows)


def subgroup_circulant_matrix(sub: Subgroup, ordering=None) -> CirculantMatrix:
    """Circulant matrix of a subgroup realized inside its ambient group."""
    if ordering is None:
        ordering = tuple(sub.sorted_elements())
    ordering = tuple(ordering)
    if set(ordering) != sub.elements:
        raise ValueError("ordering must enumerate the subgroup")
    return CirculantMatrix(ordering, _difference_entries(ordering))


def eigen_system(group: AbelianGroup, ordering=None, ctx: PairingContext | None = None, reps=None) -> list[tuple]:
    """The eigenvectors (chi(l_0), ..., chi(l_{t-1})), one tuple per
    character chi.  Each is also the coefficient vector of its eigenvalue
    sum_i chi(l_i) X_{l_i}, the character sum.

    Standalone use: characters of the group via its natural pairing.
    Embedded use: `ordering` lists a subgroup K of ctx.group, `reps` indexes
    the characters by coset representatives of perp(K).
    """
    if ordering is None:
        ordering = lex_ordering(group)
    ordering = tuple(ordering)
    if ctx is None:
        ctx = PairingContext.natural(group)
        labels = list(ordering)
    else:
        labels = list(reps) if reps is not None else list(lex_ordering(ctx.group))
    return [tuple(root_of_unity(ctx.k, pairing(ctx, j, l)) for l in ordering) for j in labels]


def verify_eigen_system(mat: CirculantMatrix, vectors: list[tuple]) -> bool:
    """Symbolic check of C * psi = Y * psi for every eigenvector psi, with
    Y = sum_m psi_m X_m its eigenvalue."""
    t = len(mat.ordering)
    for vec in vectors:
        for i in range(t):
            lhs: dict[int, Cyclo] = {}
            for jcol in range(t):
                idx = mat.entries[i][jcol]
                lhs[idx] = lhs.get(idx, Cyclo.zero()) + vec[jcol]
            # rhs: (sum_m Y_m X_m) * psi_i
            rhs = {m: vec[m] * vec[i] for m in range(t)}
            for m in range(t):
                if lhs.get(m, Cyclo.zero()) != rhs.get(m, Cyclo.zero()):
                    return False
    return True


def eigen_factors(group: AbelianGroup, values: list[FracPoly], ordering=None) -> list[FracPoly]:
    """The |G| character combinations of the values whose product is the
    circulant determinant."""
    if ordering is None:
        ordering = lex_ordering(group)
    ordering = tuple(ordering)
    if len(values) != group.order:
        raise ValueError("need one value per group element")
    ctx = PairingContext.natural(group)
    space = VarSpace.union(*(v.space for v in values))
    vals = [v.in_space(space) for v in values]
    return [
        poly_sum(space, [v.scale(root_of_unity(ctx.k, pairing(ctx, j, l))) for l, v in zip(ordering, vals)])
        for j in ordering
    ]


def gcirc_det(group: AbelianGroup, values: list[FracPoly], ordering=None) -> FracPoly:
    """Determinant of the circulant matrix with symbols replaced by values."""
    return product(eigen_factors(group, values, ordering))


def leibniz_det(mat: CirculantMatrix, values: list[FracPoly]) -> FracPoly:
    """Sign-weighted permutation expansion of the explicit matrix (oracle)."""
    t = len(mat.ordering)
    space = VarSpace.union(*(v.space for v in values))
    vals = [v.in_space(space) for v in values]
    terms = []
    for perm in itertools.permutations(range(t)):
        term = FracPoly.constant(space, _perm_sign(perm))
        for i in range(t):
            term = term * vals[mat.entries[i][perm[i]]]
        terms.append(term)
    return poly_sum(space, terms)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        size = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            size += 1
        if size % 2 == 0:
            sign = -sign
    return sign


# -- normal-form specifications ------------------------------------------------


class NormalFormSpec:
    __slots__ = ("moduli", "k", "gamma", "quotient_group", "labels")
    __setattr__ = __delattr__ = _immutable

    def __init__(
        self,
        moduli: tuple[int, ...],
        k: int,
        gamma: tuple[tuple[Fraction, ...], ...],  # (k-1) rows, r columns
        quotient_group: AbelianGroup,
        labels: tuple[GroupElement, ...],
    ):
        moduli = tuple(int(p) for p in moduli)
        gamma = tuple(tuple(Fraction(x) for x in row) for row in gamma)
        if len(gamma) != k - 1:
            raise ValueError("gamma must have k-1 rows")
        for row in gamma:
            if len(row) != len(moduli):
                raise ValueError("gamma rows must match the moduli")
        for name, value in zip(self.__slots__, (moduli, k, gamma, quotient_group, labels)):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return (self.moduli, self.k, self.gamma, self.quotient_group, self.labels)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    @property
    def r(self) -> int:
        return len(self.moduli)

    @property
    def group(self) -> AbelianGroup:
        return AbelianGroup(self.moduli)

    def w_names(self) -> tuple[str, ...]:
        if self.r == 1:
            return ("w",)
        return tuple(f"w{i+1}" for i in range(self.r))

    def x_names(self) -> tuple[str, ...]:
        return default_x_names(self.k)

    def part_x_names(self) -> tuple[tuple[str, ...], ...]:
        return (self.x_names(),)

    def exponent_elements(self) -> tuple[GroupElement, ...]:
        """Element (p_i gamma_{ji})_i of the acting group, per label row."""
        g = self.group
        out = [g.identity]
        for row in self.gamma:
            out.append(g.element(tuple(int(p * e) for p, e in zip(self.moduli, row))))
        return tuple(out)


def default_x_names(k: int) -> tuple[str, ...]:
    if k == 2:
        return ("z", "x")
    if k == 3:
        return ("z", "y", "x")
    return ("z",) + tuple(f"x{j}" for j in range(1, k))


def cpk_spec(k: int) -> NormalFormSpec:
    """The cyclic circulant normal form of order k (exponent ladder j/k)."""
    if k < 2:
        raise ValueError("order must be >= 2")
    zk = AbelianGroup((k,))
    return NormalFormSpec(
        moduli=(k,),
        k=k,
        gamma=tuple((Fraction(j, k),) for j in range(1, k)),
        quotient_group=zk,
        labels=tuple(zk.element((j,)) for j in range(k)),
    )


def klein_spec() -> NormalFormSpec:
    g = AbelianGroup((2, 2))
    return NormalFormSpec(
        moduli=(2, 2),
        k=4,
        gamma=(
            (Fraction(1, 2), Fraction(0)),
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2)),
        ),
        quotient_group=g,
        labels=lex_ordering(g),
    )


def z2z4_spec() -> NormalFormSpec:
    """Order-4 cyclic quotient of Z2 x Z4 with non-smooth normalization."""
    z4 = AbelianGroup((4,))
    return NormalFormSpec(
        moduli=(2, 4),
        k=4,
        gamma=(
            (Fraction(1, 2), Fraction(1, 4)),
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(3, 4)),
        ),
        quotient_group=z4,
        labels=tuple(z4.element((j,)) for j in range(4)),
    )


def spec_space(spec) -> VarSpace:
    """The space of a (product) spec's normal form: its w's and its x's."""
    return VarSpace(list(zip(spec.w_names(), spec.moduli)), list(spec.x_names()))


def spec_values(spec, space: VarSpace) -> list[FracPoly]:
    """The matrix values of a (product) spec over space, part by part: x_0,
    then x_j * w^gamma_j for j = 1 .. k-1, in the part's x names."""
    vals = []
    for part, names in zip(_parts(spec), spec.part_x_names()):
        vals.append(FracPoly.variable(space, names[0]))
        for name, row in zip(names[1:], part.gamma):
            exps = {name: 1}
            exps.update((wname, e) for wname, e in zip(part.w_names(), row) if e)
            vals.append(FracPoly.monomial(space, exps))
    return vals


def spec_factors(spec) -> list[list[FracPoly]]:
    """The eigen factors of each part of a (product) spec, one list per part
    in its label order, all over spec_space(spec); the normal form is their
    product."""
    values = iter(spec_values(spec, spec_space(spec)))
    return [
        eigen_factors(part.quotient_group, [next(values) for _ in range(part.k)], part.labels) for part in _parts(spec)
    ]


def _parts(spec) -> tuple[NormalFormSpec, ...]:
    return spec.factors if isinstance(spec, ProductNormalFormSpec) else (spec,)


def normal_form_poly(spec) -> FracPoly:
    """The defining polynomial, the product of the parts' determinants;
    raises NonPolynomial if w-exponents fail to cancel.

    A part's determinant is that of the circulant matrix (a_(g-h)) of its
    quotient group, a_(labels[j]) the j-th value, which carries the
    w-exponents gamma_j (gamma_0 = 0).  When labels[j] -> gamma_j mod Z is
    additive on the quotient group (`_additive_gamma`), every Leibniz term
    prod_g a_(g - sigma(g)) has w-exponents sum_g gamma(g - sigma(g)) =
    gamma(sum_g (g - sigma(g))) = gamma(0) = 0 mod Z.  The determinant is
    then the integral-exponent part of its eigen-factor product, and only
    that part is formed (`product`'s integral).  Otherwise the whole product
    is formed and its w-exponents are checked."""
    dets = []
    for part, factors in zip(_parts(spec), spec_factors(spec)):
        if _additive_gamma(part):
            dets.append(product(factors, integral=part.w_names()))
        else:
            dets.append(product(factors))
            _require_integer_w(dets[-1], part.w_names())
    return dets[0] if len(dets) == 1 else product(dets)


def _additive_gamma(spec: NormalFormSpec) -> bool:
    """Whether the labels are the quotient group's elements, once each, and
    labels[j] -> gamma_j mod Z (gamma_0 = 0) is additive on that group,
    checked on all |G|^2 pairs (on residues, and on gammas times their
    common denominator)."""
    g = spec.quotient_group
    rows = ((Fraction(0),) * spec.r,) + spec.gamma
    if not len(spec.labels) == len(rows) == g.order or any(l.group != g for l in spec.labels):
        return False
    den = lcm(*(e.denominator for row in rows for e in row))
    gamma = {l.residues: tuple(e.numerator * (den // e.denominator) % den for e in row) for l, row in zip(spec.labels, rows)}
    if len(gamma) != g.order:
        return False
    dens = (den,) * spec.r
    return all(
        gamma[tuple(map(mod, map(add, a, b), g.moduli))] == tuple(map(mod, map(add, ga, gb), dens))
        for a, ga in gamma.items()
        for b, gb in gamma.items()
    )


def _require_integer_w(poly: FracPoly, w_names) -> None:
    space = poly.space
    for key in poly.terms:
        for name in w_names:
            i = space._index[name]
            if key[i] % space.bounds[i]:
                raise NonPolynomial(f"residual fractional exponent {space.face_key(key)[i]} on {name}")


class ProductNormalFormSpec:
    __slots__ = ("factors",)
    __setattr__ = __delattr__ = _immutable

    def __init__(self, factors: tuple[NormalFormSpec, ...]):
        if not factors:
            raise ValueError("need at least one factor")
        moduli = factors[0].moduli
        for f in factors:
            if f.moduli != moduli:
                raise ValueError("factors must share moduli (omitted divisors use zero columns)")
        object.__setattr__(self, "factors", factors)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash((self.factors,))

    @property
    def moduli(self):
        return self.factors[0].moduli

    @property
    def k(self) -> int:
        return sum(f.k for f in self.factors)

    def w_names(self) -> tuple[str, ...]:
        return self.factors[0].w_names()

    def x_names(self) -> tuple[str, ...]:
        return tuple(name for names in self.part_x_names() for name in names)

    def part_x_names(self) -> tuple[tuple[str, ...], ...]:
        """The x names of each part: a lone part keeps its own, and part h
        of several names its x's x{h+1}_0, x{h+1}_1, ..."""
        if len(self.factors) == 1:
            return (self.factors[0].x_names(),)
        return tuple(tuple(f"x{h + 1}_{j}" for j in range(f.k)) for h, f in enumerate(self.factors))


# -- validation -----------------------------------------------------------------


class ValidationReport(Record):
    # stabilizer: None when G does not permute the eigen factors
    __slots__ = ("exponents_in_range", "denominators_realized", "multiset_condition", "transitive", "stabilizer")

    @property
    def quotient_isomorphic(self) -> bool:
        """Whether G/Stab is isomorphic to the quotient group: exactly when
        G is transitive (see `validate_normal_form`)."""
        return self.transitive

    @property
    def valid(self) -> bool:
        """In range, every denominator realized, and transitive; the
        multiset condition then holds (see `validate_normal_form`)."""
        return self.exponents_in_range and all(self.denominators_realized) and self.transitive


def validate_normal_form(spec: NormalFormSpec, allow_omitted_divisors: bool = False) -> ValidationReport:
    """Check that spec is a normal form: exponents in (1/p_i){0, ..., p_i - 1},
    each denominator p_i realized (with allow_omitted_divisors a zero column
    passes), and G transitive on the eigen factors.  The report also gives
    whether each column takes every q/p_i equally often (a zero column
    passes likewise) and whether G/Stab is isomorphic to the quotient group
    Q; transitivity decides both, as shown below.

    G permutes the factors when every p_i gamma_ji is an integer and
    labels[j] -> gamma_j mod Z (gamma_0 = 0) is additive on Q, the labels
    enumerating Q (`_additive_gamma`).  Then phi: labels[j] -> e_j =
    (p_i gamma_ji)_i is a homomorphism from Q into G; g multiplies argument
    j by the phase <g, e_j>/N, N = lcm(p_i), a character of Q at labels[j],
    so g translates the factors and fixes one exactly when g lies in
    Stab = perp(phi(Q)).  The natural pairing is perfect, so |Stab| =
    |G| / |phi(Q)|, and G is transitive, |G| = k |Stab|, exactly when phi
    is injective.  So a transitive spec has labels[0] the identity and k
    distinct exponent elements forming the subgroup phi(Q); neither is
    checked apart.

    G/Stab is isomorphic to phi(Q), by the perfect pairing, and phi(Q) is a
    quotient of Q, so G/Stab is isomorphic to Q exactly when |phi(Q)| = k,
    that is, when G is transitive; without Stab both are false.  Given phi
    and exponents in range, column i is the homomorphism pi_i phi from Q to
    Z/p_i, so each value it takes occurs |kernel| times: every q/p_i occurs
    k/p_i times exactly when the column is onto, that is, when some entry
    has denominator p_i.  When p_i = 1 no entry does, and the denominator
    counts as realized only for an omitted divisor, whose zero column
    passes both conditions.  So `valid` reads neither report: adding them
    would not change it."""
    moduli = spec.moduli
    in_range = all(
        0 <= e < 1 and p % e.denominator == 0
        for row in spec.gamma
        for e, p in zip(row, moduli)
    )
    denom = []
    for i, p in enumerate(moduli):
        col = [row[i] for row in spec.gamma]
        realized = any(e != 0 and e.denominator == p for e in col)
        if allow_omitted_divisors and all(e == 0 for e in col):
            realized = True
        denom.append(realized)
    multiset = []
    for i, p in enumerate(moduli):
        col = [Fraction(0)] + [row[i] for row in spec.gamma]
        # each q/p, 0 <= q < p, occurs k/p times (never when p does not divide k)
        want_ok = Counter(col) == {Fraction(q, p): spec.k // p for q in range(p)}
        if allow_omitted_divisors and all(e == 0 for e in col):
            want_ok = True
        multiset.append(want_ok)

    g = spec.group
    stab = None
    if all((p * e).denominator == 1 for row in spec.gamma for e, p in zip(row, moduli)) and _additive_gamma(spec):
        stab = perp(PairingContext.natural(g), spec.exponent_elements())
    return ValidationReport(
        exponents_in_range=in_range,
        denominators_realized=tuple(denom),
        multiset_condition=tuple(multiset),
        transitive=stab is not None and g.order == spec.k * stab.order,
        stabilizer=stab,
    )


# -- irreducibility and permutation lemmas ---------------------------------------


def irreducible_exponents(k: int, h) -> bool:
    """Whether (h_0, ..., h_{k-1}) is a permutation of {0, ..., k-1}."""
    h = tuple(int(x) % k for x in h)
    if len(h) != k:
        raise ValueError("need k residues")
    return sorted(h) == list(range(k))


def cyclic_factor_orbit_transitive(k: int, h) -> bool | None:
    """Brute-force transitivity of the rotation action on the k factors of
    the determinant with exponents h; None when the action does not permute
    the factors (the product is not invariant)."""
    h = tuple(int(x) % k for x in h)
    if len(h) != k:
        raise ValueError("need k residues")
    factors = [tuple((j * l + h[j]) % k for j in range(k)) for l in range(k)]
    index = {f: i for i, f in enumerate(factors)}
    perm = []
    for l in range(k):
        # the rotation multiplies argument j by eps^{h_j}
        target = tuple((factors[l][j] + h[j]) % k for j in range(k))
        if target not in index:
            return None
        perm.append(index[target])
    # the rotations form a cyclic group: the orbit of factor 0 is its cycle
    orbit, j = {0}, perm[0]
    while j not in orbit:
        orbit.add(j)
        j = perm[j]
    return len(orbit) == k


class PermutationReport(Record):
    __slots__ = ("verified",)


def permute_to_standard(h, k: int | None = None) -> PermutationReport:
    """Substitution x_j = y_{h_j} and a symbolic check that it yields the
    standard exponent ladder (1/k, ..., (k-1)/k), certified by matching
    the linear factors of both determinants (`match_factors`)."""
    h = tuple(int(x) for x in h)
    if h and h[0] == 0:
        h = h[1:]
    if k is None:
        k = len(h) + 1
    if sorted(h) != list(range(1, k)):
        raise ValueError("h must be a permutation of {1, ..., k-1}")
    space = VarSpace([("w", k)], ["z"] + [f"x{j}" for j in range(1, k)] + [f"y{j}" for j in range(1, k)])
    w_pows = {j: Fraction(h[j - 1], k) for j in range(1, k)}
    lhs_vals = [FracPoly.variable(space, "z")] + [
        FracPoly.monomial(space, {f"x{j}": 1, "w": w_pows[j]}) for j in range(1, k)
    ]
    zk = AbelianGroup((k,))
    renaming = {f"x{j}": FracPoly.variable(space, f"y{h[j-1]}") for j in range(1, k)}
    lhs = substitute_all(eigen_factors(zk, lhs_vals), renaming, target_space=space)
    rhs_vals = [FracPoly.variable(space, "z")] + [
        FracPoly.monomial(space, {f"y{j}": 1, "w": Fraction(j, k)}) for j in range(1, k)
    ]
    rhs = eigen_factors(zk, rhs_vals)
    return PermutationReport(verified=match_factors(lhs, rhs) == 1)


# -- product merge ----------------------------------------------------------------


class MergeReport(Record):
    # transform rows: x_{ij} = sum_m coeff * x_{mk+j}
    __slots__ = ("k", "r", "transform", "verified")


def product_merge(k: int, r: int) -> MergeReport:
    """Linear identification of r copies of the order-k ladder with the
    order-rk ladder, certified by matching the linear factors of both
    sides (`match_factors`) instead of expanding them."""
    if k < 2 or r < 1:
        raise ValueError("need k >= 2 and r >= 1")
    space = VarSpace([("w", k)], [f"x{m}" for m in range(r * k)])
    xs = [FracPoly.variable(space, f"x{m}") for m in range(r * k)]
    transform = {}
    lhs = []
    zk = AbelianGroup((k,))
    for i in range(r):
        vals = []
        for j in range(k):
            coeffs = [root_of_unity(r * k, i * j) * root_of_unity(r, i * m) for m in range(r)]
            comb = poly_sum(space, [xs[m * k + j].scale(c) for m, c in enumerate(coeffs)])
            transform[(i, j)] = coeffs
            if j == 0:
                vals.append(comb)
            else:
                vals.append(comb * FracPoly.monomial(space, {"w": Fraction(j, k)}))
        lhs += eigen_factors(zk, vals)
    zrk = AbelianGroup((r * k,))
    rhs_vals = []
    for m in range(r * k):
        e = Fraction(m % k, k)
        if e:
            rhs_vals.append(xs[m] * FracPoly.monomial(space, {"w": e}))
        else:
            rhs_vals.append(xs[m])
    rhs = eigen_factors(zrk, rhs_vals)
    return MergeReport(k=k, r=r, transform=transform, verified=match_factors(lhs, rhs) == 1)


# -- roots <-> coordinate forms ----------------------------------------------------


class CoordsReport(Record):
    # coords: GroupElement -> FracPoly
    __slots__ = ("coords", "stabilizer")


def roots_to_coords(roots, group: AbelianGroup, v_names, z: str = "z") -> CoordsReport:
    """Averaged coordinate forms of a root system closed under the rotation
    v_i -> e_{p_i} v_i.

    `roots` are the series parts b_i (so the factors are z + b_i); the first
    entry generates the system under the rotation action.
    """
    roots = list(roots)
    if len(roots) != group.order:
        raise ValueError("need |G| roots")
    space = VarSpace.union(*(b.space for b in roots), VarSpace((), (z,)))
    weights = {}
    for name in space.names:
        weights[name] = tuple(0 for _ in range(group.rank))
    for i, name in enumerate(v_names):
        weights[name] = tuple(1 if t == i else 0 for t in range(group.rank))
    action = DiagonalAction(group, weights)
    base = roots[0].in_space(space)
    translates = {j: apply_group(base, action, j) for j in group.elements()}
    remaining = [b.in_space(space) for b in roots]
    for j, t in translates.items():
        hit = next((idx for idx, b in enumerate(remaining) if b == t), None)
        if hit is None:
            raise ValueError("roots are not closed under the rotation action")
        remaining.pop(hit)
    # the eigen factor at label -l of the factors z + b_j is |G| times coordinate l
    zvar = FracPoly.variable(space, z)
    sums = dict(zip(translates, eigen_factors(group, [zvar + t for t in translates.values()], ordering=translates)))
    coords = {l: sums[-l].scale(Fraction(1, group.order)) for l in group.elements()}
    # translates[h] == base exactly when every term of base has character
    # value 1 at h, that is when h pairs to 0 with each term's characters
    ctx = PairingContext.natural(group)
    stab = perp(ctx, [group.element(chars) for chars in action.term_characters(space, base.terms)])
    comp = perp(ctx, stab)
    for l, x in coords.items():
        if l not in comp and not x.is_zero():
            raise AssertionError("coordinate form supported off the complement")
    return CoordsReport(coords=coords, stabilizer=stab)


# -- codimension-one factorization ---------------------------------------------------


class Codim1Report(Record):
    # transform: y name -> list of (coeff, x name)
    __slots__ = ("index", "factor_polys", "transform", "verified")


def codim1_factor(spec: NormalFormSpec, i: int) -> Codim1Report:
    """Standard circulant factors of the normal form along the stratum where
    only w_i vanishes (units w_h, h != i, absorbed by setting w_h = 1),
    certified by matching their linear factors with those of the specialized
    normal form (`match_factors`) instead of expanding both."""
    if not 0 <= i < spec.r:
        raise ValueError(f"stratum index {i} is outside 0..{spec.r - 1}")
    report = validate_normal_form(spec)
    if not report.valid:
        raise ValueError("specification fails validation")
    g = spec.group
    p = spec.moduli[i]
    ctx = PairingContext.natural(g)
    exps = spec.exponent_elements()
    cosets = quotient(g, subgroup_from_generators(g, [*report.stabilizer.elements, g.generator(i)]))
    betas = []
    for rep in cosets.representatives:
        res = list(rep.residues)
        res[i] = 0
        betas.append(g.element(tuple(res)))

    subs = {w: 1 for h, w in enumerate(spec.w_names()) if h != i}
    (rhs,) = spec_factors(spec)
    if subs:
        rhs = substitute_all(rhs, subs)

    w_names = spec.w_names()
    x_names = spec.x_names()
    factor_space = VarSpace([(w_names[i], p)], list(x_names))
    y_defs = {}
    factor_polys = []
    lhs = []
    for b_idx, beta in enumerate(betas):
        args = []
        for mu in range(p):
            # beta_i = 0, so the pairing leaves out the i-th generator
            rows = [
                (root_of_unity(ctx.k, pairing(ctx, beta, lm)), x) for lm, x in zip(exps, x_names) if lm.residues[i] == mu
            ]
            y_defs[f"y{b_idx}_{mu}"] = rows
            comb = poly_sum(factor_space, [FracPoly.variable(factor_space, x).scale(c) for c, x in rows])
            if mu == 0:
                args.append(comb)
            else:
                args.append(comb * FracPoly.monomial(factor_space, {w_names[i]: Fraction(mu, p)}))
        factors = eigen_factors(AbelianGroup((p,)), args)
        lhs += factors
        # mu -> mu/p is additive on Z_p, so the determinant has integral
        # exponents on w_i (see normal_form_poly)
        factor_polys.append(product(factors, integral=(w_names[i],)))
    return Codim1Report(
        index=i,
        factor_polys=factor_polys,
        transform=y_defs,
        verified=match_factors(lhs, rhs) == 1,
    )


# -- exponent cleaning ------------------------------------------------------------


class CleanedLadder(Record):
    # order: input row indices, stage by stage
    __slots__ = ("order", "delta", "beta")


def clean_exponents(gamma_raw, moduli) -> CleanedLadder:
    """Sort rows by successive termwise minima and split the increments into
    integer parts and fractional parts delta_{ji} in (1/p_i){0..p_i-1}.

    Fails (ValueError) when a modulus is below 1, when a row's length
    differs from the number of moduli, or when no termwise-minimal row
    exists at some stage.
    """
    moduli = tuple(int(p) for p in moduli)
    if any(p < 1 for p in moduli):
        raise ValueError("moduli must be positive")
    rows = [tuple(Fraction(x) for x in row) for row in gamma_raw]
    for i, row in enumerate(rows):
        if len(row) != len(moduli):
            raise ValueError(f"gamma row {i} has {len(row)} exponents for {len(moduli)} moduli")
        for e, p in zip(row, moduli):
            if e < 0 or p % e.denominator != 0:
                raise ValueError(f"exponent {e} incompatible with modulus {p}")
    remaining = list(range(len(rows)))
    prev = tuple(Fraction(0) for _ in moduli)
    order, deltas, betas = [], [], []
    while remaining:
        minimal = None
        for idx in remaining:
            if all(rows[idx][t] <= rows[j][t] for j in remaining for t in range(len(moduli))):
                minimal = idx
                break
        if minimal is None:
            raise ValueError("no termwise-minimal exponent row; not of invariant-compatible shape")
        inc = tuple(a - b for a, b in zip(rows[minimal], prev))
        delta = tuple(e - int(e) for e in inc)
        beta = tuple(int(e) for e in inc)
        deltas.append(delta)
        betas.append(beta)
        order.append(minimal)
        prev = rows[minimal]
        remaining.remove(minimal)
    return CleanedLadder(order=tuple(order), delta=tuple(deltas), beta=tuple(betas))
