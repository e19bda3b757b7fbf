"""Sparse multivariate polynomials over Q(e) with fractional divisorial exponents.

A variable space splits into divisorial variables (each with a declared
denominator bound p, exponents in (1/p) * Z>=0) and free variables (integer
exponents, negative allowed for the Laurent fragments used by chart
transitions).  Coefficients are exact cyclotomic numbers.

Term keys are tuples of Python ints: position i holds e_i * b_i, the
exponent e_i scaled by the variable's bound b_i (1 for a free variable), so
sums and comparisons of exponents are integer operations.  Exponents are
checked and scaled in at the boundary (`FracPoly(...)`, `monomial`,
`constant`).  Face values (a `Fraction` on a divisorial position, an `int`
on a free one) come back out of `VarSpace.face_key`, `sorted_terms`, `str`,
and the accessors that return exponents or degrees.

One change-of-space rule, `_placed_entry`, moves a key entry into another
space (`substitute`, and through it `in_space` and `poly_sum`): rescaled to
the target position's bound it must be an integer, nonnegative on a
divisorial position, and a variable the target lacks is refused when a term
uses it.

Substitution (`substitute_all`, and `substitute`, its one-polynomial case)
resolves each (source position, key entry) it meets once per call, and the
polynomials of one call share these resolutions and the target space.  An
entry k at a position of bound b resolves to integer key increments when
its variable is unsubstituted (the change-of-space rule) or its image is
one term with coefficient the rational 1: the power k / b of that term
adds k * kappa / b at each target position where the term's key holds
kappa, checked to be an integer, nonnegative on a divisorial position (a
failed check goes to `_poly_power`, which raises its error).  Any other
entry resolves to the term map of its image's power (`_poly_power`).  A
term whose entries are all increments is one key and one merge; otherwise
its coefficient, at the key of its increments, is multiplied by the term
maps in position order (`_times`).  This is the term-by-term product:
multiplying by a rational 1 returns the coefficient itself, and adding the
increments first translates every key of the products, which changes no
sum, no map order and no `Cyclo` order.

Total degree counts exponents at face value, matching the weighted-order
bookkeeping used throughout.  Internally a term's degree is the integer
sum of k_i * (L / b_i), L the lcm of the bounds: face degree times L.

`poly_sum` adds a list of polynomials into one copy of the first addend's
term map; `a + b` is its two-addend case.

A product of two polynomials of two or more terms each, and `product` of
a list of polynomials, run on packed integers (Kronecker substitution per
coefficient and per key).  Every coefficient is lifted to order K, the lcm
of all the coefficient orders, over one denominator per factor, and its
deg Phi_K numerators become one int with signed slots of B bits, its value
at 2^B; a key becomes one int with a bit field per position, wide enough
for the sum of the factors' spans in that position.  A term pair then
costs one int addition for the key and one int product added into the
key's running sum, kept modulo Phi_K(2^B).

A list f_1, ..., f_n is multiplied left to right, and B is chosen once for
the whole chain from one l1 bound (von zur Gathen and Gerhard, Modern
Computer Algebra, 6.6 and 8.4).  Write ||c|| for the sum of the absolute
numerators of a coefficient c lifted to K over its factor's one
denominator, ||f|| for the sum of ||c|| over the terms of f, and R_K for the
largest |entry| of x^i mod Phi_K over i < K.  Every reduced running sum at
every level has numerators of at most R_K * ||f_1|| ... ||f_n||, so B =
bit_length(R_K * ||f_1|| ... ||f_n||) + 3.  Proof: a term of the product
so far is the reduction of the sum of its tuple products c_1 ... c_j (one
term per factor), reduction mod Phi_K commutes with products, and a running
sum adds whole terms of the level before times terms of f_j, so it is the
reduction of the sum of a subset of the tuple products of level j.  Fold
that sum modulo x^K - 1 (Phi_K divides x^K - 1): a tuple product folds to a
vector of absolute entry sum at most ||c_1|| ... ||c_j||, so the subset
folds to one of at most ||f_1|| ... ||f_j|| <= ||f_1|| ... ||f_n|| (each
||f_i|| >= 1).  Reducing a folded vector v gives sum_i v_i (x^i mod Phi_K),
with entries of at most R_K times the absolute entry sum of v.  So at every
level the balanced remainder modulo Phi_K(2^B) is exactly the packed
reduced sum, and a sum is zero exactly when that remainder is: the result
is exact by this bound.  Two operands are the case n = 2.

`product(polys, integral=names)` forms only the terms whose exponents on
the named divisorial variables are integers.  Whether a key ka + kb of the
last level is kept depends only on the residues of ka and kb modulo the
bounds.  The residues are read one column (integral position) at a time,
for all keys at once, and the last factor's terms are grouped per kind of
the product so far (below) and per residue tuple: each term of the product
so far walks only the group of its own kind with the opposite residues.
The walks form exactly the pairs that land on kept keys, so every kept key
receives the same pairs in the same order as in the full product, and the
keys are independent of each other in the term loop, so the projection is
exact for any input and keeps the values, the map order and every `Cyclo`
order of the kept terms.  The l1 bound covers it, since its sums are
subsets of the full product's.

`product(polys, degree=d, exclude=names)` truncates every product it
forms at total degree d, the named variables not counted: it equals the
fold acc = f_1, acc = truncate(acc * f_i, d, exclude), and the first
factor is not truncated.  A term's degree is a linear function of its key,
so each key carries it in one more bit field, above the others, less the
factor's least degree; the degree of a pair is then read off the sum of
the two keys.  At every level each term of the product so far walks only
the factor terms (of its own kind, and of its residues with integral=)
whose degree keeps the pair at or below d, and these walks are cut once
per kind and per room left under d, outside the pair loop.  This is exact
for the reason the integral projection is: whether a key is kept depends
only on the key, so every kept key receives the same pairs in the same
order as in the full product, and the dropped keys never meet the kept
ones.  A product of two polynomials one of which has one term runs the
pairwise loop, which skips the pairs past d.

Between levels a term of the product so far stays packed: its key int, its
balanced remainder over the product of the denominators so far, and the
(order, is rational) kind of its coefficient.  The value is rational
exactly when the remainder is below 2^(B-1) in magnitude, since then only
its lowest slot is nonzero.  Every key is checked to lie in Q(e_m), m its
order, at every level (by that slot test when m = 1, by descent when
1 < m < K and the value is not rational; a rational value lies in every
Q(e_m)), or the product raises an ArithmeticError.  Only the last level
unpacks: its keys into tuples, one position at a time for all keys, and
its values into canonical `Cyclo`s, a rational one read from its lowest
slot alone.

The result equals the schoolbook term loop's, applied factor by factor,
byte for byte and in map order, because the kernel keeps the loop's one
rule at every level: a key enters the map with its first product, a
running sum that reaches zero leaves the map, and the key's next product
enters it again, at the end.  The `Cyclo` orders follow: the product of c1
and c2 has the order of c1 if c2 is rational, else that of c2 if c1 is
rational, else their lcm, and a running sum has the lcm of the orders of
the products since its key last entered the map, tracked as a bit mask.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import lcm, prod
from operator import add, mul, sub

from .abelian import AbelianGroup, GroupElement
from .cyclotomic import (
    Cyclo,
    _join_signed,
    _lift_common,
    _pack,
    _packed_modulus,
    _slot_bits,
    _square_multiply,
    _unpack,
    root_of_unity,
)
from .jsonio import frac_to_str
from .modular import rank_mod
from .record import _immutable
from .smith import rank


class VarSpace:
    """Named divisorial variables (with denominator bounds) plus free variables.

    `bounds` holds the bound of every position (1 for a free variable),
    `lcm` their lcm L, `scales` the integer L / b per position (the
    weights of a scaled key's degree) and `zero_key` the key of 1.
    """

    __slots__ = (
        "div_names", "div_bounds", "free_names", "_index", "bounds", "lcm", "scales", "zero_key", "_hash", "_units",
    )

    def __init__(self, divisorial=(), free=()):
        names = []
        bounds = []
        for item in divisorial:
            if isinstance(item, str):
                names.append(item)
                bounds.append(1)
            else:
                name, bound = item
                names.append(name)
                bounds.append(int(bound))
        self.div_names = tuple(names)
        self.div_bounds = tuple(bounds)
        self.free_names = tuple(free)
        if any(b < 1 for b in self.div_bounds):
            raise ValueError("denominator bounds must be >= 1")
        all_names = self.div_names + self.free_names
        if len(set(all_names)) != len(all_names):
            raise ValueError("variable names must be distinct")
        self._index = {n: i for i, n in enumerate(all_names)}
        self.bounds = self.div_bounds + (1,) * len(self.free_names)
        self.lcm = lcm(*self.bounds)
        self.scales = tuple(self.lcm // b for b in self.bounds)
        self.zero_key = (0,) * len(all_names)
        self._hash = hash((self.div_names, self.div_bounds, self.free_names))
        self._units = None

    @property
    def names(self):
        return self.div_names + self.free_names

    @property
    def ndiv(self):
        return len(self.div_names)

    def position(self, name: str) -> int:
        """The position of name; a name not in the space is a ValueError."""
        if name not in self._index:
            raise ValueError(f"variable {name} not in the space")
        return self._index[name]

    def bound(self, name: str) -> int:
        return self.div_bounds[self.div_names.index(name)]

    def unit_keys(self) -> dict:
        """{scaled key of the term v: v} for each variable v (the key holds
        the bound of v at its position and 0 elsewhere), formed once."""
        if self._units is None:
            zero = self.zero_key
            self._units = {
                zero[:pos] + (b,) + zero[pos + 1:]: name for pos, (name, b) in enumerate(zip(self.names, self.bounds))
            }
        return self._units

    def is_divisorial(self, name: str) -> bool:
        return name in self.div_names

    def face_key(self, key) -> tuple:
        """Face-value exponents of a scaled term key: a Fraction on each
        divisorial position, an int on each free one."""
        nd = len(self.div_bounds)
        return tuple(Fraction(k, b) for k, b in zip(key, self.div_bounds)) + tuple(key[nd:])

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other):
        return self is other or (
            isinstance(other, VarSpace)
            and self.div_names == other.div_names
            and self.div_bounds == other.div_bounds
            and self.free_names == other.free_names
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        div = ", ".join(f"{n}(1/{b})" for n, b in zip(self.div_names, self.div_bounds))
        return f"VarSpace([{div}]; [{', '.join(self.free_names)}])"

    def union(self, *others: "VarSpace") -> "VarSpace":
        """Merge spaces left to right: each name keeps its first position,
        shared divisorial names take the lcm bound, and a name divisorial in
        one space and free in another is an error.  Equal spaces merge to
        the first of them."""
        if all(other == self for other in others):
            return self
        div: dict = {}
        free: dict = {}
        for space in (self,) + others:
            for n, b in zip(space.div_names, space.div_bounds):
                if n in free:
                    raise ValueError(f"variable {n} is divisorial in one space and free in another")
                div[n] = lcm(div.get(n, 1), b)
            for n in space.free_names:
                if n in div:
                    raise ValueError(f"variable {n} is divisorial in one space and free in another")
                free[n] = None
        return VarSpace(div.items(), free)

    def _degree_weights(self, exclude) -> tuple:
        """Per-position degree weights with the excluded variables at 0."""
        if not exclude:
            return self.scales
        return tuple(0 if n in exclude else s for n, s in zip(self.names, self.scales))


def _check_exponent(space: VarSpace, pos: int, e) -> int:
    """The scaled key entry e * b of the face-value exponent e at pos.

    A float is refused even when integral: no float decides an exponent."""
    if isinstance(e, float):
        raise ValueError(f"float exponent {e!r} on {space.names[pos]}: give an int or a Fraction")
    if pos < space.ndiv:
        b = space.div_bounds[pos]
        if type(e) is not int:
            e = Fraction(e)
        if e < 0:
            raise ValueError(f"negative exponent on divisorial variable {space.names[pos]}")
        if type(e) is int:
            return e * b
        if b % e.denominator != 0:
            raise ValueError(f"exponent {e} on {space.names[pos]} has denominator outside 1/{b}")
        return e.numerator * (b // e.denominator)
    if type(e) is not int:
        e = Fraction(e)
        if e.denominator != 1:
            raise ValueError(f"fractional exponent {e} on free variable {space.names[pos]}")
        e = e.numerator
    return e


def _face(space: VarSpace, pos: int, k: int):
    """Face value of the scaled key entry k at pos."""
    return Fraction(k, space.bounds[pos]) if pos < space.ndiv else k


def _placed_entry(src: VarSpace, pos: int, k: int, space: VarSpace) -> tuple[int, int]:
    """The position in space of src's variable at pos, and the key entry k
    rescaled by integers to that position's bound; an exponent the target
    cannot hold, or a variable it lacks, is a ValueError."""
    name = src.names[pos]
    if name not in space:
        raise ValueError(f"target space is missing variable {name}")
    p = space._index[name]
    entry, r = divmod(k * space.bounds[p], src.bounds[pos])
    if r:
        raise ValueError(f"exponent {_face(src, pos, k)} on {name} is not legal in the target space")
    if entry < 0 and p < space.ndiv:
        raise ValueError(f"negative exponent on divisorial variable {name}")
    return p, entry


def _scaled_terms(space: VarSpace, terms: dict):
    """The items of a face-value term map with scaled keys, coefficients
    made Cyclo and the zero ones dropped."""
    n = len(space.names)
    for key, coeff in terms.items():
        coeff = coeff if isinstance(coeff, Cyclo) else Cyclo.rational(coeff)
        if coeff.is_zero():
            continue
        if len(key) != n:
            raise ValueError(f"exponent tuple of length {len(key)} in a space of {n} variables")
        yield tuple(_check_exponent(space, i, e) for i, e in enumerate(key)), coeff


def _merge(terms: dict, items) -> dict:
    """Add (scaled key, nonzero coefficient) items into terms in place and
    return it.  A sum is cur + coeff, and a key whose sum is zero leaves the
    map; `Cyclo` orders and the map order depend on both rules."""
    for key, coeff in items:
        cur = terms.get(key)
        if cur is not None:
            coeff = cur + coeff
            if coeff.is_zero():
                del terms[key]
                continue
        terms[key] = coeff
    return terms


class FracPoly:
    """Polynomial with canonical term map {scaled exponent key: nonzero Cyclo}."""

    __slots__ = ("space", "terms")

    def __init__(self, space: VarSpace, terms: dict | None = None):
        """terms maps face-value exponent tuples (in the order of space.names)
        to coefficients; the keys are checked and scaled."""
        self.space = space
        self.terms = _merge({}, _scaled_terms(space, terms)) if terms else {}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _raw(space: VarSpace, terms: dict) -> "FracPoly":
        # terms already canonical: scaled keys, no zero coefficients
        out = object.__new__(FracPoly)
        out.space = space
        out.terms = terms
        return out

    @staticmethod
    def _term(space: VarSpace, key: tuple, coeff) -> "FracPoly":
        # one term at a scaled key, coefficient coerced, zero dropped
        coeff = coeff if isinstance(coeff, Cyclo) else Cyclo.rational(coeff)
        return FracPoly._raw(space, {} if coeff.is_zero() else {key: coeff})

    @staticmethod
    def zero(space: VarSpace) -> "FracPoly":
        return FracPoly._raw(space, {})

    @staticmethod
    def constant(space: VarSpace, c) -> "FracPoly":
        return FracPoly._term(space, space.zero_key, c)

    @staticmethod
    def variable(space: VarSpace, name: str) -> "FracPoly":
        return FracPoly.monomial(space, {name: 1})

    @staticmethod
    def monomial(space: VarSpace, exps: dict, coeff=1) -> "FracPoly":
        for n in exps:
            if n not in space:
                raise ValueError(f"variable {n} not in the space")
        key = list(space.zero_key)
        for n, e in exps.items():
            i = space._index[n]
            key[i] = _check_exponent(space, i, e)
        return FracPoly._term(space, tuple(key), coeff)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(k) for k in self.terms)

    def constant_coefficient(self) -> Cyclo:
        return self.terms.get(self.space.zero_key, Cyclo.zero())

    def _term_degree(self, key) -> int:
        # face degree times space.lcm
        return sum(map(mul, key, self.space.scales))

    def total_degree(self):
        """Maximal face-value term degree (None for the zero polynomial)."""
        if not self.terms:
            return None
        return Fraction(max(map(self._term_degree, self.terms)), self.space.lcm)

    def order(self, exclude: frozenset | set = frozenset()):
        """Minimal term degree, optionally ignoring some variables."""
        if not self.terms:
            return None
        w = self.space._degree_weights(exclude)
        return Fraction(min(sum(map(mul, k, w)) for k in self.terms), self.space.lcm)

    def degree_in(self, name: str):
        i = self.space.position(name)
        if not self.terms:
            return None
        return _face(self.space, i, max(k[i] for k in self.terms))

    def sorted_items(self):
        """The (scaled key, coefficient) items in the deterministic term
        order: ascending total degree, then exponents."""
        # the keys are distinct, so no two (degree, key) pairs tie
        terms, scales = self.terms, self.space.scales
        return [(key, terms[key]) for _d, key in sorted([(sum(map(mul, key, scales)), key) for key in terms])]

    def sorted_terms(self):
        """`sorted_items` with face-value keys (see VarSpace.face_key)."""
        face = self.space.face_key
        return [(face(k), c) for k, c in self.sorted_items()]

    def homogeneous_parts(self, exclude: frozenset | set = frozenset()) -> dict:
        """Split into {degree: part}, degree over variables not excluded."""
        w = self.space._degree_weights(exclude)
        parts: dict = {}
        for key, coeff in self.terms.items():
            parts.setdefault(sum(map(mul, key, w)), {})[key] = coeff
        L = self.space.lcm
        return {Fraction(d, L): FracPoly._raw(self.space, t) for d, t in sorted(parts.items())}

    def coefficients_in(self, name: str) -> dict:
        """{exponent of name: coefficient polynomial without name}.

        Requires integer exponents on name (it may be divisorial).
        """
        i = self.space.position(name)
        b = self.space.bounds[i]
        out: dict = {}
        for key, coeff in self.terms.items():
            e, r = divmod(key[i], b)
            if r:
                raise ValueError(f"non-integer exponent on {name}")
            out.setdefault(e, {})[key[:i] + (0,) + key[i + 1:]] = coeff
        return {e: FracPoly._raw(self.space, t) for e, t in out.items()}

    # -- space handling -----------------------------------------------------

    def in_space(self, space: VarSpace) -> "FracPoly":
        """Re-express in another space by the one change-of-space rule (see
        the module docstring), keeping the coefficients and the map order."""
        return self if space == self.space else self.substitute({}, target_space=space)

    @staticmethod
    def _aligned(a: "FracPoly", b: "FracPoly"):
        if a.space == b.space:
            return a, b
        space = a.space.union(b.space)
        return a.in_space(space), b.in_space(space)

    def _coerce(self, x):
        if isinstance(x, FracPoly):
            return x
        if isinstance(x, (int, Fraction, Cyclo)):
            return FracPoly.constant(self.space, x)
        raise TypeError(f"cannot coerce {type(x).__name__} to FracPoly")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = FracPoly._aligned(self, self._coerce(other))
        return poly_sum(a.space, (a, b))

    __radd__ = __add__

    def __neg__(self):
        return FracPoly._raw(self.space, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        a, b = FracPoly._aligned(self, self._coerce(other))
        return FracPoly._raw(a.space, _times(a.terms, b.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self ** n by square-and-multiply from 1; a one-term polynomial
        takes those steps on its coefficient alone, from a rational 1."""
        if n < 0:
            raise ValueError("negative powers only via monomial division")
        if len(self.terms) == 1:
            ((key, coeff),) = self.terms.items()
            return FracPoly._raw(self.space, {tuple(k * n for k in key): _square_multiply(Cyclo.one(), coeff, n)})
        return _square_multiply(FracPoly.constant(self.space, 1), self, n)

    def scale(self, c) -> "FracPoly":
        c = c if isinstance(c, Cyclo) else Cyclo.rational(c)
        if c.is_zero():
            return FracPoly._raw(self.space, {})
        return FracPoly._raw(self.space, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = FracPoly.constant(self.space, other)
        if not isinstance(other, FracPoly):
            return NotImplemented
        a, b = FracPoly._aligned(self, other)
        return a.terms == b.terms

    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    # -- substitution ---------------------------------------------------------

    def substitute(self, mapping: dict, target_space: VarSpace | None = None) -> "FracPoly":
        """Simultaneous substitution name -> polynomial (or scalar): the
        one-polynomial case of `substitute_all`, which says what it keeps.

        Unlisted variables persist.  Fractional or negative powers of a
        substituted variable require the image to be a one-term monomial
        whose exponents stay legal; coefficients are then raised through
        cyclotomic roots of unity only when the power is integral, so a
        fractional power additionally requires coefficient 1.
        """
        return substitute_all((self,), mapping, target_space)[0]

    def __repr__(self):
        return f"FracPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for key, coeff in self.sorted_terms():
            mono = []
            for i, e in enumerate(key):
                if e == 0:
                    continue
                name = self.space.names[i]
                if e == 1:
                    mono.append(name)
                else:
                    mono.append(f"{name}^{e}" if e.denominator == 1 else f"{name}^({e})")
            mono_s = "*".join(mono)
            if coeff.is_rational():
                q = coeff.as_rational()
                if not mono_s:
                    c_s = frac_to_str(q)
                elif q == 1:
                    c_s = mono_s
                elif q == -1:
                    c_s = f"-{mono_s}"
                else:
                    c_s = f"{frac_to_str(q)}*{mono_s}"
            else:
                c_s = f"({coeff})*{mono_s}" if mono_s else f"({coeff})"
            chunks.append(c_s)
        return _join_signed(chunks)


def _contribution_order(kind1: tuple, kind2: tuple) -> int:
    """The order of c1 * c2 from the (order, is rational) kinds of c1 and
    c2: a rational factor keeps the other one's order."""
    (o1, r1), (o2, r2) = kind1, kind2
    return o1 if r2 else o2 if r1 else lcm(o1, o2)


def _product_terms(maps: list, integral: tuple = (), bound=None) -> dict:
    """The term map of the product of a list of term maps of one space,
    formed left to right: at every level, the map the pairwise term loop
    builds, in its order.  A running sum that reaches zero leaves the map,
    and its key's next pair enters it again at the end (see the module
    docstring).  With integral, (position, bound) pairs, only the keys whose
    entries at those positions are multiples of the bound are formed at the
    last level.  With bound, (limit, degree weights), only the pairs whose
    degree is at most limit are formed, at every level after the first."""
    if not all(maps):
        return {}
    if len(maps) == 1:
        return {key: c for key, c in maps[0].items() if all(key[p] % b == 0 for p, b in integral)}
    coeffs = [list(m.values()) for m in maps]
    k = lcm(*(c.order for cs in coeffs for c in cs))
    lifted = [_lift_common(cs, k) for cs in coeffs]
    # every reduced partial sum is bounded through the l1 norms of the
    # factors' numerators (see the module docstring)
    bits = _slot_bits(k, prod(sum(map(abs, chain.from_iterable(nums))) for nums, _den in lifted))
    half = 1 << (bits - 1)
    # key position t holds the sum of k_t - lo_t over the factors, lo_t the
    # factor's column minimum, in a bit field wide enough for every sum
    keyints = [[0] * len(m) for m in maps]
    fields, offset = [], 0
    for cols in zip(*(zip(*m) for m in maps)):
        span = lows = 0
        for ints, col in zip(keyints, cols):
            lo = min(col)
            for i, e in enumerate(col):
                ints[i] += (e - lo) << offset
            span += max(col) - lo
            lows += lo
        width = span.bit_length()
        fields.append((offset, (1 << width) - 1, lows))
        offset += width
    if bound is not None:
        # the top field holds a term's degree less its factor's least one;
        # rooms[j] is what the fields' sum may reach at level j
        limit, weights = bound
        rooms = []
        for ints, m in zip(keyints, maps):
            degrees = [sum(map(mul, key, weights)) for key in m]
            lo = min(degrees)
            for i, d in enumerate(degrees):
                ints[i] += (d - lo) << offset
            limit -= lo
            rooms.append(limit)
    # the product so far: packed keys in map order, balanced packed values
    # over aden, and the (order, is rational) kinds of its coefficients
    akeys, aden = keyints[0], lifted[0][1]
    avals = [_pack(num, bits) for num in lifted[0][0]]
    akinds = [(c.order, c.is_rational()) for c in coeffs[0]]
    # running sums are kept modulo Phi_k(2**bits), where they are zero
    # exactly when they are zero in Q(e_k)
    modulus = _packed_modulus(k, bits)
    for level in range(1, len(maps)):
        bkeyints, (bnums, bden) = keyints[level], lifted[level]
        final = level == len(maps) - 1
        # a pair's order depends only on the kinds of its coefficients;
        # each order that occurs is one bit of a key's mask, and the
        # factor's terms are listed once per kind as (key, value, bit)
        bkind = [(c.order, c.is_rational()) for c in coeffs[level]]
        bvals = [_pack(num, bits) for num in bnums]
        orders: dict = {}
        by_kind: dict = {}
        for a in akinds:
            if a not in by_kind:
                by_kind[a] = list(
                    zip(bkeyints, bvals, [1 << orders.setdefault(_contribution_order(a, b), len(orders)) for b in bkind])
                )
        if final and integral:
            # a term of the product so far meets only the last factor's terms
            # of its kind whose residues at the integral positions are
            # opposite to its own; residues are read one column at a time
            cols = [(*fields[p], b) for p, b in integral]  # (offset, mask, lows, bound)
            bres = list(zip(*[[-(kb >> off & mask) % b for kb in bkeyints] for off, mask, _lo, b in cols]))
            groups: dict = {}
            for a, items in by_kind.items():
                for item, r in zip(items, bres):
                    groups.setdefault((a, *r), []).append(item)
            ares = [[((ka >> off & mask) + lo) % b for ka in akeys] for off, mask, lo, b in cols]
            walks = [groups.get(ar, ()) for ar in zip(akinds, *ares)]
        else:
            walks = map(by_kind.__getitem__, akinds)
        if bound is not None:
            # each walk cut to the pairs of degree at most the bound, once
            # per walk (a live list, so its id is fixed) and per room left
            cut: dict = {}
            cuts = []
            for walk, ka in zip(walks, akeys):
                room = rooms[level] - (ka >> offset)
                kept = cut.get((id(walk), room))
                if kept is None:
                    kept = cut[id(walk), room] = [item for item in walk if item[0] >> offset <= room]
                cuts.append(kept)
            walks = cuts
        sums: dict = {}  # packed key -> [running sum, order mask], in map order
        get = sums.get
        for ka, pa, walk in zip(akeys, avals, walks):
            for kb, pb, bit in walk:
                key = ka + kb
                entry = get(key)
                if entry is None:
                    sums[key] = [pa * pb, bit]
                else:
                    s = (entry[0] + pa * pb) % modulus
                    if s:
                        entry[0] = s
                        entry[1] |= bit
                    else:  # the sum leaves the map; the key's next product restarts it
                        del sums[key]
        aden *= bden
        mask_order: dict = {}
        avals, akinds = [], []
        for s, mask in sums.values():
            # the balanced remainder is the packed reduced numerators
            s %= modulus
            if s > modulus >> 1:
                s -= modulus
            m = mask_order.get(mask)
            if m is None:
                m = mask_order[mask] = lcm(*(o for o, bit in orders.items() if mask >> bit & 1))
            rational = -half < s < half
            # every key lies in Q(e_m), checked at every level
            if final or 1 < m < k:
                c = _unpack(s, bits, aden, k, m)
            elif m == 1 and not rational:
                raise ArithmeticError("packed product does not lie in Q(e_1)")
            avals.append(c if final else s)
            akinds.append((m, rational))
        akeys = list(sums)
    # a space without variables has the one key ()
    cols = [[(key >> off & mask) + lo for key in akeys] for off, mask, lo in fields]
    return dict(zip(zip(*cols) if cols else repeat(()), avals))


def _times(a: dict, b: dict, bound=None) -> dict:
    """The term map of the product of two term maps of one space: the
    packed kernel when both have two or more terms, else the pairwise loop,
    in which every key is hit once, by a nonzero product.  With bound,
    (limit, degree weights), only the pairs of degree at most limit."""
    if len(a) > 1 and len(b) > 1:
        return _product_terms([a, b], (), bound)
    if bound is None:
        return {tuple(map(add, ka, kb)): ca * cb for ka, ca in a.items() for kb, cb in b.items()}
    limit, weights = bound
    rooms = [(ka, ca, limit - sum(map(mul, ka, weights))) for ka, ca in a.items()]
    degrees = [(kb, cb, sum(map(mul, kb, weights))) for kb, cb in b.items()]
    return {tuple(map(add, ka, kb)): ca * cb for ka, ca, room in rooms for kb, cb, d in degrees if d <= room}


def product(polys, integral=(), degree=None, exclude: frozenset | set = frozenset()) -> FracPoly:
    """The product of a nonempty list of polynomials in one packed pass:
    f_1 * f_2 * ... * f_n formed left to right, equal to it term by term,
    in map order and in every coefficient's order.  Two polynomials one of
    which has one term are multiplied by the pairwise loop.

    integral names divisorial variables of the product's space whose
    exponents must be integers; then only the terms with integer exponents
    on all of them are formed and returned, each equal to its term of the
    full product, in the same map order (see the module docstring).

    degree bounds every product formed: the result equals the fold
    acc = f_1, acc = truncate(acc * f_i, degree, exclude) term by term, in
    map order and in every coefficient's order, and the pairs past the
    bound are never formed (see the module docstring)."""
    polys = list(polys)
    if not polys:
        raise ValueError("product of no polynomials")
    space = VarSpace.union(*(p.space for p in polys))
    positions = []
    for name in integral:
        if not space.is_divisorial(name):
            raise ValueError(f"{name} is not a divisorial variable of the product's space")
        positions.append((space._index[name], space.bound(name)))
    maps = [p.in_space(space).terms for p in polys]
    bound = None if degree is None else (_degree_limit(space, degree), space._degree_weights(exclude))
    if len(maps) == 2 and not positions:
        return FracPoly._raw(space, _times(*maps, bound))
    return FracPoly._raw(space, _product_terms(maps, tuple(positions), bound))


def poly_sum(space: VarSpace, polys) -> FracPoly:
    """The sum of polynomials in space, p_1 + p_2 + ... + p_n formed left
    to right in one copy of p_1's term map: equal to it term by term, in
    map order and in every coefficient's order.  Each addend is brought
    into space with in_space, by the one change-of-space rule (see the
    module docstring), so an addend whose terms use a variable that space
    lacks, or that space cannot hold, is refused; no addends sum to zero."""
    polys = iter(polys)
    first = next(polys, None)
    if first is None:
        return FracPoly.zero(space)
    terms = dict(first.in_space(space).terms)
    for p in polys:
        _merge(terms, p.in_space(space).terms.items())
    return FracPoly._raw(space, terms)


def _poly_power(p: FracPoly, e) -> FracPoly:
    """p ** e for a face-value exponent e: `p ** e` when e is a nonnegative
    integer, else a legal negative or fractional power of a one-term
    monomial."""
    e = e if type(e) is int else Fraction(e)
    if e.denominator == 1 and e >= 0:
        return p ** int(e)
    if len(p.terms) != 1:
        raise ValueError(f"cannot raise a {len(p.terms)}-term polynomial to power {e}")
    (key, coeff), = p.terms.items()
    if e.denominator != 1:
        if coeff != Cyclo.one():
            raise ValueError(f"fractional power {e} of a monomial with coefficient {coeff}")
        c = Cyclo.one()
    else:
        c = coeff ** int(e)
    # the scaled entry of the face exponent (k / b) * e is k * e, legal when
    # it is an integer, and nonnegative on a divisorial position
    new = []
    for i, k in enumerate(key):
        q, r = divmod(k * e.numerator, e.denominator)
        if r or (q < 0 and i < p.space.ndiv):
            _check_exponent(p.space, i, _face(p.space, i, k) * e)  # raises the error
        new.append(q)
    return FracPoly._raw(p.space, {tuple(new): c})


def substitute_all(polys, mapping: dict, target_space: VarSpace | None = None) -> list[FracPoly]:
    """[f.substitute(mapping, target_space) for f in polys] for polynomials
    of one space, in one term loop that shares the target space and the
    resolution of each (position, key entry) it meets (see the module
    docstring); equal to it term by term, in map order and in every
    coefficient's order, and raising the first failing polynomial's error.

    An unlisted variable is not multiplied in: its key entry moves into
    the target space by the one change-of-space rule, so an exponent the
    target cannot hold, a negative one on a divisorial position, or a used
    variable the target lacks is a ValueError.  Each term's image is the
    term's coefficient at those entries times the powers of the images,
    taken in position order, so its `Cyclo` operations, its map order and
    every coefficient's order are those of the term-by-term product."""
    polys = list(polys)
    if not polys:
        return []
    src = polys[0].space
    if any(f.space != src for f in polys):
        raise ValueError("substitute_all takes polynomials of one space")
    space = target_space
    if space is None:
        keep_div = [(n, b) for n, b in zip(src.div_names, src.div_bounds) if n not in mapping]
        keep_free = [n for n in src.free_names if n not in mapping]
        space = VarSpace(keep_div, keep_free).union(*(v.space for v in mapping.values() if isinstance(v, FracPoly)))
    images = {}
    for name, val in mapping.items():
        if name not in src:
            raise ValueError(f"substituted variable {name} not in the space")
        images[name] = val if isinstance(val, FracPoly) else FracPoly.constant(space, val)
    memo = [{} for _ in src.names]  # per position: key entry -> increments or a term map
    out = []
    for f in polys:
        terms: dict = {}
        for key, coeff in f.terms.items():
            base = list(space.zero_key)
            factors = []
            for i, k in enumerate(key):
                if k:
                    step = memo[i].get(k)
                    if step is None:
                        step = memo[i][k] = _resolve(src, i, k, images, space)
                    if type(step) is dict:
                        factors.append(step)
                    else:
                        for p, e in step:
                            base[p] += e
            if not factors:
                _merge(terms, ((tuple(base), coeff),))
                continue
            items = {tuple(base): coeff}
            for factor in factors:
                items = _times(items, factor)
            _merge(terms, items.items())
        out.append(FracPoly._raw(space, terms))
    return out


def _resolve(src: VarSpace, i: int, k: int, images: dict, space: VarSpace):
    """What the key entry k at src's position i contributes in space: the
    increments ((target position, entry), ...) of an unlisted variable or
    of the power of a one-term image with coefficient 1, else the term map
    of the power of its image, lifted into space on first use."""
    name = src.names[i]
    if name not in images:
        return (_placed_entry(src, i, k, space),)
    image = images[name] = images[name].in_space(space)
    if len(image.terms) == 1:
        ((key, c),) = image.terms.items()
        if c == 1:
            # the entry of (kappa / b') * (k / b) at a target position of
            # bound b' is kappa * k / b; a check that fails falls through
            # to _poly_power, which raises its error
            incs = [(p, *divmod(kappa * k, src.bounds[i])) for p, kappa in enumerate(key) if kappa]
            if not any(r or (e < 0 and p < space.ndiv) for p, e, r in incs):
                return tuple((p, e) for p, e, _r in incs)
    return _poly_power(image, _face(src, i, k)).terms


def _compositions(total: int, n: int):
    """The vectors of n nonnegative ints summing to total, lexicographically."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


# -- named operations --------------------------------------------------------


def substitute_power(f: FracPoly, name: str, p: int, new_name: str | None = None) -> FracPoly:
    """Replace the divisorial variable name by new_name**p (clearing denominators)."""
    if p < 1:
        raise ValueError("power must be positive")
    if not f.space.is_divisorial(name):
        raise ValueError(f"{name} is not a divisorial variable")
    i = f.space._index[name]
    b = f.space.bounds[i]
    for key in f.terms:
        if key[i] * p % b:
            raise ValueError(f"power {p} does not clear the denominators of {name}")
    if new_name is None:
        new_name = "v" + name[1:] if name.startswith("w") else f"v_{name}"
    keep_div = [(n, b) for n, b in zip(f.space.div_names, f.space.div_bounds) if n != name]
    space = VarSpace(keep_div, f.space.free_names + (new_name,))
    image = FracPoly.monomial(space, {new_name: p})
    return f.substitute({name: image}, target_space=space)


def strict_transform(f: FracPoly, name: str) -> tuple[FracPoly, Fraction]:
    """Divide out the largest power of name; returns (quotient, multiplicity)."""
    if f.is_zero():
        raise ValueError("strict transform of the zero polynomial")
    i = f.space.position(name)
    m = min(key[i] for key in f.terms)
    if m == 0:
        return f, Fraction(0)
    terms = {key[:i] + (key[i] - m,) + key[i + 1:]: coeff for key, coeff in f.terms.items()}
    return FracPoly._raw(f.space, terms), Fraction(m, f.space.bounds[i])


def linear_part(f: FracPoly) -> dict:
    """Coefficients of the terms of f that are one variable to the power
    one, keyed by variable name (a Laurent term such as x*y/z, of degree
    one by face value, is not linear)."""
    units = f.space.unit_keys()
    return {units[key]: c for key, c in f.terms.items() if key in units}


def linear_rank(linear_parts, names) -> int:
    """Rank of linear parts ({name: coefficient}, as from linear_part) as
    coefficient vectors over the listed variable names.

    Full rank is read off the image in a prime field (`modular.rank_mod`),
    whose rank never exceeds the exact one; any other image is settled by
    exact elimination (`smith.rank`)."""
    zero = Cyclo.zero()
    rows = [[lin.get(n, zero) for n in names] for lin in linear_parts]
    full = min(len(rows), len(names))
    return full if rank_mod(rows) == full else rank(rows)


def _degree_limit(space: VarSpace, d) -> int:
    """The largest scaled degree of space at face-value degree d >= 0."""
    d = Fraction(d)
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    return d.numerator * space.lcm // d.denominator  # scaled degrees are integers


def truncate(f: FracPoly, d, exclude: frozenset | set = frozenset()) -> FracPoly:
    """Drop terms of total degree > d (face-value degrees; exclude is ignored in the count)."""
    limit = _degree_limit(f.space, d)
    w = f.space._degree_weights(exclude)
    terms = {k: c for k, c in f.terms.items() if sum(map(mul, k, w)) <= limit}
    return FracPoly._raw(f.space, terms)


def divide_exact(f: FracPoly, g: FracPoly):
    """Exact quotient f / g in the polynomial ring, or None.

    Plain long division against the single divisor g using the
    deterministic term order; sufficient for the homogeneous and monomial
    divisions needed here.  A one-term divisor is divided term by term:
    each step of the long division cancels one term of f, the largest
    left, so the quotient's terms are formed in descending term order,
    as the long division forms them, and None comes at the first key the
    divisor's key does not divide.

    The loop ends without a step cap.  The term order (total degree, then
    exponents) is invariant under translation, so each step cancels the
    remainder's leading term and leaves a strictly smaller leading key.
    Every leading key stays componentwise >= g's leading key (or the
    division stops with None) and its degree never exceeds that of f, so
    the keys lie in a bounded set of the exponent lattice, which is finite.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f, g = FracPoly._aligned(f, g)
    lead_key, lead_coeff = max(g.terms.items(), key=lambda kv: (g._term_degree(kv[0]), kv[0]))
    quot = {}
    lead_inv = lead_coeff.inverse()
    if len(g.terms) == 1:
        for rkey, rcoeff in reversed(f.sorted_items()):
            diff = tuple(map(sub, rkey, lead_key))
            if min(diff, default=0) < 0:
                return None
            quot[diff] = rcoeff * lead_inv
        return FracPoly._raw(f.space, quot)
    rem = f
    while not rem.is_zero():
        rkey, rcoeff = max(rem.terms.items(), key=lambda kv: (rem._term_degree(kv[0]), kv[0]))
        diff = tuple(a - b for a, b in zip(rkey, lead_key))
        if any(e < 0 for e in diff):
            return None
        quot[diff] = rcoeff * lead_inv
        rem = rem - FracPoly._raw(f.space, {diff: quot[diff]}) * g
    return FracPoly._raw(f.space, quot)


def match_scalar(a: FracPoly, b: FracPoly):
    """Scalar c with a = c * b, or None.  Equality is tried first: a = b
    with first coefficients of one order k gives 1 of order k, with no
    inverse and no product."""
    if a.is_zero() or b.is_zero():
        return None
    a, b = FracPoly._aligned(a, b)
    key = next(iter(b.terms))
    equal = a.terms == b.terms
    if equal and a.terms[key].order == b.terms[key].order:
        return Cyclo.one(a.terms[key].order)
    if not equal and a.terms.keys() != b.terms.keys():
        return None
    c = a.terms[key] * b.terms[key].inverse()
    if c == 1:  # then a = c * b exactly when a = b, and no product is formed
        return c if equal else None
    for k2, bc in b.terms.items():
        if a.terms[k2] != bc * c:
            return None
    return c


def match_factors(lhs, rhs):
    """Scalar c with prod(lhs) = c * prod(rhs), or None: each lhs factor is
    paired with a distinct rhs factor it equals up to a scalar (first free
    match; proportionality is an equivalence), and c is the product of the
    scalars.

    A match proves prod(lhs) = c * prod(rhs).  None disproves it for every
    scalar c only when every factor is irreducible, since unique
    factorisation then pairs the factors up to units (nonzero scalars).  A
    factor linear in the x's with unit content is irreducible, such as a
    character sum of a circulant determinant (coefficient 1 on x_0).
    """
    if len(lhs) != len(rhs):
        return None
    free = list(rhs)
    c = Cyclo.one()
    for a in lhs:
        for idx, b in enumerate(free):
            s = match_scalar(a, b)
            if s is not None:
                break
        else:
            return None
        del free[idx]
        c = c * s
    return c


class DiagonalAction:
    """Diagonal action of Z_{p_1} x ... x Z_{p_r}: generator i scales each
    variable v by e_{p_i}^(weights[v][i]).  A weight must be an int: a
    float, a string, a Fraction or a bool is refused, never truncated.  Two
    actions are equal when their groups and weights are; the per-space memo
    plays no part."""

    __slots__ = ("group", "weights", "_by_space")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, group: AbelianGroup, weights: dict):
        for name, w in weights.items():
            if len(w) != group.rank:
                raise ValueError(f"weight vector for {name} has wrong length")
            for x in w:
                if type(x) is not int:
                    raise ValueError(f"weight {x!r} on {name} is not an int")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "weights", {n: tuple(w) for n, w in weights.items()})
        object.__setattr__(self, "_by_space", {})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.weights) == (other.group, other.weights)

    def _space_data(self, space: VarSpace) -> tuple:
        """For space: per generator i, the weight of each position times
        L / b (L = space.lcm), so that a scaled key's dot product with it is
        the term weight times L; the positions of variables the action does
        not cover; and the memo of `_numerators`."""
        data = self._by_space.get(space)
        if data is None:
            names, scales = space.names, space.scales
            cols = tuple(
                tuple(self.weights[n][i] * s if n in self.weights else 0 for n, s in zip(names, scales))
                for i in range(self.group.rank)
            )
            uncovered = tuple(pos for pos, n in enumerate(names) if n not in self.weights)
            data = self._by_space[space] = (cols, uncovered, {})
        return data

    def _numerators(self, space: VarSpace, key) -> tuple:
        """Per generator, the term weight of key times L = space.lcm, and
        `characters`: the weights mod p_i, or None when one is fractional."""
        cols, uncovered, memo = self._space_data(space)
        out = memo.get(key)
        if out is None:
            for pos in uncovered:
                if key[pos]:
                    raise ValueError(f"variable {space.names[pos]} not covered by the action")
            nums = tuple(sum(map(mul, key, col)) for col in cols)
            L = space.lcm
            chars = None if any(t % L for t in nums) else tuple(t // L % p for t, p in zip(nums, self.group.moduli))
            out = memo[key] = (nums, chars)
        return out

    def characters(self, space: VarSpace, key):
        """Per generator i, the weight w_i mod p_i of a term (a scaled key of
        space), so that its character at g is the product of e_{p_i}^(g_i w_i);
        None when a weight is fractional, where no character is defined."""
        return self._numerators(space, key)[1]

    def term_characters(self, space: VarSpace, keys) -> list:
        """`characters` of each of the keys (scaled keys of space), in
        order, read with one lookup of space's memo."""
        memo = self._space_data(space)[2]
        return [(memo.get(key) or self._numerators(space, key))[1] for key in keys]

    def term_weight(self, space: VarSpace, key, i: int):
        """Phase exponent of a term (a scaled key of space) under generator
        i, in full turns over p_i: an int when integral, else a Fraction."""
        t = self._numerators(space, key)[0][i]
        L = space.lcm
        return t // L if t % L == 0 else Fraction(t, L)


@lru_cache(maxsize=4096)
def _phase(moduli: tuple, residues: tuple, chars: tuple) -> Cyclo:
    """The product over generators of e_{p_i}^(g_i * w_i)."""
    out = Cyclo.one()
    for gi, p, w in zip(residues, moduli, chars):
        if gi:
            out = out * root_of_unity(p, gi * w)
    return out


def apply_group(f: FracPoly, action: DiagonalAction, g: GroupElement) -> FracPoly:
    """Ring automorphism scaling each term by its character value at g.
    The terms' characters are read once, by `term_characters`, and each
    value is the cached `_phase`.  A term of fractional weight has no
    character, and the action refuses it."""
    if g.group != action.group:
        raise ValueError("element of a different group")
    space, moduli, residues = f.space, action.group.moduli, g.residues
    terms = {}
    for (key, coeff), chars in zip(f.terms.items(), action.term_characters(space, f.terms)):
        if chars is None:
            raise ValueError(f"term {FracPoly._term(space, key, 1)} has fractional weight; the group does not act on it")
        terms[key] = coeff * _phase(moduli, residues, chars)
    return FracPoly._raw(space, terms)


def is_invariant(f: FracPoly, action: DiagonalAction) -> bool:
    """Whether each generator i fixes f: every term's weight is 0 mod p_i."""
    return semi_invariant_weight(f, action) == (0,) * action.group.rank


def semi_invariant_split(f: FracPoly, action: DiagonalAction, i: int) -> list[FracPoly]:
    """Decompose f = sum of p_i parts, part m scaled by e_{p_i}^m under
    generator i.  A term of fractional weight under generator i is in no
    part, and is refused."""
    p = action.group.moduli[i]
    L = f.space.lcm
    buckets: list[dict] = [dict() for _ in range(p)]
    memo = action._space_data(f.space)[2]  # read once, as term_characters does
    for key, coeff in f.terms.items():
        t = (memo.get(key) or action._numerators(f.space, key))[0][i]
        if t % L:
            raise ValueError(f"term with fractional weight {Fraction(t, L)} cannot be bucketed mod {p}")
        buckets[t // L % p][key] = coeff
    return [FracPoly._raw(f.space, b) for b in buckets]


def semi_invariant_parts(f: FracPoly, action: DiagonalAction) -> list[FracPoly]:
    """The nonzero semi-invariant pieces of f: its terms bucketed by weight
    under every generator in turn, so the pieces sum to f and each has one
    weight vector."""
    parts = [f] if f else []
    for i in range(action.group.rank):
        parts = [p for q in parts for p in semi_invariant_split(q, action, i) if p]
    return parts


def semi_invariant_weight(f: FracPoly, action: DiagonalAction):
    """Weight vector (per generator) if f is semi-invariant, else None."""
    if f.is_zero():
        return (0,) * action.group.rank
    chars = set(action.term_characters(f.space, f.terms))
    return chars.pop() if len(chars) == 1 else None
