"""Exact arithmetic in cyclotomic fields Q(e_k), e_k = exp(2*pi*i/k).

An element of Q(e_k) is stored as deg Phi_k integer numerators n_i over
one positive common denominator D, meaning sum_i (n_i / D) * e_k^i, with
the n_i and D coprime.  The pair is canonical, so equality is plain
comparison.  Phi_k is monic, so reduction modulo Phi_k stays in the
integers; every operation ends with one gcd normalisation.  `coeffs`
presents the same element as k Fractions, zero from index deg Phi_k on.
Arithmetic between elements of different orders promotes both to the lcm
order via e_m = e_k^(k/m).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

from .jsonio import _int_to_str, frac_to_str
from .smith import echelon, reduced_echelon


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Coefficients (low degree first, monic) of the k-th cyclotomic polynomial.

    Phi_k(x) = Phi_r(x^(k/r)), r the product of the primes dividing k, and
    Phi_r is the product of (x^d - 1)^mu(r/d) over the divisors d of r: the
    binomials with mu = +1 are multiplied in first, then those with mu = -1
    are divided out exactly.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    primes = _prime_factors(k)
    divisors = [(1, len(primes) % 2)]  # (d, 1 when mu(r/d) = -1)
    for p in primes:
        divisors += [(d * p, 1 - odd) for d, odd in divisors]
    poly = [1]
    for d, odd in divisors:
        if not odd:  # times x^d - 1
            poly = [(poly[i - d] if i >= d else 0) - (poly[i] if i < len(poly) else 0) for i in range(len(poly) + d)]
    for d, odd in divisors:
        if odd:  # q (x^d - 1) = poly, solved for q from the lowest degree up
            q = []
            for i in range(len(poly) - d):
                q.append((q[i - d] if i >= d else 0) - poly[i])
            poly = q
    stretch = k // prod(primes)
    out = [0] * ((len(poly) - 1) * stretch + 1)
    out[::stretch] = poly
    return tuple(out)


_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _reducer(k: int) -> tuple[int, tuple]:
    """deg Phi_k and the nonzero (j, c) of Phi_k below its leading term."""
    phi = cyclotomic_polynomial(k)
    deg = len(phi) - 1
    return deg, tuple((j, c) for j, c in enumerate(phi[:deg]) if c)


def _reduce(work: list[int], k: int) -> list[int]:
    """Reduce an integer coefficient list modulo Phi_k, in place; returns
    the deg Phi_k low coefficients."""
    deg, terms = _reducer(k)
    if len(work) < deg:
        work += [0] * (deg - len(work))
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            base = i - deg
            for j, p in terms:
                work[base + j] -= c * p
    del work[deg:]
    return work


def _num_den(q) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction, the rationals a
    Cyclo is built from; anything else, a float among them, is a TypeError."""
    if type(q) is int:
        return q, 1
    if isinstance(q, (int, Fraction)):
        return q.numerator, q.denominator
    raise TypeError(f"cannot coerce {type(q).__name__} to Cyclo")


def _new(order: int, num: tuple, den: int) -> "Cyclo":
    # canonical data, bypassing the reduction
    out = object.__new__(Cyclo)
    out.order = order
    out._num = num
    out._den = den
    return out


def _make(order: int, num: list, den: int) -> "Cyclo":
    """The element num / den of order `order`, num already reduced, den > 0."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [n // g for n in num]
            den //= g
    return _new(order, tuple(num), den)


def _scale(a: "Cyclo", n: int, d: int) -> "Cyclo":
    """a * (n / d) for integers n and d > 0."""
    if n == 0:
        return _new(a.order, (0,) * len(a._num), 1)
    return _make(a.order, [x * n for x in a._num], a._den * d)


def _lift(a: "Cyclo", k: int) -> list[int]:
    """The reduced numerators of a as an element of order k, a multiple of
    a.order, over a's denominator."""
    if k == a.order:
        return list(a._num)
    step = k // a.order
    work = [0] * k
    for i, n in enumerate(a._num):
        work[i * step] = n
    return _reduce(work, k)


def _lift_common(coeffs, k: int) -> tuple[list[list[int]], int]:
    """The elements coeffs, of orders dividing k, as reduced order-k
    numerator vectors over one common denominator: (vectors, denominator)."""
    den = lcm(*(c._den for c in coeffs))
    return [[n * (den // c._den) for n in _lift(c, k)] for c in coeffs], den


def _embed(a: "Cyclo", k: int) -> "Cyclo":
    if k == a.order:
        return a
    return _make(k, _lift(a, k), a._den)


@lru_cache(maxsize=None)
def _subfield(k: int, m: int) -> tuple:
    """(basis, rows, inv, d) for Q(e_m) inside Q(e_k), m | k: basis holds
    e_m^0 .. e_m^(deg Phi_m - 1) as order-k vectors, and the coordinates of
    an order-k vector v over it are inv . v[rows] / d whenever v lies in
    Q(e_m)."""
    basis = [_lift(_root(m, i), k) for i in range(_reducer(m)[0])]
    rows = echelon(basis)[1]  # independent coordinates of the basis vectors
    square = [[vec[r] for vec in basis] for r in rows]
    n = len(square)
    # [square | I] reduces to [I | square^-1]
    e, _pivots = reduced_echelon([row + [int(t == u) for u in range(n)] for t, row in enumerate(square)])
    d = lcm(*(Fraction(x).denominator for row in e for x in row[n:]))
    inv = tuple(tuple(int(x * d) for x in row[n:]) for row in e)
    return basis, tuple(rows), inv, d


def _descend_num(num, den: int, k: int, m: int):
    """The element num / den of order k as a canonical Cyclo of order m, or
    None when it does not lie in Q(e_m)."""
    if m == k:
        return _make(k, num, den)
    if m == 1:
        return None if any(num[1:]) else _make(1, [num[0]], den)
    basis, rows, inv, d = _subfield(k, m)
    picked = [num[r] for r in rows]
    coords = [sum(map(mul, row, picked)) for row in inv]
    # v = sum_i (coords_i / d) e_m^i holds exactly when v lies in Q(e_m)
    if [sum(c * vec[j] for c, vec in zip(coords, basis)) for j in range(len(num))] != [d * n for n in num]:
        return None
    return _make(m, coords, den * d)


def _pack(num, bits: int) -> int:
    """The integer vector num evaluated at 2**bits: one signed slot of
    `bits` bits per entry, low entry first."""
    out = 0
    for n in reversed(num):
        out = (out << bits) + n
    return out


@lru_cache(maxsize=None)
def _fold_height(k: int) -> int:
    """R_k, the largest |entry| of x^i mod Phi_k over i < k: a vector of
    length k (a polynomial folded modulo x^k - 1) with entries of absolute
    sum N reduces modulo Phi_k to entries of at most R_k * N."""
    return max(abs(c) for i in range(k) for c in _reduce([0] * i + [1], k))


def _slot_bits(k: int, norm: int) -> int:
    """The slot width B for packed sums of products of order k that fold
    modulo x^k - 1 to vectors of absolute entry sum at most norm: their
    reduced numerators stay below 2**(B - 3), so `_unpack` reads them
    exactly and a sum is zero exactly when its packed value is divisible by
    `_packed_modulus(k, B)`."""
    return (_fold_height(k) * norm).bit_length() + 3


@lru_cache(maxsize=64)
def _packed_modulus(k: int, bits: int) -> int:
    """Phi_k(2**bits): a packed value and its reduction modulo Phi_k agree
    modulo it."""
    return _pack(cyclotomic_polynomial(k), bits)


@lru_cache(maxsize=64)
def _slot_bias(bits: int, size: int) -> int:
    return _pack((1 << (bits - 1),) * size, bits)


def _unpack(packed: int, bits: int, den: int, k: int, m: int) -> "Cyclo":
    """The nonzero element of order k whose reduced numerators over den are
    packed with `bits` (a balanced remainder), as a canonical Cyclo of
    order m; an ArithmeticError when it does not lie in Q(e_m).

    A remainder below 2**(bits - 1) in magnitude is its lowest slot, a
    rational value, which lies in every Q(e_m): it is read as [packed, 0,
    ...] of order m with no slot extraction and no descent."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    if -half < packed < half:
        return _make(m, [packed] + [0] * (_reducer(m)[0] - 1), den)
    deg = _reducer(k)[0]
    # with half added to every slot, each slot is a plain bit field
    packed += _slot_bias(bits, deg)
    num = [((packed >> shift) & mask) - half for shift in range(0, deg * bits, bits)]
    out = _descend_num(num, den, k, m)
    if out is None:
        raise ArithmeticError(f"packed product does not lie in Q(e_{m})")
    return out


def _common(a: "Cyclo", b: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
    if a.order == b.order:
        return a, b
    k = lcm(a.order, b.order)
    return _embed(a, k), _embed(b, k)


def _mul_ints(x, y, k: int) -> list[int]:
    """The product of two reduced integer vectors of order k, reduced."""
    prod = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y, i):
                prod[j] += a * b
    return _reduce(prod, k)


def _conjugate(num, j: int, k: int) -> list[int]:
    """The image of a reduced integer vector under e_k -> e_k^j, reduced."""
    work = [0] * k
    for i, n in enumerate(num):
        work[i * j % k] += n
    return _reduce(work, k)


class Cyclo:
    """An element of Q(e_k): integer numerators over one denominator.

    `order` is k.  The element is sum_i (n_i / D) * e_k^i over the
    deg Phi_k numerators n_i, reduced modulo Phi_k, with D > 0 and
    gcd(D, n_0, ..., n_{deg-1}) = 1.  `coeffs` is the read-only view as
    `order` Fractions.
    """

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be >= 1")
        pairs = list(map(_num_den, coeffs))
        den = lcm(*(d for _n, d in pairs))
        canon = _make(order, _reduce([n * (den // d) for n, d in pairs], order), den)
        self.order = order
        self._num = canon._num
        self._den = canon._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The k rational coefficients of e_k^0 .. e_k^(k-1)."""
        den = self._den
        return tuple(Fraction(n, den) for n in self._num) + (_ZERO,) * (self.order - len(self._num))

    @property
    def integer_data(self) -> tuple[tuple[int, ...], int]:
        """The canonical (numerators, denominator): the deg Phi_k reduced
        integer numerators and the positive common denominator D."""
        return self._num, self._den

    @property
    def coeff_strings(self) -> list[str]:
        """`coeffs` as the strings "n" or "n/d" in lowest terms."""
        den, num = self._den, self._num
        strings = list(map(_int_to_str, num)) if den == 1 else [frac_to_str(n, den) for n in num]
        return strings + ["0"] * (self.order - len(num))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q, order: int = 1) -> "Cyclo":
        """The int or Fraction q as an element of order `order`."""
        if order < 1:
            raise ValueError("order must be >= 1")
        n, d = _num_den(q)
        return _new(order, (n,) + (0,) * (_reducer(order)[0] - 1), d)

    @staticmethod
    def zero(order: int = 1) -> "Cyclo":
        return Cyclo.rational(0, order)

    @staticmethod
    def one(order: int = 1) -> "Cyclo":
        return Cyclo.rational(1, order)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den)

    # -- promotion ----------------------------------------------------------

    def embed(self, k: int) -> "Cyclo":
        """Image in Q(e_k) under e_m -> e_k^(k/m); requires m | k."""
        if k % self.order != 0:
            raise ValueError(f"order {self.order} does not divide {k}")
        return _embed(self, k)

    @staticmethod
    def _coerce(x) -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        n, d = _num_den(x)
        return _new(1, (n,), d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Cyclo:
            try:
                other = Cyclo._coerce(other)
            except TypeError:
                return NotImplemented
        a, b = (self, other) if self.order == other.order else _common(self, other)
        ad, bd = a._den, b._den
        if ad == bd:
            num = [x + y for x, y in zip(a._num, b._num)]
        else:
            g = gcd(ad, bd)
            ma, mb = bd // g, ad // g
            num = [x * ma + y * mb for x, y in zip(a._num, b._num)]
            ad *= ma
        # sums of canonical vectors stay reduced
        return _make(a.order, num, ad)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, tuple(-n for n in self._num), self._den)

    def __sub__(self, other):
        return self + (-Cyclo._coerce(other))

    def __rsub__(self, other):
        return Cyclo._coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not Cyclo:
            try:
                other = Cyclo._coerce(other)
            except TypeError:
                return NotImplemented
        # rational factors just scale the canonical vector, keeping the
        # other operand's order; this is checked before any promotion
        on = other._num
        if not any(on[1:]):
            if on[0] == 1 and other._den == 1:
                return self
            return _scale(self, on[0], other._den)
        sn = self._num
        if not any(sn[1:]):
            if sn[0] == 1 and self._den == 1:
                return other
            return _scale(other, sn[0], self._den)
        a, b = (self, other) if self.order == other.order else _common(self, other)
        return _make(a.order, _mul_ints(a._num, b._num, a.order), a._den * b._den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse: the product of the other Galois conjugates
        over the norm, all in integers."""
        num, den, k = self._num, self._den, self.order
        support = [i for i, n in enumerate(num) if n]
        if not support:
            raise ZeroDivisionError("inverse of zero")
        if len(support) == 1:
            # (q * e_k^j)^-1 = q^-1 * e_k^-j
            j = support[0]
            n = num[j]
            return _scale(_root(k, -j % k), den if n > 0 else -den, abs(n))
        # (num / den)^-1 = den * y / N with y the product of the conjugates
        # num(e_k^j), 1 < j < k coprime to k, and N = num * y the norm of num.
        # Single-term elements are all there is for k <= 2, so y is set here.
        y = None
        for j in range(2, k):
            if gcd(j, k) == 1:
                conj = _conjugate(num, j, k)
                y = conj if y is None else _mul_ints(y, conj, k)
        norm = _mul_ints(num, y, k)[0]
        if norm < 0:
            den, norm = -den, -norm
        return _make(k, [den * c for c in y], norm)

    def __truediv__(self, other):
        other = Cyclo._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        # inverse first: a rational factor takes the other operand's order,
        # so other / self has the order of self.inverse()
        return self.inverse() * Cyclo._coerce(other)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _square_multiply(Cyclo.one(self.order), self, n)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if type(other) is Cyclo and other.order == self.order:
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            other = Cyclo._coerce(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = _common(self, other)
        return a._num == b._num and a._den == b._den

    __hash__ = None  # mixed-order equality makes hashing error-prone

    def __bool__(self):
        return any(self._num)

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"Cyclo({self.order}, {self})"

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeff_strings):
            if c == "0":
                continue
            if i == 0:
                parts.append(c)
            else:
                unit = f"E{self.order}" + (f"^{i}" if i > 1 else "")
                if c == "1":
                    parts.append(unit)
                elif c == "-1":
                    parts.append(f"-{unit}")
                else:
                    parts.append(f"{c}*{unit}")
        return _join_signed(parts) if parts else "0"


def _square_multiply(acc, base, n: int):
    """acc * base ** n for an int n >= 0, by square-and-multiply with acc
    on the left of every product; the one copy of powering, for `Cyclo`
    and `FracPoly` alike."""
    while n:
        if n & 1:
            acc = acc * base
        base = base * base if n > 1 else base
        n >>= 1
    return acc


def _join_signed(terms) -> str:
    """Nonempty formatted terms joined by " + ", or by " - " before a term
    that starts with a minus sign."""
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def root_of_unity(k: int, e: int = 1) -> Cyclo:
    """Canonical representation of e_k^(e mod k)."""
    if k < 1:
        raise ValueError("order must be >= 1")
    return _root(k, e % k)


@lru_cache(maxsize=None)
def _root(k: int, e: int) -> Cyclo:
    work = [0] * k
    work[e] = 1
    return _make(k, _reduce(work, k), 1)


def minimal_order(a: Cyclo) -> int:
    """Smallest m dividing a.order with a in the image of Q(e_m).

    Display utility only; arithmetic never descends automatically.
    """
    k = a.order
    return next(m for m in range(1, k + 1) if k % m == 0 and _descend_num(a._num, a._den, k, m) is not None)


def descend(a: Cyclo, m: int) -> Cyclo:
    """Rewrite a as an element of order m; requires a to lie in Q(e_m)."""
    out = _descend_num(a._num, a._den, a.order, m) if a.order % m == 0 else None
    if out is None:
        raise ValueError(f"{a!r} does not lie in Q(e_{m})")
    return out


def cyclo_nth_root(c: Cyclo, n: int):
    """Some n-th root of c in a cyclotomic field, or None.

    Succeeds when c = q * e_m^j with q rational and either |q|^(1/n)
    rational (sign through e_2 = -1), or n = 2, where every rational square
    root is cyclotomic via quadratic Gauss sums.

    None means that c has no n-th root of the shapes decided here, not that
    c has no cyclotomic n-th root: (e_3 - e_4)^2 is a square in Q(e_12) and
    (1 + e_4)^4 = -4, yet both give None (for n = 2 and n = 4).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1 or c.is_zero():
        return c
    m = c.order
    for j in range(m):
        u = c * root_of_unity(m, -j)
        if not u.is_rational():
            continue
        q = u.as_rational()
        neg = q < 0
        mag = -q if neg else q
        num = _int_nth_root(mag.numerator, n)
        den = _int_nth_root(mag.denominator, n)
        if num is not None and den is not None:
            root = Cyclo.rational(Fraction(num, den)) * root_of_unity(m * n, j)
            if neg:
                root = root * root_of_unity(2 * n, 1)
            return root
        if n == 2:
            return rational_sqrt(q) * root_of_unity(2 * m, j)
    return None


def rational_sqrt(q: Fraction) -> Cyclo:
    """A square root of the rational q (an int or a Fraction; anything else
    is a TypeError), as an exact cyclotomic number.

    sqrt(2) = e_8 + e_8^7 and, for an odd prime p, the quadratic Gauss sum
    sum_a (a|p) e_p^a equals sqrt(p) or i*sqrt(p) according to p mod 4.
    """
    q = Fraction(*_num_den(q))
    if q == 0:
        return Cyclo.zero()
    neg = q < 0
    if neg:
        q = -q
    n = q.numerator * q.denominator
    square, d = _square_and_squarefree(n)
    root = Cyclo.rational(Fraction(square, q.denominator))
    for p in _prime_factors(d):
        if p == 2:
            root = root * (root_of_unity(8, 1) + root_of_unity(8, 7))
        else:
            gauss = Cyclo.zero(p)
            for a in range(1, p):
                term = root_of_unity(p, a)
                gauss = gauss + (term if _legendre(a, p) == 1 else -term)
            if p % 4 == 3:
                gauss = gauss * root_of_unity(4, -1)
            root = root * gauss
    if neg:
        root = root * root_of_unity(4, 1)
    return root


def _square_and_squarefree(n: int) -> tuple[int, int]:
    square, rest = 1, 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        square *= d ** (e // 2)
        if e % 2:
            rest *= d
        d += 1
    rest *= n
    return square, rest


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _legendre(a: int, p: int) -> int:
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _int_nth_root(v: int, n: int):
    """The integer n-th root of v >= 0, or None when v is not an n-th power."""
    if v < 2:
        return v
    # Newton's iteration from above converges to the floor of the root.
    r = 1 << -(-v.bit_length() // n)
    while True:
        s = ((n - 1) * r + v // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    return r if r ** n == v else None
