"""Exact arithmetic in cyclotomic fields Q(e_k), e_k = exp(2*pi*i/k).

Elements are stored as rational coefficient vectors of length k, reduced
modulo the k-th cyclotomic polynomial, so equality is plain coefficient
equality.  Arithmetic between elements of different orders promotes both
to the lcm order via e_m = e_k^(k/m).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .smith import solve


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Coefficients (low degree first, monic) of the k-th cyclotomic polynomial.

    Computed from x^k - 1 = prod_{d | k} Phi_d by exact integer division.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    if k == 1:
        return (-1, 1)
    # Divide x^k - 1 by the product of Phi_d over proper divisors d of k.
    num = [0] * (k + 1)
    num[0], num[k] = -1, 1
    for d in range(1, k):
        if k % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, low degree first; den is monic
    # here up to sign of its leading coefficient (always +1 for Phi_d).
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q = c // den[dn]
        out[i - dn] = q
        for j, dj in enumerate(den):
            num[i - dn + j] -= q * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


_ZERO = Fraction(0)


def _reduce(coeffs: list[Fraction], k: int) -> tuple[Fraction, ...]:
    """Reduce a coefficient list modulo Phi_k and pad/trim to length k."""
    phi = cyclotomic_polynomial(k)
    deg = len(phi) - 1
    work = list(coeffs)
    if len(work) < k:
        work += [_ZERO] * (k - len(work))
    if not any(work[deg:]):
        return tuple(work[:k])
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c == 0:
            continue
        work[i] = _ZERO
        for j in range(deg):
            if phi[j]:
                work[i - deg + j] -= c * phi[j]
    return tuple(work[:k])


class Cyclo:
    """An element of Q(e_k), canonical modulo the k-th cyclotomic polynomial."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.coeffs = _reduce(
            [c if type(c) is Fraction else Fraction(c) for c in coeffs], order
        )

    @staticmethod
    def _raw(order: int, coeffs: tuple) -> "Cyclo":
        # canonical data, bypassing the reduction
        out = object.__new__(Cyclo)
        out.order = order
        out.coeffs = coeffs
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q, order: int = 1) -> "Cyclo":
        return Cyclo(order, [Fraction(q)] + [0] * (order - 1))

    @staticmethod
    def zero(order: int = 1) -> "Cyclo":
        return Cyclo.rational(0, order)

    @staticmethod
    def one(order: int = 1) -> "Cyclo":
        return Cyclo.rational(1, order)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- promotion ----------------------------------------------------------

    def embed(self, k: int) -> "Cyclo":
        """Image in Q(e_k) under e_m -> e_k^(k/m); requires m | k."""
        m = self.order
        if k % m != 0:
            raise ValueError(f"order {m} does not divide {k}")
        if k == m:
            return self
        step = k // m
        out = [Fraction(0)] * k
        for i, c in enumerate(self.coeffs):
            if c != 0:
                out[i * step] += c
        return Cyclo(k, out)

    @staticmethod
    def _common(a: "Cyclo", b: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        k = lcm(a.order, b.order)
        return a.embed(k), b.embed(k)

    @staticmethod
    def _coerce(x) -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclo.rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Cyclo")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        try:
            other = Cyclo._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = Cyclo._common(self, other)
        # sums of canonical vectors stay canonical
        return Cyclo._raw(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo._raw(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-Cyclo._coerce(other))

    def __rsub__(self, other):
        return Cyclo._coerce(other) + (-self)

    def __mul__(self, other):
        try:
            other = Cyclo._coerce(other)
        except TypeError:
            return NotImplemented
        # rational factors just scale the canonical vector
        if other.is_rational():
            q = other.coeffs[0]
            if q == 1:
                return self
            return Cyclo._raw(self.order, tuple(c * q for c in self.coeffs))
        if self.is_rational():
            q = self.coeffs[0]
            if q == 1:
                return other
            return Cyclo._raw(other.order, tuple(c * q for c in other.coeffs))
        a, b = Cyclo._common(self, other)
        k = a.order
        prod = [_ZERO] * (2 * k)
        for i, ci in enumerate(a.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(b.coeffs):
                if cj != 0:
                    prod[i + j] += ci * cj
        return Cyclo(k, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        k = self.order
        phi = [Fraction(c) for c in cyclotomic_polynomial(k)]
        deg = len(phi) - 1
        r0, r1 = phi, list(self.coeffs[:deg])
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        # r0 is a nonzero constant gcd since Phi_k is irreducible over Q.
        c = next(c for c in r0 if c != 0)
        inv = [x / c for x in s0]
        return Cyclo(k, inv)

    def __truediv__(self, other):
        other = Cyclo._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclo._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = Cyclo.one(self.order)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclo.rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = Cyclo._common(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mixed-order equality makes hashing error-prone

    def __bool__(self):
        return not self.is_zero()

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"Cyclo({self.order}, {self})"

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(_fmt_q(c))
            else:
                unit = f"E{self.order}" + (f"^{i}" if i > 1 else "")
                if c == 1:
                    parts.append(unit)
                elif c == -1:
                    parts.append(f"-{unit}")
                else:
                    parts.append(f"{_fmt_q(c)}*{unit}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _fmt_q(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _polydivmod(num, den):
    num = list(num)
    dn = max(i for i, c in enumerate(den) if c != 0)
    out = [Fraction(0)] * max(len(num) - dn, 1)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q = c / den[dn]
        out[i - dn] = q
        for j in range(dn + 1):
            num[i - dn + j] -= q * den[j]
    return out, num[:dn] if dn > 0 else [Fraction(0)]


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polysub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def root_of_unity(k: int, e: int = 1) -> Cyclo:
    """Canonical representation of e_k^(e mod k)."""
    if k < 1:
        raise ValueError("order must be >= 1")
    e %= k
    coeffs = [Fraction(0)] * k
    coeffs[e] = Fraction(1)
    return Cyclo(k, coeffs)


def minimal_order(a: Cyclo) -> int:
    """Smallest m dividing a.order with a in the image of Q(e_m).

    Display utility only; arithmetic never descends automatically.
    """
    k = a.order
    for m in sorted(d for d in range(1, k + 1) if k % d == 0):
        if _lies_in_suborder(a, m):
            return m
    return k


def _lies_in_suborder(a: Cyclo, m: int) -> bool:
    k = a.order
    if k == m:
        return True
    # a is in Q(e_m) iff it is fixed by every Galois automorphism
    # e_k -> e_k^j with j = 1 mod m and gcd(j, k) = 1.
    for j in range(1, k):
        if gcd(j, k) != 1 or j % m != 1 % m:
            continue
        if _galois(a, j) != a:
            return False
    return True


def _galois(a: Cyclo, j: int) -> Cyclo:
    k = a.order
    work = [Fraction(0)] * (2 * k)
    for i, c in enumerate(a.coeffs):
        if c != 0:
            work[(i * j) % k] += c
    return Cyclo(k, work)


def descend(a: Cyclo, m: int) -> Cyclo:
    """Rewrite a as an element of order m; requires a to lie in Q(e_m)."""
    if not (a.order % m == 0 and _lies_in_suborder(a, m)):
        raise ValueError(f"{a!r} does not lie in Q(e_{m})")
    k, step = a.order, a.order // m
    phi_deg = len(cyclotomic_polynomial(m)) - 1
    # Solve sum_i c_i e_k^(step*i) = a for rationals c_0..c_{phi_deg-1}.
    cols = [root_of_unity(k, step * i).coeffs for i in range(phi_deg)]
    sol = solve(list(zip(*cols)), a.coeffs)
    if sol is None:
        raise ValueError(f"{a!r} does not lie in Q(e_{m})")
    return Cyclo(m, sol + [Fraction(0)] * (m - len(sol)))


def cyclo_nth_root(c: Cyclo, n: int):
    """Some n-th root of c in a cyclotomic field, or None.

    Succeeds when c = q * e_m^j with q rational and either |q|^(1/n)
    rational (sign through e_2 = -1), or n = 2, where every rational square
    root is cyclotomic via quadratic Gauss sums.
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
    """A square root of the rational q, as an exact cyclotomic number.

    sqrt(2) = e_8 + e_8^7 and, for an odd prime p, the quadratic Gauss sum
    sum_a (a|p) e_p^a equals sqrt(p) or i*sqrt(p) according to p mod 4.
    """
    q = Fraction(q)
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
