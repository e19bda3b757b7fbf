"""Images of cyclotomic matrices in a prime field.

`prime_field(N)` gives the least prime l > 2**31 with l = 1 (mod N) and a
root w of Phi_N modulo l, checked by evaluating Phi_N.  Then e_N -> w is a
ring homomorphism onto F_l from the cyclotomic numbers of order dividing N
whose denominators l does not divide, so a nonzero minor of an image is the
image of a nonzero minor: the rank of an image is a lower bound for the
exact rank.  Every value is an exact integer.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .cyclotomic import cyclotomic_polynomial

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as witnesses, which is
    exact for n < 3.3 * 10**24."""
    if n < 2 or any(n % p == 0 for p in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@lru_cache(maxsize=None)
def prime_field(n: int) -> tuple[int, tuple[int, ...]]:
    """(l, powers): the least prime l > 2**31 with l = 1 (mod n), and the
    powers w**0 .. w**(n-1) mod l of a root w of Phi_n modulo l."""
    ell = (2**31 // n + 1) * n + 1
    while not is_prime(ell):
        ell += n
    # each g**((l-1)/n) is an n-th root of unity, and F_l* has a primitive one
    for g in range(2, ell):
        w = pow(g, (ell - 1) // n, ell)
        phi_at_w = 0
        for c in reversed(cyclotomic_polynomial(n)):
            phi_at_w = (phi_at_w * w + c) % ell
        if phi_at_w == 0:
            return ell, tuple(pow(w, j, ell) for j in range(n))
    raise ArithmeticError(f"no root of Phi_{n} modulo {ell}")


def rank_mod(rows):
    """Rank of the image in F_l of a matrix of Cyclo entries, l and w from
    `prime_field` at the lcm N of the entries' orders, or None when l
    divides a denominator."""
    n = lcm(*(c.order for row in rows for c in row))
    ell, powers = prime_field(n)
    image = []
    for row in rows:
        out = []
        for c in row:
            num, den = c.integer_data
            if den % ell == 0:
                return None
            step = n // c.order
            value = sum(a * powers[i * step] for i, a in enumerate(num) if a)
            out.append(value * pow(den, -1, ell) % ell)
        image.append(out)
    rank = 0
    for col in range(len(image[0]) if image else 0):
        piv = next((i for i in range(rank, len(image)) if image[i][col]), None)
        if piv is None:
            continue
        image[rank], image[piv] = image[piv], image[rank]
        top = image[rank]
        inv = pow(top[col], -1, ell)
        for i in range(rank + 1, len(image)):
            f = image[i][col] * inv % ell
            if f:
                image[i] = [(x - f * y) % ell for x, y in zip(image[i], top)]
        rank += 1
        if rank == len(image):
            break
    return rank
