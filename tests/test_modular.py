from math import isqrt

from circforge.cyclotomic import cyclotomic_polynomial
from circforge.modular import is_prime, prime_field


def _prime_by_trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def test_prime_field_root_is_a_root_of_phi():
    for n in range(1, 49):
        ell, powers = prime_field(n)
        assert ell > 2**31 and (ell - 1) % n == 0 and _prime_by_trial_division(ell)
        w = powers[1 % n]
        assert list(powers) == [pow(w, j, ell) for j in range(n)]
        assert sum(c * pow(w, j, ell) for j, c in enumerate(cyclotomic_polynomial(n))) % ell == 0
        # independently: w has multiplicative order exactly n
        assert pow(w, n, ell) == 1 and all(pow(w, d, ell) != 1 for d in range(1, n))


def test_is_prime_against_trial_division():
    for n in list(range(-2, 3000)) + list(range(2**31 - 200, 2**31 + 200)):
        assert is_prime(n) == _prime_by_trial_division(n), n
    # strong pseudoprimes to the first few bases, and Carmichael numbers
    # (6k + 1)(12k + 1)(18k + 1) with no factor below 41
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321):
        assert not is_prime(n)
    for k in (35, 45, 51):
        assert not is_prime((6 * k + 1) * (12 * k + 1) * (18 * k + 1))
