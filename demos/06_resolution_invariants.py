"""Invariant sequences and blow-up weights for circulant data.

Run:  python demos/06_resolution_invariants.py
"""

from fractions import Fraction

from circforge import (
    atwinv_cpk,
    atwinv_product,
    cpk_ideal,
    inv_cpk,
    inv_recursion,
    inv_to_atw,
    product_ideal,
    weights,
)

# The cyclic case.  Every sequence here comes out of the coefficient-ideal
# recursion, on the monomial data (x_0^k, w x_1^k, ..., w^{k-1} x_{k-1}^k)
# for cp_k; the product form is its partial products.
for k in (2, 3, 4):
    print(f"k={k}: inv = {inv_cpk(k)},  product form = {atwinv_cpk(k)}")

# The recursion meets the closed form: the order k, then (k+1)/k at the
# divisor, then down the ladder 1, k/(k-1), ..., 3/2.
for k in (2, 3, 4, 5):
    rec = inv_recursion(cpk_ideal(k))
    assert rec.entries == (k, Fraction(k + 1, k), 1, *(Fraction(m, m - 1) for m in range(k, 2, -1)))
print("\nrecursion reproduces every closed form up to k = 5")

# Products with a shared divisor: parts [3,2] interleave two ladders.
seq = atwinv_product([3, 2])
print(f"\nparts [3,2]: {seq}  contacts {seq.contacts}")
rec = inv_recursion(product_ideal([3, 2]))
print(f"recursion:   {inv_to_atw(rec)}")

# Blow-up weights are reciprocals of the product-form entries; clearing
# denominators gives the integer weights used by the charts.
for parts in ([3], [2, 2], [3, 2]):
    wv = weights(parts)
    print(f"\nweights {parts}:")
    for name, q, n in zip(wv.parameters, wv.rational, wv.integer):
        print(f"  {name}: {q}  ->  {n}")
