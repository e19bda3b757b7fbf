"""Group-circulant matrices, determinants, and normal forms.

Run:  python demos/03_circulant_determinants.py
"""

from circforge import (
    AbelianGroup,
    circulant_matrix,
    cpk_spec,
    eigen_system,
    klein_spec,
    leibniz_det,
    normal_form_poly,
    validate_normal_form,
    verify_eigen_system,
    z2z4_spec,
)
from circforge.gcirc import spec_factors, spec_space, spec_values
from circforge.polyring import product

# The cyclic normal forms: cp(2) is the pinch point, cp(3) its order-3 cousin.
print("cp(2):", normal_form_poly(cpk_spec(2)))
print("cp(3):", normal_form_poly(cpk_spec(3)))

# The Klein four-group gives a nested block-circulant matrix, not a standard
# circulant: rows are indexed by the group, entries by differences.
klein = AbelianGroup((2, 2))
mat = circulant_matrix(klein)
print("\nKlein matrix:")
for row in mat.rows_as_symbols():
    print("  ", row)

# Eigenvectors are character vectors; the eigen identity C psi = Y psi is
# verified symbolically.
print("eigen identity holds:", verify_eigen_system(mat, eigen_system(klein)))

# The determinant is the product of the character sums -- and agrees with a
# signed permutation expansion of the explicit matrix.
spec = klein_spec()
(factors,) = spec_factors(spec)
poly = normal_form_poly(spec)
print("Klein determinant has", len(poly.terms), "terms")
print(f"product of its {len(factors)} character sums agrees:", product(factors) == poly)
print("Leibniz expansion agrees:", poly == leibniz_det(mat, spec_values(spec, spec_space(spec))))

# A normal-form specification validates by computing the induced action on
# the eigenvalue factors: transitivity is irreducibility, the stabilizer
# determines the quotient group.
for name, s in (("cp(3)", cpk_spec(3)), ("Klein", klein_spec()), ("Z2xZ4 quotient", z2z4_spec())):
    rep = validate_normal_form(s)
    print(
        f"\n{name}: valid={rep.valid}, irreducible={rep.transitive}, "
        f"|H|={rep.stabilizer.order}, G/H iso declared quotient: {rep.quotient_isomorphic}"
    )
