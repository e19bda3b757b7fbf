"""circforge: exact combinatorics and normal forms of group-circulant singularities.

Subpackages:

- cyclotomic: exact arithmetic in Q(e_k)
- abelian: finite abelian groups, weighted pairing, orthogonal complements
- polyring: sparse polynomials with fractional divisorial exponents
- splitting: truncated-series factorization into linear z-factors
- gcirc: circulant matrices, determinants, normal forms, codimension-one factors
- resinv: resolution invariant sequences and blow-up weights
- blowup: weighted blow-up chart atlases, Hilbert bases, the blow-up pipeline
- quotient_nc: normalization of group-invariant normal-crossings ideals
- smith: exact matrices: integer Smith form and lattices; rank, det, solve over a field
- cli: command-line front end
"""

from .abelian import (
    AbelianGroup,
    CosetSystem,
    GroupElement,
    PairingContext,
    Subgroup,
    all_subgroups,
    invariant_factors,
    pairing,
    perp,
    quotient,
    quotient_invariant_factors,
    subgroup_from_generators,
    xi,
)
from .blowup import (
    ChartAtlas,
    ChartMap,
    HilbertBasis,
    Relation,
    RelationSet,
    TransitionChart,
    charts,
    expand_quotient_image,
    gcirc_blowup_sequence,
    hilbert_basis,
    pullback,
    quotient_image,
    relations,
    toric_relation_transform,
    transition,
)
from .cyclotomic import Cyclo, cyclo_nth_root, cyclotomic_polynomial, minimal_order, rational_sqrt, root_of_unity
from .gcirc import (
    CirculantMatrix,
    NonPolynomial,
    NormalFormSpec,
    ProductNormalFormSpec,
    circulant_matrix,
    clean_exponents,
    codim1_factor,
    cpk_spec,
    cyclic_factor_orbit_transitive,
    eigen_system,
    gcirc_det,
    irreducible_exponents,
    klein_spec,
    leibniz_det,
    normal_form_poly,
    permute_to_standard,
    product_merge,
    roots_to_coords,
    validate_normal_form,
    verify_eigen_system,
    z2z4_spec,
)
from .polyring import (
    DiagonalAction,
    FracPoly,
    VarSpace,
    apply_group,
    divide_exact,
    is_invariant,
    linear_part,
    linear_rank,
    match_factors,
    match_scalar,
    semi_invariant_parts,
    semi_invariant_split,
    semi_invariant_weight,
    strict_transform,
    substitute_power,
    truncate,
)
from .quotient_nc import (
    DegenerateInput,
    InvariantNCInput,
    NestedNormalForm,
    SplitsInvariantly,
    adapted_coordinates,
    invariant_nc_normal_form,
    nc_ideal_reduction,
    semi_invariant_generators,
)
from .resinv import (
    ATWSequence,
    InvSequence,
    MonomialMarkedIdeal,
    WeightVector,
    atw_to_inv,
    atwinv_cpk,
    atwinv_product,
    cpk_ideal,
    inv_cpk,
    inv_recursion,
    inv_to_atw,
    product_ideal,
    weights,
)
from .splitting import Ambiguous, NoSplit, Unsupported, split_newton, verify_split

__version__ = "0.1.0"
