"""circforge: exact combinatorics and normal forms of group-circulant singularities.

Modules:

- cyclotomic: exact arithmetic in Q(e_k)
- abelian: finite abelian groups, weighted pairing, orthogonal complements
- polyring: sparse polynomials with fractional divisorial exponents
- splitting: truncated-series factorization into linear z-factors
- gcirc: circulant matrices, determinants, normal forms, codimension-one factors
- resinv: resolution invariant sequences and blow-up weights
- blowup: weighted blow-up chart atlases, Hilbert bases, the blow-up pipeline
- quotient_nc: normalization of group-invariant normal-crossings ideals
- smith: exact matrices: integer Smith form and lattices; echelon, reduced echelon, rank, det, solve over a field
- errors: DomainError, the base class of every domain error
- record: Record, the base of the report classes (one constructor, immutable fields, a repr)
- jsonio: JSON encoding of the public value types
- cli: command-line front end

The names below are loaded from their module on first access, so
`import circforge` imports none of the modules.
"""

import importlib

# {module: names it exports from the package}
_EXPORTS = {
    "abelian": (
        "AbelianGroup", "CosetSystem", "GroupElement", "PairingContext", "Subgroup", "all_subgroups",
        "invariant_factors", "pairing", "perp", "quotient", "quotient_invariant_factors",
        "subgroup_from_generators", "xi",
    ),
    "blowup": (
        "ChartAtlas", "ChartMap", "HilbertBasis", "Relation", "RelationSet", "TransitionChart", "charts",
        "expand_quotient_image", "gcirc_blowup_sequence", "hilbert_basis", "pullback", "quotient_image",
        "relations", "toric_relation_transform", "transition",
    ),
    "cyclotomic": (
        "Cyclo", "cyclo_nth_root", "cyclotomic_polynomial", "minimal_order", "rational_sqrt", "root_of_unity",
    ),
    "errors": ("DomainError",),
    "gcirc": (
        "CirculantMatrix", "NonPolynomial", "NormalFormSpec", "ProductNormalFormSpec", "circulant_matrix",
        "clean_exponents", "codim1_factor", "cpk_spec", "cyclic_factor_orbit_transitive", "eigen_system",
        "gcirc_det", "irreducible_exponents", "klein_spec", "leibniz_det", "normal_form_poly",
        "permute_to_standard", "product_merge", "roots_to_coords", "validate_normal_form",
        "verify_eigen_system", "z2z4_spec",
    ),
    "polyring": (
        "DiagonalAction", "FracPoly", "VarSpace", "apply_group", "divide_exact", "is_invariant", "linear_part",
        "linear_rank", "match_factors", "match_scalar", "semi_invariant_parts", "semi_invariant_split",
        "semi_invariant_weight", "strict_transform", "substitute_power", "truncate",
    ),
    "quotient_nc": (
        "DegenerateInput", "InvariantNCInput", "NestedNormalForm", "SplitsInvariantly", "adapted_coordinates",
        "invariant_nc_normal_form", "nc_ideal_reduction", "semi_invariant_generators",
    ),
    "resinv": (
        "ATWSequence", "InvSequence", "MonomialMarkedIdeal", "WeightVector", "atw_to_inv", "atwinv_cpk",
        "atwinv_product", "cpk_ideal", "inv_cpk", "inv_recursion", "inv_to_atw", "product_ideal", "weights",
    ),
    "splitting": ("Ambiguous", "NoSplit", "Unsupported", "split_newton", "verify_split"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(_EXPORTS) | {"smith"}  # reachable as attributes, as when they were imported eagerly

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
