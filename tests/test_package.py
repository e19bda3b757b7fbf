"""The package namespace: every public name resolves, lazily, to its module."""

import ast
import builtins
import sys
from pathlib import Path

import pytest

import circforge

# The names `circforge` exported when it imported them all eagerly.
EAGER_EXPORTS = """
    ATWSequence AbelianGroup Ambiguous ChartAtlas ChartMap CirculantMatrix CosetSystem Cyclo DegenerateInput
    DiagonalAction FracPoly GroupElement HilbertBasis InvSequence InvariantNCInput MonomialMarkedIdeal
    NestedNormalForm NoSplit NonPolynomial NormalFormSpec PairingContext ProductNormalFormSpec Relation
    RelationSet SplitsInvariantly Subgroup TransitionChart Unsupported VarSpace WeightVector adapted_coordinates
    all_subgroups apply_group atw_to_inv atwinv_cpk atwinv_product charts circulant_matrix clean_exponents
    codim1_factor cpk_ideal cpk_spec cyclic_factor_orbit_transitive cyclo_nth_root cyclotomic_polynomial
    divide_exact eigen_system expand_quotient_image gcirc_blowup_sequence gcirc_det hilbert_basis inv_cpk
    inv_recursion inv_to_atw invariant_factors invariant_nc_normal_form irreducible_exponents is_invariant
    klein_spec leibniz_det linear_part linear_rank match_factors match_scalar minimal_order nc_ideal_reduction
    normal_form_poly pairing permute_to_standard perp product_ideal product_merge pullback quotient
    quotient_image quotient_invariant_factors rational_sqrt relations root_of_unity roots_to_coords
    semi_invariant_generators semi_invariant_parts semi_invariant_split semi_invariant_weight split_newton
    strict_transform subgroup_from_generators substitute_power toric_relation_transform transition truncate
    validate_normal_form verify_eigen_system verify_split weights xi z2z4_spec
""".split()


def test_exports_are_the_eager_ones_and_domain_error():
    assert len(circforge.__all__) == len(set(circforge.__all__))
    assert set(circforge.__all__) == set(EAGER_EXPORTS) | {"DomainError"}


def test_each_name_is_its_home_module_attribute():
    for name in circforge.__all__:
        value = getattr(circforge, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("circforge."), name
        assert getattr(home, name) is value, name


def test_dir_and_star_import_see_every_name():
    assert set(circforge.__all__) <= set(dir(circforge))
    namespace = {}
    exec("from circforge import *", namespace)
    for name in circforge.__all__:
        assert namespace[name] is getattr(circforge, name), name


def test_modules_and_unknown_names():
    from circforge import abelian, jsonio

    assert circforge.abelian is abelian and circforge.jsonio is jsonio
    assert not hasattr(circforge, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        circforge.no_such_name


def test_every_domain_exception_is_a_domain_error():
    from circforge import cli

    exceptions = {getattr(circforge, n) for n in circforge.__all__}
    exceptions = {e for e in exceptions if isinstance(e, type) and issubclass(e, Exception)}
    names = {e.__name__ for e in exceptions}
    assert names == {
        "DomainError", "NonPolynomial", "NoSplit", "Ambiguous", "Unsupported", "SplitsInvariantly", "DegenerateInput",
    }
    assert all(issubclass(e, circforge.DomainError) for e in exceptions | {cli.DomainError})


def test_library_has_no_assert_statement():
    # python -O strips assert statements, and every decision must stay exact
    # under -O too: a check raises explicitly
    src = Path(circforge.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_does_not_import_dataclasses():
    # importing dataclasses also imports inspect, a start-up cost of every
    # CLI process; the library's value types are plain classes
    src = Path(circforge.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_every_class_but_an_exception_declares_slots():
    # the library's value types are plain slotted classes: an instance has
    # no __dict__, so a misspelt attribute raises instead of adding a field
    src = Path(circforge.__file__).parent
    classes = [
        (path.name, node)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    ]
    by_name = {node.name: node for _, node in classes}

    def is_exception(name):
        if name in by_name:
            return any(isinstance(b, ast.Name) and is_exception(b.id) for b in by_name[name].bases)
        builtin = getattr(builtins, name, None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    def declares_slots(node):
        targets = [t for stmt in node.body if isinstance(stmt, ast.Assign) for t in stmt.targets]
        targets += [stmt.target for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
        return any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets)

    assert len(by_name) == len(classes)  # names are unique, so bases resolve
    found = [
        f"{file}:{node.lineno} {node.name}"
        for file, node in classes
        if not (is_exception(node.name) or declares_slots(node))
    ]
    assert found == []


def _is_zero_poly(node) -> bool:

    """Whether node is a call FracPoly.zero(...)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "zero"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "FracPoly"
    )


def _adds_to_itself(node, names) -> bool:
    """Whether node is `name = name + ...` or `name += ...` for a name in names."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, ast.Add) and isinstance(node.target, ast.Name) and node.target.id in names
    return (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in names
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, ast.Add)
        and isinstance(node.value.left, ast.Name)
        and node.value.left.id == node.targets[0].id
    )


def test_library_sums_polynomials_through_poly_sum():
    # `acc = acc + p` copies the whole running term map at every step; a sum
    # of many polynomials goes through polyring.poly_sum, one merge pass
    src = Path(circforge.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            zeros = {
                target.id
                for node in ast.walk(func)
                if isinstance(node, ast.Assign) and _is_zero_poly(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            found |= {
                f"{path.name}:{node.lineno}"
                for loop in ast.walk(func)
                if isinstance(loop, (ast.For, ast.While))
                for node in ast.walk(loop)
                if _adds_to_itself(node, zeros)
            }
    assert sorted(found) == []


def test_library_truncates_products_through_product_degree():
    # truncate(a * b, d) forms every pair and then drops those past d; a
    # truncated product goes through polyring.product(..., degree=d), which
    # never forms them
    src = Path(circforge.__file__).parent
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) == "truncate"
        and node.args
        and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult) for sub in ast.walk(node.args[0]))
    )
    assert found == []


def _value_types():
    """(a factory, a factory of a value that differs in one field, a value
    of another type, that field) for each value type that the library
    compares or hashes."""
    from fractions import Fraction

    from circforge import (
        ATWSequence,
        AbelianGroup,
        DiagonalAction,
        InvSequence,
        NormalFormSpec,
        ProductNormalFormSpec,
        cpk_spec,
    )

    z4 = AbelianGroup((4,))

    def cp4_with_labels(residues):
        return NormalFormSpec((4,), 4, tuple((Fraction(j, 4),) for j in range(1, 4)), z4, tuple(map(z4.element, residues)))

    return {
        "AbelianGroup": (lambda: AbelianGroup((2, 4)), lambda: AbelianGroup((4, 2)), (2, 4), "moduli"),
        "GroupElement": (lambda: AbelianGroup((2, 4)).element((1, 3)), lambda: AbelianGroup((2, 8)).element((1, 3)), (1, 3), "residues"),
        "NormalFormSpec": (
            lambda: cp4_with_labels([(0,), (1,), (2,), (3,)]),
            lambda: cp4_with_labels([(0,), (3,), (2,), (1,)]),
            ProductNormalFormSpec((cpk_spec(4),)),
            "labels",
        ),
        "ProductNormalFormSpec": (
            lambda: ProductNormalFormSpec((cpk_spec(4), cpk_spec(4))),
            lambda: ProductNormalFormSpec((cpk_spec(4), cp4_with_labels([(0,), (3,), (2,), (1,)]))),
            cpk_spec(4),
            "factors",
        ),

        "InvSequence": (
            lambda: InvSequence((2, Fraction(3, 2)), ("x0", "w")),
            lambda: InvSequence((2, Fraction(3, 2)), ("x0", "x1")),
            ATWSequence((2, Fraction(3, 2)), ("x0", "w")),
            "entries",
        ),
        "ATWSequence": (
            lambda: ATWSequence((2, 3), ("x0", "w")),
            lambda: ATWSequence((2, 4), ("x0", "w")),
            InvSequence((2, 3), ("x0", "w")),
            "contacts",
        ),
        "DiagonalAction": (
            lambda: DiagonalAction(AbelianGroup((2,)), {"x": (1,), "y": (0,)}),
            lambda: DiagonalAction(AbelianGroup((2,)), {"x": (1,), "y": (1,)}),
            {"x": (1,), "y": (0,)},
            "weights",
        ),
    }


@pytest.mark.parametrize("name", list(_value_types()))
def test_value_types_compare_and_hash_on_their_fields(name):
    make, make_changed, foreign, field = _value_types()[name]
    a, b, changed = make(), make(), make_changed()
    if name == "DiagonalAction":  # the per-space memo is no field
        from circforge import FracPoly, VarSpace

        sp = VarSpace([], ["x", "y"])
        a.characters(sp, next(iter(FracPoly.variable(sp, "x").terms)))
    assert a is not b and a == b and not a != b
    if name == "DiagonalAction":  # its weights are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)

    assert a != changed and changed != a
    assert (a == foreign) is False and (foreign == a) is False
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(changed, field))
    assert a == b


def _copies_its_parameters(init) -> bool:
    """Whether the body of init only sets each of its parameters, by name,
    on self: `self.x = x` or `object.__setattr__(self, "x", x)`."""
    params = {a.arg for a in init.args.args[1:] + init.args.kwonlyargs}
    copies = {f"self.{p} = {p}": p for p in params} | {f"object.__setattr__(self, '{p}', {p})": p for p in params}
    body = init.body[1:] if ast.get_docstring(init) else init.body
    copied = [copies.get(ast.unparse(stmt)) for stmt in body]
    return bool(params) and None not in copied and set(copied) == params


def test_no_report_writes_its_own_constructor():
    # a report (a class with identity equality) whose constructor only
    # copies its arguments derives from record.Record instead
    src = Path(circforge.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}
            if "__eq__" not in methods and "__init__" in methods and _copies_its_parameters(methods["__init__"]):
                found.append(f"{path.name}:{cls.lineno} {cls.name}")
    assert found == []


def _unused_imports(path) -> list[str]:
    """The names that the module at path imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names if alias.name != "*"})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    root = Path(__file__).resolve().parents[1]
    found = [
        entry
        for folder in ("src/circforge", "tests", "demos")
        for path in sorted((root / folder).glob("*.py"))
        for entry in _unused_imports(path)
    ]
    assert found == []
