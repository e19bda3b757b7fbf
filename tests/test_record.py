"""record.Record, the constructor, immutability and repr of every report."""

import importlib
import pkgutil

import pytest

import circforge
from circforge.record import Record

REPORTS = {
    "abelian": ("CosetSystem",),
    "blowup": (
        "ChartMap", "ChartAtlas", "TransitionChart", "HilbertBasis", "Relation", "RelationSet",
        "TransformedRelation", "PipelineStep", "PipelineReport",
    ),
    "gcirc": (
        "CirculantMatrix", "ValidationReport", "PermutationReport", "MergeReport", "CoordsReport",
        "Codim1Report", "CleanedLadder",
    ),
    "quotient_nc": ("AdaptedCoordinates", "NestedNormalForm", "_Skeleton"),
}


def _records() -> list[type]:
    """Every subclass of Record, once each module of the package is imported."""
    for module in pkgutil.iter_modules(circforge.__path__):
        importlib.import_module(f"circforge.{module.name}")
    found, frontier = [], [Record]
    while frontier:
        subclasses = frontier.pop().__subclasses__()
        found += subclasses
        frontier += subclasses
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


RECORDS = _records()


class _Value:
    """A field value with a readable repr."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"<{self.name}>"


def _values(cls) -> list[_Value]:
    return [_Value(name) for name in cls.__slots__]


def test_the_reports_are_the_records():
    assert {(cls.__module__, cls.__name__) for cls in RECORDS} == {
        (f"circforge.{module}", name) for module, names in REPORTS.items() for name in names
    }
    for cls in RECORDS:
        assert "__init__" not in vars(cls) and cls.__slots__, cls


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_position_and_keyword_give_the_same_fields(cls):
    values = _values(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls.__slots__, values)))
    mixed = cls(*values[:1], **dict(zip(cls.__slots__[1:], values[1:])))
    for report in (by_position, by_keyword, mixed):
        assert [getattr(report, name) for name in cls.__slots__] == values
    # reports compare by identity
    assert by_position == by_position and by_position != by_keyword


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_missing_field_or_an_extra_argument_is_a_type_error(cls):
    values = _values(cls)
    fields = dict(zip(cls.__slots__, values))
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**{name: fields[name] for name in cls.__slots__[1:]})
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, _Value("extra"))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_an_unknown_or_repeated_field_is_a_type_error(cls):
    values = _values(cls)
    with pytest.raises(TypeError, match="unknown field 'no_such_field'"):
        cls(*values, no_such_field=1)
    first = cls.__slots__[0]
    with pytest.raises(TypeError, match=f"repeated field '{first}'"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match=f"repeated field '{first}'"):
        cls(*values[:1], **dict(zip(cls.__slots__, values)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    values = _values(cls)
    report = cls(*values)
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(report, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(report, name)
    with pytest.raises(AttributeError):
        report.no_such_field = 1
    assert [getattr(report, name) for name in cls.__slots__] == values


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_names_every_slot_in_order(cls):
    fields = ", ".join(f"{name}=<{name}>" for name in cls.__slots__)
    assert repr(cls(*_values(cls))) == f"{cls.__name__}({fields})"

