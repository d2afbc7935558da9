"""The immutable result records: construction, equality, hash and repr."""

from fractions import Fraction

import pytest

from troplab import (
    CollapseResult,
    FlatTorus,
    HybridLimit,
    IncidenceComplex,
    JacobiDecomposition,
    LimitSpace,
    MonomialEntry,
    MonomialPathChart,
    NumericReport,
    PreconditionError,
    QuadraticForm,
    TorelliComparison,
    TropicalAV,
    Tropicalization,
)

F = Fraction

FORM = QuadraticForm([[2, 1], [1, 2]])
TORUS = FlatTorus(FORM)
COMPLEX = IncidenceComplex(2, [frozenset({1}), frozenset({2}), frozenset({1, 2})])

# class -> field values in declaration order, as the record stores them
RECORDS = [
    (JacobiDecomposition, {"b": ((1, F(1, 2)), (0, 1)), "d": (2, F(3, 2))}),
    (LimitSpace, {"circle_circumferences": (F(1),), "euclidean_rank": 1, "torus_part": TORUS}),
    (MonomialEntry, {"coefficient": F(3), "exponent": F(-2)}),
    (
        NumericReport,
        {"d_top": (1.0,), "ratios": {1: (0.5,)}, "collapsed_directions": (1,), "diverging": False},
    ),
    (
        CollapseResult,
        {"r": 1, "profile": (F(1),), "limit": TORUS, "collapsed": False, "report": None},
    ),
    (TropicalAV, {"b1": 2, "gram": FORM}),
    (TorelliComparison, {"gh_side": TORUS, "av_side": TORUS, "continuous": True}),
    (MonomialPathChart, {"complex": COMPLEX, "exponents": (F(1), F(2))}),
    (HybridLimit, {"support": (1, 2), "coordinates": (F(1, 3), F(2, 3))}),
    (Tropicalization, {"vectors": ((1.0, 2.0),), "direction": None}),
]

# class -> (fields left out, the values their defaults take)
DEFAULTS = {
    LimitSpace: ({"circle_circumferences": (), "euclidean_rank": 0}, {"torus_part": None}),
    MonomialEntry: ({}, {"coefficient": F(0), "exponent": F(0)}),
    CollapseResult: (
        {"r": 0, "profile": (F(1),), "limit": TORUS},
        {"collapsed": True, "report": None},
    ),
}

IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, fields):
    record = cls(**fields)
    assert record == cls(*fields.values())
    for name, value in fields.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields):
    record, twin = cls(**fields), cls(**fields)
    assert record == twin and not record != twin
    values = tuple(fields.values())
    try:
        expected = hash(values)
    except TypeError:  # a dict or a flat torus among the fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_attributes_are_read_only(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda c: c.__name__)
def test_defaults(cls):
    given, defaults = DEFAULTS[cls]
    record = cls(**given)
    for name, value in defaults.items():
        assert getattr(record, name) == value


def test_validating_records_check_keyword_construction_too():
    with pytest.raises(PreconditionError):
        LimitSpace(circle_circumferences=(F(0),), euclidean_rank=1)
    with pytest.raises(PreconditionError):
        LimitSpace(circle_circumferences=(), euclidean_rank=-1)
    with pytest.raises(PreconditionError):
        TropicalAV(b1=3, gram=FORM)
    with pytest.raises(PreconditionError):
        MonomialPathChart(complex=COMPLEX, exponents=[F(-1), F(1)])
    with pytest.raises(PreconditionError):
        MonomialPathChart(complex=COMPLEX, exponents=[0.5, 1])
    entry = MonomialEntry(coefficient=0, exponent=5)
    assert entry == MonomialEntry() and type(entry.coefficient) is Fraction
