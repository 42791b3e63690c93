"""The immutable value classes: equality, hashing, reprs, refused writes, copies."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from adnil.affine import (
    AffineFactorization,
    AffineRoot,
    AffineWeylElement,
    n_set,
    simple_reflection,
)
from adnil.cli import Report
from adnil.counting import IdentityCheck, LatticeCount
from adnil.ideals import IdealChain, UpperIdeal, close_upward, enumerate_ideals, meet
from adnil.normalizers import ParabolicLabel, normalizer
from adnil.rootsys import RationalVector, Root, _Value, build
from adnil.typeac import FerrersIdeal, SignedWord, SymplecticIdeal

B3 = build("B3")
_IDEAL = close_upward(B3, [B3.positive_roots[3]])
_S1, _S2 = simple_reflection(B3, 1), simple_reflection(B3, 2)


def _fields_key(*names):
    return lambda obj: tuple(getattr(obj, f) for f in names)


def _lookalike(cls, fields):
    """An object of another value class of the same name, slots and fields."""
    other = type(cls.__name__, (_Value,), {"__slots__": cls.__slots__})
    obj = other.__new__(other)
    for f, v in fields.items():
        object.__setattr__(obj, f, v)
    return obj


# name: (class, keyword fields, one changed compared field, fields equality
# ignores, hash key (None: unhashable), repr)
CASES = {
    "Root": (
        Root, {"coeffs": (0, 1, 1)}, {"coeffs": (1, 1, 1)}, {}, _fields_key("coeffs"),
        "Root(0, 1, 1)",
    ),
    "RationalVector": (
        RationalVector, {"coords": (1, Fraction(1, 2), 0)}, {"coords": (1, 1, 0)}, {},
        _fields_key("coords"), "RationalVector(1, 1/2, 0)",
    ),
    "UpperIdeal": (
        UpperIdeal, {"rs": B3, "bits": _IDEAL.bits},
        {"bits": B3.upsets[-1]}, {}, _fields_key("rs", "bits"),
        "UpperIdeal(B3, size=4, gens=[[1, 1, 0]])",
    ),
    "IdealChain": (
        IdealChain, {"powers": (_IDEAL, close_upward(B3, [])), "stalled": False},
        {"stalled": True}, {}, _fields_key("powers", "stalled"),
        "IdealChain(powers=(UpperIdeal(B3, size=4, gens=[[1, 1, 0]]), "
        "UpperIdeal(B3, size=0, gens=[])), stalled=False)",
    ),
    "ParabolicLabel": (
        ParabolicLabel, {"rank": 3, "levi": frozenset({2})}, {"levi": frozenset()}, {},
        _fields_key("rank", "levi"), "ParabolicLabel({a3})",
    ),
    "AffineRoot": (
        AffineRoot, {"level": 1, "finite": (0, -1, 0)}, {"level": 0}, {},
        _fields_key("level", "finite"), "AffineRoot(1d+[0, -1, 0])",
    ),
    "AffineWeylElement": (
        AffineWeylElement,
        {"rs": B3, "word": (1,), "matrix": _S1.matrix, "inverse_matrix": _S1.inverse_matrix},
        {"matrix": _S2.matrix}, {"word": (1, 1, 1)},
        lambda w: (id(w.rs), w.matrix), "AffineWeylElement(B3, s1)",
    ),
    "AffineFactorization": (
        AffineFactorization,
        {
            "finite_part": ((1, -1, 0), (2, -1, 0), (2, -2, 1)),
            "translation": RationalVector((1, 0, 0)),
            "pairings": (2, -1, 0),
        },
        {"pairings": (0, 0, 0)}, {}, _fields_key("finite_part", "translation", "pairings"),
        "AffineFactorization(finite_part=((1, -1, 0), (2, -1, 0), (2, -2, 1)), "
        "translation=RationalVector(1, 0, 0), pairings=(2, -1, 0))",
    ),
    "LatticeCount": (
        LatticeCount, {"count": 2, "points": ((0, 0), (1, 1))}, {"count": 3}, {},
        _fields_key("count", "points"), "LatticeCount(count=2, points=((0, 0), (1, 1)))",
    ),
    "IdentityCheck": (
        IdentityCheck, {"name": "catalan-from-motzkin", "argument": 0, "lhs": 1, "rhs": 1},
        {"rhs": 2}, {}, _fields_key("name", "argument", "lhs", "rhs"),
        "IdentityCheck(name='catalan-from-motzkin', argument=0, lhs=1, rhs=1)",
    ),
    "Report": (
        Report,
        {
            "command": "count", "label": "B3", "columns": ("a",), "rows": (("1",),),
            "json_rows": ({"a": 1},), "footer": (("x", "y"),),
        },
        {"label": None}, {}, None,
        "Report(command='count', label='B3', columns=('a',), rows=(('1',),), "
        "json_rows=({'a': 1},), footer=(('x', 'y'),))",
    ),
    "FerrersIdeal": (
        FerrersIdeal, {"n": 3, "pairs": ((1, 3),)}, {"pairs": ((1, 4),)}, {},
        _fields_key("n", "pairs"), "FerrersIdeal(n=3, pairs=((1, 3),))",
    ),
    "SymplecticIdeal": (
        SymplecticIdeal, {"n": 2, "pairs": ((1, 3),)}, {"pairs": ((1, 4),)}, {},
        _fields_key("n", "pairs"), "SymplecticIdeal(n=2, pairs=((1, 3),))",
    ),
    "SignedWord": (
        SignedWord, {"letters": (1, 0, -1)}, {"letters": (1, 0, 0)}, {},
        _fields_key("letters"), "SignedWord(letters=(1, 0, -1))",
    ),
}


# name: other spellings of fields that the constructor stores as the fields of CASES
SPELLINGS = {
    "ParabolicLabel": ({"levi": {2}}, {"levi": [2, 2]}, {"levi": (2,)}),
    "FerrersIdeal": ({"pairs": [(1, 3)]}, {"pairs": [[1, 3]]}),
    "SymplecticIdeal": ({"pairs": [(1, 3)]}, {"pairs": ([1, 3],)}),
    "SignedWord": ({"letters": [1, 0, -1]},),
}


@pytest.mark.parametrize("name", CASES)
def test_value_class_contract(name):
    cls, fields, changed, ignored, key, text = CASES[name]
    obj = cls(**fields)
    assert [getattr(obj, f) for f in fields] == list(fields.values())
    assert repr(obj) == text

    # the fields are the slots without the "_" names, read once per class
    assert cls._field_names == tuple(fields)
    assert cls._field_names == tuple(f for f in cls.__slots__ if not f.startswith("_"))
    assert obj._fields == tuple(fields.values())

    # one generated _fill sets the fields in slot order and the "_" slots to None
    code = cls._fill.__code__
    assert code.co_varnames[1 : code.co_argcount] == cls._field_names
    assert all(getattr(obj, f) is None for f in cls.__slots__ if f.startswith("_"))
    for args in ((), (*fields.values(), None)):
        with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) "):
            cls(*args)

    # the trusted _make, compiled with _fill, builds the same value with no
    # __init__; its "_" slots are None unless given by keyword
    made = cls._make(*fields.values())
    assert type(made) is cls and made == obj and obj == made and repr(made) == text
    if key is not None:
        assert hash(made) == hash(obj)
    assert all(getattr(made, f) is None for f in cls.__slots__ if f.startswith("_"))
    for protocol in range(6):
        back = pickle.loads(pickle.dumps(made, protocol))
        assert type(back) is cls and back == obj and repr(back) == text
    derived = {f: object() for f in cls.__slots__ if f.startswith("_")}
    code = cls._make.__code__
    assert code.co_varnames[: code.co_argcount] == (*cls._field_names, *derived)
    assert cls._make.__globals__ is cls._fill.__globals__  # one exec
    held = cls._make(*fields.values(), **derived)
    assert held == obj and all(getattr(held, f) is v for f, v in derived.items())

    # a validating constructor stores what it validated, in immutable form
    for spelling in SPELLINGS.get(name, ()):
        alt = cls(**{**fields, **spelling})
        assert [type(getattr(alt, f)) for f in fields] == [type(v) for v in fields.values()]
        assert alt == obj and hash(alt) == hash(obj) and repr(alt) == text

    # equal within the class only, hashed as the tuple of the compared fields
    same, twin = cls(*fields.values()), cls(**{**fields, **ignored})
    assert obj == same and obj == twin
    assert obj != cls(**{**fields, **changed})
    look = _lookalike(cls, fields)
    assert obj != look and look != obj
    assert obj != tuple(fields.values())
    if key is None:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(same) == hash(twin) == hash(key(obj))

    for f in fields:
        with pytest.raises(AttributeError):
            setattr(obj, f, getattr(same, f))
        with pytest.raises(AttributeError):
            delattr(obj, f)
    assert [getattr(obj, f) for f in fields] == list(fields.values())

    copies = [copy.deepcopy(obj)]
    copies += [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(6)]
    assert copy.copy(obj) == obj
    for c in copies:
        assert type(c) is cls and repr(c) == text
        assert c == obj  # B3 compares by identity, so a copy holding it shares it
    if name == "UpperIdeal":
        assert all(c._gens is None and meet(obj, c) == obj for c in copies)
    if name == "AffineWeylElement":
        # reading N(w) fills the slot _levels, which is not a field: the
        # element still equals, hashes and prints as before, and its copies
        # and pickles start with no levels and read the same N(w)
        assert obj._levels is None and copies[0]._levels is None
        inv = n_set(obj)
        assert obj._levels is not None and obj._fields == tuple(fields.values())
        assert obj == same and hash(obj) == hash(same) and repr(obj) == text
        with pytest.raises(AttributeError):
            obj._levels = None
        read = [copy.copy(obj), copy.deepcopy(obj)]
        read += [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(6)]
        for c in read:
            assert c == obj and hash(c) == hash(obj) and repr(c) == text
            assert c._levels is None and n_set(c) == inv


def _value_classes() -> list[type]:
    """Every value class of the package; they are the classes of CASES."""
    found, todo = [], _Value.__subclasses__()
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("adnil."):
            found.append(cls)
    assert sorted(cls.__name__ for cls in found) == sorted(CASES)
    return found


def test_only_the_affine_roots_and_elements_write_their_own_equality():
    for cls in _value_classes():
        own = {"__eq__", "__hash__"} & set(vars(cls))
        assert own == ({"__eq__", "__hash__"} if cls in (AffineRoot, AffineWeylElement) else set())


def test_only_the_validating_classes_and_the_chain_write_their_own_constructor():
    # every other class takes its generated _fill as __init__
    own = {cls for cls in _value_classes() if cls.__init__ is not cls._fill}
    assert own == {
        UpperIdeal, ParabolicLabel, FerrersIdeal, SymplecticIdeal, SignedWord, IdealChain
    }


def test_upper_ideal_constructor_takes_no_generators():
    # a trusted generator bitset made UpperIdeal(B3, bits, 0) equal c but gave it the normalizer
    # of the zero ideal; only _trusted may carry the generators
    c = _IDEAL
    with pytest.raises(TypeError):
        UpperIdeal(B3, c.bits, 0)
    with pytest.raises(TypeError):
        UpperIdeal(B3, c.bits, _gens=0)
    assert normalizer(UpperIdeal(B3, c.bits)) == normalizer(c) == ParabolicLabel(3, {2})


def test_copies_and_pickles_of_walked_ideals_keep_their_generators():
    for c in enumerate_ideals(B3):
        assert c._gens is not None
        copies = [copy.copy(c), copy.deepcopy(c)]
        copies += [pickle.loads(pickle.dumps(c, protocol)) for protocol in range(6)]
        for d in copies:
            assert type(d) is UpperIdeal and d == c and repr(d) == repr(c)
            assert d._gens == c._gens and normalizer(d) == normalizer(c)
