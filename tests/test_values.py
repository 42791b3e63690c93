"""The immutable value classes: equality, hashing, reprs, refused writes, copies."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from adnil.affine import AffineFactorization, AffineRoot, AffineWeylElement, simple_reflection
from adnil.cli import Report
from adnil.counting import IdentityCheck, LatticeCount
from adnil.ideals import IdealChain, UpperIdeal, close_upward
from adnil.normalizers import ParabolicLabel
from adnil.rootsys import RationalVector, Root, _Value, build
from adnil.typeac import FerrersIdeal, SignedWord, SymplecticIdeal

B3 = build("B3")
_IDEAL = close_upward(B3, [B3.positive_roots[3]])
_S1, _S2 = simple_reflection(B3, 1), simple_reflection(B3, 2)
# A deep copy or a pickle of these also copies the root system, which
# compares by identity, so the copy equals the original only in its repr.
_HOLD_A_ROOT_SYSTEM = {"UpperIdeal", "IdealChain", "AffineWeylElement"}


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
        UpperIdeal, {"rs": B3, "bits": _IDEAL.bits, "_gens": _IDEAL._generator_bits()},
        {"bits": B3.upsets[-1]}, {"_gens": None}, _fields_key("rs", "bits"),
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


@pytest.mark.parametrize("name", CASES)
def test_value_class_contract(name):
    cls, fields, changed, ignored, key, text = CASES[name]
    obj = cls(**fields)
    assert [getattr(obj, f) for f in fields] == list(fields.values())
    assert repr(obj) == text

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
        if name not in _HOLD_A_ROOT_SYSTEM:
            assert c == obj
    if name == "UpperIdeal":
        assert all(c._gens == obj._gens for c in copies)

