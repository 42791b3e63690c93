"""Normalizer labels, nilradicals, fibers, and stable-ideal counts."""

from __future__ import annotations

import pytest

from adnil import normalizers
from adnil.ideals import UpperIdeal, close_upward, enumerate_ideals, is_abelian, join, meet
from adnil.normalizers import (
    ParabolicLabel,
    fibers,
    nilradical,
    normalizer,
    normalizer_by_weight,
    stable_count,
)
from adnil.rootsys import Root, build


def _pair_root(n, i, j):
    # the type-A root with support positions i..j-1 (1-based pair (i, j))
    return Root(tuple(1 if i <= k + 1 <= j - 1 else 0 for k in range(n)))


def test_parabolic_label_basics():
    lab = ParabolicLabel(4, frozenset({2, 0}))
    assert len(lab.levi) == 2
    assert lab.levi_sorted() == (0, 2)
    assert repr(lab) == "ParabolicLabel({a1,a3})"
    with pytest.raises(ValueError):
        ParabolicLabel(3, frozenset({3}))


def test_parabolic_label_rejects_non_integer_indices():
    # {0.5} passed the range check alone and acted as the empty Levi set
    for bad in (0.5, 1.0):
        with pytest.raises(ValueError, match="out of range"):
            ParabolicLabel(2, frozenset({bad}))


def test_parabolic_label_refuses_bool_indices():
    # {True} would pass the range check as {a2}; bools are refused as rootsys._check_indices does
    with pytest.raises(ValueError, match="out of range"):
        ParabolicLabel(3, frozenset({True}))
    with pytest.raises(ValueError, match="out of range"):
        ParabolicLabel(3, frozenset({False}))


def test_parabolic_label_refuses_a_bool_rank():
    # ParabolicLabel(True, {0}) used to build ParabolicLabel({a1}), as for rank 1
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match=f"^rank {bad!r} is not an int$"):
            ParabolicLabel(bad, frozenset({0}))


def test_sl5_example_normalizer():
    rs = build("A4")
    c = close_upward(rs, [_pair_root(4, 1, 3), _pair_root(4, 2, 5)])
    assert is_abelian(c)
    assert normalizer(c) == ParabolicLabel(4, frozenset({2}))
    assert normalizer_by_weight(c) == ParabolicLabel(4, frozenset({2}))


def test_sl7_example_normalizers_of_meet_and_join():
    rs = build("A6")
    c1 = close_upward(
        rs, [_pair_root(6, 1, 3), _pair_root(6, 3, 6), _pair_root(6, 4, 7)]
    )
    c2 = close_upward(
        rs,
        [
            _pair_root(6, 1, 4),
            _pair_root(6, 2, 5),
            _pair_root(6, 4, 6),
            _pair_root(6, 5, 7),
        ],
    )
    borel = ParabolicLabel(6, frozenset())
    assert normalizer(c1) == borel and normalizer(c2) == borel
    assert normalizer(meet(c1, c2)) == ParabolicLabel(6, frozenset({1}))
    assert normalizer(join(c1, c2)) == ParabolicLabel(6, frozenset({2}))


def test_generator_and_weight_methods_agree_everywhere():
    # enumerated ideals carry their generators, so this is the walk's path
    for label in ("A4", "B3", "B4", "C3", "C4", "D4", "D5", "E6", "E7", "F4", "G2"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            assert normalizer(c) == normalizer_by_weight(c), (label, c)


def test_extreme_ideals():
    for label in ("A3", "C3", "F4"):
        rs = build(label)
        ideals = list(enumerate_ideals(rs))
        empty, full = ideals[0], ideals[-1]
        assert normalizer(empty) == ParabolicLabel(rs.rank, frozenset(range(rs.rank)))
        assert normalizer(full) == ParabolicLabel(rs.rank, frozenset())


def test_nilradical_properties():
    for label in ("A3", "B3", "D4", "G2", "F4", "E6"):
        rs = build(label)
        for mask in range(1 << rs.rank):
            levi = frozenset(a for a in range(rs.rank) if mask >> a & 1)
            lab = ParabolicLabel(rs.rank, levi)
            m = nilradical(rs, lab)
            # exactly the positive roots with a nonzero coefficient off the Levi
            off_levi = sum(
                1 << k
                for k, r in enumerate(rs.positive_roots)
                if any(c and a not in levi for a, c in enumerate(r.coeffs))
            )
            assert m.bits == off_levi
            assert normalizer(m) == lab


def test_nilradical_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        nilradical(build("A3"), ParabolicLabel(4, frozenset()))


def _labels(rank):
    for mask in range(1 << rank):
        yield ParabolicLabel(rank, frozenset(a for a in range(rank) if mask >> a & 1))


# the exceptional types and the small classical ranks
FIBER_TYPES = (
    "A4", "A5", "B3", "B4", "B5", "C3", "C4", "C5", "D4", "D5", "D6",
    "E6", "E7", "E8", "F4", "G2",
)


def test_fibers_partition_the_ideals():
    # every parabolic has a nonempty fiber, and the fibers split the walk
    for label in FIBER_TYPES:
        rs = build(label)
        fibs = fibers(rs)
        assert set(fibs) == set(_labels(rs.rank)), label
        total = 0
        seen = set()
        for lab, (members, _) in fibs.items():
            total += len(members)
            for c in members:
                assert normalizer(c) == lab
                assert c.bits not in seen
                seen.add(c.bits)
        assert total == len(list(enumerate_ideals(rs))), label


def _pairwise_minima(members):
    # reference: members containing no other member
    return [c for c in members if not any(o is not c and o.bits & ~c.bits == 0 for o in members)]


def test_fiber_minima_match_pairwise_scan():
    for label in ("B5", "D4", "D5", "D6", "E6"):
        rs = build(label)
        for lab, (members, minima) in fibers(rs).items():
            want = sorted(c.bits for c in _pairwise_minima(members))
            assert sorted(c.bits for c in minima) == want, (label, lab)


# fibers with more than one minimal ideal; no fiber has more than four
SEVERAL_MINIMA = {
    "A5": 0, "B3": 0, "B4": 0, "B5": 1, "C4": 0, "C5": 0, "D4": 1, "D5": 2, "D6": 5,
    "E6": 6, "E7": 16, "E8": 31, "F4": 0, "G2": 0,
}


def test_fibers_with_several_minima():
    for label, count in SEVERAL_MINIMA.items():
        sizes = [len(minima) for _, minima in fibers(build(label)).values()]
        assert sum(1 for k in sizes if k > 1) == count, label
        assert max(sizes) <= 4, label


def test_fibers_require_the_nilradical(monkeypatch):
    rs = build("A3")
    # only the full Levi's fiber holds the empty ideal
    monkeypatch.setattr(normalizers, "nilradical", lambda rs, label: UpperIdeal(rs, 0))
    with pytest.raises(AssertionError, match="nilradical is not in its own fiber"):
        fibers(rs)


BOREL_FIBER_SIZES = {"A4": 9, "A5": 21, "B3": 5, "C3": 5, "D4": 11, "F4": 19, "G2": 2}


def test_borel_fiber_sizes():
    for label, size in BOREL_FIBER_SIZES.items():
        rs = build(label)
        members, _ = fibers(rs)[ParabolicLabel(rs.rank, frozenset())]
        assert len(members) == size, label


def test_fiber_extrema():
    for label in ("A3", "C3", "G2"):
        rs = build(label)
        fibs = fibers(rs)
        for lab in _labels(rs.rank):
            members, minimals = fibs[lab]
            top = nilradical(rs, lab)
            assert top.bits in {c.bits for c in members}
            assert minimals
            for c in members:
                assert c.bits & ~top.bits == 0, "nilradical is the fiber maximum"
                assert any(m.bits & ~c.bits == 0 for m in minimals)


def test_type_a_fibers_have_unique_minimum():
    fibs = fibers(build("A4"))
    for lab in _labels(4):
        _, minimals = fibs[lab]
        assert len(minimals) == 1


def test_stable_count_equals_enumeration_for_every_levi():
    for label in ("A3", "A4", "B3", "C3", "G2", "D4"):
        rs = build(label)
        levis = [normalizer(c).levi for c in enumerate_ideals(rs)]
        for mask in range(1 << rs.rank):
            s = frozenset(a for a in range(rs.rank) if mask >> a & 1)
            want = sum(1 for levi in levis if s <= levi)
            assert stable_count(rs, ParabolicLabel(rs.rank, s)) == want, (label, s)


def test_stable_count_pinned_values():
    # simple-root symmetry in type A; asymmetry elsewhere
    def singletons(label):
        rs = build(label)
        return [stable_count(rs, ParabolicLabel(rs.rank, frozenset({a}))) for a in range(rs.rank)]

    assert singletons("A4") == [14] * 4
    assert singletons("G2") == [3, 4]
    assert singletons("B3") == [7, 9, 6]
    assert singletons("C3") == [6, 6, 10]
    rs = build("E6")
    assert stable_count(rs, ParabolicLabel(6, frozenset())) == 833


def test_stable_count_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        stable_count(build("A3"), ParabolicLabel(4, frozenset({3})))
    with pytest.raises(ValueError):
        ParabolicLabel(3, frozenset({3}))
