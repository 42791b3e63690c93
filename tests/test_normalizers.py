"""Normalizer labels, nilradicals, fibers, and stable-ideal counts."""

from __future__ import annotations

import pytest

from adnil.ideals import close_upward, enumerate_ideals, is_abelian, join, meet
from adnil.normalizers import (
    ParabolicLabel,
    fiber,
    fiber_extrema,
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
    assert lab.srk == 2
    assert lab.levi_sorted() == (0, 2)
    assert repr(lab) == "ParabolicLabel({a1,a3})"
    with pytest.raises(ValueError):
        ParabolicLabel(3, frozenset({3}))


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
    for label in ("A3", "B3", "D4", "G2"):
        rs = build(label)
        n_pos = len(rs.positive_roots)
        for mask in range(1 << rs.rank):
            levi = frozenset(a for a in range(rs.rank) if mask >> a & 1)
            lab = ParabolicLabel(rs.rank, levi)
            m = nilradical(rs, lab)
            # size: positive roots not supported inside the Levi
            inside = sum(
                1
                for r in rs.positive_roots
                if all(c == 0 or a in levi for a, c in enumerate(r.coeffs))
            )
            assert m.size == n_pos - inside
            assert normalizer(m) == lab


def test_nilradical_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        nilradical(build("A3"), ParabolicLabel(4, frozenset()))


def test_fiber_rejects_rank_mismatch():
    for label in (ParabolicLabel(2, frozenset()), ParabolicLabel(4, frozenset({3}))):
        with pytest.raises(ValueError, match="label rank"):
            fiber(build("A3"), label)
        with pytest.raises(ValueError, match="label rank"):
            fiber_extrema(build("A3"), label)


def test_fibers_partition_the_ideals():
    for label in ("A4", "C3", "G2", "D4"):
        rs = build(label)
        total = 0
        seen = set()
        for mask in range(1 << rs.rank):
            levi = frozenset(a for a in range(rs.rank) if mask >> a & 1)
            members = fiber(rs, ParabolicLabel(rs.rank, levi))
            total += len(members)
            for c in members:
                assert c.bits not in seen
                seen.add(c.bits)
        assert total == len(list(enumerate_ideals(rs))), label


BOREL_FIBER_SIZES = {"A4": 9, "A5": 21, "B3": 5, "C3": 5, "D4": 11, "F4": 19, "G2": 2}


def test_borel_fiber_sizes():
    for label, size in BOREL_FIBER_SIZES.items():
        rs = build(label)
        assert len(fiber(rs, ParabolicLabel(rs.rank, frozenset()))) == size, label


def test_fiber_extrema():
    for label in ("A3", "C3", "G2"):
        rs = build(label)
        for mask in range(1 << rs.rank):
            levi = frozenset(a for a in range(rs.rank) if mask >> a & 1)
            lab = ParabolicLabel(rs.rank, levi)
            top, minimals = fiber_extrema(rs, lab)
            members = fiber(rs, lab)
            assert top.bits == nilradical(rs, lab).bits
            assert minimals
            for c in members:
                assert c.bits & ~top.bits == 0, "nilradical is the fiber maximum"
                assert any(m.bits & ~c.bits == 0 for m in minimals)


def test_type_a_fibers_have_unique_minimum():
    rs = build("A4")
    for mask in range(1 << 4):
        levi = frozenset(a for a in range(4) if mask >> a & 1)
        _, minimals = fiber_extrema(rs, ParabolicLabel(4, levi))
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
