"""Acceptance checks, one test per criterion, with explicit runtime budgets."""

from __future__ import annotations

import time
from math import comb

from adnil.affine import (
    affine_simple_root,
    factorize,
    first_layer,
    is_minimax,
    length,
    simple_reflection,
    w_max,
    w_min,
)
from adnil.verify import (
    ORACLE_TYPES,
    ideal_table,
    run_table7,
    suite_affine,
    suite_normalizer_oracles,
    suite_shi,
    suite_typeac,
)
from adnil.counting import (
    count_sp2n_borel,
    gf_count,
    lattice_count,
    motzkin,
    catalan,
    directed_animals,
    riordan,
    verify_identities,
)
from adnil.ideals import (
    close_upward,
    complement_chain,
    enumerate_ideals,
    ideal_powers,
    is_abelian,
    is_strictly_positive,
    join,
    meet,
    weight,
)
from adnil.normalizers import ParabolicLabel, normalizer
from adnil.rootsys import Root, build
from adnil.typeac import _signed_words, ballot, fiber_A, fiber_minimum_A

def _pair_root(n, i, j):
    return Root(tuple(1 if i <= k + 1 <= j - 1 else 0 for k in range(n)))


def _action(w, a):
    img = w.apply_root(affine_simple_root(w.rs, a))
    return img.level, img.finite


def test_criterion_1_reference_table_recomputed_by_enumeration():
    start = time.monotonic()
    rows, failures = run_table7()
    assert failures == []
    assert [(r[1], r[2], r[3]) for r in rows] == [
        ("D4", 9, 11),
        ("D5", 23, 31),
        ("E6", 67, 111),
        ("F4", 17, 19),
        ("G2", 3, 2),
    ]
    # E6 columns again by the two independent routes
    rs = build("E6")
    assert gf_count(rs, 1) == 111
    assert sum(1 for c in enumerate_ideals(rs) if is_minimax(c)) == 67
    assert time.monotonic() - start < 120


def test_criterion_2_worked_examples():
    start = time.monotonic()

    # first example: two generators inside sl_5
    rs = build("A4")
    c = close_upward(rs, [_pair_root(4, 1, 3), _pair_root(4, 2, 5)])
    assert is_abelian(c)
    wt = weight(c)
    assert [rs.coroot_pairing(wt.coords, j) for j in range(4)] == [2, 2, 0, 1]
    assert normalizer(c) == ParabolicLabel(4, frozenset({2}))
    wmin = w_min(c)
    assert _action(wmin, 1) == (1, (-1, -1, 0, 0))
    assert _action(wmin, 2) == (0, (1, 1, 1, 0))
    assert _action(wmin, 3) == (0, (0, 0, 0, 1))
    assert _action(wmin, 4) == (1, (0, -1, -1, -1))
    chain = complement_chain(c)
    assert [t.size for t in chain.powers] == [4, 1, 0]
    assert {r.coeffs for r in chain.powers[1].roots()} == {(1, 1, 1, 1)}
    total = tuple(sum(x) for x in zip(*[weight(t).coords for t in chain.powers]))
    assert [rs.coroot_pairing(total, j) for j in range(4)] == [3, 2, 0, 2]
    assert w_max(c) == simple_reflection(rs, 2) * wmin

    # second example: meets and joins inside sl_7
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

    # third example: an extremal-element fixed point in F4
    rs = build("F4")
    c = close_upward(rs, [Root((0, 2, 2, 1)), Root((2, 2, 1, 0))])
    wt = weight(c)
    assert wt.coords == (16, 28, 20, 10)
    assert [rs.coroot_pairing(wt.coords, j) for j in range(4)] == [4, 0, 2, 0]
    assert normalizer(c) == ParabolicLabel(4, frozenset({1, 3}))
    powers = ideal_powers(c).powers
    assert {r.coeffs for r in powers[1].roots()} == {(2, 4, 3, 1), (2, 4, 3, 2)}
    assert [t.size for t in powers] == [t.size for t in complement_chain(c).powers]
    total = tuple(sum(x) for x in zip(*[weight(t).coords for t in powers]))
    assert total == (20, 36, 26, 13)
    assert [rs.coroot_pairing(total, j) for j in range(4)] == [4, 0, 3, 0]
    wmin = w_min(c)
    assert is_minimax(c) and wmin == w_max(c)
    assert length(wmin) == 12

    # fourth example: one abelian generator in G2
    rs = build("G2")
    c = close_upward(rs, [Root((2, 1))])
    assert is_abelian(c)
    assert normalizer(c) == ParabolicLabel(2, frozenset({1}))
    wmin = w_min(c)
    assert wmin.word == (1, 2, 0)
    assert _action(wmin, 1) == (0, (2, 1))
    assert _action(wmin, 2) == (1, (-3, -2))
    wmax = w_max(c)
    assert wmax.word == (0, 2, 1, 2, 0)
    assert _action(wmax, 1) == (1, (-1, -1))
    assert _action(wmax, 2) == (0, (0, 1))

    assert time.monotonic() - start < 1


def test_criterion_3_classical_counting_identities():
    start = time.monotonic()
    for n in range(1, 7):
        rs = build(f"A{n}")
        ideals = list(enumerate_ideals(rs))
        assert len(ideals) == catalan(n + 1)
        borel = [c for c in ideals if not normalizer(c).levi]
        assert len(borel) == motzkin(n) == gf_count(rs, 1)
        strict = sum(1 for c in borel if is_strictly_positive(c))
        assert strict == riordan(n) == gf_count(rs, -1)
    for n in range(2, 5):
        rs = build(f"C{n}")
        ideals = list(enumerate_ideals(rs))
        assert len(ideals) == comb(2 * n, n)
        borel = [c for c in ideals if not normalizer(c).levi]
        assert len(borel) == directed_animals(n) == gf_count(rs, 1)
        assert len(borel) == count_sp2n_borel(n, 1)
        strict = sum(1 for c in borel if is_strictly_positive(c))
        assert strict == (n - 1) * motzkin(n - 2) == gf_count(rs, -1)
        assert strict == count_sp2n_borel(n, -1)
    assert time.monotonic() - start < 60


def test_criterion_4_five_way_normalizer_agreement():
    start = time.monotonic()
    results = suite_normalizer_oracles([ideal_table(t) for t in ORACLE_TYPES])  # raises on any discrepancy
    assert len(results) == len(ORACLE_TYPES)
    counted = sum(int(detail.split()[0]) for _, detail in results)
    assert counted == 410  # every ideal of the twelve systems
    assert time.monotonic() - start < 60


def test_criterion_4_five_way_normalizer_agreement_on_e6():
    results = suite_normalizer_oracles([ideal_table("E6")])  # raises on any discrepancy
    assert results == [("five-way-normalizer[E6]", "833 ideals")]


def test_criterion_4_five_way_normalizer_agreement_on_every_e7_ideal():
    start = time.monotonic()
    results = suite_normalizer_oracles([ideal_table("E7")])  # raises on any discrepancy
    assert results == [("five-way-normalizer[E7]", "4160 ideals")]
    assert time.monotonic() - start < 30


def test_criterion_5_lattice_point_bijections_and_index_law():
    for label in ORACLE_TYPES:
        rs = build(label)
        ideals = list(enumerate_ideals(rs))
        z_points = {rs.pairings(factorize(w_min(c)).translation) for c in ideals}
        lat_min = lattice_count(rs, "min")
        assert z_points == set(lat_min.points)
        assert lat_min.count == len(ideals)
        strict = [c for c in ideals if is_strictly_positive(c)]
        y_points = {rs.pairings(factorize(w_max(c)).translation) for c in strict}
        lat_max = lattice_count(rs, "max")
        assert y_points == set(lat_max.points)
        assert lat_max.count == len(strict)
    for label in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3",
                  "C4", "D4", "D5", "E6", "E7", "F4", "G2"):
        rs = build(label)
        for which in ("min", "max"):
            assert (
                lattice_count(rs, which, lattice="coweight").count
                == rs.f * lattice_count(rs, which).count
            ), (label, which)


def test_criterion_6_affine_element_laws():
    # random-word inversion sums, biconvex round trips, representative flags,
    # Levi agreement of both extremal elements, dominant first layers
    affine_rows = suite_affine([ideal_table(t) for t in ORACLE_TYPES], seed=0)
    assert sum(1 for name, _ in affine_rows if name.startswith("random-words")) == len(
        ORACLE_TYPES
    )
    shi_rows = suite_shi([ideal_table(t) for t in ORACLE_TYPES], seed=0)
    assert sum(1 for name, _ in shi_rows if name.startswith("dominant-translations")) == len(
        ORACLE_TYPES
    )
    # first layers drive the region test on every minimal element
    for label in ("A3", "C3", "G2"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            assert first_layer(w_min(c)).bits == c.bits


def test_criterion_7_identity_battery():
    checks = verify_identities(12)
    assert len(checks) == 226
    assert all(c.passed for c in checks)


def test_criterion_8_coordinate_models():
    results = suite_typeac()  # raises on any failure
    assert [name for name, _ in results] == [
        "ferrers[A1]", "ferrers[A2]", "ferrers[A3]", "ferrers[A4]", "ferrers[A5]",
        "symplectic[C2]", "symplectic[C3]", "symplectic[C4]", "ballot[s<=20]",
    ]
    # minimum-of-fiber generator formula, independently recomputed at rank 6
    for mask in range(1 << 6):
        removed = sorted(l for l in range(1, 7) if mask >> (l - 1) & 1)
        s = len(removed)
        expected = tuple(
            (removed[t], removed[s // 2 + t] + 1) for t in range((s + 1) // 2)
        )
        mini = fiber_minimum_A(6, set(removed))
        assert mini.pairs == expected
        members = {c.pairs for c in fiber_A(6, set(removed))}
        assert mini.pairs in members
    # zero-free nonnegative word counts by direct enumeration
    for s in range(21):
        assert ballot(s) == comb(s, s // 2)
        if s <= 20:
            assert sum(1 for _ in _signed_words(s, with_zero=False)) == ballot(s)
