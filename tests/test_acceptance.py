"""Acceptance checks, one test per criterion, with explicit runtime budgets."""

from __future__ import annotations

import hashlib
import random
import sys
import time
from math import comb

import pytest

import adnil.ideals
import adnil.rootsys
import adnil.typeac
import adnil.verify
from adnil.affine import (
    affine_simple_root,
    factorize,
    first_layer,
    is_maximal_representative,
    is_minimax,
    length,
    simple_reflection,
    w_max,
    w_min,
)
from adnil.verify import (
    ORACLE_TYPES,
    RANDOM_WORDS,
    VerificationFailure,
    _random_word,
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


@pytest.fixture(scope="module")
def e7_table():
    """Every E7 ideal, 4160, in walk order with its w_min."""
    start = time.monotonic()
    table = ideal_table("E7")
    assert time.monotonic() - start < 10
    return table


def test_criterion_4_five_way_normalizer_agreement_on_every_e7_ideal(e7_table):
    start = time.monotonic()
    results = suite_normalizer_oracles([e7_table])  # raises on any discrepancy
    assert results == [("five-way-normalizer[E7]", "4160 ideals")]
    assert time.monotonic() - start < 30


def test_shi_regions_on_every_e7_ideal(e7_table):
    start = time.monotonic()
    results = suite_shi([e7_table], seed=0)  # raises on any discrepancy
    assert results == [
        ("regions[E7]", "4160 ideals"),
        ("region-exclusivity[E7]", "40 pairs"),
        ("dominant-translations[E7]", "7 elements"),
    ]
    assert time.monotonic() - start < 10


def test_affine_laws_on_every_e7_ideal(e7_table):
    start = time.monotonic()
    results = suite_affine([e7_table], seed=0)  # raises on any discrepancy
    assert results == [
        ("weights[E7]", "4160 ideals"),
        ("z-lattice-bijection[E7]", "4160 points"),
        ("y-lattice-bijection[E7]", "2431 points"),
        ("index-factor[E7]", "f=2"),
        ("random-words[E7]", "1000 words"),
    ]
    assert time.monotonic() - start < 10


def _minimax_matches_the_w_min_facets(table):
    """`is_minimax` against the alcove facets of w_min, as proved in
    tests/test_affine.py::test_minimax_is_read_off_the_alcove_facets_of_w_min."""
    rs, ideals, minimal = table
    for ideal, w in zip(ideals, minimal):
        assert is_minimax(ideal) == is_maximal_representative(w), (rs.label, ideal)


def test_minimax_is_read_off_the_w_min_facets_on_every_e7_ideal(e7_table):
    start = time.monotonic()
    _minimax_matches_the_w_min_facets(e7_table)
    assert time.monotonic() - start < 3


@pytest.fixture(scope="module")
def e8_sample():
    """Every 10th E8 ideal in walk order, 2508 of 25080, with its w_min."""
    start = time.monotonic()
    rs = build("E8")
    ideals = list(enumerate_ideals(rs))[::10]
    table = rs, ideals, [w_min(c) for c in ideals]
    assert time.monotonic() - start < 15
    return table


def test_criterion_4_five_way_normalizer_agreement_on_sampled_e8_ideals(e8_sample):
    start = time.monotonic()
    results = suite_normalizer_oracles([e8_sample])  # raises on any discrepancy
    assert results == [("five-way-normalizer[E8]", "2508 ideals")]
    assert time.monotonic() - start < 10


def test_shi_regions_on_sampled_e8_ideals(e8_sample):
    start = time.monotonic()
    results = suite_shi([e8_sample], seed=0)  # raises on any discrepancy
    assert [name for name, _ in results] == [
        "regions[E8]", "region-exclusivity[E8]", "dominant-translations[E8]",
    ]
    assert results[0] == ("regions[E8]", "2508 ideals")
    assert time.monotonic() - start < 15


def test_minimax_is_read_off_the_w_min_facets_on_sampled_e8_ideals(e8_sample):
    start = time.monotonic()
    _minimax_matches_the_w_min_facets(e8_sample)
    assert time.monotonic() - start < 3


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


def _count_calls(monkeypatch, target) -> list:
    """Count the calls of target through every adnil module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return target(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "adnil" or name.startswith("adnil."):
            for attr, value in list(vars(module).items()):
                if value is target:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_coordinate_models_walk_each_type_once(monkeypatch):
    # the per-ideal checks read their ideals off the fiber walk of each type,
    # and each symplectic model fiber is built once, at its own label; the
    # models read their ideals off the root tables, since no outside input
    # reaches them, and build each sp root once
    for label in ("A1", "A2", "A3", "A4", "A5", "C2", "C3", "C4"):
        build(label)
    closures = _count_calls(monkeypatch, adnil.ideals.close_upward)
    vectors = _count_calls(monkeypatch, adnil.rootsys._vector)
    folds = _count_calls(monkeypatch, adnil.typeac._root_C)
    walks, model_fibers = [], []
    real, real_fiber_C = adnil.ideals._upper_sets, adnil.typeac.fiber_C

    def counted(above):
        walks.append(len(above))
        return real(above)

    def counted_fiber_C(n, removed):
        model_fibers.append((n, frozenset(removed)))
        return real_fiber_C(n, removed)

    monkeypatch.setattr(adnil.ideals, "_upper_sets", counted)
    monkeypatch.setattr(adnil.typeac, "fiber_C", counted_fiber_C)
    suite_typeac()
    assert len(walks) == 8  # A1..A5 and C2..C4
    assert len(model_fibers) == len(set(model_fibers)) == 4 + 8 + 16  # every C2..C4 label
    assert (len(closures), len(vectors), len(folds)) == (0, 0, 352)


def test_random_words_are_pinned():
    # the affine suite's first words for seed 0, as suite_affine seeds them;
    # any change to how they are drawn changes what the suite checks
    pinned = {
        "F4": "67d8b8d8f2c01f72f8608e7887908433d5c08e0899d49fa784c6b08405adc24f",
        "D4": "0999c3df5e27feaf7d116b701b97f8c4ccb390bdd2e483ebc033196cb8d663f7",
    }
    for label, digest in pinned.items():
        rng = random.Random(f"0:{label}")
        words = [_random_word(rng, build(label).rank) for _ in range(1000)]
        assert hashlib.sha256(repr(words).encode()).hexdigest() == digest, label


def _pinned_words(rs) -> list[tuple[int, ...]]:
    """The random words suite_affine draws for rs at seed 0."""
    rng = random.Random(f"0:{rs.label}")
    return [_random_word(rng, rs.rank) for _ in range(RANDOM_WORDS)]


def _reference_random_words(rs):
    """The random-word laws run on every word, through the names the suite
    calls: the first failure as (check, payload), or None."""
    v = adnil.verify
    for word in _pinned_words(rs):
        w = v.from_word(rs, word)
        if not v.check_inversion_sum(w):
            return "inversion-sum", {"type": rs.label, "word": list(word)}
        inv = v.n_set(w)
        rebuilt = v.word_from_biconvex(rs, inv)
        if not (rebuilt == w and len(rebuilt.word) == len(inv) <= len(word)):
            return "biconvex-roundtrip", {"type": rs.label, "word": list(word)}
    return None


def _suite_random_words(table):
    """suite_affine on one table at seed 0: its failure as (check, payload), or None."""
    try:
        suite_affine([table], 0)
    except VerificationFailure as failure:
        return failure.check, failure.payload
    return None


def _matrices(rs, words) -> list:
    return [adnil.verify.from_word(rs, word).matrix for word in words]


@pytest.mark.parametrize("label", ["F4", "D4"])
def test_random_word_laws_run_once_per_distinct_element(monkeypatch, label):
    table = ideal_table(label)
    rs = table[0]
    distinct = len(set(_matrices(rs, _pinned_words(rs))))
    assert distinct < RANDOM_WORDS // 2  # about 415 on F4, 450 on D4
    counts = {}
    for name in ("check_inversion_sum", "word_from_biconvex"):
        real = getattr(adnil.verify, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(adnil.verify, name, counted)
    assert _suite_random_words(table) is None
    assert counts == {"check_inversion_sum": distinct, "word_from_biconvex": distinct}
    counts.clear()
    assert _reference_random_words(rs) is None
    assert counts == {"check_inversion_sum": RANDOM_WORDS, "word_from_biconvex": RANDOM_WORDS}


@pytest.mark.parametrize("label", ["F4", "D4"])
def test_a_law_fault_fails_on_the_first_word_of_its_element(monkeypatch, label):
    table = ideal_table(label)
    rs = table[0]
    words = _pinned_words(rs)
    matrices = _matrices(rs, words)
    first = {}
    for k, m in enumerate(matrices):
        first.setdefault(m, k)
    # elements met again later, whose first word is past word 0, in word order
    late = [(k, m) for m, k in first.items() if k > 0 and matrices.count(m) > 1]
    (k_sum, m_sum), (k_peel, m_peel) = late[len(late) // 3], late[2 * len(late) // 3]
    real_sum, real_peel = adnil.verify.check_inversion_sum, adnil.verify.word_from_biconvex
    monkeypatch.setattr(
        adnil.verify, "check_inversion_sum", lambda w: w.matrix != m_sum and real_sum(w)
    )
    want = ("inversion-sum", {"type": label, "word": list(words[k_sum])})
    assert _suite_random_words(table) == _reference_random_words(rs) == want

    monkeypatch.setattr(adnil.verify, "check_inversion_sum", real_sum)
    # a peel that rebuilds the identity for one element
    identity = adnil.verify.from_word(rs, ())

    def faulty_peel(rs_, inv):
        rebuilt = real_peel(rs_, inv)
        return identity if rebuilt.matrix == m_peel else rebuilt

    monkeypatch.setattr(adnil.verify, "word_from_biconvex", faulty_peel)
    want = ("biconvex-roundtrip", {"type": label, "word": list(words[k_peel])})
    assert _suite_random_words(table) == _reference_random_words(rs) == want


@pytest.mark.parametrize("label", ["F4", "D4"])
def test_the_length_bound_is_checked_on_every_word(monkeypatch, label):
    # a short word that evaluates to an element already checked, whose
    # |N(w)| exceeds the word's length, fails the bound on that word
    table = ideal_table(label)
    rs = table[0]
    words = _pinned_words(rs)
    real = adnil.verify.from_word
    k_long = next(k for k, word in enumerate(words) if length(real(rs, word)) >= 2)
    long_word, n_long = words[k_long], length(real(rs, words[k_long]))
    # the first word past k_long that is too short for it and not drawn before it
    k_short = next(
        k
        for k, word in enumerate(words)
        if k > k_long and len(word) < n_long and word not in words[:k_long]
    )
    short = words[k_short]
    monkeypatch.setattr(
        adnil.verify,
        "from_word",
        lambda rs_, word: real(rs_, long_word if tuple(word) == short else word),
    )
    want = ("biconvex-roundtrip", {"type": label, "word": list(short)})
    assert _suite_random_words(table) == _reference_random_words(rs) == want
