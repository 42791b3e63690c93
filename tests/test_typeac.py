"""Coordinate models for the special linear and symplectic families."""

from __future__ import annotations

from itertools import accumulate, combinations, product
from math import comb

import pytest

from adnil.affine import is_minimax
from adnil.ideals import enumerate_ideals, ideal_powers, is_abelian
from adnil.normalizers import ParabolicLabel, nilradical, normalizer
from adnil.typeac import (
    FerrersIdeal,
    SignedWord,
    SymplecticIdeal,
    _signed_words,
    ballot,
    decode_word,
    desymmetrize,
    dual_A,
    dual_C,
    encode_word,
    fiber_A,
    fiber_C,
    fiber_minimax_C,
    fiber_minimum_A,
    from_upper_ideal_A,
    from_upper_ideal_C,
    is_minimax_A,
    is_minimax_C,
    minimax_fiber_count_C,
    minimax_fiber_polynomial,
    normalizer_A,
    normalizer_C,
    symmetrize,
)
from adnil.counting import catalan, directed_animals, motzkin, riordan
from adnil.rootsys import build


def _subsets(universe):
    items = sorted(universe)
    for mask in range(1 << len(items)):
        yield {items[k] for k in range(len(items)) if mask >> k & 1}


def _label(rank, removed):
    return ParabolicLabel(
        rank, frozenset(l - 1 for l in range(1, rank + 1) if l not in removed)
    )


def test_ferrers_validation():
    FerrersIdeal(3, ((1, 3), (2, 4)))
    with pytest.raises(ValueError):
        FerrersIdeal(3, ((3, 3),))  # needs i < j
    with pytest.raises(ValueError):
        FerrersIdeal(3, ((1, 5),))  # out of range
    with pytest.raises(ValueError):
        FerrersIdeal(3, ((1, 3), (1, 3)))  # duplicate


def test_indices_and_pairs_must_be_ints():
    # each of these passed its range check alone and built a wrong answer
    cases = (
        (lambda: fiber_A(3, [1.5]), r"1\.\.n$"),
        (lambda: fiber_minimum_A(3, [2.0]), r"1\.\.n$"),
        (lambda: fiber_C(3, [1.5]), r"1\.\.n$"),
        (lambda: fiber_minimax_C(3, [1.5]), r"1\.\.n$"),
        (lambda: decode_word(4, [1.5], SignedWord((1,))), r"1\.\.n-1$"),
        (lambda: FerrersIdeal(2, ((1, 2.0),)), "not a root"),
        (lambda: SymplecticIdeal(2, ((1.0, 3),)), "not a root"),
    )
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()
    # the range messages are kept
    with pytest.raises(ValueError, match=r"1\.\.n$"):
        fiber_C(3, [4])
    with pytest.raises(ValueError, match=r"1\.\.n-1$"):
        decode_word(4, [4], SignedWord((1,)))


# Each entry point refuses a bool where it takes an int index or rank, as
# rootsys._check_indices does: True == 1 would pass a range check as index 1.
BOOL_CASES = {
    "FerrersIdeal-pair": (lambda: FerrersIdeal(3, ((True, 3),)), "not a root of sl_4"),
    "FerrersIdeal-rank": (lambda: FerrersIdeal(True, ((1, 2),)), "rank must be an int"),
    "SymplecticIdeal-pair": (lambda: SymplecticIdeal(3, ((True, 3),)), "not a root of sp_6"),
    "SymplecticIdeal-rank": (lambda: SymplecticIdeal(True, ()), "rank must be an int"),
    "SignedWord": (lambda: SignedWord((True, False)), "letters must be"),
    "fiber_A": (lambda: fiber_A(3, {True, 2}), r"1\.\.n$"),
    "fiber_C": (lambda: fiber_C(3, {True}), r"1\.\.n$"),
    "decode_word": (lambda: decode_word(3, {True}, SignedWord((1,))), r"1\.\.n-1$"),
}


@pytest.mark.parametrize("case", sorted(BOOL_CASES))
def test_bools_are_refused_as_indices(case):
    call, message = BOOL_CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


# The functions that take an outside rank check it on entry, with the
# constructors' message: they build their values through the trusted _make.
RANK_ENTRY_POINTS = {
    "fiber_A": fiber_A,
    "fiber_minimum_A": fiber_minimum_A,
    "fiber_C": fiber_C,
    "fiber_minimax_C": fiber_minimax_C,
    "decode_word": lambda n, removed: decode_word(n, removed, SignedWord((1,) * len(removed))),
}


@pytest.mark.parametrize("name", sorted(RANK_ENTRY_POINTS))
def test_rank_entry_points_refuse_a_rank_that_is_not_an_int_of_at_least_1(name):
    for bad in (True, 0, 1.0):
        for removed in (set(), {1}):
            with pytest.raises(ValueError, match="^rank must be an int of at least 1$"):
                RANK_ENTRY_POINTS[name](bad, removed)


def test_derived_values_pass_their_validating_constructors():
    # every value the module builds through _make, over the fibers of A1-A6
    # and C2-C5, is one its public constructor accepts and builds alike
    derived = []
    for n in range(1, 7):
        derived += map(from_upper_ideal_A, enumerate_ideals(build(f"A{n}")))
        for removed in _subsets(range(1, n + 1)):
            fib = fiber_A(n, removed)
            derived += [*fib, *map(dual_A, fib), fiber_minimum_A(n, removed), normalizer_A(fib[0])]
    for n in range(2, 6):
        derived += map(from_upper_ideal_C, enumerate_ideals(build(f"C{n}")))
        for removed in _subsets(range(1, n + 1)):
            fib = fiber_C(n, removed)
            derived += [*fib, *fiber_minimax_C(n, removed), normalizer_C(fib[0])]
            for c in fib:
                cbar = symmetrize(c)
                derived += [cbar, desymmetrize(cbar), dual_C(c), encode_word(c)]
                if n not in removed:
                    derived.append(decode_word(n, removed, encode_word(c)))
    assert len(derived) == 4501
    for value in derived:
        again = type(value)(*value._fields)
        assert again == value
        assert [type(f) for f in again._fields] == [type(f) for f in value._fields]


# Counts refuse a bool or a float as rootsys._check_int does: ballot(True)
# used to answer ballot(1), and ballot(2.0) raised a TypeError.
COUNT_CASES = {
    "ballot": ballot,
    "minimax_fiber_count_C": minimax_fiber_count_C,
    "minimax_fiber_polynomial": minimax_fiber_polynomial,
}


@pytest.mark.parametrize("name", sorted(COUNT_CASES))
def test_counts_refuse_a_bool_or_a_float(name):
    for bad in (True, False, 2.0):
        with pytest.raises(ValueError, match=f"^{bad!r} is not an int$"):
            COUNT_CASES[name](bad)


def test_symplectic_validation():
    SymplecticIdeal(2, ((1, 3),))
    SymplecticIdeal(3, ((1, 4), (2, 5)))
    with pytest.raises(ValueError):
        SymplecticIdeal(2, ((1, 4), (2, 3)))  # second slot must increase
    with pytest.raises(ValueError):
        SymplecticIdeal(2, ((4, 1),))
    with pytest.raises(ValueError):
        SymplecticIdeal(2, ((2, 5),))  # beyond the antidiagonal


def test_signed_word_validation():
    SignedWord((1, -1, 0, 1))
    with pytest.raises(ValueError):
        SignedWord((-1,))
    with pytest.raises(ValueError):
        SignedWord((1, 2))


def test_ferrers_round_trip_and_membership():
    for n in range(1, 6):
        rs = build(f"A{n}")
        for c in enumerate_ideals(rs):
            f = from_upper_ideal_A(c)
            assert f.to_upper_ideal().bits == c.bits
            assert len(f.member_pairs()) == c.size
            assert normalizer_A(f) == normalizer(c)


def test_symplectic_round_trip_and_membership():
    for n in range(2, 5):
        rs = build(f"C{n}")
        for c in enumerate_ideals(rs):
            s = from_upper_ideal_C(c)
            assert s.to_upper_ideal().bits == c.bits
            assert len(s.member_pairs()) == c.size
            assert normalizer_C(s) == normalizer(c)
            cbar = symmetrize(s)
            assert desymmetrize(cbar) == s
            # mirror symmetry of the doubled shape
            m = 2 * n
            pairs = set(cbar.member_pairs())
            assert all((m + 1 - b, m + 1 - a) in pairs for (a, b) in pairs)


def test_fiber_a_counts_and_contents():
    for n in range(1, 6):
        rs = build(f"A{n}")
        by_label = {}
        for c in enumerate_ideals(rs):
            by_label.setdefault(normalizer(c), set()).add(c.bits)
        total = 0
        for removed in _subsets(range(1, n + 1)):
            s = len(removed)
            members = fiber_A(n, removed)
            assert len(members) == motzkin(s), (n, removed)
            assert {c.to_upper_ideal().bits for c in members} == by_label.get(
                _label(n, removed), set()
            )
            total += len(members)
        assert total == catalan(n + 1)


def _fiber_a_by_combinations(n, removed):
    # reference: choose a, then b from the rest of the removed set plus a filler from a
    members = sorted(set(removed))
    found = []
    for k in range((len(members) + 1) // 2, len(members) + 1):
        for a_seq in combinations(members, k):
            required = [l for l in members if l not in a_seq]
            for filler in combinations(a_seq, k - len(required)):
                b_seq = tuple(sorted(required + list(filler)))
                if all(x <= y for x, y in zip(a_seq, b_seq)):
                    found.append((a_seq, b_seq))
    found.sort()
    return [FerrersIdeal(n, tuple((x, y + 1) for x, y in zip(a, b))) for a, b in found]


def test_fiber_a_matches_combination_enumeration():
    for n in range(1, 10):
        for removed in _subsets(range(1, n + 1)):
            assert fiber_A(n, removed) == _fiber_a_by_combinations(n, removed), (n, removed)


def test_fiber_a_minimum():
    for n in range(1, 6):
        rs = build(f"A{n}")
        for removed in _subsets(range(1, n + 1)):
            s = len(removed)
            members = {c.to_upper_ideal().bits for c in fiber_A(n, removed)}
            mini = fiber_minimum_A(n, removed).to_upper_ideal()
            assert mini.bits in members
            assert all(mini.bits & b == mini.bits for b in members)
            assert is_abelian(mini)
            # the minimum is the floor(s/2)+1 power of the nilradical
            chain = ideal_powers(nilradical(rs, _label(n, removed)))
            assert chain.powers[s // 2].bits == mini.bits


def test_fiber_minimum_a_generators_closed_form():
    members = sorted(fiber_minimum_A(6, {2, 4, 5}).pairs)
    # members of the removed set at positions t and floor(s/2)+t, plus one
    assert members == [(2, 5), (4, 6)]
    assert fiber_minimum_A(5, {1, 2, 3, 4}).pairs == ((1, 4), (2, 5))


def test_duality_a_is_an_involution_with_minimax_exchange():
    for n in range(1, 6):
        rs = build(f"A{n}")
        borel = ParabolicLabel(n, frozenset())
        n_mm = 0
        n_self = 0
        for c in enumerate_ideals(rs):
            f = from_upper_ideal_A(c)
            d = dual_A(f)
            assert dual_A(d) == f
            mm = is_minimax_A(f)
            assert mm == is_minimax(c)
            assert mm == (normalizer_A(d) == borel)
            assert is_minimax_A(d) == (normalizer_A(f) == borel)
            n_mm += mm
            n_self += d == f
        assert n_mm == motzkin(n)
        assert n_self == (catalan(n // 2) if n % 2 == 0 else 0)


def test_minimax_fiber_catalan_in_type_a():
    for n in range(1, 6):
        for removed in _subsets(range(1, n + 1)):
            s = len(removed)
            got = sum(1 for c in fiber_A(n, removed) if is_minimax_A(c))
            assert got == (catalan(s // 2) if s % 2 == 0 else 0), (n, removed)


def test_minimax_corank_in_type_a():
    # minimax ideals with k generators have exactly 2k walls removed
    for n in range(1, 6):
        for c in enumerate_ideals(build(f"A{n}")):
            f = from_upper_ideal_A(c)
            if is_minimax_A(f):
                assert len(normalizer_A(f).levi) == n - 2 * len(f.pairs)


def test_fiber_c_counts_and_contents():
    for n in range(2, 5):
        rs = build(f"C{n}")
        by_label = {}
        for c in enumerate_ideals(rs):
            by_label.setdefault(normalizer(c), set()).add(c.bits)
        total = 0
        for removed in _subsets(range(1, n + 1)):
            members = fiber_C(n, removed)
            core = sum(1 for l in removed if l != n)
            assert len(members) == directed_animals(core + 1), (n, removed)
            assert {c.to_upper_ideal().bits for c in members} == by_label.get(
                _label(n, removed), set()
            )
            total += len(members)
        assert total == comb(2 * n, n)


def test_fiber_c_minimum_is_unique_and_abelian():
    for n in range(2, 5):
        rs = build(f"C{n}")
        for removed in _subsets(range(1, n + 1)):
            bits = sorted(c.to_upper_ideal().bits for c in fiber_C(n, removed))
            minimal = [b for b in bits if all(b & o == b for o in bits)]
            assert len(minimal) == 1
            from adnil.ideals import UpperIdeal

            assert is_abelian(UpperIdeal(rs, minimal[0]))


def test_word_coding_round_trips():
    for n in range(2, 5):
        for removed in _subsets(range(1, n)):
            for c in fiber_C(n, removed):
                word = encode_word(c)
                assert decode_word(n, removed, word) == c
    with pytest.raises(ValueError):
        decode_word(3, {3}, SignedWord(()))  # last coordinate not allowed


def test_last_coordinate_bijection():
    # fibers over E and over E plus the last coordinate share the same words
    for n in range(2, 5):
        for removed in _subsets(range(1, n)):
            words = sorted(encode_word(c).letters for c in fiber_C(n, removed))
            partner = sorted(
                encode_word(c).letters for c in fiber_C(n, removed | {n})
            )
            assert words == partner


def test_minimax_fibers_in_type_c():
    for n in range(2, 5):
        for removed in _subsets(range(1, n + 1)):
            members = fiber_minimax_C(n, removed)
            expected = [c for c in fiber_C(n, removed) if is_minimax_C(c)]
            assert {c.pairs for c in members} == {c.pairs for c in expected}
            if n in removed:
                assert members == []
            else:
                assert len(members) == minimax_fiber_count_C(len(removed))


def test_duality_c_through_symmetrization():
    for n in range(2, 5):
        rs = build(f"C{n}")
        for c in enumerate_ideals(rs):
            s = from_upper_ideal_C(c)
            assert dual_C(dual_C(s)) == s
            assert symmetrize(dual_C(s)) == dual_A(symmetrize(s))
            assert is_minimax_C(s) == is_minimax(c)


def test_minimax_polynomial():
    for n in range(2, 7):
        poly = minimax_fiber_polynomial(n)
        assert len(poly) == n
        assert sum(poly) == directed_animals(n)
        assert sum((-1) ** s * v for s, v in enumerate(poly)) == riordan(n - 1)
    assert minimax_fiber_polynomial(4) == tuple(
        sum(
            1
            for removed in _subsets(range(1, 4))
            if len(removed) == s
            for _ in fiber_minimax_C(4, removed)
        )
        for s in range(4)
    )


def test_ballot_and_minimax_fiber_count():
    for s in range(61):
        assert ballot(s) == comb(s, s // 2)
        assert minimax_fiber_count_C(s) == comb(s, s // 2)
    with pytest.raises(ValueError):
        ballot(-1)


def test_signed_words_are_the_ballot_products_in_order():
    # fiber_minimax_C lists its members in this order
    for alphabet in ((-1, 1), (-1, 0, 1)):
        for s in range(9):
            want = [
                w for w in product(alphabet, repeat=s) if all(t >= 0 for t in accumulate(w))
            ]
            assert list(_signed_words(s, with_zero=0 in alphabet)) == want, (alphabet, s)


def test_desymmetrize_rejects_asymmetric_shapes():
    with pytest.raises(ValueError):
        desymmetrize(FerrersIdeal(3, ((1, 2),)))  # odd rank
    with pytest.raises(ValueError):
        desymmetrize(FerrersIdeal(4, ((1, 2),)))  # not mirror symmetric


def test_symmetrize_pinned_example():
    # sp_4: the long root pair (1, 4) doubles to the single middle cell
    s = SymplecticIdeal(2, ((1, 4),))
    assert symmetrize(s).pairs == ((1, 4),)
    s = SymplecticIdeal(2, ((1, 3),))
    assert sorted(symmetrize(s).pairs) == [(1, 3), (2, 4)]
