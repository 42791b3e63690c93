"""Affine Weyl elements: words, inversion sets, extremal elements, coordinates."""

from __future__ import annotations

import hashlib
import random
import re
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adnil import affine, verify
from adnil.affine import (
    AffineFactorization,
    AffineRoot,
    AffineWeylElement,
    _images,
    _inversion_levels,
    _matrix,
    _affine_levels,
    _wall_preimage,
    affine_simple_root,
    alcove_barycenter,
    check_inversion_sum,
    factorize,
    first_layer,
    from_word,
    identity_element,
    in_max_simplex,
    in_min_simplex,
    inverse_simple_levels,
    is_dominant,
    is_maximal_representative,
    is_minimal_representative,
    is_minimax,
    length,
    n_set,
    normalizer_by_zwall,
    rho_hat,
    simple_reflection,
    star,
    translation_element,
    w_max,
    w_min,
    word_from_biconvex,
)
from adnil.counting import lattice_count
from adnil.ideals import (
    close_upward,
    complement_chain,
    enumerate_ideals,
    ideal_powers,
    is_strictly_positive,
)
from adnil.normalizers import normalizer
from adnil.rootsys import RationalVector, Root, _coords, build, in_coroot_lattice, inner
from adnil.verify import ORACLE_TYPES, ideal_table, normalizer_routes, suite_normalizer_oracles

DUAL_COXETER = {
    "A3": 4, "A5": 6, "B3": 5, "B4": 7, "C3": 4, "C4": 5,
    "D4": 6, "D5": 8, "E6": 12, "E7": 18, "E8": 30, "F4": 9, "G2": 4,
}


def _pair_root(n, i, j):
    return Root(tuple(1 if i <= k + 1 <= j - 1 else 0 for k in range(n)))


def _action(w, a):
    img = w.apply_root(affine_simple_root(w.rs, a))
    return img.level, img.finite


def test_affine_simple_roots():
    rs = build("G2")
    assert affine_simple_root(rs, 0) == AffineRoot(1, (-3, -2))
    assert affine_simple_root(rs, 1) == AffineRoot(0, (1, 0))
    assert affine_simple_root(rs, 2) == AffineRoot(0, (0, 1))


def test_simple_reflection_action_on_simple_roots():
    for label in ("A3", "B3", "G2", "F4", "E8"):
        rs = build(label)
        simples = [affine_simple_root(rs, i) for i in range(rs.rank + 1)]
        for i, a_i in enumerate(simples):
            s = simple_reflection(rs, i)
            img = s.apply_root(a_i)
            assert img.level == -a_i.level
            assert img.finite == tuple(-c for c in a_i.finite)
            assert s * s == identity_element(rs)
            # s_i(a_j) = a_j - a_ij a_i, with a_ij = 2(a_j, a_i)/(a_i, a_i)
            # from the bilinear form (delta is null, so finite parts suffice)
            for a_j in simples:
                a_ij = 2 * inner(rs, a_j.finite, a_i.finite) / inner(rs, a_i.finite, a_i.finite)
                assert a_ij.denominator == 1
                expected = AffineRoot(
                    a_j.level - int(a_ij) * a_i.level,
                    tuple(x - int(a_ij) * y for x, y in zip(a_j.finite, a_i.finite)),
                )
                assert s.apply_root(a_j) == expected, (label, i, a_j)
        with pytest.raises(ValueError):
            from_word(rs, (0, rs.rank + 1))
        with pytest.raises(ValueError):
            simple_reflection(rs, -1)


def test_affine_simple_index_must_be_an_int():
    # 1.5 passed the range check alone and gave the zero affine root; True
    # passed isinstance(i, int) and gave words such as (True, 2)
    for label in ("A2", "B2"):
        rs = build(label)
        for bad in (1.5, 1.0, Fraction(1), True, False):
            why = re.escape(f"affine simple index {bad!r} is not an int")
            with pytest.raises(ValueError, match=f"^{why}$"):
                affine_simple_root(rs, bad)
            with pytest.raises(ValueError, match=f"^{why}$"):
                from_word(rs, (0, bad))
            with pytest.raises(ValueError, match=f"^{why}$"):
                from_word(rs, (bad, 2))
        for bad in (-1, 3):
            with pytest.raises(ValueError, match=f"^affine simple index {bad} out of range$"):
                from_word(rs, (0, bad))


def test_group_laws_on_random_words():
    # from_word builds each matrix by coded steps and u * v by dense products;
    # A1 takes the step's cancel branch, and words reach 40 letters
    rng = random.Random(11)
    for label, top in (
        ("A3", 9), ("C3", 9), ("G2", 9), ("A1", 41), ("B2", 41), ("F4", 41), ("E8", 41),
    ):
        rs = build(label)
        for _ in range(60):
            u = from_word(rs, [rng.randrange(rs.rank + 1) for _ in range(rng.randrange(top))])
            v = from_word(rs, [rng.randrange(rs.rank + 1) for _ in range(rng.randrange(top))])
            uv = from_word(rs, u.word + v.word)
            assert uv == u * v and uv.inverse_matrix == (u * v).inverse_matrix
            # the inverse matrix is read off u's images; the reversed word replays it
            assert u.inverse_matrix == _matrix(rs, _images(rs, u.word[::-1]))
            assert (u * v).inverse() == v.inverse() * u.inverse()
            assert u * u.inverse() == identity_element(rs)
            assert length(u.inverse()) == length(u)


def test_n_set_size_is_length_and_biconvex_round_trip():
    rng = random.Random(5)
    for label in ("A4", "B3", "G2", "F4"):
        rs = build(label)
        for _ in range(40):
            word = [rng.randrange(rs.rank + 1) for _ in range(rng.randrange(16))]
            w = from_word(rs, word)
            inv = n_set(w)
            assert len(inv) == length(w) <= len(word)
            assert all(r.is_positive() for r in inv)
            rebuilt = word_from_biconvex(rs, inv)
            assert rebuilt == w
            assert len(rebuilt.word) == length(w)
            assert check_inversion_sum(w)


def _reference_inversion_sum(w) -> bool:
    """2 rho_hat - w^{-1}(2 rho_hat) against twice the sum of n_set(w), in one tuple each."""
    r = w.rs.two_rho_hat
    diff = tuple(a - sum(x * y for x, y in zip(row, r)) for a, row in zip(r, w.inverse_matrix))
    inv = n_set(w)
    finite = [sum(mu.finite[j] for mu in inv) for j in range(w.rs.rank)]
    return diff == tuple(2 * t for t in (*finite, sum(mu.level for mu in inv), 0))


def test_inversion_sum_matches_the_reference_and_rejects_a_wrong_inverse():
    # an element paired with the inverse matrix of another fails the law
    rng = random.Random(17)
    for label in ("A1", "G2", "D4", "F4"):
        rs = build(label)
        words = [[rng.randrange(rs.rank + 1) for _ in range(rng.randrange(16))] for _ in range(60)]
        elements = [from_word(rs, word) for word in words]
        rejected = 0
        for w, v in zip(elements, elements[1:] + elements[:1]):
            assert check_inversion_sum(w) and _reference_inversion_sum(w)
            mixed = AffineWeylElement._make(rs, w.word, w.matrix, v.inverse_matrix)
            got = check_inversion_sum(mixed)
            assert got == _reference_inversion_sum(mixed), (label, w.word, v.word)
            rejected += not got
        assert rejected > 40, label


def _slow_n_set(w):
    """Reference inversion set: w applied to +gamma and -gamma, one root at a time."""
    p = w.rs.rank
    out = set()
    for root in w.rs.positive_roots:
        for sign, low in ((1, 0), (-1, 1)):
            coeffs = tuple(sign * c for c in root.coeffs)
            shift = sum(w.matrix[p][j] * c for j, c in enumerate(coeffs))
            fin = [sum(w.matrix[t][j] * c for j, c in enumerate(coeffs)) for t in range(p)]
            for k in range(low, -shift):
                out.add(AffineRoot(k, coeffs))
            if -shift >= low and not any(c > 0 for c in fin):
                out.add(AffineRoot(-shift, coeffs))
    return frozenset(out)


def _slow_first_layer(w):
    """Reference first layer: gamma with w(delta - gamma) negative, one root at a time."""
    p = w.rs.rank
    bits = 0
    for g, root in enumerate(w.rs.positive_roots):
        shift = sum(w.matrix[p][j] * c for j, c in enumerate(root.coeffs))
        fin = [sum(w.matrix[t][j] * c for j, c in enumerate(root.coeffs)) for t in range(p)]
        if shift >= 2 or (shift == 1 and any(c > 0 for c in fin)):
            bits |= 1 << g
    return bits


# Coroot-lattice vectors; the short simple coroots of B3, F4 and G2 are
# 2 alpha_3, 2 alpha_1 and 2 alpha_2, and 3 alpha_1.
_TRANSLATIONS = (
    ("A1", (3,)), ("A1", (-2,)), ("B3", (1, 0, 2)), ("B3", (0, -1, -2)),
    ("F4", (2, -2, 1, 0)), ("G2", (3, 1)), ("G2", (-3, 2)), ("E6", (1, 0, -1, 2, 0, 1)),
)


def _n_set_cases():
    # random words (A1 takes the k = 2 neighbour step), extremal F4
    # elements and translations
    rng = random.Random(23)
    for label in ("G2", "A4", "B3", "C4", "D5", "F4", "E6", "E7", "E8", "A1"):
        rs = build(label)
        yield identity_element(rs)
        for _ in range(30):
            yield from_word(rs, [rng.randrange(rs.rank + 1) for _ in range(rng.randrange(40))])
    for ideal in enumerate_ideals(build("F4")):
        yield w_min(ideal)
        if is_strictly_positive(ideal):
            yield w_max(ideal)
    for label, z in _TRANSLATIONS:
        yield translation_element(build(label), z)


def test_n_set_matches_the_per_root_reference():
    for w in _n_set_cases():
        slow = _slow_n_set(w)
        assert n_set(w) == slow, (w.rs.label, w.word)
        assert length(w) == len(slow), (w.rs.label, w.word)
        if is_dominant(w):
            assert first_layer(w).bits == _slow_first_layer(w), (w.rs.label, w.word)
        if not w.word:
            assert slow == frozenset()


def test_held_n_w_matches_a_fresh_walk():
    # the peel keeps the levels it verified, a read keeps the levels it
    # walked; either way they are a fresh walk's, and every reader agrees
    # with the same reader on an element rebuilt from the word
    start = time.monotonic()
    rng = random.Random(67)
    for label in ("G2", "B3", "C4", "F4", "D5", "E6", "E7"):
        rs = build(label)
        p = rs.rank
        peeled = []
        for ideal in islice(enumerate_ideals(rs), 0, None, 7 if label == "E7" else 1):
            peeled.append(w_min(ideal))
            if is_strictly_positive(ideal):
                peeled.append(w_max(ideal))
        assert all(type(w._levels) is tuple for w in peeled), label
        words = []
        for _ in range(300):
            u = from_word(rs, [rng.randrange(p + 1) for _ in range(rng.randrange(40))])
            v = from_word(rs, [rng.randrange(p + 1) for _ in range(rng.randrange(40))])
            words += [u, u * v, u.inverse()]
        assert all(w._levels is None for w in words), label
        for w in peeled + words:
            assert _read_all(w) == _read_all(from_word(rs, w.word)), (label, w.word)
            assert type(w._levels) is tuple, (label, w.word)
            assert w._levels == tuple(_inversion_levels(rs, w.matrix)), (label, w.word)
    assert time.monotonic() - start < 20


def _levels_by_apply_root(w, top):
    """N(w) as per-level bitsets: every positive affine root up to level top through w.apply_root."""
    levels = [0] * (top + 1)
    for k in range(top + 1):
        for s, finite in enumerate(w.rs.signed_roots):
            mu = AffineRoot(k, finite)
            if mu.is_positive() and not w.apply_root(mu).is_positive():
                levels[k] |= 1 << s
    while len(levels) > 1 and not levels[-1]:
        levels.pop()
    return levels


def test_inversion_levels_match_apply_root():
    # a word of l letters inverts no root above level l, so level l + 1 is
    # scanned too, and the list must end on its last nonzero level
    start = time.monotonic()
    rng = random.Random(29)
    for label in ("A2", "B3", "C3", "G2", "F4", "D4"):
        rs = build(label)
        for _ in range(200):
            w = from_word(rs, [rng.randrange(rs.rank + 1) for _ in range(rng.randrange(14))])
            assert _inversion_levels(rs, w.matrix) == _levels_by_apply_root(w, len(w.word) + 1), w
    assert time.monotonic() - start < 6


def _stacked_chain(chain):
    """The chain as affine roots: level k holds k delta - gamma for gamma in term k."""
    return frozenset(
        AffineRoot(k, tuple(-c for c in root.coeffs))
        for k, term in enumerate(chain.powers, start=1)
        for root in term.roots()
    )


def _peel_cases():
    # every ideal of these types covers pairings -1, -2 (B, C, F4), -3 (G2)
    # and the affine A1 step where the two finite parts are opposite
    for label in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4", "E6"):
        yield from enumerate_ideals(build(label))
    rs = build("E8")
    rng = random.Random(41)
    for _ in range(10):
        picks = [rs.positive_roots[rng.randrange(120)] for _ in range(rng.randrange(1, 4))]
        yield close_upward(rs, picks)


def test_peeled_inverse_matrix_matches_the_word():
    for ideal in _peel_cases():
        elements = [(w_min(ideal), ideal_powers(ideal))]
        if is_strictly_positive(ideal):
            elements.append((w_max(ideal), complement_chain(ideal)))
        for w, chain in elements:
            n = w.rs.rank + 2
            replayed = from_word(w.rs, w.word)
            assert w.matrix == replayed.matrix, w
            assert w.inverse_matrix == replayed.inverse_matrix, w
            product = tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*w.inverse_matrix))
                for row in w.matrix
            )
            assert product == tuple(tuple(int(r == c) for c in range(n)) for r in range(n)), w
            assert n_set(w) == _stacked_chain(chain), w
            assert len(w.word) == sum(term.size for term in chain.powers), w
            assert first_layer(w).bits == _slow_first_layer(w) == ideal.bits, w


def _alcove_facets(ideal):
    """The walls of {x : k_g < g(x) < k_g + 1} as (level, finite) affine roots, with no peel.

    k_g counts the powers of the ideal that hold the root g.  The carry
    k_{b+b'} - k_b - k_b' of each root sum is 0 or 1 (Shi).  g - k_g delta is
    a floor when every decomposition g = b + b' carries 1 and every sum g + b
    carries 0; (k_g + 1) delta - g is a ceiling when the carries are the other
    way round.
    """
    rs = ideal.rs
    n = len(rs.positive_roots)
    powers = [term.bits for term in ideal_powers(ideal).powers]
    k = [sum(bits >> g & 1 for bits in powers) for g in range(n)]
    floor, ceiling = [True] * n, [True] * n
    for i, row in enumerate(rs.sums):
        for j, s in row.items():  # gamma_i + gamma_j = gamma_s, both orders
            carry = k[s] - k[i] - k[j]
            assert carry in (0, 1), (ideal, i, j)
            if carry:
                ceiling[s] = floor[i] = False
            else:
                floor[s] = ceiling[i] = False
    roots = rs.signed_roots
    return [(-k[g], roots[g]) for g in range(n) if floor[g]] + [
        (k[g] + 1, roots[n + g]) for g in range(n) if ceiling[g]
    ]


def test_w_min_inverse_matrix_matches_the_alcove_facets():
    # the columns g(alpha_hat_j) of w_min(I)^{-1}, alpha_hat_0 = delta - theta,
    # are the p + 1 facets read off the power chain alone
    start = time.monotonic()
    for label, step in (
        ("G2", 1), ("B3", 1), ("C4", 1), ("F4", 1), ("D5", 1), ("E6", 1), ("E7", 5), ("E8", 50),
    ):
        rs = build(label)
        p = rs.rank
        for ideal in islice(enumerate_ideals(rs), 0, None, step):
            columns = list(zip(*w_min(ideal).inverse_matrix))[:p]
            images = [(col[p], col[:p]) for col in columns]  # g(alpha_1), ..., g(alpha_p)
            level0 = 1 - sum(m * level for m, (level, _) in zip(rs.marks, images))
            finite0 = tuple(-sum(m * c[i] for m, (_, c) in zip(rs.marks, images)) for i in range(p))
            facets = _alcove_facets(ideal)
            assert len(facets) == p + 1, ideal
            assert sorted(facets) == sorted(images + [(level0, finite0)]), ideal
    assert time.monotonic() - start < 10


# One SHA-256 of repr((word, matrix, inverse_matrix)) over w_min and w_max,
# recorded with the code-set peel that the per-level peel replaced.
EXTREMAL_DIGEST = "d6f0b48c910ba2895d5e7df9ee45acf6654f68441f531329332dcc482fbf92c1"


def test_extremal_elements_match_the_pinned_digest():
    start = time.monotonic()
    digest = hashlib.sha256()
    for label, step in (
        ("G2", 1), ("B3", 1), ("C4", 1), ("F4", 1), ("D5", 1), ("E6", 1), ("E7", 20),
    ):
        for ideal in islice(enumerate_ideals(build(label)), 0, None, step):
            elements = [w_min(ideal)]
            if is_strictly_positive(ideal):
                elements.append(w_max(ideal))
            for w in elements:
                digest.update(repr((w.word, w.matrix, w.inverse_matrix)).encode())
    assert digest.hexdigest() == EXTREMAL_DIGEST
    assert time.monotonic() - start < 3


def test_factorize_rejects_a_tampered_matrix():
    # every entry of the delta-row (incl. -|z|^2/2), the delta-column and the Lambda-row
    for label, generators in (("F4", [(0, 2, 2, 1), (2, 2, 1, 0)]), ("G2", [(2, 1)])):
        rs = build(label)
        p = rs.rank
        w = w_min(close_upward(rs, [Root(g) for g in generators]))
        assert any(factorize(w).translation.coords)
        cells = {(p, c) for c in range(p + 2)} | {(p + 1, c) for c in range(p + 2)}
        cells |= {(t, p) for t in range(p + 2)}
        for t, c in sorted(cells):
            rows = [list(row) for row in w.matrix]
            rows[t][c] += 1
            bad = AffineWeylElement(rs, w.word, tuple(map(tuple, rows)), w.inverse_matrix)
            with pytest.raises(AssertionError) as exc:
                factorize(bad)
            assert str(exc.value) == "translation factorization does not recompose", (t, c)


def test_word_from_biconvex_rejects_non_biconvex_sets():
    rs = build("A2")
    theta = AffineRoot(0, (1, 1))
    prefix = "set is not bi-convex: no affine simple root left to peel among "
    with pytest.raises(ValueError) as exc:
        word_from_biconvex(rs, {theta})  # sum of two missing positives
    assert str(exc.value) == prefix + "[(0, (1, 1))]"
    # one peel (s_0) first, so the message maps the rest back through g^{-1}
    stuck = {AffineRoot(1, (-1, -1)), AffineRoot(0, (0, 1)), AffineRoot(1, (0, -1))}
    with pytest.raises(ValueError) as exc:
        word_from_biconvex(rs, stuck)
    assert str(exc.value) == prefix + "[(1, (1, 0))]"
    # G2: s_2 then s_1 (whose step adds 3 g(alpha_1) to g(alpha_2)), then stuck
    stuck = {AffineRoot(0, (0, 1)), AffineRoot(0, (1, 1)), AffineRoot(1, (1, 0))}
    with pytest.raises(ValueError) as exc:
        word_from_biconvex(build("G2"), stuck)
    assert str(exc.value) == prefix + "[(1, (2, 1))]"
    # a root above level len(set) lies in no inversion set; it is rejected
    # at once, with no level list up to it, and the message maps it back too
    for label, roots, rest in (
        ("A2", {AffineRoot(10**7, (1, 1))}, "[(10000000, (1, 1))]"),
        ("A2", {AffineRoot(0, (1, 0)), AffineRoot(10**7, (0, 1))}, "[(10000000, (1, 1))]"),
        (
            "G2",
            {AffineRoot(0, (0, 1)), AffineRoot(0, (1, 1)), AffineRoot(3, (1, 0)),
             AffineRoot(10**7, (-1, 0))},
            "[(3, (2, 1)), (10000000, (-2, -1))]",
        ),
    ):
        system = build(label)
        start = time.monotonic()
        with pytest.raises(ValueError) as exc:
            word_from_biconvex(system, roots)
        assert time.monotonic() - start < 0.05
        assert str(exc.value) == prefix + rest
    for bad, why in (
        (AffineRoot(0, (-1, 0)), "is not a positive affine root"),
        (AffineRoot(1, (1, -1)), "has a non-root finite part"),
        (AffineRoot(1, (0, 0)), "has a non-root finite part"),
        (AffineRoot(1.0, (-1, -1)), "has a level that is not an int"),
        (AffineRoot(True, (-1, -1)), "has a level that is not an int"),
    ):
        with pytest.raises(ValueError) as exc:
            word_from_biconvex(rs, {bad})
        assert str(exc.value) == f"{bad!r} {why}"


def test_rho_hat_level_is_dual_coxeter_number():
    for label, h_check in DUAL_COXETER.items():
        rs = build(label)
        assert rho_hat(rs)[-1] == h_check, label


def test_sl5_example():
    rs = build("A4")
    c = close_upward(rs, [_pair_root(4, 1, 3), _pair_root(4, 2, 5)])
    wmin = w_min(c)
    assert wmin.word == (3, 4, 1, 0)
    assert _action(wmin, 1) == (1, (-1, -1, 0, 0))
    assert _action(wmin, 2) == (0, (1, 1, 1, 0))
    assert _action(wmin, 3) == (0, (0, 0, 0, 1))
    assert _action(wmin, 4) == (1, (0, -1, -1, -1))
    wmax = w_max(c)
    assert wmax == simple_reflection(rs, 2) * wmin
    assert length(wmax) == 5
    assert not is_minimax(c)
    assert first_layer(wmin).bits == c.bits
    assert first_layer(wmax).bits == c.bits


def test_f4_example():
    rs = build("F4")
    c = close_upward(rs, [Root((0, 2, 2, 1)), Root((2, 2, 1, 0))])
    wmin = w_min(c)
    assert length(wmin) == 12
    assert wmin.word == (4, 3, 0, 4, 3, 2, 3, 1, 2, 3, 4, 0)
    assert is_minimax(c)
    assert wmin == w_max(c)
    assert is_minimal_representative(wmin) and is_maximal_representative(wmin)


def test_g2_example():
    rs = build("G2")
    c = close_upward(rs, [Root((2, 1))])
    wmin = w_min(c)
    assert wmin.word == (1, 2, 0)
    assert _action(wmin, 1) == (0, (2, 1))
    assert _action(wmin, 2) == (1, (-3, -2))
    wmax = w_max(c)
    assert wmax.word == (0, 2, 1, 2, 0)
    assert _action(wmax, 1) == (1, (-1, -1))
    assert _action(wmax, 2) == (0, (0, 1))
    assert not is_minimax(c)


def test_extremal_element_flags_exhaustive():
    for label in ("A3", "B3", "G2"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            wmin = w_min(c)
            assert is_dominant(wmin)
            assert is_minimal_representative(wmin)
            assert first_layer(wmin).bits == c.bits
            assert min(inverse_simple_levels(wmin), default=0) >= -1
            if is_strictly_positive(c):
                wmax = w_max(c)
                assert is_dominant(wmax)
                assert is_maximal_representative(wmax)
                assert first_layer(wmax).bits == c.bits
                assert max(inverse_simple_levels(wmax), default=0) <= 1
                assert is_minimax(c) == (wmin == wmax)
            else:
                with pytest.raises(ValueError):
                    w_max(c)


def _product_bits(rs, left, right):
    """Bitset of all root sums mu + nu with mu in left, nu in right, kept as a reference."""
    out = 0
    for i in range(len(rs.positive_roots)):
        if left >> i & 1:
            for j, k in rs.sums[i].items():
                if right >> j & 1:
                    out |= 1 << k
    return out


def _product_complement_terms(rs, bits):
    """The complement chain built from products, term k the complement of m, ..., m^(k+1).

    The earlier product form of `ideals._complement_terms`, kept as a
    reference: each step adds the sums of the roots new in the union with m.
    """
    full = (1 << len(rs.positive_roots)) - 1
    m = full & ~bits
    used = new = m
    yield bits
    while used != full and (new := _product_bits(rs, new, m) & ~used):
        used |= new
        yield full & ~used


def test_lockstep_minimax_matches_the_full_chains():
    for label, step in (
        ("G2", 1), ("B4", 1), ("C4", 1), ("D5", 1), ("F4", 1), ("E6", 1), ("E7", 1), ("E8", 10),
        ("D8", 10), ("B8", 10),
    ):
        rs = build(label)
        for c in islice(enumerate_ideals(rs), 0, None, step):
            chain = list(_product_complement_terms(rs, c.bits))
            assert [t.bits for t in complement_chain(c).powers] == chain, (label, c)
            if not is_strictly_positive(c):
                assert not is_minimax(c)
                continue
            assert not chain[-1]
            want = [t.bits for t in ideal_powers(c).powers] == chain
            assert is_minimax(c) == want, (label, c)


def test_minimax_is_read_off_the_alcove_facets_of_w_min():
    """is_minimax(I) holds exactly when w_min(I) is a maximal representative.

    The facets of the alcove of w lie on the zero sets of w^{-1}(alpha_i),
    i = 0..p.  An affine root k delta +- gamma that vanishes on a facet of
    a dominant alcove vanishes on a Shi hyperplane, (x, gamma) in {0, 1},
    exactly when |k| <= 1, and w_min already has every level >= -1; so
    `is_maximal_representative(w_min(I))` says that every facet of the
    w_min alcove lies on a Shi hyperplane.  Then the Shi region of I is
    that one alcove, and w_max = w_min.  Otherwise the alcove across a
    non-Shi facet lies in the region too.  Every alcove of the region has
    its floor counts k(gamma) = floor((x, gamma)) between the power-chain
    count and the complement-chain count, and an alcove is fixed by its
    floor counts, so two alcoves force w_min != w_max.  A non-strict ideal
    has an unbounded region, so both sides are False.  (Shi, J. London
    Math. Soc. 35, 1987; Sommers, Canad. Math. Bull. 48, 2005.)

    The check uses neither chain and no w_max.
    """
    start = time.monotonic()
    for label in ("G2", "B3", "C4", "F4", "D4", "D5", "E6"):
        for ideal in enumerate_ideals(build(label)):
            assert is_minimax(ideal) == is_maximal_representative(w_min(ideal)), (label, ideal)
    assert time.monotonic() - start < 3


def test_minimax_counts_on_e7_e8():
    # computed values, no published reference; E6's 67 is pinned by Table 7
    for label, want in (("E7", 217), ("E8", 834)):
        assert sum(is_minimax(c) for c in enumerate_ideals(build(label))) == want, label


def test_minimax_raises_when_the_complement_chain_stalls(monkeypatch):
    # with every root sum removed (sums, partners and the halves that
    # is_minimax reads), m^2 is empty and the complement chain stops at the
    # ideal itself
    rs = build("B3")
    c = close_upward(rs, [rs.theta])
    assert is_strictly_positive(c)
    n = len(rs.positive_roots)
    monkeypatch.setattr(rs, "partners", (0,) * n)
    monkeypatch.setattr(rs, "sums", ({},) * n)
    monkeypatch.setattr(rs, "halves", ((),) * n)
    assert complement_chain(c).stalled
    with pytest.raises(AssertionError, match="complement chain stalled"):
        is_minimax(c)
    with pytest.raises(AssertionError, match="complement chain stalled"):
        w_max(c)


def test_identity_and_simple_reflection_representative_flags():
    rs = build("A2")
    e = identity_element(rs)
    assert is_dominant(e) and is_minimal_representative(e) and is_maximal_representative(e)
    assert first_layer(e).bits == 0
    s1 = simple_reflection(rs, 1)
    assert not is_dominant(s1)
    with pytest.raises(ValueError):
        first_layer(s1)


def test_translation_elements():
    for label in ("A2", "B2", "G2"):
        rs = build(label)
        # z = -theta^vee = -theta here (theta is long, norm 2)
        z = RationalVector(tuple(-c for c in rs.theta.coeffs))
        t = translation_element(rs, z)
        assert is_dominant(t)
        fac = factorize(t)
        assert fac.translation.coords == z.coords
        identity_finite = tuple(
            tuple(1 if i == j else 0 for j in range(rs.rank)) for i in range(rs.rank)
        )
        assert fac.finite_part == identity_finite
        assert check_inversion_sum(t)
        t_inv = translation_element(rs, RationalVector(rs.theta.coeffs))
        assert t * t_inv == identity_element(rs)


def test_translation_element_rejects_vectors_off_the_coroot_lattice():
    cases = (("A2", (Fraction(1, 2), 0)), ("B2", (0, 1)), ("G2", (1, 0)), ("F4", (1, 0, 0, 0)))
    for label, z in cases:
        with pytest.raises(ValueError, match="coroot lattice"):
            translation_element(build(label), z)


def test_translation_element_rejects_fractional_coroot_coordinates():
    # a coordinate of denominator 2 or 3 fails the lattice test itself, on
    # long and short coroots alike, so no later integrality check is needed
    for label in ("B3", "C3", "F4", "G2"):
        rs = build(label)
        for i in range(rs.rank):
            for c in (Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3), Fraction(4, 3)):
                z = tuple(c if j == i else 0 for j in range(rs.rank))
                with pytest.raises(
                    ValueError, match="^translation vector is not in the coroot lattice$"
                ):
                    translation_element(rs, z)


def test_star_is_an_action():
    rng = random.Random(3)
    rs = build("B2")
    x = alcove_barycenter(rs)
    for _ in range(30):
        u = from_word(rs, [rng.randrange(3) for _ in range(rng.randrange(8))])
        v = from_word(rs, [rng.randrange(3) for _ in range(rng.randrange(8))])
        assert star(u * v, x).coords == star(u, star(v, x)).coords
    assert star(identity_element(rs), x).coords == x.coords
    # an integral x maps to ints, as z is stored
    assert all(type(c) is int for c in star(u, (1, -2)).coords)
    # a vector of the wrong length is rejected, not cut short by zip
    w = from_word(build("A2"), (0, 1))
    for bad in ((1,), (1, 0, 0, 5)):
        with pytest.raises(ValueError, match=f"vector of length {len(bad)} in a rank-2"):
            star(w, bad)


def test_factorization_reconstructs_the_element():
    rng = random.Random(9)
    for label in ("A3", "C3", "G2"):
        rs = build(label)
        for _ in range(30):
            w = from_word(rs, [rng.randrange(rs.rank + 1) for _ in range(rng.randrange(12))])
            fac = factorize(w)
            t = translation_element(rs, fac.translation)
            finite = t.inverse() * w
            assert factorize(finite).translation.coords == tuple([0] * rs.rank)
            assert t * finite == w


def test_factorize_z_pairs_to_the_delta_row():
    # (alpha_i, z) is the delta-level of w^{-1}(alpha_i), z in the coroot lattice
    rng = random.Random(17)
    for label in ("G2", "F4", "E7", "E8"):
        rs = build(label)
        p = rs.rank
        for _ in range(25):
            w = from_word(rs, [rng.randrange(p + 1) for _ in range(rng.randrange(30))])
            fac = factorize(w)
            z = fac.translation
            assert in_coroot_lattice(rs, z.coords), (label, w.word)
            for i in range(p):
                e_i = tuple(1 if t == i else 0 for t in range(p))
                assert inner(rs, z, e_i) == w.inverse_matrix[p][i], (label, w.word, i)
            assert all(type(c) is int for c in z.coords), (label, w.word)
            # the integer pairings factorize returns are the same delta row
            assert all(type(q) is int for q in fac.pairings), (label, w.word)
            assert fac.pairings == rs.pairings(z) == w.inverse_matrix[p][:p], (label, w.word)


def _reference_translation_data(rs, z):
    """The two-pass z check: a lattice test, then the pairings, each over _vector."""
    z = _coords(z)
    if not in_coroot_lattice(rs, z):
        raise ValueError("translation vector is not in the coroot lattice")
    if any(type(c) is not int for c in z):
        if any(c.denominator != 1 for c in z):
            raise AssertionError("coroot-lattice vector with non-integral data")
        z = tuple(c.numerator for c in z)
    y, den = rs._scaled_pairings(z)
    if any(v % den for v in y):
        raise AssertionError("non-integral pairing with a simple root")
    pairs = [v // den for v in y]
    half_norm, odd = divmod(sum(c * q for c, q in zip(z, pairs)), 2)
    if odd:
        raise AssertionError("coroot-lattice vector with non-integral data")
    return z, tuple(pairs), half_norm


def _reference_factorize(w):
    rs, m = w.rs, w.matrix
    p = rs.rank
    z, pairs, half_norm = _reference_translation_data(rs, (m[t][p + 1] for t in range(p)))
    v = w.finite_part_matrix()
    nz = [(j, q) for j, q in enumerate(pairs) if q]
    delta_row = tuple(-sum(q * v[j][c] for j, q in nz) for c in range(p))
    if (
        m[p][:p] != delta_row
        or m[p][p:] != (1, -half_norm)
        or any(m[t][p] for t in range(p))
        or m[p + 1] != (0,) * (p + 1) + (1,)
    ):
        raise AssertionError("translation factorization does not recompose")
    return AffineFactorization(v, RationalVector(z), pairs)


def _outcome(f, *args):
    """f(*args), or the type and text of what it raised; int-ness is part of a result."""
    try:
        out = f(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    if isinstance(out, AffineFactorization):
        return out, [type(c) for c in out.translation.coords + out.pairings]
    return out, [type(c) for part in out[:2] for c in part] + [type(out[2])]


def _with_entries(w, cells):
    """w with its matrix entries at cells (t, c) replaced by the given values."""
    rows = [list(row) for row in w.matrix]
    for (t, c), value in cells.items():
        rows[t][c] = value
    return AffineWeylElement(w.rs, w.word, tuple(map(tuple, rows)), w.inverse_matrix)


def test_factorize_matches_the_two_pass_reference():
    rng = random.Random(53)
    for label in ("G2", "B3", "C4", "F4", "D5", "E6", "E7"):
        rs = build(label)
        p = rs.rank
        step = 7 if label == "E7" else 1
        elements = []
        for ideal in islice(enumerate_ideals(rs), 0, None, step):
            elements.append(w_min(ideal))
            if is_strictly_positive(ideal):
                elements.append(w_max(ideal))
        elements += [
            from_word(rs, [rng.randrange(p + 1) for _ in range(rng.randrange(40))])
            for _ in range(300)
        ]
        for w in elements:
            assert _outcome(factorize, w) == _outcome(_reference_factorize, w), (label, w.word)
        # hand-built matrices: every entry a denominator-1 Fraction (accepted,
        # with int data), a half or a unit step in one Lambda-column entry (a
        # half is off the lattice), a half in column 0; both routes agree
        w = elements[-1]
        whole = {(t, c): Fraction(x) for t, row in enumerate(w.matrix) for c, x in enumerate(row)}
        assert factorize(_with_entries(w, whole)) == factorize(w), label
        cases = [whole]
        for t in range(p):
            half = {(t, p + 1): Fraction(2 * w.matrix[t][p + 1] + 1, 2)}
            with pytest.raises(ValueError, match="not in the coroot lattice"):
                factorize(_with_entries(w, half))
            cases += [half, {(t, p + 1): w.matrix[t][p + 1] + 1}, {(t, 0): Fraction(1, 2)}]
        for cells in cases:
            bad = _with_entries(w, cells)
            assert _outcome(factorize, bad) == _outcome(_reference_factorize, bad), (label, cells)
        # z directly: ints and halves, a wrong length, floats, Fraction(3)
        for _ in range(100):
            z = tuple(rng.choice((rng.randrange(-4, 5), Fraction(rng.randrange(-6, 7), 2)))
                      for _ in range(p))
            assert _outcome(affine._translation_data, rs, z) == _outcome(
                _reference_translation_data, rs, z
            ), (label, z)
        for z in ((0,) * (p + 1), (1.0,) * p, (Fraction(3),) * p):
            assert _outcome(affine._translation_data, rs, z) == _outcome(
                _reference_translation_data, rs, z
            ), (label, z)
    # off the coroot lattice in integers (a short coroot coordinate), on both routes
    for label, z in (("B2", (0, 1)), ("G2", (1, 0)), ("F4", (1, 0, 0, 0))):
        rs = build(label)
        for f in (affine._translation_data, _reference_translation_data):
            with pytest.raises(ValueError, match="translation vector is not in the coroot lattice"):
                f(rs, z)


def test_normalizer_by_zwall_needs_a_minimal_element():
    rs = build("B3")
    with pytest.raises(ValueError):
        normalizer_by_zwall(simple_reflection(rs, 1))  # not dominant
    far = translation_element(rs, RationalVector((-2, -2, -2)))  # levels below -1
    assert is_dominant(far) and not is_minimal_representative(far)
    with pytest.raises(ValueError):
        normalizer_by_zwall(far)


def _zwall_by_apply_root(w):
    """Reference z-wall route: each wall pulled back through AffineRoot objects."""
    rs = w.rs
    y = factorize(w).pairings
    walls = [i + 1 for i, v in enumerate(y) if v == 0]
    walls += [0] if sum(c * v for c, v in zip(rs.marks, y)) == 1 else []
    levi = set()
    for i in walls:
        mu = w.apply_root_inverse(affine_simple_root(rs, i))
        assert mu.level == 0 and sum(map(abs, mu.finite)) == 1 and max(mu.finite) == 1
        levi.add(mu.finite.index(1))
    return frozenset(levi)


def test_wall_preimages_match_apply_root_inverse():
    # every affine simple root, not only the walls through z, on every ideal
    # of ORACLE_TYPES and E6 and on every 5th E7 ideal
    start = time.monotonic()
    for label, step in [(t, 1) for t in ORACLE_TYPES] + [("E6", 1), ("E7", 5)]:
        rs = build(label)
        for ideal in islice(enumerate_ideals(rs), 0, None, step):
            w = w_min(ideal)
            levels = inverse_simple_levels(w)
            for i in range(rs.rank + 1):
                mu = AffineRoot(levels[i], _wall_preimage(w, i))
                assert mu == w.apply_root_inverse(affine_simple_root(rs, i))
            assert normalizer_by_zwall(w).levi == _zwall_by_apply_root(w), (label, ideal)
    assert time.monotonic() - start < 10


def test_normalizer_oracles_build_no_affine_root(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle route built an affine root")

    monkeypatch.setattr(affine, "_image", refuse)
    monkeypatch.setattr(affine, "AffineRoot", refuse)
    assert suite_normalizer_oracles([ideal_table("F4")]) == [
        ("five-way-normalizer[F4]", "105 ideals")
    ]


def test_zwall_route_builds_no_factorization(monkeypatch):
    # the walls come off w^{-1}'s delta-row, not off a validated t_z . v split
    def refuse(*args):
        raise AssertionError("the z-wall route built a factorization")

    monkeypatch.setattr(affine, "factorize", refuse)
    monkeypatch.setattr(verify, "factorize", refuse)
    assert suite_normalizer_oracles([ideal_table("F4")]) == [
        ("five-way-normalizer[F4]", "105 ideals")
    ]
    rs = build("E6")
    for ideal in enumerate_ideals(rs):
        assert normalizer_by_zwall(w_min(ideal)) == normalizer(ideal), ideal


def _count_walks(monkeypatch):
    """Wrap affine._inversion_levels in a counter; the returned list holds the count."""
    walks = [0]
    walk = affine._inversion_levels

    def counted(*args):
        walks[0] += 1
        return walk(*args)

    monkeypatch.setattr(affine, "_inversion_levels", counted)
    return walks


def _read_all(w):
    """The four readers of N(w); first_layer only where it is defined."""
    out = (n_set(w), length(w), check_inversion_sum(w))
    return out + (first_layer(w),) if is_dominant(w) else out


def test_random_word_law_step_walks_n_w_twice(monkeypatch):
    # check_inversion_sum walks N(w) and keeps it, n_set reads it back, and
    # the peel's reconstruction check walks the rebuilt element once
    walks = _count_walks(monkeypatch)
    rng = random.Random(61)
    for label in ("F4", "D4", "A1"):
        rs = build(label)
        for _ in range(60):
            walks[0] = 0
            w = from_word(rs, [rng.randrange(rs.rank + 1) for _ in range(rng.randrange(25))])
            assert check_inversion_sum(w)
            rebuilt = word_from_biconvex(rs, n_set(w))
            assert rebuilt == w and walks[0] == 2, (label, w.word, walks[0])


def test_peeled_elements_hold_n_w_for_their_readers(monkeypatch):
    rs = build("F4")
    elements = []
    for ideal in enumerate_ideals(rs):
        elements.append(w_min(ideal))
        if is_strictly_positive(ideal):
            elements.append(w_max(ideal))
    elements += [translation_element(build(label), z) for label, z in _TRANSLATIONS]
    walks = _count_walks(monkeypatch)
    for w in elements:
        _read_all(w)
        assert walks[0] == 0, w
    # a fresh element built from the same words walks once for all four readers
    for w in elements:
        walks[0] = 0
        fresh = from_word(w.rs, w.word)
        assert _read_all(fresh) == _read_all(fresh) and walks[0] == 1, w


def test_affine_levels_bound_the_lattice_simplices():
    # every coweight point of each simplex has its affine levels >= -1 ("min")
    # or <= 1 ("max"), and the off-wall points are those with no zero level
    for label in ("A3", "B3", "C3", "G2", "F4"):
        rs = build(label)
        for which, inside in (("min", in_min_simplex), ("max", in_max_simplex)):
            points = lattice_count(rs, which, lattice="coweight").points
            for y in points:
                levels = _affine_levels(rs, y)
                assert len(levels) == rs.rank + 1 and levels[1:] == y
                assert min(levels) >= -1 if which == "min" else max(levels) <= 1, (label, y)
                assert inside(rs, rs.from_pairings(y)), (label, which, y)
            off = lattice_count(rs, which, off_walls=True, lattice="coweight").points
            assert off == tuple(y for y in points if 0 not in _affine_levels(rs, y)), label


def test_coordinates_live_in_their_simplices():
    for label in ("A3", "B2", "G2"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            z = factorize(w_min(c)).translation
            assert in_min_simplex(rs, z)
            if is_strictly_positive(c):
                y = factorize(w_max(c)).translation
                assert in_max_simplex(rs, y)


def test_simplex_membership_edges():
    rs = build("A2")
    assert in_min_simplex(rs, (0, 0))
    assert in_min_simplex(rs, (-1, -1))  # pairing -1 on both walls
    assert not in_min_simplex(rs, (-2, -1))
    assert in_max_simplex(rs, (0, 0))
    assert not in_max_simplex(rs, (2, 1))  # pairing exceeds 1


@st.composite
def _e7_e8_ideals(draw):
    """Upper closure of a few random positive roots of E7 or E8."""
    rs = build(draw(st.sampled_from(("E7", "E8"))))
    n = len(rs.positive_roots)
    picks = draw(st.lists(st.integers(0, n - 1), max_size=4))
    return close_upward(rs, [rs.positive_roots[g] for g in picks])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_e7_e8_ideals())
def test_extremal_elements_on_random_e7_e8_ideals(ideal):
    wmin = w_min(ideal)
    assert first_layer(wmin) == ideal
    assert len(wmin.word) == sum(power.size for power in ideal_powers(ideal).powers)
    assert is_minimal_representative(wmin)
    assert check_inversion_sum(wmin)
    assert len(set(normalizer_routes(ideal, wmin).values())) == 1
    if is_strictly_positive(ideal):
        assert first_layer(w_max(ideal)) == ideal
