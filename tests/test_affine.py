"""Affine Weyl elements: words, inversion sets, extremal elements, coordinates."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adnil.affine import (
    AffineRoot,
    AffineWeylElement,
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
from adnil.ideals import (
    close_upward,
    complement_chain,
    enumerate_ideals,
    ideal_powers,
    is_strictly_positive,
)
from adnil.rootsys import RationalVector, Root, build, in_coroot_lattice, inner
from adnil.verify import normalizer_routes

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
    # 1.5 passed the range check alone and gave the zero affine root
    rs = build("A2")
    for bad in (1.5, 1.0, Fraction(1)):
        with pytest.raises(ValueError, match="out of range"):
            affine_simple_root(rs, bad)
        with pytest.raises(ValueError, match="out of range"):
            from_word(rs, (0, bad))
    assert affine_simple_root(rs, True) == affine_simple_root(rs, 1)


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
    for bad, why in (
        (AffineRoot(0, (-1, 0)), "is not a positive affine root"),
        (AffineRoot(1, (1, -1)), "has a non-root finite part"),
        (AffineRoot(1, (0, 0)), "has a non-root finite part"),
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


def test_lockstep_minimax_matches_the_full_chains():
    for label, step in (
        ("G2", 1), ("B4", 1), ("C4", 1), ("D5", 1), ("F4", 1), ("E6", 1), ("E7", 1), ("E8", 10),
    ):
        rs = build(label)
        for c in islice(enumerate_ideals(rs), 0, None, step):
            if not is_strictly_positive(c):
                assert not is_minimax(c)
                continue
            powers = ideal_powers(c)
            chain = complement_chain(c)
            assert not chain.stalled
            want = [t.bits for t in powers.powers] == [t.bits for t in chain.powers]
            assert is_minimax(c) == want, (label, c)


def test_minimax_counts_on_e7_e8():
    # computed values, no published reference; E6's 67 is pinned by Table 7
    for label, want in (("E7", 217), ("E8", 834)):
        assert sum(is_minimax(c) for c in enumerate_ideals(build(label))) == want, label


def test_minimax_raises_when_the_complement_chain_stalls(monkeypatch):
    # with every root sum removed, m^2 is empty and the complement chain
    # stops at the ideal itself
    rs = build("B3")
    c = close_upward(rs, [rs.theta])
    assert is_strictly_positive(c)
    n = len(rs.positive_roots)
    monkeypatch.setattr(rs, "partners", (0,) * n)
    monkeypatch.setattr(rs, "sums", ({},) * n)
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


def test_star_is_an_action():
    rng = random.Random(3)
    rs = build("B2")
    x = alcove_barycenter(rs)
    for _ in range(30):
        u = from_word(rs, [rng.randrange(3) for _ in range(rng.randrange(8))])
        v = from_word(rs, [rng.randrange(3) for _ in range(rng.randrange(8))])
        assert star(u * v, x).coords == star(u, star(v, x)).coords
    assert star(identity_element(rs), x).coords == x.coords
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
            z = factorize(w).translation
            assert in_coroot_lattice(rs, z.coords), (label, w.word)
            for i in range(p):
                e_i = tuple(1 if t == i else 0 for t in range(p))
                assert inner(rs, z, e_i) == w.inverse_matrix[p][i], (label, w.word, i)


def test_normalizer_by_zwall_needs_a_minimal_element():
    rs = build("B3")
    with pytest.raises(ValueError):
        normalizer_by_zwall(simple_reflection(rs, 1))  # not dominant
    far = translation_element(rs, RationalVector((-2, -2, -2)))  # levels below -1
    assert is_dominant(far) and not is_minimal_representative(far)
    with pytest.raises(ValueError):
        normalizer_by_zwall(far)


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
