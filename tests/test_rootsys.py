"""Root system construction: Cartan data, pairings, covers, lattices."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from adnil.affine import (
    AffineRoot,
    identity_element,
    in_min_simplex,
    star,
    translation_element,
    word_from_biconvex,
)
from adnil.ideals import close_upward, enumerate_ideals
from adnil.linalg import adjugate
from adnil.rootsys import (
    ConfigurationError,
    Root,
    build,
    in_coroot_lattice,
    inner,
    leq,
    root_sum,
)
from adnil.shi import in_region

ALL_LABELS = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9",
    "B2", "B3", "B4", "B5", "B6", "B7", "B8",
    "C2", "C3", "C4", "C5", "C6", "C7", "C8",
    "D3", "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8", "F4", "G2",
)

# positive-root counts: A n(n+1)/2, B/C n^2, D n(n-1), E6/E7/E8 36/63/120, F4 24, G2 6
N_ROOTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15, "A6": 21,
    "B2": 4, "B3": 9, "B4": 16, "C2": 4, "C3": 9, "C4": 16,
    "D4": 12, "D5": 20, "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6,
}

MARKS = {
    "A4": (1, 1, 1, 1),
    "B4": (1, 2, 2, 2),
    "C4": (2, 2, 2, 1),
    "D5": (1, 2, 2, 1, 1),
    "E6": (1, 2, 2, 3, 2, 1),
    "E7": (2, 2, 3, 4, 3, 2, 1),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2),
    "F4": (2, 4, 3, 2),
    "G2": (3, 2),
}

INDEX_F = {
    "A5": 6, "B4": 2, "C4": 2, "D5": 4,
    "E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1,
}

COXETER = {
    "A5": 6, "B4": 8, "C4": 8, "D5": 8,
    "E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6,
}


def test_all_labels_build():
    for label in ALL_LABELS:
        rs = build(label)
        assert rs.label == label
        assert len(rs.positive_roots) == len(rs.root_index)


def test_positive_root_counts():
    for label, n in N_ROOTS.items():
        assert len(build(label).positive_roots) == n, label


def test_marks_and_theta():
    for label, marks in MARKS.items():
        rs = build(label)
        assert rs.marks == marks, label
        assert rs.theta.coeffs == marks, label
        assert rs.positive_roots[rs.root_index[rs.theta.coeffs]] == rs.theta


def test_connection_index_counts_unit_marks():
    for label, f in INDEX_F.items():
        rs = build(label)
        assert rs.f == f, label
        assert rs.f == 1 + sum(1 for m in rs.marks if m == 1), label


def test_coxeter_number_is_one_plus_theta_height():
    for label, h in COXETER.items():
        rs = build(label)
        assert rs.coxeter_number == h, label
        assert rs.coxeter_number == 1 + sum(rs.marks), label
        assert max(rs.heights) == h - 1, label


def test_cartan_matrix_shape():
    for label in ("A3", "B3", "C3", "D4", "F4", "G2", "E6"):
        rs = build(label)
        n = rs.rank
        for i in range(n):
            assert rs.cartan[i][i] == 2
            for j in range(n):
                if i != j:
                    assert rs.cartan[i][j] <= 0
                    # zero entries pair up; nonzero products give the bond
                    assert (rs.cartan[i][j] == 0) == (rs.cartan[j][i] == 0)


def test_cartan_inverse_is_inverse():
    for label in ALL_LABELS:
        rs = build(label)
        n = rs.rank
        for i in range(n):
            for j in range(n):
                s = sum(rs.cartan[i][k] * rs.cartan_inverse[k][j] for k in range(n))
                assert s == (1 if i == j else 0), label


def test_adjugate_of_every_cartan_matrix():
    for label in ALL_LABELS:
        rs = build(label)
        n = rs.rank
        det, adj = adjugate(rs.cartan)
        assert det == rs.f, label
        assert rs.cartan_adjugate == tuple(map(tuple, adj)), label
        for i in range(n):
            for j in range(n):
                s = sum(rs.cartan[i][k] * adj[k][j] for k in range(n))
                assert s == (det if i == j else 0), label
    # a zero or negative leading minor is refused
    for a in (((1, 2), (2, 1)), ((0, 1), (1, 0)), ((0,),)):
        with pytest.raises(ValueError, match="not positive"):
            adjugate(a)


def test_gram_is_symmetrized_cartan():
    # the invariant form is kept once, in ints: form = e cartan diag(d), symmetric
    for label in ALL_LABELS:
        rs = build(label)
        n = rs.rank
        e = rs.form_scale
        for i in range(n):
            for j in range(n):
                assert type(rs.form[i][j]) is int and rs.form[i][j] == rs.form[j][i]
                assert rs.form[i][j] == e * rs.symmetrizer[j] * rs.cartan[i][j]


def test_pairings_match_the_symmetrized_cartan():
    # (x, alpha_j) = sum_k x_k d_j <alpha_k, alpha_j^vee>, summed here in Fractions
    for label in ALL_LABELS:
        rs = build(label)
        rng = random.Random(label)
        for _ in range(50):
            x = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rs.rank)]
            y = rs.pairings(x)
            for j, d in enumerate(rs.symmetrizer):
                assert y[j] == sum(xk * d * row[j] for xk, row in zip(x, rs.cartan)), label


def test_highest_root_is_long_with_norm_two():
    for label in ALL_LABELS:
        rs = build(label)
        assert inner(rs, rs.theta.coeffs, rs.theta.coeffs) == 2, label
        for root in rs.positive_roots:
            assert inner(rs, root.coeffs, root.coeffs) <= 2, label


def test_short_root_norms():
    # doubled bond: short norm 1; tripled bond: short norm 2/3
    for label, short_norm in (("B3", 1), ("C3", 1), ("F4", 1), ("G2", Fraction(2, 3))):
        rs = build(label)
        norms = {inner(rs, r.coeffs, r.coeffs) for r in rs.positive_roots}
        assert norms == {2, short_norm}, label


def test_coroot_pairing_against_cartan():
    for label in ("A3", "B3", "F4", "G2"):
        rs = build(label)
        for i in range(rs.rank):
            alpha = rs.positive_roots[rs.simple_index[i]]
            for j in range(rs.rank):
                assert rs.coroot_pairing(alpha.coeffs, j) == rs.cartan[i][j]


def test_coroot_pairing_refuses_a_bad_index():
    # on B3, alpha_3 pairs to [0, -1, 2]; j = -1 used to answer 2 (alpha_3's)
    # and j = True -1 (alpha_2's)
    for label, x, want in (("A2", (1, 0), [2, -1]), ("B3", (0, 0, 1), [0, -1, 2])):
        rs = build(label)
        assert [rs.coroot_pairing(x, j) for j in range(rs.rank)] == want
        for bad in (-1, rs.rank):
            with pytest.raises(ValueError, match=f"^simple root index {bad} out of range$"):
                rs.coroot_pairing(x, bad)
        for bad in (True, False, 1.0, Fraction(1)):
            why = re.escape(f"simple root index {bad!r} is not an int")
            with pytest.raises(ValueError, match=f"^{why}$"):
                rs.coroot_pairing(x, bad)


def test_rho_pairs_to_one_with_every_simple_coroot():
    for label in ("A4", "B3", "C4", "D4", "E6", "F4", "G2"):
        rs = build(label)
        for j in range(rs.rank):
            assert rs.coroot_pairing(rs.rho.coords, j) == 1
        for i in range(rs.rank):
            alpha = rs.positive_roots[rs.simple_index[i]]
            assert inner(rs, rs.rho_check.coords, alpha.coeffs) == 1


def test_fundamental_weights_dual_to_coroots():
    for label in ALL_LABELS:
        rs = build(label)
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert rs.coroot_pairing(rs.fundamental_weights[i].coords, j) == (
                    1 if i == j else 0
                )
                alpha = rs.positive_roots[rs.simple_index[j]]
                assert inner(rs, rs.fundamental_coweights[i].coords, alpha.coeffs) == (
                    1 if i == j else 0
                )
        rng = random.Random(f"from_pairings:{label}")
        y = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rs.rank))
        assert rs.pairings(rs.from_pairings(y)) == y


def test_theta_pairing_row():
    for label in ("A3", "B3", "C3", "D4", "F4", "G2"):
        rs = build(label)
        for j in range(rs.rank):
            alpha = rs.positive_roots[rs.simple_index[j]]
            assert rs.theta_pairing[j] == inner(rs, rs.theta.coeffs, alpha.coeffs)


def test_cover_relations():
    for label in ("A4", "B3", "D4", "F4", "G2", "E7"):
        rs = build(label)
        for k, root in enumerate(rs.positive_roots):
            up = lowers = 0
            for a in range(rs.rank):
                plus = tuple(c + (j == a) for j, c in enumerate(root.coeffs))
                minus = tuple(c - (j == a) for j, c in enumerate(root.coeffs))
                if plus in rs.root_index:
                    up |= 1 << rs.root_index[plus]
                    assert rs.heights[rs.root_index[plus]] == rs.heights[k] + 1
                if not any(minus) or minus in rs.root_index:
                    lowers |= 1 << a
            assert rs.up[k] == up
            assert rs.lowers[k] == lowers
            assert rs.upsets[k] == sum(
                1 << j for j, other in enumerate(rs.positive_roots)
                if all(x <= y for x, y in zip(root.coeffs, other.coeffs))
            )
            if rs.heights[k] == 1:
                assert k in rs.simple_index and lowers.bit_count() == 1
            else:
                assert lowers, "non-simple root must cover something"


def test_sum_index_is_exact():
    for label in ("A3", "B3", "G2", "F4", "E6"):
        rs = build(label)
        roots = rs.positive_roots
        for i, a in enumerate(roots):
            for j, b in enumerate(roots):
                s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
                if s in rs.root_index:
                    assert rs.sums[i][j] == rs.root_index[s]
                else:
                    assert j not in rs.sums[i]
            assert rs.partners[i] == sum(1 << j for j in rs.sums[i])
        assert rs.simple_bits == sum(1 << k for k in rs.simple_index)
        # signed indices: s < N is gamma_s, N + g is -gamma_g
        n = len(roots)
        assert rs.signed_roots == tuple(r.coeffs for r in roots) + tuple(
            tuple(-c for c in r.coeffs) for r in roots
        )
        assert all(rs.signed_index[c] == s for s, c in enumerate(rs.signed_roots))
        for s, a in enumerate(rs.signed_roots):
            for t, b in enumerate(rs.signed_roots):
                u = rs.signed_index.get(tuple(x + y for x, y in zip(a, b)))
                assert rs.signed_sums[s].get(t) == u, (label, s, t)
        assert len(rs.signed_sums) == 2 * n
        # pairing rows e (root s, alpha_j), the negative half the negated positive half
        rows = rs.signed_pairing_rows
        assert rows == tuple(
            tuple(rs.form_scale * inner(rs, c, rs.positive_roots[rs.simple_index[j]])
                  for j in range(rs.rank))
            for c in rs.signed_roots
        ), label
        assert rows[n:] == tuple(tuple(-v for v in y) for y in rows[:n]), label
        assert all(rs.signed_pairing_index[y] == s for s, y in enumerate(rows)), label


def test_signed_sums_are_symmetric():
    # the affine step reads g(alpha_j) + g(alpha_i) off the row of g(alpha_i)
    for label in ALL_LABELS:
        add = build(label).signed_sums
        assert all(add[t].get(s) == u for s, row in enumerate(add) for t, u in row.items()), label


def test_halves_match_coefficient_arithmetic():
    for label in ALL_LABELS:
        rs = build(label)
        coeffs = [r.coeffs for r in rs.positive_roots]
        want = {c: set() for c in coeffs}
        for i, a in enumerate(coeffs):
            for j in range(i + 1, len(coeffs)):
                s = tuple(x + y for x, y in zip(a, coeffs[j]))
                if s in want:
                    want[s].add(1 << i | 1 << j)
        assert len(rs.halves) == len(coeffs)
        for k, c in enumerate(coeffs):
            assert sorted(rs.halves[k]) == sorted(want[c]), (label, k)
        assert rs.at_least == tuple(
            tuple(
                sum(1 << k for k, c in enumerate(coeffs) if c[i] >= v)
                for v in range(max(c[i] for c in coeffs) + 1)
            )
            for i in range(rs.rank)
        ), label


def test_split_and_affine_tables():
    for label in ALL_LABELS:
        rs = build(label)
        for k, root in enumerate(rs.positive_roots):
            if k in rs.simple_index:
                assert rs.split[k] is None
                continue
            i, a = rs.split[k]
            assert i < k and rs.positive_roots[i].coeffs[a] + 1 == root.coeffs[a]
            assert rs.sums[i][rs.simple_index[a]] == k
        # the finite block is the Cartan matrix, and delta = alpha_0 + theta
        # pairs to zero with every affine simple coroot
        ac = rs.affine_cartan
        assert tuple(row[1:] for row in ac[1:]) == rs.cartan
        marks = (1,) + rs.marks
        assert all(sum(m * ac[i][j] for i, m in enumerate(marks)) == 0 for j in range(rs.rank + 1))
        assert ac[0][0] == 2
        h_check = 1 + inner(rs, rs.rho, rs.theta)
        assert rs.two_rho_hat == tuple(2 * c for c in rs.rho.coords) + (0, 2 * h_check)


def _tuple_positive_roots(cartan):
    """The root-string closure on coefficient tuples, the reference for the packed one."""
    rank = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    known = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for gamma in frontier:
            for i in range(rank):
                # p = how far the alpha_i-string extends below gamma.
                p = 0
                probe = tuple(g - (p + 1) * s for g, s in zip(gamma, simples[i]))
                while probe in known:
                    p += 1
                    probe = tuple(g - (p + 1) * s for g, s in zip(gamma, simples[i]))
                pairing = sum(gamma[k] * cartan[k][i] for k in range(rank))
                if p - pairing >= 1:
                    up = tuple(g + s for g, s in zip(gamma, simples[i]))
                    if up not in known:
                        known.add(up)
                        nxt.append(up)
        frontier = nxt
    return sorted(known, key=lambda t: (sum(t), tuple(-x for x in t)))


def _tuple_sums(coeffs):
    """sums[i][j] = k with gamma_i + gamma_j = gamma_k, by a pair scan on tuples."""
    index = {c: k for k, c in enumerate(coeffs)}
    sums = [{} for _ in coeffs]
    for i in range(len(coeffs)):
        for j in range(i, len(coeffs)):
            k = index.get(tuple(a + b for a, b in zip(coeffs[i], coeffs[j])))
            if k is not None:
                sums[i][j] = sums[j][i] = k
    return sums


def _assert_poset_matches_tuple_arithmetic(rs):
    coeffs = _tuple_positive_roots(rs.cartan)
    index = {c: k for k, c in enumerate(coeffs)}
    assert [r.coeffs for r in rs.positive_roots] == coeffs
    assert rs.root_index == index
    # E8's 6 is the largest coefficient, so packed sums (4 bits a field) never carry
    assert max(max(c) for c in coeffs) <= 6
    sums = _tuple_sums(coeffs)
    assert [list(row.items()) for row in rs.sums] == [list(row.items()) for row in sums]
    assert rs.partners == tuple(sum(1 << j for j in row) for row in sums)
    n, rank = len(coeffs), rs.rank
    minus = [[tuple(c - (j == a) for j, c in enumerate(t)) for a in range(rank)] for t in coeffs]
    plus = [[tuple(c + (j == a) for j, c in enumerate(t)) for a in range(rank)] for t in coeffs]
    assert rs.up == tuple(sum(1 << index[u] for u in row if u in index) for row in plus)
    assert rs.lowers == tuple(
        sum(1 << a for a, m in enumerate(row) if m in index or not any(m)) for row in minus
    )
    assert rs.upsets == tuple(
        sum(1 << j for j in range(n) if all(map(int.__le__, coeffs[i], coeffs[j])))
        for i in range(n)
    )
    assert rs.split == tuple(
        next(((index[m], a) for a, m in enumerate(row) if m in index), None) for row in minus
    )


def test_packed_build_matches_tuple_arithmetic(monkeypatch):
    for label in ALL_LABELS:
        _assert_poset_matches_tuple_arithmetic(build(label))
    monkeypatch.setenv("ADNIL_MAX_RANK", "12")
    for label in ("A12", "B12", "C12", "D12"):
        _assert_poset_matches_tuple_arithmetic(build(label))


def test_positive_root_counts_at_raised_ranks(monkeypatch):
    # A n(n+1)/2, B/C n^2, D n(n-1) roots; Coxeter numbers n+1, 2n, 2n, 2n-2
    monkeypatch.setenv("ADNIL_MAX_RANK", "20")
    for label, n, h in (("A20", 210, 21), ("B20", 400, 40), ("C20", 400, 40), ("D20", 380, 38)):
        rs = build(label)
        assert len(rs.positive_roots) == len(rs.root_index) == n, label
        assert rs.coxeter_number == h, label


def test_root_sum_and_leq():
    rs = build("A3")
    a1 = Root((1, 0, 0))
    a2 = Root((0, 1, 0))
    assert root_sum(rs, a1, a2) == Root((1, 1, 0))
    assert root_sum(rs, a1, Root((0, 0, 1))) is None
    assert leq(rs, a1, Root((1, 1, 1)))
    assert not leq(rs, Root((1, 1, 1)), a1)
    assert not leq(rs, a1, a2)
    # a vector of the wrong length is rejected, not cut short by zip
    for bad in ((1, 0), (1, 0, 0, 5)):
        with pytest.raises(ValueError, match=f"vector of length {len(bad)} in a rank-3"):
            root_sum(rs, bad, a1)
        with pytest.raises(ValueError, match=f"vector of length {len(bad)} in a rank-3"):
            leq(rs, a1, bad)
    with pytest.raises(ValueError, match="vector of length 1 in a rank-2"):
        leq(build("A2"), (0, 1), (1,))


def test_index_maps_are_consistent():
    for label in ("A5", "C4", "E6"):
        rs = build(label)
        for k, root in enumerate(rs.positive_roots):
            assert rs.root_index[root.coeffs] == k
            assert rs.positive_roots.index(root) == k
        for i in range(rs.rank):
            k = rs.simple_index[i]
            assert rs.heights[k] == 1
            coeffs = rs.positive_roots[k].coeffs
            assert coeffs[i] == 1 and sum(coeffs) == 1


def test_coroot_lattice_membership():
    rs = build("A2")
    # simple roots are long, so they equal their own coroots
    assert in_coroot_lattice(rs, (1, 0))
    assert in_coroot_lattice(rs, (-1, 2))
    assert not in_coroot_lattice(rs, rs.fundamental_coweights[0].coords)
    rs = build("B2")
    # short coroot alpha_2^vee has integer but non-root-lattice coordinates
    assert in_coroot_lattice(rs, (0, 2))
    assert not in_coroot_lattice(rs, (0, 1))
    assert in_coroot_lattice(rs, (1, 0))


def test_integer_coroot_lattice_test_matches_the_fraction_definition():
    # x = sum c_i alpha_i is in the coroot lattice iff every c_i d_i is an integer
    rng = random.Random(5)
    for label in ("A3", "B3", "C3", "D4", "E6", "E7", "E8", "F4", "G2"):
        rs = build(label)
        seen = set()
        for _ in range(200):
            x = tuple(Fraction(rng.randrange(-12, 13), rng.randrange(1, 7)) for _ in range(rs.rank))
            for v in (x, tuple(c.numerator for c in x)):
                expected = all((c * d).denominator == 1 for c, d in zip(v, rs.symmetrizer))
                assert in_coroot_lattice(rs, v) == expected, (label, v)
                seen.add(expected)
        assert seen == {True, False}, label


def test_vectors_of_the_wrong_length_are_rejected():
    rs = build("A2")
    empty = next(iter(enumerate_ideals(rs)))
    checks = (
        lambda v: inner(rs, v, (1, 1)),
        lambda v: inner(rs, (1, 1), v),
        lambda v: in_coroot_lattice(rs, v),
        lambda v: rs.coroot_pairing(v, 0),
        lambda v: rs.pairings(v),
        lambda v: translation_element(rs, v),
        lambda v: in_min_simplex(rs, v),
        lambda v: in_region(empty, v),
        lambda v: empty.contains(v),
    )
    for check in checks:
        check((1, 1))
        for v in ((1,), (1, 1, 5), (0, 0, 99)):
            with pytest.raises(ValueError, match="length"):
                check(v)


@pytest.mark.parametrize(
    "entry",
    (
        lambda rs, v: rs.from_pairings(v),
        lambda rs, v: rs.pairings(v),
        lambda rs, v: rs.coroot_pairing(v, 0),
        lambda rs, v: in_coroot_lattice(rs, v),
        lambda rs, v: inner(rs, v, (1, 1)),
        lambda rs, v: in_region(next(iter(enumerate_ideals(rs))), v),
        lambda rs, v: star(identity_element(rs), v),
        lambda rs, v: leq(rs, v, (1, 2)),
        lambda rs, v: root_sum(rs, v, (0, 1)),
        lambda rs, v: in_min_simplex(rs, v),
        lambda rs, v: translation_element(rs, v),
        lambda rs, v: close_upward(rs, [v]),
        lambda rs, v: close_upward(rs, [(1, 0)]).contains(v),
        lambda rs, v: word_from_biconvex(rs, [AffineRoot(0, v)]),
    ),
    ids=(
        "from_pairings", "pairings", "coroot_pairing", "in_coroot_lattice", "inner",
        "in_region", "star", "leq", "root_sum", "in_min_simplex", "translation_element",
        "close_upward", "contains", "word_from_biconvex",
    ),
)
def test_float_entries_are_rejected(entry):
    # a float would put binary fractions into exact coordinates, or fail later;
    # a bool would pass as an int, True as 1
    rs = build("B2")
    entry(rs, (1, Fraction(0)))
    for bad in ((0.5, 0.25), (0.1, 0), (1, 1.0), (True, False), (1, True), (False, Fraction(1))):
        with pytest.raises(ValueError, match="neither an int nor a Fraction"):
            entry(rs, bad)


def test_bad_labels_raise():
    for label in (
        "A0", "B1", "C1", "D2", "E5", "E9", "F5", "G3", "H3", "Z9", "A", "4", "",
        "A+4", "A 4", "A04", "A\u0664",  # the rank is ASCII digits, no sign, space or leading zero
    ):
        with pytest.raises(ConfigurationError):
            build(label)


def test_rank_caps_and_env_override(monkeypatch):
    monkeypatch.delenv("ADNIL_MAX_RANK", raising=False)
    for label in ("A10", "B9", "C9", "D9"):
        with pytest.raises(ConfigurationError):
            build(label)
    monkeypatch.setenv("ADNIL_MAX_RANK", "10")
    assert build("A10").rank == 10
    assert build("D9").rank == 9
    # only the label's rank spelling: ASCII digits, no sign, space or leading zero
    for value in ("not-a-number", " \u0661\u0660", "+10", "010", " 10"):
        monkeypatch.setenv("ADNIL_MAX_RANK", value)
        with pytest.raises(ConfigurationError, match="bad ADNIL_MAX_RANK value"):
            build("A10")


def test_d3_matches_a3_counts():
    assert len(build("D3").positive_roots) == len(build("A3").positive_roots)


def test_build_is_cached():
    assert build("A4") is build("A4")
