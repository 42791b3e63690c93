"""Dominant regions of the height-one hyperplane arrangement."""

from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

import adnil.affine
import adnil.shi
from adnil.affine import alcove_barycenter, identity_element, simple_reflection, star, w_min
from adnil.ideals import close_upward, enumerate_ideals
from adnil.normalizers import normalizer
from adnil.rootsys import build, inner
from adnil.shi import (
    _boundary_rows,
    _rows_hold,
    alcove_membership,
    feasible,
    in_region,
    is_wall,
    region_witness,
    wall_levi,
)


def _holds(rows, y):
    """Whether y satisfies every strict row (normal, bound, relation)."""
    for normal, bound, relation in rows:
        value = sum(a * v for a, v in zip(normal, y))
        if not (value > bound if relation == ">" else value < bound):
            return False
    return True


def test_feasible_solves_strict_systems_exactly():
    rows = [((1, 0), 1, ">"), ((0, 1), 1, "<"), ((1, 1), 3, "<")]
    witness = feasible(2, rows)
    assert witness is not None
    assert _holds(rows, witness)
    assert all(isinstance(c, Fraction) for c in witness)


def test_feasible_scales_fractional_rows():
    # x/2 - 2y/3 > 1/5, 3x/4 + y/3 < 7/6 and -5x/2 + y/7 > -1/3, each row
    # multiplied by the lcm of its denominators
    rows = [((15, -20), 6, ">"), ((9, 4), 14, "<"), ((-105, 6), -14, ">")]
    witness = feasible(2, rows)
    assert witness is not None
    assert _holds(rows, witness)
    # x/3 > 1/2 and x/2 < 3/4 meet only in the boundary point x = 3/2
    assert feasible(1, [((2,), 3, ">"), ((2,), 3, "<")]) is None


def test_feasible_detects_empty_systems():
    assert feasible(1, [((1,), 0, ">"), ((1,), 0, "<")]) is None


def test_feasible_rejects_malformed_rows():
    bad = (
        ([((1, 0), 1, ">=")], "relation"),
        ([((0, 0), 1, ">")], "zero normal"),
        ([((1,), 1, ">")], "length"),
        ([((1, 0, 0), 1, ">")], "length"),
        ([((Fraction(1, 2), 0), 1, ">")], "non-int"),
        ([((Fraction(2), 0), 1, ">")], "non-int"),
        ([((1, 0), Fraction(1, 2), ">")], "non-int"),
        ([((True, 0), 1, ">")], "non-int"),
        ([((1, 0), False, "<")], "non-int"),
    )
    for rows, message in bad:
        with pytest.raises(ValueError, match=message):
            feasible(2, rows)
    for dimension in (-1, 1.0, "2", None):
        with pytest.raises(ValueError, match="dimension"):
            feasible(dimension, [])


def _fourier_motzkin(dimension, rows):
    """Whether a strict system is feasible, by Fourier-Motzkin elimination.

    Each row is turned into a.x > b.  Eliminating x_k pairs every row with
    a_k > 0 with every row with a_k < 0 under positive multipliers; strict
    rows stay strict, and the projection is exact.  With no variables left
    each row reads 0 > b.
    """
    system = [(a, b) if r == ">" else (tuple(-v for v in a), -b) for a, b, r in rows]
    for k in range(dimension):
        lower = [row for row in system if row[0][k] > 0]
        upper = [row for row in system if row[0][k] < 0]
        system = [row for row in system if row[0][k] == 0]
        for a, b in lower:
            for c, d in upper:
                p, q = -c[k], a[k]
                system.append((tuple(p * x + q * y for x, y in zip(a, c)), p * b + q * d))
    return all(b < 0 for _, b in system)


def _random_systems(seed, count):
    """Seeded strict systems in 1 to 3 dimensions, both relations mixed."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 5)):
            normal = tuple(rng.randint(-3, 3) for _ in range(p))
            if any(normal):
                rows.append((normal, rng.randint(-4, 4), rng.choice("<>")))
        yield p, rows


# SHA-256 of the feasible witnesses of _random_systems(11, 3000), one
# "c1,...,cp" line per system and "-" for an infeasible one.
RANDOM_SYSTEM_DIGEST = "0961981209ad45468560af32767289f6a5822cf8a9ee4090dabbbeeb43270253"


def test_feasible_matches_fourier_motzkin_on_random_systems():
    digest = hashlib.sha256()
    infeasible = negative = 0
    for p, rows in _random_systems(11, 3000):
        witness = feasible(p, rows)
        assert (witness is None) == (not _fourier_motzkin(p, rows)), (p, rows)
        if witness is None:
            infeasible += 1
            digest.update(b"-\n")
            continue
        assert _holds(rows, witness), (p, rows, witness)
        negative += any(v < 0 for v in witness)
        digest.update((",".join(str(v) for v in witness) + "\n").encode())
    # both answers and witnesses off the positive orthant are exercised
    assert infeasible > 500 and negative > 1000
    assert digest.hexdigest() == RANDOM_SYSTEM_DIGEST


# SHA-256 of the region witnesses of every ideal, one "c1,...,cp" line each
# in enumerate_ideals order; the Shi LP is deterministic down to the byte.
WITNESS_DIGESTS = {
    "G2": "10b02b3f2cab18adcaa641910407ad5f347eb44af3e3700ed8988271b3a73d8f",
    "B3": "b11e605d301bce78edf6b90dd8381f01a468728712f2d52d02f6e945084dffab",
    "C3": "b6edbc8c38a5a8565be7cdbf4d304ac710e24fe3cc3965a717def1bf4871c781",
    "D4": "db3de2422c60b611c27f2b9141d164a26268f64b138161f4297b0b19bb3087cf",
    "F4": "61b4992c30a57b149c0e8c76d1ab987101eb84bdea6cdbef2638ebddb8f77614",
}


def test_region_witnesses_are_pinned():
    for label, expected in WITNESS_DIGESTS.items():
        digest = hashlib.sha256()
        for c in enumerate_ideals(build(label)):
            line = ",".join(str(v) for v in region_witness(c).coords) + "\n"
            digest.update(line.encode())
        assert digest.hexdigest() == expected, label


def test_every_region_is_nonempty_and_separated():
    for label in ("A2", "B2", "B3", "C3", "G2", "F4"):
        rs = build(label)
        ideals = list(enumerate_ideals(rs))
        witnesses = []
        for c in ideals:
            x = region_witness(c)
            assert in_region(c, x)
            witnesses.append(x)
        # a witness for one region violates every other region
        for i, c in enumerate(ideals):
            for j, x in enumerate(witnesses):
                assert in_region(c, x) == (i == j), (label, c, j)


def test_region_constraints_split_by_height_one():
    rs = build("A2")
    for c in enumerate_ideals(rs):
        x = region_witness(c).coords
        for k, root in enumerate(rs.positive_roots):
            value = inner(rs, x, root.coeffs)
            if (c.bits >> k) & 1:
                assert value > 1
            else:
                assert 0 < value < 1


def test_barycenter_lies_in_the_empty_region():
    for label in ("A3", "C3", "G2"):
        rs = build(label)
        empty = next(iter(enumerate_ideals(rs)))
        assert empty.bits == 0
        assert in_region(empty, alcove_barycenter(rs))


BOUNDARY_TYPES = ("A2", "B3", "C3", "G2", "F4")


def _point(rs, y):
    """The point x with (x, alpha_i) = y_i, as sum(y_i * omega_i-coweight)."""
    return tuple(
        sum(yi * w.coords[j] for yi, w in zip(y, rs.fundamental_coweights))
        for j in range(rs.rank)
    )


def test_points_on_a_wall_lie_in_no_region():
    # Move each witness onto (x, gamma) = 1 for every positive root gamma, or
    # onto (x, alpha_i) = 0 for every simple root.  The regions that could
    # contain such a point if a comparison were not strict are those of the
    # ideals between {gamma : (x, gamma) > 1} and {gamma : (x, gamma) >= 1}.
    # The pairings are read off y here; the grid test checks them against inner.
    for label in BOUNDARY_TYPES:
        rs = build(label)
        ideals = list(enumerate_ideals(rs))
        for c in ideals:
            y = rs.pairings(region_witness(c))
            points = []
            for root in rs.positive_roots:
                value = sum(k * v for k, v in zip(root.coeffs, y))
                points.append(tuple(v / value for v in y))
            for i in range(rs.rank):
                points.append(tuple(0 if j == i else v for j, v in enumerate(y)))
            for yp in points:
                x = _point(rs, yp)
                values = [sum(k * v for k, v in zip(r.coeffs, yp)) for r in rs.positive_roots]
                assert 1 in values or 0 in yp
                above = sum(1 << g for g, v in enumerate(values) if v > 1)
                on_or_above = sum(1 << g for g, v in enumerate(values) if v >= 1)
                near = [d for d in ideals if above & ~d.bits == 0 and d.bits & ~on_or_above == 0]
                assert near, (label, c, yp)
                for d in near:
                    assert not in_region(d, x), (label, c, yp, d)


def test_membership_matches_direct_evaluation_on_a_grid():
    steps = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
    for label in BOUNDARY_TYPES:
        rs = build(label)
        ideals = list(enumerate_ideals(rs))
        for y in product(steps, repeat=rs.rank):
            x = _point(rs, y)
            positive = all(inner(rs, x, rs.positive_roots[g]) > 0 for g in rs.simple_index)
            values = [inner(rs, x, root) for root in rs.positive_roots]
            for c in ideals:
                expected = positive and all(
                    v > 1 if (c.bits >> g) & 1 else v < 1 for g, v in enumerate(values)
                )
                assert in_region(c, x) == expected, (label, y, c)


def test_wall_test_matches_normalizer():
    for label in ("A3", "B2", "G2"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            levi = normalizer(c).levi
            for a in range(rs.rank):
                assert is_wall(c, a) == (a in levi), (label, c, a)


def test_wall_of_a_simple_root_with_a_zero_row():
    # Dropping the pairing with alpha_a leaves a row with a zero normal when
    # alpha_a generates the ideal (0 > 1: never a wall) or is maximal in the
    # complement (0 < 1: the row is void).
    rs = build("A2")
    assert not is_wall(close_upward(rs, [(1, 0)]), 0)
    assert is_wall(close_upward(rs, [(0, 1)]), 0)
    for label in ("A3", "B3", "D4", "G2", "F4"):
        rs = build(label)
        for a, g in enumerate(rs.simple_index):
            generated = close_upward(rs, [rs.positive_roots[g]])
            assert not is_wall(generated, a)
            assert a not in normalizer(generated).levi
            covers = [r for j, r in enumerate(rs.positive_roots) if (rs.up[g] >> j) & 1]
            below = close_upward(rs, covers)
            assert not below.contains(rs.positive_roots[g])
            assert is_wall(below, a) == (a in normalizer(below).levi), (label, a)


def _check_walls_and_witnesses(ideals):
    # the certificates of wall_levi against the pure-LP is_wall, per wall
    for c in ideals:
        assert in_region(c, region_witness(c)), c
        label = normalizer(c)
        assert wall_levi(c, w_min(c)) == label, c
        for a in range(c.rs.rank):
            assert is_wall(c, a) == (a in label.levi), (c, a)


def test_each_wall_certificate_alone_matches_the_lp(monkeypatch):
    # An empty Farkas table leaves every non-wall to the point test and the
    # LP, here with the points of w_min and of s_1, whose point leaves the
    # dominant chamber; a candidate point at the origin leaves every wall to
    # the LP.
    cases = [
        (c, w)
        for label in ("A2", "B3", "D4", "F4")
        for c in enumerate_ideals(build(label))
        for w in (w_min(c), simple_reflection(c.rs, 1))
    ]
    with monkeypatch.context() as patch:
        patch.setattr(adnil.shi, "_dominated", lambda rs: [[0] * len(rs.up)] * rs.rank)
        for c, w in cases:
            assert wall_levi(c, w) == normalizer(c), c
    monkeypatch.setattr(adnil.shi, "_alcove_pairings", lambda w: ([0] * w.rs.rank, 1))
    for c, w in cases:
        assert wall_levi(c, w) == normalizer(c), c


def test_wall_levi_answers_do_not_depend_on_w():
    # w only proposes the point of the wall certificate: the identity,
    # other ideals' w_min and non-dominant reflections, whose points leave
    # the dominant chamber, cost fallbacks but leave every answer
    for label in ("D4", "F4"):
        rs = build(label)
        ideals = list(enumerate_ideals(rs))
        minimal = [w_min(c) for c in ideals]
        reflections = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
        for k, c in enumerate(ideals):
            expected = normalizer(c)
            others = (minimal[k - 1], minimal[(7 * k + 3) % len(ideals)])
            for w in (identity_element(rs), *others, *reflections):
                assert wall_levi(c, w) == expected, (label, c, w)


def test_wall_levi_rejects_an_element_of_another_root_system():
    c = next(iter(enumerate_ideals(build("A2"))))
    with pytest.raises(ValueError, match="different root systems"):
        wall_levi(c, identity_element(build("G2")))


def test_walls_and_witnesses_on_every_e6_ideal():
    ideals = list(enumerate_ideals(build("E6")))
    assert len(ideals) == 833
    _check_walls_and_witnesses(ideals)


def test_walls_and_witnesses_on_an_e7_sample():
    ideals = list(enumerate_ideals(build("E7")))[::13]
    assert len(ideals) == 320
    _check_walls_and_witnesses(ideals)


def _positivity(n):
    """The rows y_i > 0 of n free variables, as feasible takes them."""
    return [(tuple(int(i == k) for i in range(n)), 0, ">") for k in range(n)]


def test_orthant_walls_match_the_free_split_solve(monkeypatch):
    # The reference is the free-split solve on the positivity rows of the
    # kept pairings followed by the boundary rows projected onto them, each
    # signed row (normal, bound) given as normal.y > bound; a projected row
    # with a zero normal reads 0 > bound and means no wall when bound >= 0.
    # For the witness, every pairing is kept and y is mapped back by the
    # inline coweight sum.
    samples = [
        list(enumerate_ideals(build(label)))
        for label in ("G2", "B3", "C3", "D4", "F4", "B4", "C4", "D5", "A5")
    ]
    samples.append(list(enumerate_ideals(build("E7")))[::13])
    for ideals in samples:
        rs = ideals[0].rs
        p = rs.rank
        positive, kept = _positivity(p), _positivity(p - 1)
        for c in ideals:
            rows = _boundary_rows(c)
            y = feasible(p, positive + [(n, b, ">") for n, b in rows])
            assert region_witness(c).coords == _point(rs, y), c
            levi = wall_levi(c, w_min(c)).levi
            for a in range(p):
                projected = [(n[:a] + n[a + 1 :], b) for n, b in rows]
                expected = not any(b >= 0 and not any(n) for n, b in projected) and (
                    feasible(p - 1, kept + [(n, b, ">") for n, b in projected if any(n)])
                    is not None
                )
                assert is_wall(c, a) == expected == (a in levi), (c, a)

    def no_solve(*args):
        raise AssertionError("a generating simple root needs no solve")

    monkeypatch.setattr(adnil.shi, "_max_margin", no_solve)
    for label in ("A3", "B3", "D4", "G2", "F4"):
        rs = build(label)
        for a, g in enumerate(rs.simple_index):
            generated = close_upward(rs, [rs.positive_roots[g]])
            assert not is_wall(generated, a)


def test_wall_levi_builds_the_rows_only_for_an_lp(monkeypatch):
    builds, solves = [], []
    max_margin = adnil.shi._max_margin

    def counted_rows(ideal):
        builds.append(ideal)
        return _boundary_rows(ideal)

    def counted_solve(rows, k):
        solves.append(k)
        return max_margin(rows, k)

    monkeypatch.setattr(adnil.shi, "_boundary_rows", counted_rows)
    monkeypatch.setattr(adnil.shi, "_max_margin", counted_solve)
    # the identity proposes a poor point, so some walls fall back to the LP:
    # the rows are then built once per ideal, and only where a solve runs
    fallbacks = 0
    for label in ("D4", "F4"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            builds.clear()
            solves.clear()
            assert wall_levi(c, identity_element(rs)) == normalizer(c), c
            assert builds == ([c] if solves else []), c
            fallbacks += bool(solves)
    assert fallbacks > 0

    def no_solve(*args):
        raise AssertionError("every wall of D4 has a certificate at w_min")

    # with w = w_min the certificates settle every wall of D4: no rows, no solve
    monkeypatch.setattr(adnil.shi, "_max_margin", no_solve)
    builds.clear()
    for c in enumerate_ideals(build("D4")):
        assert wall_levi(c, w_min(c)) == normalizer(c), c
    assert builds == []


def _rows_hold_by_dot_products(ideal, y, d):
    """The region test with each root's pairing formed as a p-term dot product."""
    bits = ideal.bits
    values = (sum(c * v for c, v in zip(root.coeffs, y)) for root in ideal.rs.positive_roots)
    return min(y) > 0 and all(
        value > d if (bits >> g) & 1 else value < d for g, value in enumerate(values)
    )


def test_split_row_test_matches_the_dot_products():
    # every E6 witness against its own region and against other regions,
    # then the minimal alcove points of B3, D4 and F4 against every region,
    # also moved onto the hyperplanes (x, gamma) = 1 by taking d = gamma.y
    rs = build("E6")
    ideals = list(enumerate_ideals(rs))
    rng = random.Random(5)
    for k, c in enumerate(ideals):
        y, d = rs._scaled_pairings(region_witness(c))
        for other in (c, ideals[k - 1], ideals[rng.randrange(len(ideals))]):
            got = _rows_hold(other, y, d)
            assert got == _rows_hold_by_dot_products(other, y, d) == (other.bits == c.bits)
    for label in ("B3", "D4", "F4"):
        rs = build(label)
        ideals = list(enumerate_ideals(rs))
        for a in ideals:
            y, d = adnil.shi._alcove_pairings(w_min(a))
            on_walls = {sum(map(mul, root.coeffs, y)) for root in rs.positive_roots[::4]}
            for b in ideals:
                assert _rows_hold(b, y, d) == _rows_hold_by_dot_products(b, y, d) == (a is b)
                for e in on_walls:
                    assert _rows_hold(b, y, e) == _rows_hold_by_dot_products(b, y, e)


def test_integer_alcove_membership_matches_the_fraction_route():
    def check(rs, pairs):
        image = {}
        for w, b in pairs:
            if w not in image:
                image[w] = star(w.inverse(), alcove_barycenter(rs))
            assert alcove_membership(w, b) == in_region(b, image[w]), (w, b)

    for label in ("G2", "B3", "D4", "F4"):
        rs = build(label)
        ideals = list(enumerate_ideals(rs))
        check(rs, [(w_min(a), b) for a in ideals for b in ideals])
    rs = build("E6")
    ideals = list(enumerate_ideals(rs))
    rng = random.Random(7)
    picks = [(rng.randrange(len(ideals)), rng.randrange(len(ideals))) for _ in range(200)]
    check(rs, [(w_min(ideals[a]), ideals[b]) for a, b in picks])


def test_is_wall_rejects_bad_index():
    rs = build("A2")
    c = next(iter(enumerate_ideals(rs)))
    with pytest.raises(ValueError):
        is_wall(c, 2)
    with pytest.raises(ValueError):
        is_wall(c, -1)


def test_is_wall_rejects_non_integer_index():
    # 0.5 passed the range check alone and gave a wrong answer; True passed
    # isinstance(simple, int)
    rs = build("A2")
    c = list(enumerate_ideals(rs))[2]
    assert not is_wall(c, 0)
    for bad in (0.5, 1.0, Fraction(1), True, False):
        why = re.escape(f"simple root index {bad!r} is not an int")
        with pytest.raises(ValueError, match=f"^{why}$"):
            is_wall(c, bad)
    with pytest.raises(ValueError, match="^simple root index 2 out of range$"):
        is_wall(c, 2)


def test_minimal_alcove_sits_in_its_region():
    for label in ("A2", "A3", "B2"):
        rs = build(label)
        ideals = list(enumerate_ideals(rs))
        for c in ideals:
            assert alcove_membership(w_min(c), c)
        for c in ideals:
            w = w_min(c)
            for other in ideals:
                if other.bits != c.bits:
                    assert not alcove_membership(w, other)


def test_alcove_membership_reads_the_inverse_matrix(monkeypatch):
    # the point comes from w.inverse_matrix alone: no translation is re-derived
    ideals = list(enumerate_ideals(build("D4")))
    minimal = [w_min(c) for c in ideals]
    calls = []
    translation_data = adnil.affine._translation_data

    def counted(rs, z):
        calls.append(rs)
        return translation_data(rs, z)

    monkeypatch.setattr(adnil.affine, "_translation_data", counted)
    for a, w in enumerate(minimal):
        for b, c in enumerate(ideals):
            assert alcove_membership(w, c) == (a == b), (a, b)
    assert calls == []


def test_alcove_membership_requires_dominance():
    rs = build("A2")
    c = next(iter(enumerate_ideals(rs)))
    with pytest.raises(ValueError):
        alcove_membership(simple_reflection(rs, 1), c)


def test_alcove_membership_rejects_mismatched_root_systems():
    identity = identity_element(build("A2"))
    assert alcove_membership(identity, next(iter(enumerate_ideals(build("A2")))))
    empty_g2 = next(iter(enumerate_ideals(build("G2"))))
    with pytest.raises(ValueError, match="different root systems"):
        alcove_membership(identity, empty_g2)
