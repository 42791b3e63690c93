"""Sequences, generating-function counts, lattice points, identity battery."""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from adnil.counting import (
    catalan,
    central_trinomial,
    count_routes,
    count_so2n_borel,
    count_sp2n_borel,
    directed_animals,
    extended_marks,
    gf_count,
    gf_count_from_marks,
    ideal_count,
    lattice_count,
    motzkin,
    next_to_central_trinomial,
    riordan,
    verify_identities,
)
from adnil.ideals import enumerate_ideals, is_strictly_positive
from adnil.linalg import adjugate
from adnil.normalizers import ParabolicLabel, fibers
from adnil.affine import in_max_simplex, in_min_simplex
from adnil.rootsys import _FIXED_RANKS, _RANK_RANGE, build, in_coroot_lattice
from test_cli import _forbid_ideal_walks

SEQUENCES = {
    catalan: (1, 1, 2, 5, 14, 42, 132, 429),
    motzkin: (1, 1, 2, 4, 9, 21, 51, 127),
    riordan: (1, 0, 1, 1, 3, 6, 15, 36),
    central_trinomial: (1, 1, 3, 7, 19, 51, 141),
    next_to_central_trinomial: (0, 1, 2, 6, 16, 45, 126),
}

# one-indexed
DIRECTED_ANIMALS = (1, 2, 5, 13, 35, 96, 267)

# (borel fiber, strictly positive borel fiber) by generating function
GF_TABLE = {
    "A1": (1, 0), "A2": (2, 1), "A3": (4, 1), "A4": (9, 3), "A5": (21, 6),
    "A6": (51, 15),
    "B2": (2, 1), "B3": (5, 2), "B4": (13, 6),
    "C2": (2, 1), "C3": (5, 2), "C4": (13, 6),
    "D4": (11, 4), "D5": (31, 12),
    "E6": (111, 53), "E7": (432, 244), "E8": (2033, 1378),
    "F4": (19, 11), "G2": (2, 1),
}


def test_sequence_prefixes():
    for fn, values in SEQUENCES.items():
        for n, v in enumerate(values):
            assert fn(n) == v, (fn.__name__, n)
    for n, v in enumerate(DIRECTED_ANIMALS, start=1):
        assert directed_animals(n) == v, n
    with pytest.raises(ValueError):
        directed_animals(0)
    with pytest.raises(ValueError):
        catalan(-1)


# Every integer argument refuses a bool or a float: catalan(True) used to
# answer catalan(1), count_sp2n_borel(4, True) the target-1 count, and
# catalan(2.0) raised a TypeError.
INT_ARGUMENT_CASES = {
    "catalan": lambda bad: catalan(bad),
    "motzkin": lambda bad: motzkin(bad),
    "riordan": lambda bad: riordan(bad),
    "central_trinomial": lambda bad: central_trinomial(bad),
    "next_to_central_trinomial": lambda bad: next_to_central_trinomial(bad),
    "directed_animals": lambda bad: directed_animals(bad),
    "count_sp2n_borel-n": lambda bad: count_sp2n_borel(bad, 1),
    "count_sp2n_borel-target": lambda bad: count_sp2n_borel(4, bad),
    "count_so2n_borel-n": lambda bad: count_so2n_borel(bad, 1),
    "count_so2n_borel-target": lambda bad: count_so2n_borel(4, bad),
    "extended_marks": lambda bad: extended_marks("A", bad),
    "gf_count_from_marks-target": lambda bad: gf_count_from_marks((1, 1, 1), bad),
    "gf_count_from_marks-mark": lambda bad: gf_count_from_marks((1, bad, 1), 1),
    "verify_identities": lambda bad: verify_identities(bad),
}


@pytest.mark.parametrize("case", sorted(INT_ARGUMENT_CASES))
def test_int_arguments_refuse_a_bool_or_a_float(case):
    for bad in (True, False, 4.0):
        with pytest.raises(ValueError, match=f"^{bad!r} is not an int$"):
            INT_ARGUMENT_CASES[case](bad)


def test_gf_counts():
    for label, (b, b0) in GF_TABLE.items():
        rs = build(label)
        assert gf_count(rs, 1) == b, label
        assert gf_count(rs, -1) == b0, label


def test_gf_count_from_marks_matches_brute_force():
    # the coefficient counts e with e_i in {-1, 1, 2, ...} and sum c_i e_i = t;
    # c_i e_i <= t + (sum of the other marks), which bounds each e_i
    for label in ("A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D3", "D4", "G2"):
        marks = (1,) + build(label).marks
        for t in (1, -1):
            ranges = [[-1, *range(1, (t + sum(marks)) // c + 1)] for c in marks]
            direct = sum(
                1 for e in product(*ranges) if sum(c * x for c, x in zip(marks, e)) == t
            )
            assert gf_count_from_marks(marks, t) * marks.count(1) == direct, (label, t)


def _dict_gf_count(marks, target):
    """The earlier dict DP over the partial sums d of c_i e_i, kept as a reference.

    Each later factor lowers d by at most its mark, so d above target plus
    the marks still to come can never return to target.
    """
    rest = sum(marks)
    counts = {0: 1}
    for c in marks:
        rest -= c
        top = target + rest
        step: dict[int, int] = {}
        for d, n in counts.items():
            step[d - c] = step.get(d - c, 0) + n
            for v in range(d + c, top + 1, c):
                step[v] = step.get(v, 0) + n
        counts = step
    return counts.get(target, 0) // marks.count(1)


def test_gf_count_from_marks_matches_the_dict_dp():
    cases = [
        extended_marks(family, n)
        for family, low, high in (("A", 1, 60), ("B", 2, 40), ("C", 2, 40), ("D", 3, 40))
        for n in range(low, high + 1)
    ]
    cases += [(1,) + build(label).marks for label in ("G2", "F4", "E6", "E7", "E8")]
    for marks in cases:
        for t in (1, -1):
            assert gf_count_from_marks(marks, t) == _dict_gf_count(marks, t), (marks, t)


def test_gf_count_from_marks_rejects_bad_input():
    for marks, target in (((1, 1), 0), ((1, 0), 1), ((), 1), ((2, 2), 1)):
        with pytest.raises(ValueError):
            gf_count_from_marks(marks, target)
    # (1, 1, 3) is no extended diagram: the coefficient 3 is not a multiple of 2
    with pytest.raises(AssertionError, match="not divisible by 2"):
        gf_count_from_marks((1, 1, 3), -1)


def test_gf_count_from_marks_matches_build():
    for label, family, rank in (("A3", "A", 3), ("B3", "B", 3), ("C4", "C", 4), ("D5", "D", 5)):
        rs = build(label)
        marks = extended_marks(family, rank)
        for target in (1, -1):
            assert gf_count_from_marks(marks, target) == gf_count(rs, target)


def test_extended_marks_prepend_the_affine_node():
    assert extended_marks("A", 3) == (1, 1, 1, 1)
    assert extended_marks("B", 3) == (1, 1, 2, 2)
    assert extended_marks("C", 3) == (1, 2, 2, 1)
    assert extended_marks("D", 4) == (1, 1, 2, 1, 1)


def test_symplectic_closed_forms():
    for n in range(2, 9):
        assert count_sp2n_borel(n, 1) == directed_animals(n)
        assert count_sp2n_borel(n, -1) == (n - 1) * motzkin(n - 2)
        marks = extended_marks("C", n)
        for target in (1, -1):
            assert count_sp2n_borel(n, target) == gf_count_from_marks(marks, target)


def test_even_orthogonal_closed_forms():
    for n in range(4, 9):
        marks = extended_marks("D", n)
        for target in (1, -1):
            assert count_so2n_borel(n, target) == gf_count_from_marks(marks, target)


def test_gf_equals_borel_fiber_enumeration():
    for label in ("A4", "B3", "C4", "D4", "F4", "G2"):
        rs = build(label)
        members, _ = fibers(rs)[ParabolicLabel(rs.rank, frozenset())]
        assert gf_count(rs, 1) == len(members), label
        assert gf_count(rs, -1) == sum(
            1 for c in members if is_strictly_positive(c)
        ), label


# Ideals by number of generators (Narayana numbers), tabulated in Armstrong,
# Mem. AMS 202 (2009), for the types without a closed form below.
NARAYANA = {
    "E6": (1, 36, 204, 351, 204, 36, 1),
    "E7": (1, 63, 546, 1470, 1470, 546, 63, 1),
    "E8": (1, 120, 1540, 6120, 9518, 6120, 1540, 120, 1),
    "F4": (1, 24, 55, 24, 1),
    "G2": (1, 6, 1),
}


def _narayana(family, n):
    """Ideals with k = 0..n generators, all and strictly positive (None: no closed form)."""
    ks = range(n + 1)
    if family == "A":  # the strict row is the A_{n-1} row padded with a 0
        nar = [comb(n + 1, k) * comb(n + 1, k + 1) // (n + 1) for k in ks]
        return nar, [comb(n, k) * comb(n, k + 1) // n for k in ks]
    if family in "BC":
        return [comb(n, k) ** 2 for k in ks], [comb(n, k) * comb(n - 1, k) for k in ks]
    if family == "D":
        lower = [comb(n - 1, k) * comb(n - 1, k - 1) if k else 0 for k in ks]
        return [comb(n, k) ** 2 - Fraction(n * low, n - 1) for k, low in zip(ks, lower)], None
    return list(NARAYANA[f"{family}{n}"]), None


def test_lattice_counts_match_ideal_counts():
    # every type under the default rank caps, E7 and E8 included; the same walk
    # tallies the ideals by number of generators against the Narayana numbers
    labels = [f"{fam}{n}" for fam, (lo, hi) in _RANK_RANGE.items() for n in range(lo, hi + 1)]
    labels += [f"{fam}{n}" for fam, ranks in _FIXED_RANKS.items() for n in ranks]
    assert len(labels) == 34
    for label in labels:
        rs = build(label)
        every, positive = [0] * (rs.rank + 1), [0] * (rs.rank + 1)
        for c in enumerate_ideals(rs):
            k = c._generator_bits().bit_count()
            every[k] += 1
            positive[k] += is_strictly_positive(c)
        nar, nar_positive = _narayana(rs.family, rs.rank)
        assert every == nar, label
        assert nar_positive is None or positive == nar_positive, label
        strict = sum(positive)
        assert lattice_count(rs, "min").count == ideal_count(rs), label
        assert lattice_count(rs, "max").count == strict, label
        assert lattice_count(rs, "min", off_walls=True).count == gf_count(rs, 1), label
        assert lattice_count(rs, "max", off_walls=True).count == gf_count(rs, -1), label


def test_index_connectedness_factor():
    for label in ("A3", "B3", "D4", "E6", "G2"):
        rs = build(label)
        for which in ("min", "max"):
            coroot = lattice_count(rs, which).count
            coweight = lattice_count(rs, which, lattice="coweight").count
            assert coweight == rs.f * coroot, (label, which)


def test_carried_classes_match_the_per_point_coroot_test():
    # the walk's class tables against adj y = 0 mod f at every coweight point,
    # in walk order; D4 and D6 have the non-cyclic class group Z2 x Z2
    start = time.monotonic()
    labels = [f"A{n}" for n in range(1, 8)] + [f"B{n}" for n in range(2, 7)]
    labels += [f"C{n}" for n in range(2, 7)] + [f"D{n}" for n in range(4, 8)]
    for label in labels + ["E6", "E7", "F4", "G2"]:
        rs = build(label)
        f, adj = adjugate(rs.cartan)
        for which, off_walls in product(("min", "max"), (False, True)):
            coweight = lattice_count(rs, which, off_walls, lattice="coweight").points
            expected = tuple(
                y for y in coweight
                if not any(sum(a * yi for a, yi in zip(row, y)) % f for row in adj)
            )
            assert lattice_count(rs, which, off_walls).points == expected, (label, which)
    assert time.monotonic() - start < 10


def test_integer_coroot_test_matches_the_fraction_definition():
    # index of connection 4, 4, 3, 2; x = sum y_i omega_i-coweight
    for label, f in (("A3", 4), ("D4", 4), ("E6", 3), ("E7", 2)):
        rs = build(label)
        assert rs.f == f
        coweights = [w.coords for w in rs.fundamental_coweights]
        for which, inside in (("min", in_min_simplex), ("max", in_max_simplex)):
            result = lattice_count(rs, which)
            for y in result.points:
                x = tuple(
                    sum(yi * cw[j] for yi, cw in zip(y, coweights) if yi)
                    for j in range(rs.rank)
                )
                assert in_coroot_lattice(rs, x) and inside(rs, x), (label, which, y)
            coweight = lattice_count(rs, which, lattice="coweight")
            assert coweight.count == f * result.count, (label, which)


def test_a2_lattice_points_pinned():
    rs = build("A2")
    result = lattice_count(rs, "min")
    assert result.points == ((-1, -1), (-1, 2), (0, 0), (1, 1), (2, -1))
    assert result.count == 5
    assert lattice_count(rs, "max").points == ((1, 1), (0, 0))


def test_lattice_count_leaves_no_garbage_cycle():
    # the recursive walk closes over itself; left as it was, that cycle kept
    # every point alive until the cyclic collector next ran
    rs = build("B3")
    gc.collect()
    gc.disable()
    try:
        assert lattice_count(rs, "min").count == 20
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lattice_count_rejects_bad_arguments():
    rs = build("A2")
    with pytest.raises(ValueError):
        lattice_count(rs, "mid")
    with pytest.raises(ValueError):
        lattice_count(rs, "min", lattice="weird")


def test_identity_battery():
    checks = verify_identities(12)
    assert len(checks) == 226
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert len(names) > 10
    for c in checks:
        assert c.lhs == c.rhs


def test_identity_battery_small_bound():
    checks = verify_identities(4)
    assert checks and all(c.passed for c in checks)


def test_ideal_count_from_exponents():
    known = {"G2": 8, "B3": 20, "D4": 50, "F4": 105, "E6": 833, "E7": 4160, "E8": 25080}
    for label, n in known.items():
        assert ideal_count(build(label)) == n, label
    for label in ("A4", "C3", "B4", "D5", "E6", "E7", "E8"):
        rs = build(label)
        assert ideal_count(rs) == sum(1 for _ in enumerate_ideals(rs)), label


@pytest.mark.parametrize("label, fiber", [("G2", (2, 1)), ("D4", (11, 4)), ("E6", (111, 53))])
def test_count_routes_pair_every_route_and_the_ideal_counts(label, fiber):
    rs = build(label)
    routes, ideals = count_routes(rs)
    assert routes == {"gf": fiber, "lattice": fiber, "enumeration": fiber}
    assert list(routes) == ["gf", "lattice", "enumeration"]
    strict = sum(1 for ideal in enumerate_ideals(rs) if is_strictly_positive(ideal))
    assert ideals == (ideal_count(rs), strict)


def test_count_routes_drop_the_lattice_beyond_rank_8(monkeypatch):
    monkeypatch.setenv("ADNIL_MAX_RANK", "10")
    routes, ideals = count_routes(build("A10"))
    assert list(routes) == ["gf", "enumeration"]
    assert routes["enumeration"] == routes["gf"] == (motzkin(10), riordan(10))
    assert ideals == (catalan(11), catalan(10))


def test_count_routes_skip_the_walk_beyond_the_enumeration_limit(monkeypatch):
    monkeypatch.setenv("ADNIL_MAX_RANK", "15")
    _forbid_ideal_walks(monkeypatch)  # 35,357,670 ideals
    assert count_routes(build("A15")) == ({"gf": (310572, 83097)}, None)
