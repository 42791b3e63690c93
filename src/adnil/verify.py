"""Verification suites: the reference table, normalizer oracles, affine and
Shi laws, counting routes, the sl/sp coordinate models, identities.

Each suite returns ``(check, detail)`` rows, or raises `VerificationFailure`
at the first counterexample.  Failure payloads hold the failing values
themselves (ideals, parabolic labels, vectors); the command line renders
them.
"""

from __future__ import annotations

import random
from functools import cache
from math import comb
from typing import Callable

from . import typeac
from .affine import (
    _length_and_layer,
    check_inversion_sum,
    factorize,
    first_layer,
    from_word,
    is_dominant,
    is_maximal_representative,
    is_minimal_representative,
    is_minimax,
    n_set,
    normalizer_by_zwall,
    translation_element,
    w_max,
    w_min,
    word_from_biconvex,
)
from .counting import (
    catalan,
    count_routes,
    count_so2n_borel,
    count_sp2n_borel,
    directed_animals,
    enumeration_skip,
    extended_marks,
    gf_count_from_marks,
    lattice_count,
    motzkin,
    riordan,
    verify_identities,
)
from .ideals import (
    UpperIdeal,
    enumerate_ideals,
    ideal_powers,
    is_abelian,
    is_strictly_positive,
    weight,
)
from .normalizers import ParabolicLabel, fibers, nilradical, normalizer, normalizer_by_weight
from .rootsys import ConfigurationError, build, in_coroot_lattice
from .shi import alcove_membership, in_region, region_witness, wall_levi

__all__ = [
    "VerificationFailure",
    "run_table7",
    "run_suites",
    "suite_runners",
    "ideal_table",
    "normalizer_routes",
    "suite_normalizer_oracles",
    "suite_affine",
    "suite_shi",
    "suite_counting",
    "suite_typeac",
    "suite_identities",
    "ORACLE_TYPES",
    "COUNTING_TYPES",
    "TABLE_ROWS",
    "SUITES",
]

ORACLE_TYPES = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "C2", "C3", "D4", "G2", "F4")
COUNTING_TYPES = ORACLE_TYPES[:5] + (
    "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "F4", "G2", "E6",
)
TABLE_ROWS = (
    ("so_8", "D4", 9, 11),
    ("so_10", "D5", 23, 31),
    ("E6", "E6", 67, 111),
    ("F4", "F4", 17, 19),
    ("G2", "G2", 3, 2),
)
RANDOM_WORDS = 1000  # random words per type in the affine suite
SUITES = ("normalizer-oracles", "affine", "shi", "counting", "typeAC", "identities", "all")


class VerificationFailure(Exception):
    """First counterexample found by a verification suite."""

    def __init__(self, check: str, payload: dict):
        super().__init__(check)
        self.check = check
        self.payload = payload


def _fail(check: str, **payload):
    raise VerificationFailure(check, payload)


def _require(condition: bool, check: str, **payload) -> None:
    if not condition:
        _fail(check, **payload)


def _simple_image_levi(w) -> ParabolicLabel:
    """Levi read off which finite simples map to affine simple roots.

    Column a of w.matrix holds w(alpha_{a+1}) as (finite part, level): it is
    simple with level 0 and a unit finite part, or with level 1 and finite
    part -theta (alpha_0 = delta - theta).
    """
    p = w.rs.rank
    minus_theta = tuple(-c for c in w.rs.marks)
    levi = frozenset(
        a
        for a, (*finite, level) in enumerate(zip(*(row[:p] for row in w.matrix[: p + 1])))
        if (level == 0 and finite.count(1) == 1 and finite.count(0) == p - 1)
        or (level == 1 and tuple(finite) == minus_theta)
    )
    return ParabolicLabel._make(p, levi)


def normalizer_routes(ideal: UpperIdeal, w) -> dict[str, ParabolicLabel]:
    """The normalizer of an ideal by five independent routes; w = w_min(ideal)."""
    return {
        "generators": normalizer(ideal),
        "weight": normalizer_by_weight(ideal),
        "minimal-element": _simple_image_levi(w),
        "shi-walls": wall_levi(ideal, w),
        "z-walls": normalizer_by_zwall(w),
    }


# ---------- reference table ----------


def run_table7() -> tuple[list[tuple[str, str, int, int, str, str]], list[str]]:
    """Recompute the minimax/borel-fiber table; return rows and mismatched cells.

    The borel-fiber cell is the enumeration count of `count_routes`; a row
    whose counting routes disagree is a mismatch too.
    """
    rows = []
    failures = []
    for algebra, label, want_mm, want_b in TABLE_ROWS:
        rs = build(label)
        n_mm = sum(1 for ideal in enumerate_ideals(rs) if is_minimax(ideal))
        routes, _ = count_routes(rs)
        n_b = routes["enumeration"][0]
        bad = []
        if n_mm != want_mm:
            bad.append(f"{label} minimax: computed {n_mm}, expected {want_mm}")
        if n_b != want_b:
            bad.append(f"{label} borel-fiber: computed {n_b}, expected {want_b}")
        if any(pair != routes["gf"] for pair in routes.values()):
            pairs = ", ".join(f"{r} {a}/{s}" for r, (a, s) in routes.items())
            bad.append(f"{label} borel-fiber routes disagree (all/strict): {pairs}")
        failures += bad
        status = "MISMATCH" if bad else "ok"
        rows.append((algebra, label, n_mm, n_b, f"{want_mm}/{want_b}", status))
    return rows, failures


# ---------- suites ----------


def ideal_table(label: str) -> tuple:
    """The root system, its ideals in walk order, and the w_min of each;
    `suite_runners` builds one list of these per run for the per-ideal suites."""
    rs = build(label)
    ideals = list(enumerate_ideals(rs))
    return rs, ideals, [w_min(ideal) for ideal in ideals]


def suite_normalizer_oracles(tables) -> list[tuple[str, str]]:
    """Five independent normalizer computations agree on every ideal."""
    results = []
    for rs, ideals, minimal in tables:
        for ideal, w in zip(ideals, minimal):
            got = normalizer_routes(ideal, w)
            if len(set(got.values())) != 1:
                _fail("five-way-normalizer", type=rs.label, ideal=ideal, labels=got)
        results.append((f"five-way-normalizer[{rs.label}]", f"{len(ideals)} ideals"))
    return results


def _random_word(rng: random.Random, rank: int) -> tuple[int, ...]:
    n = rng.randrange(0, 25)
    return tuple(rng.randrange(0, rank + 1) for _ in range(n))


def suite_affine(tables, seed: int) -> list[tuple[str, str]]:
    """Weights, extremal elements, lattice bijections, and random-word laws."""
    results = []
    for rs, ideals, minimal in tables:
        label = rs.label

        seen = {}
        for ideal in ideals:
            coords = weight(ideal).coords
            _require(
                min(rs._scaled_pairings(coords)[0]) >= 0,  # signs of the coroot pairings
                "weight-dominance",
                type=label,
                ideal=ideal,
            )
            if coords in seen:
                _fail("weight-injectivity", type=label, ideal=ideal, other=seen[coords])
            seen[coords] = ideal
        results.append((f"weights[{label}]", f"{len(ideals)} ideals"))

        z_points = set()
        for ideal, w in zip(ideals, minimal):
            n, layer = _length_and_layer(w)
            ok = (
                is_minimal_representative(w)
                and layer == ideal.bits
                and len(w.word) == n
                and n == sum(p.size for p in ideal_powers(ideal).powers)
            )
            _require(ok, "minimal-element-flags", type=label, ideal=ideal)
            z_points.add(factorize(w).pairings)
        lattice_min = lattice_count(rs, "min")
        _require(
            z_points == set(lattice_min.points)
            and lattice_min.count == len(ideals),
            "z-lattice-bijection",
            type=label,
            ideals=len(ideals),
            lattice=lattice_min.count,
        )
        results.append((f"z-lattice-bijection[{label}]", f"{len(ideals)} points"))

        strict = [(c, w) for c, w in zip(ideals, minimal) if is_strictly_positive(c)]
        y_points = set()
        for ideal, wmin in strict:
            w = w_max(ideal)
            n, layer = _length_and_layer(w)
            ok = is_maximal_representative(w) and layer == ideal.bits and len(w.word) == n
            _require(ok, "maximal-element-flags", type=label, ideal=ideal)
            _require(
                _simple_image_levi(w) == _simple_image_levi(wmin) == normalizer(ideal),
                "minimal-maximal-levi-agreement",
                type=label,
                ideal=ideal,
            )
            _require(
                is_minimax(ideal) == (w == wmin),
                "minimax-element-equality",
                type=label,
                ideal=ideal,
            )
            y_points.add(factorize(w).pairings)
        lattice_max = lattice_count(rs, "max")
        _require(
            y_points == set(lattice_max.points)
            and lattice_max.count == len(strict),
            "y-lattice-bijection",
            type=label,
            ideals=len(strict),
            lattice=lattice_max.count,
        )
        results.append((f"y-lattice-bijection[{label}]", f"{len(strict)} points"))

        for which, coroot in (("min", lattice_min), ("max", lattice_max)):
            _require(
                lattice_count(rs, which, lattice="coweight").count
                == rs.f * coroot.count,
                "index-factor",
                type=label,
                simplex=which,
            )
        results.append((f"index-factor[{label}]", f"f={rs.f}"))

        rng = random.Random(f"{seed}:{label}")
        for _ in range(RANDOM_WORDS):
            word = _random_word(rng, rs.rank)
            w = from_word(rs, word)
            _require(
                check_inversion_sum(w),
                "inversion-sum",
                type=label,
                word=list(word),
            )
            inv = n_set(w)
            rebuilt = word_from_biconvex(rs, inv)
            _require(
                rebuilt == w and len(rebuilt.word) == len(inv) <= len(word),
                "biconvex-roundtrip",
                type=label,
                word=list(word),
            )
        results.append((f"random-words[{label}]", f"{RANDOM_WORDS} words"))
    return results


def suite_shi(tables, seed: int) -> list[tuple[str, str]]:
    """Region feasibility, membership of minimal alcoves, dominant translations."""
    results = []
    for rs, ideals, minimal in tables:
        label = rs.label
        for ideal, w in zip(ideals, minimal):
            witness = region_witness(ideal)
            _require(
                in_region(ideal, witness),
                "region-witness",
                type=label,
                ideal=ideal,
            )
            _require(
                alcove_membership(w, ideal),
                "minimal-alcove-membership",
                type=label,
                ideal=ideal,
            )
        results.append((f"regions[{label}]", f"{len(ideals)} ideals"))

        rng = random.Random(f"{seed}:shi:{label}")
        pairs = 0
        for _ in range(min(40, len(ideals) * 2)):
            a = rng.randrange(len(ideals))
            b = rng.randrange(len(ideals))
            if a == b:
                continue
            pairs += 1
            _require(
                not alcove_membership(minimal[a], ideals[b]),
                "region-exclusivity",
                type=label,
                ideal=ideals[a],
                other=ideals[b],
            )
        results.append((f"region-exclusivity[{label}]", f"{pairs} pairs"))

        found = 0
        attempts = 0
        while found < 10 and attempts < 400:
            attempts += 1
            ks = [rng.randrange(0, 3) for _ in range(rs.rank)]
            if sum(ks) == 0 or sum(ks) > 3:
                continue
            z = rs.from_pairings(tuple(-k for k in ks))
            if not in_coroot_lattice(rs, z):
                continue
            found += 1
            w = translation_element(rs, z)
            layer = first_layer(w)
            ok = (
                is_dominant(w)
                and check_inversion_sum(w)
                and alcove_membership(w, layer)
            )
            _require(ok, "dominant-translation", type=label, z=z)
            for _ in range(3):
                other = ideals[rng.randrange(len(ideals))]
                if other.bits != layer.bits:
                    _require(
                        not alcove_membership(w, other),
                        "dominant-translation-exclusivity",
                        type=label,
                        z=z,
                        other=other,
                    )
        results.append((f"dominant-translations[{label}]", f"{found} elements"))
    return results


def suite_counting(types) -> list[tuple[str, str]]:
    """Generating-function, lattice, and enumeration counts agree."""
    results = []
    for label in types:
        rs = build(label)
        routes, ideals = count_routes(rs)
        gf = routes.pop("gf")
        details = [f"gf={gf[0]}/{gf[1]}"]
        for route, pair in routes.items():
            _require(pair == gf, f"{route}-vs-gf", type=label, gf=gf, **{route: pair})
            details.append(f"{route} ok")
        if "lattice" in routes and ideals:
            totals = (lattice_count(rs, "min").count, lattice_count(rs, "max").count)
            _require(
                totals == ideals, "lattice-totals", type=label, lattice=totals, enumeration=ideals
            )
        results.append((f"three-route[{label}]", "; ".join(details)))

    for family, first, closed_form, check in (
        ("C", 2, count_sp2n_borel, "symplectic-closed-form"),
        ("D", 4, count_so2n_borel, "even-orthogonal-closed-form"),
    ):
        for n in range(first, 9):
            for target in (1, -1):
                _require(
                    closed_form(n, target)
                    == gf_count_from_marks(extended_marks(family, n), target),
                    check,
                    n=n,
                    target=target,
                )
    results.append(("closed-forms[B/C/D]", "ranks 2..8"))
    return results


def suite_typeac() -> list[tuple[str, str]]:
    """Coordinate combinatorics for the special linear and symplectic families.

    One `fibers` walk per type: each ideal is checked against its fiber's
    label, and each fiber against the model fiber of the simples it removes.
    A model fiber with the bits of the members has their pairs too.  The
    words of each label are held for the label that also removes n.
    """
    results = []
    for n in range(1, 6):
        rs = build(f"A{n}")
        borel = ParabolicLabel(n, frozenset())
        n_ideals = n_mm = n_selfdual = total = 0
        for lab, (members, minima) in fibers(rs).items():
            fiber_mm = 0
            for ideal in members:
                c = typeac.from_upper_ideal_A(ideal)
                dual = typeac.dual_A(c)
                mm = typeac.is_minimax_A(c)
                at_ideal = {"type": rs.label, "ideal": ideal}
                _require(
                    c.to_upper_ideal().bits == ideal.bits and typeac.normalizer_A(c) == lab,
                    "ferrers-roundtrip",
                    **at_ideal,
                )
                _require(typeac.dual_A(dual) == c, "ferrers-duality-involution", **at_ideal)
                _require(
                    mm == is_minimax(ideal)
                    and mm == (typeac.normalizer_A(dual) == borel)
                    and typeac.is_minimax_A(dual) == (lab == borel),
                    "ferrers-duality-minimax",
                    **at_ideal,
                )
                fiber_mm += mm
                n_selfdual += dual == c
            n_mm += fiber_mm
            n_ideals += len(members)

            removed = {a + 1 for a in range(n) if a not in lab.levi}
            s = len(removed)
            at_fiber = {"type": rs.label, "removed": sorted(removed)}
            fib = typeac.fiber_A(n, removed)
            _require(
                {c.to_upper_ideal().bits for c in fib} == {c.bits for c in members}
                and len(fib) == motzkin(s),
                "ferrers-fiber",
                **at_fiber,
                size=len(fib),
            )
            total += len(fib)
            mini = typeac.fiber_minimum_A(n, removed)
            mini_u = mini.to_upper_ideal()
            power = ideal_powers(nilradical(rs, lab)).powers[s // 2]
            _require(
                [m.bits for m in minima] == [mini_u.bits]
                and is_abelian(mini_u)
                and power.bits == mini_u.bits,
                "ferrers-fiber-minimum",
                **at_fiber,
                minimum=mini_u,
            )
            _require(
                fiber_mm == (catalan(s // 2) if s % 2 == 0 else 0),
                "ferrers-fiber-minimax-count",
                **at_fiber,
                count=fiber_mm,
            )
        _require(
            n_mm == motzkin(n)
            and n_selfdual == (catalan(n // 2) if n % 2 == 0 else 0),
            "ferrers-minimax-count",
            type=rs.label,
            minimax=n_mm,
            selfdual=n_selfdual,
        )
        _require(total == catalan(n + 1), "ferrers-fiber-partition", type=rs.label, total=total)
        results.append((f"ferrers[A{n}]", f"{n_ideals} ideals"))

    for n in range(2, 5):
        rs = build(f"C{n}")
        n_ideals = n_mm = total = 0
        mm_by_corank: dict[int, int] = {}
        words: dict[frozenset[int], list[tuple[int, ...]]] = {}
        for lab, (members, minima) in fibers(rs).items():
            want = set()
            for ideal in members:
                c = typeac.from_upper_ideal_C(ideal)
                cbar = typeac.symmetrize(c)
                mm = typeac.is_minimax_C(c)
                _require(
                    c.to_upper_ideal().bits == ideal.bits
                    and typeac.normalizer_C(c) == lab
                    and typeac.desymmetrize(cbar) == c
                    and typeac.symmetrize(typeac.dual_C(c)) == typeac.dual_A(cbar)
                    and typeac.dual_C(typeac.dual_C(c)) == c
                    and mm == is_minimax(ideal),
                    "symplectic-roundtrip",
                    type=rs.label,
                    ideal=ideal,
                )
                n_mm += mm
                if mm:
                    want.add(c.pairs)
            n_ideals += len(members)

            removed = {a + 1 for a in range(n) if a not in lab.levi}
            at_fiber = {"type": rs.label, "removed": sorted(removed)}
            fib = typeac.fiber_C(n, removed)
            core = len([l for l in removed if l != n])
            _require(
                {c.to_upper_ideal().bits for c in fib} == {c.bits for c in members}
                and len(fib) == directed_animals(core + 1),
                "symplectic-fiber",
                **at_fiber,
                size=len(fib),
            )
            total += len(fib)
            _require(
                len(minima) == 1 and is_abelian(minima[0]), "symplectic-fiber-minimum", **at_fiber
            )
            mmf = typeac.fiber_minimax_C(n, removed)
            _require(
                {c.pairs for c in mmf} == want
                and len(mmf)
                == (0 if n in removed else typeac.minimax_fiber_count_C(len(removed))),
                "symplectic-fiber-minimax",
                **at_fiber,
            )
            mm_by_corank[len(removed)] = mm_by_corank.get(len(removed), 0) + len(mmf)
            words[frozenset(removed)] = sorted(typeac.encode_word(c).letters for c in fib)
            if n not in removed:
                for c in fib:
                    _require(
                        typeac.decode_word(n, removed, typeac.encode_word(c)) == c,
                        "symplectic-word-roundtrip",
                        **at_fiber,
                    )
        for removed, letters in words.items():
            if n not in removed:
                _require(
                    words[removed | {n}] == letters,
                    "symplectic-last-root-bijection",
                    type=rs.label,
                    removed=sorted(removed),
                )
        _require(
            n_mm == directed_animals(n),
            "symplectic-minimax-count",
            type=rs.label,
            minimax=n_mm,
        )
        _require(
            total == n_ideals == comb(2 * n, n),
            "symplectic-fiber-partition",
            type=rs.label,
            total=total,
        )
        poly = typeac.minimax_fiber_polynomial(n)
        _require(
            sum(poly) == directed_animals(n)
            and sum((-1) ** s * v for s, v in enumerate(poly)) == riordan(n - 1)
            and all(mm_by_corank.get(s, 0) == v for s, v in enumerate(poly)),
            "symplectic-minimax-polynomial",
            type=rs.label,
            coefficients=list(poly),
        )
        results.append((f"symplectic[C{n}]", f"{n_ideals} ideals"))

    for s in range(21):
        b = typeac.ballot(s)
        _require(b == comb(s, s // 2), "ballot-closed-form", s=s, count=b)
    results.append(("ballot[s<=20]", "21 values"))
    return results


def suite_identities(n_max: int) -> list[tuple[str, str]]:
    """Integer-sequence identity battery."""
    checks = verify_identities(n_max)
    for chk in checks:
        if not chk.passed:
            _fail(
                "identity",
                name=chk.name,
                argument=chk.argument,
                lhs=str(chk.lhs),
                rhs=str(chk.rhs),
            )
    return [("identities", f"{len(checks)} checks, n <= {n_max}")]


def suite_runners(
    label: str | None, seed: int, n_max: int
) -> dict[str, Callable[[], list[tuple[str, str]]]]:
    """Every suite by name, in run order; `label` restricts the per-type suites."""
    types = (build(label).label,) if label else None
    tables = cache(lambda: [ideal_table(t) for t in types or ORACLE_TYPES])
    return {
        "normalizer-oracles": lambda: suite_normalizer_oracles(tables()),
        "affine": lambda: suite_affine(tables(), seed),
        "shi": lambda: suite_shi(tables(), seed),
        "counting": lambda: suite_counting(types or COUNTING_TYPES),
        "typeAC": suite_typeac,
        "identities": lambda: suite_identities(n_max),
    }


def run_suites(
    suite: str, label: str | None, seed: int, n_max: int
) -> tuple[list[tuple[str, str, str]], tuple[str, VerificationFailure] | None]:
    """Run one suite, or all: the (suite, check, detail) rows that passed, and the
    first (suite, failure) or None.  typeAC and identities refuse a label, and the
    per-ideal suites and all a type with over `ENUMERATION_LIMIT` ideals."""
    if label and suite in ("typeAC", "identities"):
        raise ConfigurationError(f"verify {suite} does not take --type")
    skip = label and suite != "counting" and enumeration_skip(build(label))
    if skip:
        raise ConfigurationError(skip)
    runners = suite_runners(label, seed, n_max)
    rows: list[tuple[str, str, str]] = []
    for name in list(runners) if suite == "all" else [suite]:
        try:
            outcome = runners[name]()
        except VerificationFailure as failure:
            return rows, (name, failure)
        rows += [(name, check, detail) for check, detail in outcome]
    return rows, None
