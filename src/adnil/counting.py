"""Integer sequences and exact counts of ideals whose normalizer is the Borel.

Three independent routes produce the same counts: closed-form sequence
formulas, coefficient extraction from a product of one factor per node
mark of the extended diagram (an exact integer sum over partial degrees),
and brute-force enumeration of lattice points in two bounded simplices.
"""

from __future__ import annotations

from math import comb

from .ideals import enumerate_ideals
from .normalizers import _removed_simples
from .rootsys import RootSystem, _check_int, _Value

__all__ = [
    "catalan",
    "motzkin",
    "riordan",
    "central_trinomial",
    "next_to_central_trinomial",
    "directed_animals",
    "extended_marks",
    "gf_count",
    "gf_count_from_marks",
    "count_sp2n_borel",
    "count_so2n_borel",
    "LatticeCount",
    "lattice_count",
    "ideal_count",
    "enumeration_skip",
    "count_routes",
    "IdentityCheck",
    "verify_identities",
]


def _guarded_binom(a: int, b: int) -> int:
    """comb with the convention that out-of-range lower indices give 0."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def catalan(i: int) -> int:
    """1/(i+1) * binom(2i, i)."""
    _check_int(i, 0, "argument must be nonnegative")
    return comb(2 * i, i) // (i + 1)


def motzkin(s: int) -> int:
    """Sum over r of binom(s, 2r) * catalan(r)."""
    _check_int(s, 0, "argument must be nonnegative")
    return sum(comb(s, 2 * r) * catalan(r) for r in range(s // 2 + 1))


def riordan(n: int) -> int:
    """Alternating sum over j of binom(n, j) * catalan(j)."""
    _check_int(n, 0, "argument must be nonnegative")
    return sum((-1) ** (n - j) * comb(n, j) * catalan(j) for j in range(n + 1))


def central_trinomial(n: int) -> int:
    """Sum over k of n! / (k! k! (n-2k)!)."""
    _check_int(n, 0, "argument must be nonnegative")
    return sum(comb(n, 2 * k) * comb(2 * k, k) for k in range(n // 2 + 1))


def next_to_central_trinomial(n: int) -> int:
    """Sum over k of n! / (k! (k+1)! (n-2k-1)!)."""
    _check_int(n, 0, "argument must be nonnegative")
    return sum(
        comb(n, 2 * k + 1) * comb(2 * k + 1, k) for k in range((n + 1) // 2)
    )


def directed_animals(n: int) -> int:
    """Sum over q of binom(q, floor(q/2)) * binom(n-1, q)."""
    _check_int(n, 1, "argument must be at least 1")
    return sum(comb(q, q // 2) * comb(n - 1, q) for q in range(n))


def extended_marks(family: str, rank: int) -> tuple[int, ...]:
    """All node marks of the extended diagram, the extra node's 1 first.

    Closed forms for the four classical families at any rank, so counts can
    be produced beyond the rank caps of build().
    """
    _check_int(rank, 1, f"no closed-form marks for family {family!r} rank {rank}")
    if family == "A" and rank >= 1:
        return (1,) * (rank + 1)
    if family == "B" and rank >= 2:
        return (1, 1) + (2,) * (rank - 1)
    if family == "C" and rank >= 2:
        return (1,) + (2,) * (rank - 1) + (1,)
    if family == "D" and rank >= 3:
        return (1, 1) + (2,) * (rank - 3) + (1, 1)
    raise ValueError(f"no closed-form marks for family {family!r} rank {rank}")


def gf_count_from_marks(marks, target: int) -> int:
    """Coefficient of x^target in prod_c (x^-c + x^c + x^2c + ...), over the 1-count.

    The coefficient counts exponent vectors e with every e_i in
    {-1, 1, 2, ...} and sum c_i e_i = target.  With f_i = e_i + 1 in
    {0, 2, 3, ...} that is the number of ways to write target + sum(marks)
    as sum c_i f_i.  One list counts[0..target + sum(marks)] takes the
    marks one at a time: a mark c adds run[i] = counts[i - 2c] +
    counts[i - 3c] + ... to counts[i], where run[i] = run[i - c] +
    counts[i - 2c] is a running sum along the stride c, so a mark costs one
    pass over the list.  marks must list every node of the extended
    diagram, so it contains at least one 1 and the divisor (the number of
    1s) is positive.
    """
    marks = tuple(marks)
    _check_int(target, -1, "target degree must be +1 or -1")
    if target not in (1, -1):
        raise ValueError("target degree must be +1 or -1")
    if not marks:
        raise ValueError("marks must be positive integers")
    for c in marks:
        _check_int(c, 1, "marks must be positive integers")
    ones = marks.count(1)
    if ones == 0:
        raise ValueError("marks must include the extra node's mark 1")
    size = target + sum(marks) + 1
    counts = [1] + [0] * (size - 1)
    for c in marks:
        run = [0] * size
        for i in range(2 * c, size):
            run[i] = run[i - c] + counts[i - 2 * c]
        for i in range(2 * c, size):
            counts[i] += run[i]
    value = counts[-1]
    if value % ones:
        raise AssertionError(f"coefficient {value} is not divisible by {ones}")
    return value // ones


def gf_count(rs: RootSystem, target: int) -> int:
    """Generating-function count for a built root system (+1 full, -1 no-simple-roots)."""
    return gf_count_from_marks((1,) + rs.marks, target)


def count_sp2n_borel(n: int, target: int) -> int:
    """Closed forms shared by sp_2n and so_{2n+1} for the Borel-normalizer counts."""
    _check_int(n, 2, "closed forms require n >= 2")
    _check_int(target, -1, "target degree must be +1 or -1")
    if target == 1:
        return sum(
            (-1) ** (n - 1 - i) * comb(n - 1, i) * comb(2 * i + 1, i)
            for i in range(n)
        )
    if target == -1:
        return (n - 1) * motzkin(n - 2)
    raise ValueError("target degree must be +1 or -1")


def count_so2n_borel(n: int, target: int) -> int:
    """Closed-form alternating sums for so_2n, n >= 4."""
    _check_int(n, 4, "closed forms require n >= 4")
    _check_int(target, -1, "target degree must be +1 or -1")
    if target == 1:
        return sum(
            (-1) ** (n - 3 - i)
            * comb(n - 3, i)
            * (_guarded_binom(2 * i + 1, i - 2) + _guarded_binom(2 * i + 4, i + 1))
            for i in range(n - 2)
        )
    if target == -1:
        return sum(
            (-1) ** (n - 3 - i)
            * comb(n - 3, i)
            * (_guarded_binom(2 * i, i - 3) + _guarded_binom(2 * i + 3, i))
            for i in range(n - 2)
        )
    raise ValueError("target degree must be +1 or -1")


class LatticeCount(_Value):
    """Result of a simplex lattice-point enumeration."""

    __slots__ = ("count", "points")


def _step_table(adj: tuple[tuple[int, ...], ...], f: int) -> list[list[int]]:
    """step[k][c]: the class of y + e_k for y of class c.

    The class of y is adj y mod f, a vector in (Z/f)^p; the map has kernel
    C Z^p, so there are exactly f classes.  They are numbered by a
    breadth-first search from 0 along the columns of adj, which generate
    the image; class 0 is the coroot lattice.
    """
    cols = [[row[k] for row in adj] for k in range(len(adj))]
    number = {(0,) * len(adj): 0}
    order = list(number)
    step: list[list[int]] = [[] for _ in cols]
    for v in order:  # grows while it is read; row k gets v + e_k at index number[v]
        for row, col in zip(step, cols):
            w = tuple((a + b) % f for a, b in zip(v, col))
            if w not in number:
                number[w] = len(order)
                order.append(w)
            row.append(number[w])
    return step


def lattice_count(
    rs: RootSystem, which: str, off_walls: bool = False, lattice: str = "coroot"
) -> LatticeCount:
    """Integer points of a bounded simplex in pairing coordinates y_i = (x, alpha_i).

    which="min": y_i >= -1 for all i and sum c_i y_i <= 2.
    which="max": y_i <= 1 for all i and sum c_i y_i >= 0.
    off_walls drops points with any y_i = 0 or with sum c_i y_i = 1.
    lattice="coroot" keeps only points in the integer coroot span;
    lattice="coweight" keeps every integer y vector.
    Points are the pairing vectors y as int tuples (x = sum y_i omega_i-coweight).
    One walk serves both: y' = +-y with y'_i >= -1, sum c_i y'_i <= 2 or 0,
    in lexicographic order of y'.

    y = C n has an integral n exactly when adj y = 0 mod f, adj = f C^-1
    (integral, as det C = f).  Rather than test that at every point, the
    walk carries the class (numbered by `_step_table`) of y + (1, ..., 1),
    where y is the current prefix padded with -1.  A coordinate enters at
    y_k = -1 with no change and each y_k += 1 is one `step` lookup, so a
    node costs O(1); a point is in the coroot lattice exactly when its class
    is that of (1, ..., 1).  The coweight lattice has one class.  The last
    coordinate runs inline over y_p = -1..(top - partial) // c_p.
    """
    if which not in ("min", "max"):
        raise ValueError("which must be 'min' or 'max'")
    if lattice not in ("coroot", "coweight"):
        raise ValueError("lattice must be 'coroot' or 'coweight'")
    top, sign = (2, 1) if which == "min" else (0, -1)
    marks = rs.marks
    last = rs.rank - 1
    f = rs.f if lattice == "coroot" else 1
    step = _step_table(rs.cartan_adjugate, f)
    ones = 0  # the class of (1, ..., 1)
    for up in step:
        ones = up[ones]
    # suffix[k] = sum of marks from position k on.
    suffix = [0] * (rs.rank + 1)
    for k in range(last, -1, -1):
        suffix[k] = suffix[k + 1] + marks[k]
    points: list[tuple[int, ...]] = []

    def walk(k: int, partial: int, c: int, prefix: tuple[int, ...]) -> None:
        up = step[k]
        mark = marks[k]
        if k == last:
            for y in range(-1, (top - partial) // mark + 1):
                if c == ones and not (off_walls and (y == 0 or partial + mark * y == top - 1)):
                    points.append(prefix + (sign * y,))
                c = up[c]
            return
        for y in range(-1, (top + suffix[k + 1] - partial) // mark + 1):
            if not (off_walls and y == 0):
                walk(k + 1, partial + mark * y, c, prefix + (sign * y,))
            c = up[c]

    walk(0, 0, 0, ())
    del walk  # its closure holds it: drop that cycle, and points with it, now
    return LatticeCount(len(points), tuple(points))


# Every type under the default rank caps has at most this many ideals
# (E8 has the most, 25080); enumeration beyond it would run for hours.
ENUMERATION_LIMIT = 100_000


def ideal_count(rs: RootSystem) -> int:
    """Number of ad-nilpotent ideals, prod (h + e_i + 1) / (e_i + 1).

    The exponents e_i come from the height partition of the positive
    roots: as many exponents equal k as there are roots of height k,
    less those of height k + 1.
    """
    h = rs.coxeter_number
    num = den = 1
    for k in range(1, h):
        for _ in range(rs.heights.count(k) - rs.heights.count(k + 1)):
            num *= h + k + 1
            den *= k + 1
    return num // den


def enumeration_skip(rs: RootSystem) -> str | None:
    """Why `count_routes` does not enumerate the ideals of rs, or None."""
    n = ideal_count(rs)
    if n > ENUMERATION_LIMIT:
        return (
            f"enumeration skipped: {rs.label} has {n} ideals, "
            f"more than the limit of {ENUMERATION_LIMIT}"
        )
    return None


def count_routes(
    rs: RootSystem,
) -> tuple[dict[str, tuple[int, int]], tuple[int, int] | None]:
    """Borel-fiber counts (all, strictly positive) by every feasible route,
    and the (all, strict) ideal counts, or None when they were not walked.

    The routes come in report order: "gf" (the generating function) always,
    "lattice" through rank 8, and "enumeration" unless `enumeration_skip`
    gives a reason.  The routes agree when every pair equals the "gf" pair.
    Enumeration streams the ideals once and keeps none of them; it tallies
    on their bits and generators, building no normalizer labels.
    """
    routes = {"gf": (gf_count(rs, 1), gf_count(rs, -1))}
    if rs.rank <= 8:
        routes["lattice"] = (
            lattice_count(rs, "min", off_walls=True).count,
            lattice_count(rs, "max", off_walls=True).count,
        )
    if enumeration_skip(rs) is not None:
        return routes, None
    n_all = n_strict = n_b = n_b_strict = 0
    simple_bits, borel = rs.simple_bits, (1 << rs.rank) - 1
    for ideal in enumerate_ideals(rs):
        n_all += 1
        strict = not ideal.bits & simple_bits
        n_strict += strict
        if _removed_simples(rs, ideal._generator_bits()) == borel:
            n_b += 1
            n_b_strict += strict
    routes["enumeration"] = (n_b, n_b_strict)
    return routes, (n_all, n_strict)


class IdentityCheck(_Value):
    """One instance of a named integer identity, with both sides evaluated."""

    __slots__ = ("name", "argument", "lhs", "rhs")

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def verify_identities(n_max: int) -> tuple[IdentityCheck, ...]:
    """Exact checks of the sequence and count identities for all n up to n_max."""
    _check_int(n_max, 2, "n_max must be at least 2")
    checks: list[IdentityCheck] = []

    def add(name: str, n: int, lhs: int, rhs: int) -> None:
        checks.append(IdentityCheck(name, n, lhs, rhs))

    for n in range(n_max + 1):
        add(
            "catalan-from-motzkin",
            n,
            catalan(n + 1),
            sum(comb(n, r) * motzkin(r) for r in range(n + 1)),
        )
        add("motzkin-from-riordan", n, motzkin(n), riordan(n) + riordan(n + 1))
        add(
            "riordan-from-trinomials",
            n,
            riordan(n),
            central_trinomial(n) - next_to_central_trinomial(n),
        )
    for n in range(1, n_max + 1):
        add(
            "animals-from-trinomials",
            n,
            directed_animals(n),
            central_trinomial(n - 1) + next_to_central_trinomial(n - 1),
        )
        add(
            "central-binomial-from-animals",
            n,
            comb(2 * n - 1, n - 1),
            sum(comb(n - 1, k) * directed_animals(k + 1) for k in range(n)),
        )
        add(
            "animals-from-ballot-words",
            n,
            directed_animals(n),
            sum(comb(n - 1, s) * comb(s, s // 2) for s in range(n)),
        )
        add(
            "riordan-from-ballot-words-alternating",
            n,
            riordan(n - 1),
            sum((-1) ** s * comb(n - 1, s) * comb(s, s // 2) for s in range(n)),
        )
        add("type-a-borel-motzkin", n, gf_count_from_marks(extended_marks("A", n), 1), motzkin(n))
        add("type-a-abelian-riordan", n, gf_count_from_marks(extended_marks("A", n), -1), riordan(n))
    for n in range(2, n_max + 1):
        add(
            "near-trinomial-from-motzkin",
            n,
            next_to_central_trinomial(n - 1),
            (n - 1) * motzkin(n - 2),
        )
        b_full = gf_count_from_marks(extended_marks("B", n), 1)
        b_abel = gf_count_from_marks(extended_marks("B", n), -1)
        c_full = gf_count_from_marks(extended_marks("C", n), 1)
        c_abel = gf_count_from_marks(extended_marks("C", n), -1)
        add("spin-symplectic-invariance-full", n, b_full, c_full)
        add("spin-symplectic-invariance-abelian", n, b_abel, c_abel)
        add("symplectic-borel-animals", n, c_full, directed_animals(n))
        add("symplectic-borel-closed-form", n, c_full, count_sp2n_borel(n, 1))
        add("symplectic-abelian-closed-form", n, c_abel, count_sp2n_borel(n, -1))
        add("symplectic-borel-minus-abelian-trinomial", n, c_full - c_abel, central_trinomial(n - 1))
    for n in range(3, n_max + 1):
        d_full = gf_count_from_marks(extended_marks("D", n), 1)
        d_abel = gf_count_from_marks(extended_marks("D", n), -1)
        add(
            "odd-minus-even-orthogonal-motzkin",
            n,
            gf_count_from_marks(extended_marks("B", n), 1) - d_full,
            motzkin(n - 2),
        )
        add("even-orthogonal-borel-minus-abelian-trinomial", n, d_full - d_abel, central_trinomial(n - 1))
        if n >= 4:
            add("even-orthogonal-borel-closed-form", n, d_full, count_so2n_borel(n, 1))
            add("even-orthogonal-abelian-closed-form", n, d_abel, count_so2n_borel(n, -1))
    return tuple(checks)
