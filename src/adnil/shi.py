"""Dominant Shi-arrangement regions of ideals, with exact feasibility.

Each upper ideal corresponds to the open region where the pairing with a
root exceeds one exactly for roots in the ideal (inside the dominant
chamber).  Membership and the solves work in pairing coordinates
y_i = (x, alpha_i), where the pairing of x with a root gamma is c.y for
the coefficient vector c of gamma.  Feasibility is decided by a one-phase
simplex on an integer tableau: the system is homogenised so that the
origin is a feasible basis, and pivots are fraction-free (``linalg.pivot``),
so every sign decision is exact.

The region and wall solves use only the boundary rows of the region:
y_i > 0, c.y > 1 for the generators of the ideal and c.y < 1 for the
maximal roots of its complement.  Pairings rise along the root poset when
y >= 0, so every other row is implied.  Every solve runs on one tableau
form (``_max_margin``) over positive variables: it substitutes
y = (u + t 1) / s with u >= 0, so positivity follows from the margin
t > 0 and needs no rows.  ``region_witness`` and ``is_wall`` solve the
boundary rows on it directly.  ``feasible`` takes free variables for
general strict systems: it writes x = y' - y'' with y', y'' > 0 and
solves the same form with each normal a doubled to (a, -a).

Alcove membership is decided in integers: the barycenter of the base
alcove is kept once per root system as integer numerators over one
denominator, and its image under w^{-1} = t_z v is compared with the
region rows on the integer pairings of ``RootSystem._scaled_pairings``,
as in ``in_region``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .affine import AffineWeylElement, alcove_barycenter, factorize, is_dominant
from .ideals import UpperIdeal
from .linalg import pivot
from .rootsys import RationalVector, RootSystem

__all__ = [
    "in_region",
    "feasible",
    "region_witness",
    "is_wall",
    "alcove_membership",
]


def _rows_hold(ideal: UpperIdeal, y, d: int) -> bool:
    """The region test on integer pairings y = d (x, alpha_i), for d > 0.

    Every row is tested, not only the boundary rows: pairings with simple
    roots are positive, with ideal roots exceed one, with others below one.
    """
    bits = ideal.bits
    values = (sum(c * v for c, v in zip(root.coeffs, y)) for root in ideal.rs.positive_roots)
    return min(y) > 0 and all(
        value > d if (bits >> g) & 1 else value < d for g, value in enumerate(values)
    )


def in_region(ideal: UpperIdeal, x) -> bool:
    """Whether x lies in the open region attached to the ideal."""
    return _rows_hold(ideal, *ideal.rs._scaled_pairings(x))


def _max_margin(rows, k: int) -> list[int] | None:
    """Strict feasibility of rows (normal, bound, relation) over k variables y > 0.

    With y = (u + t 1) / s over u >= 0 and s, t >= 0, every y_i > 0 once
    the margin t is positive; a.y > b becomes -a.u + b s + (1 - sum(a)) t <= 0
    and a.y < b becomes a.u - b s + (1 + sum(a)) t <= 0.  The loop appends
    s >= t, the bound sum(u) + s <= 1 and the objective t, so the origin is a
    feasible basis, and maximizes t with fraction-free pivots and Bland's
    rule.  It stops at the first basis where t is positive and returns the
    values of the k + 2 columns (u, s, t) as numerators over one positive
    denominator, or None when t cannot be made positive.
    """
    tableau = []
    for normal, bound, relation in rows:
        total = sum(normal)
        if relation == ">":
            tableau.append([-a for a in normal] + [bound, 1 - total, 0])
        else:
            tableau.append(list(normal) + [-bound, 1 + total, 0])
    s_col, t_col = k, k + 1
    n = k + 2
    margin = [0] * (n + 1)
    margin[s_col], margin[t_col] = -1, 1
    norm = [1] * (k + 1) + [0, 1]
    objective = [0] * (n + 1)
    objective[t_col] = -1
    tableau += [margin, norm, objective]
    m = len(tableau) - 1
    basis = list(range(n, n + m))
    nonbasic = list(range(n))
    det = 1
    while t_col not in basis or tableau[basis.index(t_col)][-1] <= 0:
        enter = min(
            (nonbasic[j] for j in range(n) if objective[j] < 0), default=None
        )
        if enter is None:
            return None
        c = nonbasic.index(enter)
        r = None
        for i in range(m):
            a = tableau[i][c]
            if a > 0:
                if r is None:
                    r = i
                    continue
                lhs, rhs = tableau[i][-1] * tableau[r][c], tableau[r][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        if r is None:
            raise AssertionError("unbounded margin objective")
        new_det = tableau[r][c]
        pivot(tableau, r, c, det)
        objective = tableau[-1]
        det = new_det
        basis[r], nonbasic[c] = enter, basis[r]
    value = [0] * n
    for i, col in enumerate(basis):
        if col < n:
            value[col] = tableau[i][-1]
    return value


def feasible(dimension: int, rows) -> tuple[Fraction, ...] | None:
    """Exact strict-feasibility test with an interior rational witness.

    Each row is a triple (normal, bound, relation) of an int tuple of length
    ``dimension``, an int and ">" or "<", for the strict condition
    normal.x > bound or normal.x < bound.  Returns a point satisfying every
    row, or None when there is none.  Raises ValueError on a bad dimension
    or a malformed row.  The free x is written as y' - y'' with y', y'' > 0,
    so each normal a becomes (a, -a) for ``_max_margin``, and the witness is
    read off as x = (u' - u'') / s.
    """
    if not isinstance(dimension, int) or dimension < 0:
        raise ValueError(f"dimension {dimension!r} is not a non-negative int")
    doubled = []
    for normal, bound, relation in rows:
        if relation not in (">", "<"):
            raise ValueError(f"unknown relation {relation!r}")
        if len(normal) != dimension:
            raise ValueError(f"normal of length {len(normal)} in dimension {dimension}")
        if any(type(a) is not int for a in (*normal, bound)):
            raise ValueError(f"row {normal!r} {relation} {bound!r} has a non-int entry")
        if not any(normal):
            raise ValueError("inequality with zero normal")
        doubled.append(((*normal, *(-a for a in normal)), bound, relation))
    p = dimension
    value = _max_margin(doubled, 2 * p)
    if value is None:
        return None
    s = value[2 * p]
    return tuple(Fraction(value[i] - value[p + i], s) for i in range(p))


def _boundary_rows(ideal: UpperIdeal, drop: int | None) -> list | None:
    """Generator and complement-maximal rows of the region, as _max_margin takes them.

    Positivity y_i > 0 needs no rows in ``_max_margin``.  With ``drop``, the
    pairing with that simple root is fixed at zero and removed from the
    variables.  A row left with a zero normal is 0 > 1, and then there are
    no rows (None), or 0 < 1, which is skipped.
    """
    rs, bits = ideal.rs, ideal.bits
    keep = [i for i in range(rs.rank) if i != drop]
    rows = []
    for g in ideal.generator_indices():
        normal = tuple(rs.positive_roots[g].coeffs[i] for i in keep)
        if not any(normal):
            return None
        rows.append((normal, 1, ">"))
    for g in range(len(rs.positive_roots)):
        if not (bits >> g) & 1 and not rs.up[g] & ~bits:
            normal = tuple(rs.positive_roots[g].coeffs[i] for i in keep)
            if any(normal):
                rows.append((normal, 1, "<"))
    return rows


def region_witness(ideal: UpperIdeal) -> RationalVector:
    """Exact interior point of the region of the ideal.

    Solved by ``_max_margin`` on the boundary rows, as ``is_wall`` solves
    them, in pairing coordinates y = (u + t 1) / s, and mapped back by
    ``RootSystem.from_pairings``.
    """
    rs = ideal.rs
    p = rs.rank
    value = _max_margin(_boundary_rows(ideal, None), p)
    if value is None:
        raise AssertionError(f"region of {ideal!r} is infeasible")
    s, t = value[p], value[p + 1]
    return rs.from_pairings(tuple(Fraction(u + t, s) for u in value[:p]))


def is_wall(ideal: UpperIdeal, simple: int) -> bool:
    """Whether the zero hyperplane of a simple root bounds the region.

    The pairing with that simple root is dropped from the boundary rows
    (fixed at zero); the hyperplane is a wall iff the rest stays strictly
    feasible with every other pairing positive, which ``_max_margin``
    decides directly.  If the simple root generates the ideal, its row
    becomes 0 > 1 and the answer is no without a solve.
    """
    rs = ideal.rs
    if not isinstance(simple, int) or not 0 <= simple < rs.rank:
        raise ValueError(f"simple root index {simple} out of range")
    rows = _boundary_rows(ideal, simple)
    return rows is not None and _max_margin(rows, rs.rank - 1) is not None


@lru_cache(maxsize=None)
def _barycenter_data(rs: RootSystem) -> tuple[tuple[int, ...], int]:
    """The alcove barycenter as integer numerators over a denominator d."""
    coords = alcove_barycenter(rs).coords
    d = lcm(*(v.denominator for v in coords))
    return tuple(v.numerator * (d // v.denominator) for v in coords), d


def alcove_membership(w: AffineWeylElement, ideal: UpperIdeal) -> bool:
    """Whether the inverse affine action drops the base alcove in the region.

    Evaluates the region conditions at the image of the alcove barycenter
    under w^{-1} = t_z v, as the integer vector v(d b) + d z for the
    barycenter b = (d b) / d; true exactly when the first layer of w is the
    given ideal.
    """
    if w.rs is not ideal.rs:
        raise ValueError("elements belong to different root systems")
    if not is_dominant(w):
        raise ValueError("alcove membership is defined for dominant elements")
    fac = factorize(w.inverse())
    b, d = _barycenter_data(w.rs)
    x = [
        sum(a * c for a, c in zip(row, b)) + d * int(z)
        for row, z in zip(fac.finite_part, fac.translation.coords)
    ]
    y, den = w.rs._scaled_pairings(x)
    return _rows_hold(ideal, y, d * den)
