"""Dominant Shi-arrangement regions of ideals, with exact feasibility.

Each upper ideal corresponds to the open region where the pairing with a
root exceeds one exactly for roots in the ideal (inside the dominant
chamber).  Membership and the solves work in pairing coordinates
y_i = (x, alpha_i), where the pairing of x with a root gamma is c.y for
the coefficient vector c of gamma.  Feasibility is decided by a one-phase
simplex on an integer tableau: the system is homogenised so that the
origin is a feasible basis, and pivots are fraction-free, so every sign
decision is exact.

The region and wall solves use only the boundary rows of the region:
y_i > 0, c.y > 1 for the generators of the ideal and c.y < 1 for the
maximal roots of its complement.  Pairings rise along the root poset when
y >= 0, so every other row is implied.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .affine import AffineWeylElement, alcove_barycenter, is_dominant, star
from .ideals import UpperIdeal
from .rootsys import RationalVector

__all__ = [
    "in_region",
    "feasible",
    "region_witness",
    "is_wall",
    "alcove_membership",
]


def in_region(ideal: UpperIdeal, x) -> bool:
    """Whether x lies in the open region attached to the ideal.

    Every row is tested, not only the boundary rows: pairings with simple
    roots are positive, with ideal roots exceed one, with others below one.
    """
    rs = ideal.rs
    y = rs.pairings(x)
    d = lcm(*(v.denominator for v in y))  # compare c.(d y) with d in integers
    y = [v.numerator * (d // v.denominator) for v in y]
    values = (sum(c * v for c, v in zip(root.coeffs, y)) for root in rs.positive_roots)
    return min(y) > 0 and all(
        value > d if (ideal.bits >> g) & 1 else value < d for g, value in enumerate(values)
    )


def _pivot(rows: list[list[int]], r: int, c: int, det: int) -> None:
    """Fraction-free exchange of the basic variable of row r with column c.

    Every row holds det times its true entries; afterwards the common
    factor is the pivot entry, and the division by det is exact.
    """
    pivot_row = rows[r]
    p = pivot_row[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * a - f * w) // det for a, w in zip(row, pivot_row)]
            rows[i][c] = -f
    pivot_row[c] = det


def feasible(dimension: int, rows) -> tuple[Fraction, ...] | None:
    """Exact strict-feasibility test with an interior rational witness.

    Each row is a triple (normal, bound, relation) of an int tuple of length
    ``dimension``, an int and ">" or "<", for the strict condition
    normal.x > bound or normal.x < bound.  Returns a point satisfying every
    row, or None when there is none.

    The rows are homogenised with x = (u - v) / s over u, v, s >= 0.  A
    margin t must satisfy s >= t and clear every row (a.(u - v) - b s >= t
    for a.x > b, and the negation for <), and sum(u) + sum(v) + s <= 1
    bounds the problem.  Only that last row has a nonzero right-hand side,
    so the origin is a feasible basis and a single phase maximizes t on an
    integer tableau with fraction-free pivots and Bland's rule.  The system
    is feasible iff t can be made positive; the search stops at the first
    basis where it is.
    """
    p = dimension
    s_col, t_col = 2 * p, 2 * p + 1
    n = 2 * p + 2
    tableau = []
    for normal, bound, relation in rows:
        if relation not in (">", "<"):
            raise ValueError(f"unknown relation {relation!r}")
        if len(normal) != p:
            raise ValueError(f"normal of length {len(normal)} in dimension {p}")
        if any(type(a) is not int for a in (*normal, bound)):
            raise ValueError(f"row {normal!r} {relation} {bound!r} has a non-int entry")
        if not any(normal):
            raise ValueError("inequality with zero normal")
        sign = -1 if relation == ">" else 1
        a = [sign * v for v in normal]
        tableau.append(a + [-v for v in a] + [-sign * bound, 1, 0])
    margin = [0] * (n + 1)
    margin[s_col], margin[t_col] = -1, 1
    norm = [1] * (2 * p + 1) + [0, 1]
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
        _pivot(tableau, r, c, det)
        objective = tableau[-1]
        det = new_det
        basis[r], nonbasic[c] = enter, basis[r]
    value = [0] * n
    for i, col in enumerate(basis):
        if col < n:
            value[col] = tableau[i][-1]
    s = value[s_col]
    return tuple(Fraction(value[i] - value[p + i], s) for i in range(p))


def _boundary_rows(ideal: UpperIdeal, drop: int | None) -> list | None:
    """Boundary rows of the region in pairing coordinates, as feasible takes them.

    With ``drop``, the pairing with that simple root is fixed at zero and
    removed from the variables.  A row left with a zero normal is 0 > 1,
    and then there are no rows (None), or 0 < 1, which is skipped.
    """
    rs, bits = ideal.rs, ideal.bits
    keep = [i for i in range(rs.rank) if i != drop]
    rows = [(tuple(int(i == k) for i in keep), 0, ">") for k in keep]
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

    Solved on the boundary rows in pairing coordinates y, and mapped back
    as x = sum(y_i * omega_i-coweight).
    """
    rs = ideal.rs
    y = feasible(rs.rank, _boundary_rows(ideal, None))
    if y is None:
        raise AssertionError(f"region of {ideal!r} is infeasible")
    return RationalVector(
        tuple(
            sum(yi * w.coords[j] for yi, w in zip(y, rs.fundamental_coweights))
            for j in range(rs.rank)
        )
    )


def is_wall(ideal: UpperIdeal, simple: int) -> bool:
    """Whether the zero hyperplane of a simple root bounds the region.

    The pairing with that simple root is dropped from the boundary rows
    (fixed at zero); the hyperplane is a wall iff the rest stays strictly
    feasible.  If the simple root generates the ideal, its row becomes
    0 > 1 and the answer is no without a solve.
    """
    rs = ideal.rs
    if not 0 <= simple < rs.rank:
        raise ValueError(f"simple root index {simple} out of range")
    rows = _boundary_rows(ideal, simple)
    return rows is not None and feasible(rs.rank - 1, rows) is not None


def alcove_membership(w: AffineWeylElement, ideal: UpperIdeal) -> bool:
    """Whether the inverse affine action drops the base alcove in the region.

    Evaluates the region conditions at the image of the alcove barycenter
    under the inverse of w; true exactly when the first layer of w is the
    given ideal.
    """
    if w.rs is not ideal.rs:
        raise ValueError("elements belong to different root systems")
    if not is_dominant(w):
        raise ValueError("alcove membership is defined for dominant elements")
    return in_region(ideal, star(w.inverse(), alcove_barycenter(w.rs)))
