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
y >= 0, so every other row is implied.  A row (normal, bound) has one
relation, normal.y > bound, so a complement row is (-c, -1).  Every solve
runs on one tableau form (``_max_margin``) over positive variables: it
substitutes y = (u + t 1) / s with u >= 0, so positivity follows from the
margin t > 0 and needs no rows.  ``region_witness`` solves the boundary
rows on it directly; ``_wall`` fixes one pairing at zero, and ``is_wall``
is that solve alone.  ``wall_levi(ideal, w)`` settles each wall by an exact
certificate first: a Farkas pair of boundary rows for "no wall", or the
minimal alcove point of w with one pairing zeroed for "wall".  It builds
the boundary rows and solves only when neither is found.
``feasible`` takes free variables for general strict systems: it negates
each "<" row once, writes x = y' - y'' with y', y'' > 0 and solves the
same form with each normal a doubled to (a, -a).

Alcove membership is decided in integers: the barycenter of the base
alcove is kept once per root system as integer numerators over one
denominator, and its image is read off the finite rows of
``w.inverse_matrix`` and compared with the region rows on the integer
pairings of ``RootSystem.form``, as in ``in_region``.  The row test takes
each root's pairing as one add along ``RootSystem.split``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm
from operator import and_, mul

from .affine import AffineWeylElement, alcove_barycenter, is_dominant
from .ideals import UpperIdeal
from .linalg import pivot
from .normalizers import ParabolicLabel
from .rootsys import RationalVector, RootSystem, _check_indices

__all__ = [
    "in_region",
    "feasible",
    "region_witness",
    "is_wall",
    "wall_levi",
    "alcove_membership",
]


def _rows_hold(ideal: UpperIdeal, y, d: int) -> bool:
    """The region test on integer pairings y = d (x, alpha_i), for d > 0.

    Every row is tested, not only the boundary rows: pairings with simple
    roots are positive, with ideal roots exceed one, with others below one.
    The pairing of gamma_k = gamma_i + alpha_a (``rs.split``) is that of
    gamma_i plus y_a, and the test stops at the first row that fails.
    """
    if min(y) <= 0:
        return False
    rs, bits = ideal.rs, ideal.bits
    values = [0] * len(rs.split)
    for g, v in zip(rs.simple_index, y):
        values[g] = v
    for k, pair in enumerate(rs.split):
        if pair is None:
            value = values[k]
        else:
            i, a = pair
            value = values[k] = values[i] + y[a]
        if not (value > d if bits >> k & 1 else value < d):
            return False
    return True


def in_region(ideal: UpperIdeal, x) -> bool:
    """Whether x lies in the open region attached to the ideal."""
    return _rows_hold(ideal, *ideal.rs._scaled_pairings(x))


def _max_margin(rows, k: int) -> list[int] | None:
    """Strict feasibility of rows (a, b), each a.y > b, over k variables y > 0.

    With y = (u + t 1) / s over u >= 0 and s, t >= 0, every y_i > 0 once
    the margin t is positive, and a.y > b becomes
    -a.u + b s + (1 - sum(a)) t <= 0.  The loop appends
    s >= t, the bound sum(u) + s <= 1 and the objective t, so the origin is a
    feasible basis, and maximizes t with fraction-free pivots and Bland's
    rule.  It stops at the first basis where t is positive and returns the
    values of the k + 2 columns (u, s, t) as numerators over one positive
    denominator, or None when t cannot be made positive.
    """
    tableau = [[-a for a in normal] + [bound, 1 - sum(normal), 0] for normal, bound in rows]
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
    or a malformed row.  A "<" row is negated once into normal.x > bound,
    the one relation ``_max_margin`` takes.  The free x is written as
    y' - y'' with y', y'' > 0, so each normal a becomes (a, -a), and the
    witness is read off as x = (u' - u'') / s.
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
        if relation == "<":
            normal, bound = [-a for a in normal], -bound
        doubled.append(((*normal, *(-a for a in normal)), bound))
    p = dimension
    value = _max_margin(doubled, 2 * p)
    if value is None:
        return None
    s = value[2 * p]
    return tuple(Fraction(value[i] - value[p + i], s) for i in range(p))


def _complement_maximal(ideal: UpperIdeal) -> list[int]:
    """Indices of the maximal roots outside the ideal."""
    rs, bits = ideal.rs, ideal.bits
    return [g for g in range(len(rs.up)) if not (bits >> g) & 1 and not rs.up[g] & ~bits]


def _boundary_rows(ideal: UpperIdeal) -> list:
    """Generator and complement-maximal rows of the region, as _max_margin takes them.

    Positivity y_i > 0 needs no rows in ``_max_margin``.  A generator gamma
    gives (gamma, 1) and a complement-maximal mu gives (-mu, -1), its signed
    root; ``_wall`` drops one pairing from the normals.
    """
    rs = ideal.rs
    n = len(rs.positive_roots)
    rows = [(rs.positive_roots[g].coeffs, 1) for g in ideal.generator_indices()]
    return rows + [(rs.signed_roots[n + g], -1) for g in _complement_maximal(ideal)]


def _wall(rows, a: int, p: int) -> bool:
    """Whether the boundary rows stay feasible with pairing a fixed at zero.

    Coordinate a is removed from each normal.  A row left with a zero normal
    reads 0 > bound: with bound >= 0 it fails (0 > 1: alpha_a generates the
    ideal, no wall, no solve), and with bound < 0 it is void (0 > -1).
    """
    kept = [(normal[:a] + normal[a + 1 :], bound) for normal, bound in rows]
    if any(bound >= 0 and not any(normal) for normal, bound in kept):
        return False
    return _max_margin([row for row in kept if any(row[0])], p - 1) is not None


def region_witness(ideal: UpperIdeal) -> RationalVector:
    """Exact interior point of the region of the ideal.

    Solved by ``_max_margin`` on the boundary rows, in pairing coordinates
    y = (u + t 1) / s, and mapped back by ``RootSystem.from_pairings``.
    """
    rs = ideal.rs
    p = rs.rank
    value = _max_margin(_boundary_rows(ideal), p)
    if value is None:
        raise AssertionError(f"region of {ideal!r} is infeasible")
    s, t = value[p], value[p + 1]
    return rs.from_pairings(tuple(Fraction(u + t, s) for u in value[:p]))


def is_wall(ideal: UpperIdeal, simple: int) -> bool:
    """Whether the zero hyperplane of a simple root bounds the region.

    The hyperplane is a wall iff the boundary rows stay strictly feasible
    with that pairing fixed at zero and every other pairing positive,
    which ``_wall`` decides.  ``wall_levi`` decides all p from one row set.
    """
    rs = ideal.rs
    _check_indices((simple,), rs.rank, "simple root index")
    return _wall(_boundary_rows(ideal), simple, rs.rank)


@lru_cache(maxsize=None)
def _dominated(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """dominated[a][g]: bitset of the roots mu with mu_i >= (gamma_g)_i for every i != a.

    One AND per coordinate i != a of the rows ``rs.at_least[i][(gamma_g)_i]``.
    """
    at_least, every = rs.at_least, (1 << len(rs.positive_roots)) - 1
    return tuple(
        tuple(
            reduce(and_, (at_least[i][r.coeffs[i]] for i in range(rs.rank) if i != a), every)
            for r in rs.positive_roots
        )
        for a in range(rs.rank)
    )


def wall_levi(ideal: UpperIdeal, w: AffineWeylElement) -> ParabolicLabel:
    """The Levi set of the simple roots whose zero hyperplanes bound the region.

    Each simple root alpha_a is settled by an exact certificate on the
    boundary rows when one is found:

    - no wall when alpha_a generates the ideal, or when a generator gamma
      is dominated off coordinate a by a root mu outside the ideal
      (``_dominated``): gamma.y > 1 and mu.y < 1 add up to
      (gamma - mu).y > 0, which fails with y_a = 0 and y >= 0;
    - a wall when the pairings y of d w^{-1}(b) (``_alcove_pairings``),
      with y_a set to zero, are positive off a and the least generator
      pairing is positive and exceeds the largest pairing of a maximal
      complement root: a multiple of y then meets every row.

    Otherwise ``_wall`` solves, on boundary rows built once per ideal.  The
    point of w = w_min(ideal) settles almost every wall; any w of the root
    system gives the same answer, since w only proposes the point.
    """
    rs = ideal.rs
    if w.rs is not rs:
        raise ValueError("elements belong to different root systems")
    p, complement = rs.rank, ~ideal.bits
    y, _ = _alcove_pairings(w)
    gens = ideal.generator_indices()
    roots = rs.positive_roots
    gen_values = [(roots[g].coeffs, sum(map(mul, roots[g].coeffs, y))) for g in gens]
    top_values = [
        (roots[g].coeffs, sum(map(mul, roots[g].coeffs, y))) for g in _complement_maximal(ideal)
    ]
    nonpositive = {i for i, v in enumerate(y) if v <= 0}
    dominated = _dominated(rs)
    rows = None
    levi = []
    for a in range(p):
        ya = y[a]
        if rs.simple_index[a] in gens or any(dominated[a][g] & complement for g in gens):
            continue
        if nonpositive <= {a}:
            # high >= 0 here, so a generator pairing above it is positive
            high = max((v - c[a] * ya for c, v in top_values), default=0)
            if all(v - c[a] * ya > high for c, v in gen_values):
                levi.append(a)
                continue
        if rows is None:
            rows = _boundary_rows(ideal)
        if _wall(rows, a, p):
            levi.append(a)
    return ParabolicLabel._make(p, frozenset(levi))


@lru_cache(maxsize=None)
def _barycenter_data(rs: RootSystem) -> tuple[tuple[int, ...], int]:
    """The integer vector d (b, 0, 1) in the affine basis, for the barycenter b = (d b) / d."""
    coords = alcove_barycenter(rs).coords
    d = lcm(*(v.denominator for v in coords))
    return (*(v.numerator * (d // v.denominator) for v in coords), 0, d), d


def _alcove_pairings(w: AffineWeylElement) -> tuple[list[int], int]:
    """Integers y and d > 0 with y_j = d (w^{-1}(b), alpha_j), b the barycenter.

    d w^{-1}(b) is the finite rows of ``w.inverse_matrix`` applied to
    d (b, 0, 1), an integer vector, and its pairings sum on ``rs.form``.
    """
    rs = w.rs
    b, d = _barycenter_data(rs)
    x = [sum(map(mul, row, b)) for row in w.inverse_matrix[: rs.rank]]
    return [sum(map(mul, x, row)) for row in rs.form], d * rs.form_scale


def alcove_membership(w: AffineWeylElement, ideal: UpperIdeal) -> bool:
    """Whether the inverse affine action drops the base alcove in the region.

    Evaluates the region conditions at d w^{-1}(b) for the barycenter b
    (``_alcove_pairings``); true exactly when the first layer of w is the
    given ideal.
    """
    if w.rs is not ideal.rs:
        raise ValueError("elements belong to different root systems")
    if not is_dominant(w):
        raise ValueError("alcove membership is defined for dominant elements")
    return _rows_hold(ideal, *_alcove_pairings(w))
