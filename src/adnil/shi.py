"""Dominant Shi-arrangement regions of ideals, with exact feasibility.

Each upper ideal corresponds to the open region where the pairing with a
root exceeds one exactly for roots in the ideal (inside the dominant
chamber).  Feasibility and wall detection are decided by an exact
rational simplex that maximizes a slack margin, so all sign decisions
are certain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .affine import AffineWeylElement, alcove_barycenter, is_dominant, star
from .ideals import UpperIdeal
from .rootsys import RationalVector, RootSystem, _coords

__all__ = [
    "Constraint",
    "LinearConstraintSystem",
    "FeasibilityResult",
    "region_of",
    "feasible",
    "region_witness",
    "is_wall",
    "alcove_membership",
]


@dataclass(frozen=True)
class Constraint:
    """One linear condition sum(normal[i] * x[i]) relation bound."""

    normal: tuple[Fraction, ...]
    bound: Fraction
    relation: str

    def __post_init__(self):
        if self.relation not in ("=", ">", "<"):
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.relation != "=" and not any(self.normal):
            raise ValueError("inequality with zero normal")

    def holds_at(self, x) -> bool:
        value = sum(n * Fraction(c) for n, c in zip(self.normal, x))
        if self.relation == "=":
            return value == self.bound
        if self.relation == ">":
            return value > self.bound
        return value < self.bound


@dataclass(frozen=True)
class LinearConstraintSystem:
    """A conjunction of exact linear conditions on a rational point."""

    dimension: int
    constraints: tuple[Constraint, ...]

    def holds_at(self, x) -> bool:
        pt = tuple(Fraction(c) for c in _coords(x))
        return all(c.holds_at(pt) for c in self.constraints)


def _root_functional(rs: RootSystem, g: int) -> tuple[Fraction, ...]:
    return tuple(rs.pairing_rows[g])


def _region_constraints(
    rs: RootSystem, bits: int, wall: int | None
) -> tuple[Constraint, ...]:
    one = Fraction(1)
    zero = Fraction(0)
    out = []
    for a in range(rs.rank):
        g = rs.simple_index[a]
        rel = "=" if a == wall else ">"
        out.append(Constraint(_root_functional(rs, g), zero, rel))
    for g in range(len(rs.positive_roots)):
        rel = ">" if (bits >> g) & 1 else "<"
        out.append(Constraint(_root_functional(rs, g), one, rel))
    return tuple(out)


def region_of(ideal: UpperIdeal) -> LinearConstraintSystem:
    """Open region attached to the ideal by the Shi correspondence.

    Pairings with simple roots are positive, with ideal roots exceed one,
    with all other positive roots stay below one.
    """
    rs = ideal.rs
    return LinearConstraintSystem(
        rs.rank, _region_constraints(rs, ideal.bits, None)
    )


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: RationalVector | None


def _pivot(tableau, z_row, basis, row, col) -> None:
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, other in enumerate(tableau):
        if r != row and other[col]:
            factor = other[col]
            tableau[r] = [v - factor * w for v, w in zip(other, tableau[row])]
    if z_row[col]:
        factor = z_row[col]
        for j, w in enumerate(tableau[row]):
            z_row[j] -= factor * w
    basis[row] = col


def _run_simplex(tableau, z_row, basis, allowed) -> None:
    """Bland pivots until no allowed column has negative reduced cost."""
    while True:
        enter = next(
            (j for j in allowed if z_row[j] < 0),
            None,
        )
        if enter is None:
            return
        best = None
        for r, row in enumerate(tableau):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                key = (ratio, basis[r])
                if best is None or key < best[0]:
                    best = (key, r)
        if best is None:
            raise AssertionError("unbounded slack objective")
        _pivot(tableau, z_row, basis, best[1], enter)


def feasible(system: LinearConstraintSystem) -> FeasibilityResult:
    """Exact strict-feasibility test with an interior rational witness.

    Maximizes a margin t, capped at one, by which every strict inequality
    clears its bound; the open system is feasible iff the optimum is
    positive.
    """
    p = system.dimension
    t_col = 2 * p
    ncols = 2 * p + 1
    rows: list[list[Fraction]] = []
    zero, one = Fraction(0), Fraction(1)
    slack_cols = []
    for con in system.constraints:
        row = [zero] * ncols
        for i, c in enumerate(con.normal):
            row[i] = c
            row[p + i] = -c
        if con.relation == ">":
            row[t_col] = -one
            slack_cols.append(-one)
        elif con.relation == "<":
            row[t_col] = one
            slack_cols.append(one)
        else:
            slack_cols.append(zero)
        row.append(con.bound)
        rows.append(row)
    cap = [zero] * ncols
    cap[t_col] = one
    cap.append(one)
    rows.append(cap)
    slack_cols.append(one)
    # append slack columns (one per non-equality row, sign as recorded)
    m = len(rows)
    for r, sign in enumerate(slack_cols):
        if sign:
            for rr in range(m):
                rows[rr].insert(-1, sign if rr == r else zero)
    ncols = len(rows[0]) - 1
    # normalize rhs nonnegative, then add artificials
    for r in range(m):
        if rows[r][-1] < 0:
            rows[r] = [-v for v in rows[r]]
    basis = []
    for r in range(m):
        for rr in range(m):
            rows[rr].insert(-1, one if rr == r else zero)
        basis.append(ncols + r)
    total_cols = ncols + m
    # phase 1: maximize minus the sum of artificials
    z_row = [zero] * (total_cols + 1)
    for j in range(total_cols + 1):
        z_row[j] = -sum(rows[r][j] for r in range(m))
    for col in basis:
        z_row[col] = zero
    allowed = list(range(total_cols))
    _run_simplex(rows, z_row, basis, allowed)
    if z_row[-1] != 0:
        return FeasibilityResult(False, None)
    # drive leftover artificials out of the basis
    keep = []
    for r in range(m):
        if basis[r] >= ncols:
            col = next((j for j in range(ncols) if rows[r][j] != 0), None)
            if col is None:
                continue
            _pivot(rows, z_row, basis, r, col)
        keep.append(r)
    rows = [rows[r] for r in keep]
    basis = [basis[r] for r in keep]
    # phase 2: maximize t
    z_row = [zero] * (total_cols + 1)
    z_row[t_col] = -one
    for r, col in enumerate(basis):
        if col == t_col:
            factor = -z_row[col]
            for j in range(total_cols + 1):
                z_row[j] += factor * rows[r][j]
    allowed = list(range(ncols))
    _run_simplex(rows, z_row, basis, allowed)
    solution = [zero] * total_cols
    for r, col in enumerate(basis):
        solution[col] = rows[r][-1]
    margin = solution[t_col]
    if margin <= 0:
        return FeasibilityResult(False, None)
    witness = RationalVector(
        tuple(solution[i] - solution[p + i] for i in range(p))
    )
    return FeasibilityResult(True, witness)


def region_witness(ideal: UpperIdeal) -> RationalVector:
    """Exact interior point of the region of the ideal."""
    result = feasible(region_of(ideal))
    if not result.feasible:
        raise AssertionError(f"region of {ideal!r} is infeasible")
    return result.witness


def is_wall(ideal: UpperIdeal, simple: int) -> bool:
    """Whether the zero hyperplane of a simple root bounds the region.

    Decided by exact feasibility of the region conditions with the chosen
    simple pairing pinned to zero.
    """
    rs = ideal.rs
    if not 0 <= simple < rs.rank:
        raise ValueError(f"simple root index {simple} out of range")
    constraints = _region_constraints(rs, ideal.bits, simple)
    return feasible(LinearConstraintSystem(rs.rank, constraints)).feasible


def alcove_membership(w: AffineWeylElement, ideal: UpperIdeal) -> bool:
    """Whether the inverse affine action drops the base alcove in the region.

    Evaluates the region conditions at the image of the alcove barycenter
    under the inverse of w; true exactly when the first layer of w is the
    given ideal.
    """
    if not is_dominant(w):
        raise ValueError("alcove membership is defined for dominant elements")
    point = star(w.inverse(), alcove_barycenter(w.rs))
    return region_of(ideal).holds_at(point.coords)
