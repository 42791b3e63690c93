"""Exact linear algebra for small dense matrices.

`pivot` is the one fraction-free exchange step (Bareiss): the Shi simplex
and `adjugate` run it on int tableaux, where every division is exact.
`solve` works on fractions.Fraction; nothing is approximate.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def _elimination(a: Matrix, rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan on [a | rhs]; returns the transformed rhs columns."""
    n = len(a)
    m = [[Fraction(x) for x in row] + list(extra) for row, extra in zip(a, rhs)]
    width = len(m[0])
    for col in range(n):
        found = next((r for r in range(col, n) if m[r][col] != 0), None)
        if found is None:
            raise ValueError("matrix is singular")
        m[col], m[found] = m[found], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [row[n:width] for row in m]


def solve(a: Matrix, b) -> Vector:
    """Solve a x = b exactly for square nonsingular a."""
    out = _elimination(a, [[Fraction(x)] for x in b])
    return tuple(row[0] for row in out)


def pivot(rows: list[list[int]], r: int, c: int, det: int) -> None:
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


def adjugate(a) -> tuple[int, list[list[int]]]:
    """(det(a), adj(a)) for an int matrix with positive leading minors.

    Exchanges row k with column k for k = 0..p-1.  After k exchanges the
    common factor is the leading k x k minor, so the last pivot is det(a)
    and the tableau holds det(a) a^{-1}.  Raises ValueError when a diagonal
    pivot is not positive; the leading minors of a finite-type Cartan
    matrix are all positive.
    """
    rows = [list(row) for row in a]
    det = 1
    for k in range(len(rows)):
        p = rows[k][k]
        if p <= 0:
            raise ValueError(f"leading minor {k + 1} is {p}, not positive")
        pivot(rows, k, k, det)
        det = p
    return det, rows
