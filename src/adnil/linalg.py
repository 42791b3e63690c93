"""Exact rational linear algebra for small dense matrices.

All entries are fractions.Fraction; nothing here is approximate.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def to_matrix(rows) -> Matrix:
    """Coerce an iterable of rows into an immutable Fraction matrix."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_vec(a: Matrix, v) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def _elimination(a: Matrix, rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan on [a | rhs]; returns the transformed rhs columns."""
    n = len(a)
    m = [[Fraction(x) for x in row] + list(extra) for row, extra in zip(a, rhs)]
    width = len(m[0])
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [row[n:width] for row in m]


def invert(a: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on singular input."""
    n = len(a)
    eye = identity(n)
    out = _elimination(a, [list(row) for row in eye])
    return tuple(tuple(row) for row in out)


def solve(a: Matrix, b) -> Vector:
    """Solve a x = b exactly for square nonsingular a."""
    out = _elimination(a, [[Fraction(x)] for x in b])
    return tuple(row[0] for row in out)


def determinant(a: Matrix) -> Fraction:
    """Exact determinant by fraction-preserving elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det
