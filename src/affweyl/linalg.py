"""Exact linear algebra over the rationals.

Small dense routines on tuples of :class:`~fractions.Fraction`.  The matrices
appearing in this package have single-digit rank, so plain Gaussian
elimination is both fast enough and easy to audit.  No floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

Scalar = Union[int, Fraction]
QVec = tuple[Fraction, ...]
QMat = tuple[QVec, ...]


def qvec(v: Sequence[Scalar]) -> QVec:
    return tuple(Fraction(c) for c in v)


def vec_add(a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vec_dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def zero_vec(n: int) -> tuple[int, ...]:
    return (0,) * n


def unit_vec(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def identity_mat(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(unit_vec(n, i) for i in range(n))


def mat_vec(m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> tuple:
    return tuple(vec_dot(row, v) for row in m)


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> tuple:
    bt = list(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def mat_transpose(m: Sequence[Sequence[Scalar]]) -> tuple:
    return tuple(zip(*m))


def solve_columns(
    cols: Sequence[Sequence[Scalar]], target: Sequence[Scalar]
) -> Optional[QVec]:
    """One solution ``c`` of ``sum_i c[i]*cols[i] = target``, or None.

    Free variables are set to zero, so when the columns are linearly
    independent the returned solution is the unique one.

    >>> solve_columns([(1, -1)], (2, -2))
    (Fraction(2, 1),)
    >>> solve_columns([(1, -1)], (1, 1)) is None
    True
    """
    n = len(target)
    m = len(cols)
    for col in cols:
        if len(col) != n:
            raise ValueError("column/target dimension mismatch")
    rows = [[Fraction(cols[j][i]) for j in range(m)] + [Fraction(target[i])] for i in range(n)]
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if rows[i][m] != 0:
            return None
    sol = [Fraction(0)] * m
    for pr, pc in pivots:
        sol[pc] = rows[pr][m]
    return tuple(sol)


def mat_rank(m: Sequence[Sequence[Scalar]]) -> int:
    rows = [list(map(Fraction, row)) for row in m]
    if not rows:
        return 0
    n, nc = len(rows), len(rows[0])
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == n:
            break
    return r


def mat_inverse(m: Sequence[Sequence[Scalar]]) -> QMat:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    n = len(m)
    rows = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(m)
    ]
    if any(len(row) != 2 * n for row in rows):
        raise ValueError("matrix is not square")
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            raise ValueError("matrix is singular")
        rows[c], rows[pr] = rows[pr], rows[c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


def fixed_space_dim(m: Sequence[Sequence[Scalar]]) -> int:
    """Dimension of the fixed space ker(m - id) over the rationals."""
    n = len(m)
    delta = [
        [Fraction(m[i][j]) - (1 if i == j else 0) for j in range(n)] for i in range(n)
    ]
    return n - mat_rank(delta)
