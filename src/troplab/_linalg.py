"""Small dense matrix helpers, generic over Fraction and float.

Everything here works on lists of lists and stays in whatever arithmetic
the entries carry; integer literals are neutral in both exact and float
modes.  Matrices are tiny (a handful of rows), so the cubic algorithms
with full pivoting are the right tool.
"""

from fractions import Fraction
from typing import List, Sequence

Matrix = List[list]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b) -> Matrix:
    if not a:
        return []
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_add(a, b) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def det(a):
    """Determinant by elimination with max-|pivot| selection.

    Exact for Fraction entries, numerically sane for floats.
    """
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    result = None
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[pivot_row][col] == 0:
            return 0 * m[0][0]
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        result = pivot if result is None else result * pivot
        for r in range(col + 1, n):
            factor = m[r][col] / pivot
            if factor == 0:
                continue
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return sign * result


def inv(a) -> Matrix:
    """Gauss-Jordan inverse; raises ZeroDivisionError on singular input."""
    n = len(a)
    one = 1 if n == 0 or not isinstance(a[0][0], Fraction) else Fraction(1)
    aug = [list(row) + [one if i == j else 0 * one for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot_row][col] == 0:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def int_matrix(a) -> Matrix:
    """Cast entries to int, insisting they already are integral."""
    out = []
    for row in a:
        r = []
        for x in row:
            xi = int(round(x))
            if x != xi:
                raise ValueError(f"non-integral entry {x}")
            r.append(xi)
        out.append(r)
    return out


def is_unimodular(u) -> bool:
    d = det([[Fraction(x) for x in row] for row in u])
    return d in (1, -1)
