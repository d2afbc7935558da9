"""Small dense matrix helpers over ints and Fractions.

Everything here works on lists of lists.  Callers pass only ints and
Fractions (a float input is read at its exact value before it gets here),
so every result is exact.
Matrices are tiny (a handful of rows), so one cubic elimination serves
them all: the fraction-free Gauss-Jordan pass of int_adjugate, which
solve reads after scaling its input to integers.
"""

from fractions import Fraction
from typing import List, Sequence

from .rationals import integer_rows

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


def solve(a, b) -> Matrix:
    """X with A X = B, exact, for A and B of ints and Fractions.

    Over common denominators N = p A and M = q B are integer matrices
    (rationals.integer_rows), so X = p adj(N) M / (q det N): one Bareiss
    pass and one Fraction per entry.  B = identity gives the inverse.
    Raises ZeroDivisionError on singular input.
    """
    (n, p), (m, q) = integer_rows(a), integer_rows(b)
    det, adj = int_adjugate(n)
    return [[Fraction(p * x, q * det) for x in r] for r in mat_mul(adj, m)]


def int_adjugate(a):
    """(det A, adj A) of a square integer matrix, in integers.

    Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22 (1968)) on
    [A | I]: step k replaces each row i != k by (p_k a_i - a_ik a_k) / p_{k-1}
    for the pivot p_k = a_kk, and every division is exact.  The left half
    ends as p_n I and the right as p_n A^-1, with p_n = det A up to the
    sign of the row swaps.  Raises ZeroDivisionError when A is singular.
    """
    n = len(a)
    aug = [list(ra) + [int(i == j) for j in range(n)] for i, ra in enumerate(a)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if aug[r][k]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
            sign = -sign
        row = aug[k]
        p = row[k]
        for i in range(n):
            if i != k:
                ri = aug[i]
                c = ri[k]
                aug[i] = [(p * x - c * y) // prev for x, y in zip(ri, row)]
        prev = p
    return sign * prev, [[sign * x for x in r[n:]] for r in aug]


def int_inverse(a) -> Matrix:
    """Inverse of an integer matrix in GL(n, Z), as adj A / det A.

    Raises ZeroDivisionError when A is singular and ValueError when it is
    not unimodular (det A is not +-1), so its inverse is not integral.
    """
    det, adj = int_adjugate(a)
    if abs(det) != 1:
        raise ValueError(f"non-integral inverse: det {det} is not +-1")
    return [[det * x for x in r] for r in adj]
