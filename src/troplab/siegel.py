"""Points of the genus-g upper half space and their flat-torus models.

A point Z = X + iY (X symmetric, Y positive definite) determines a real
2g-dimensional flat torus whose Gram matrix has determinant one.  The
standard fundamental-set membership test and a best-effort reduction into
it are provided; reduction steps act through integral symplectic matrices
so the torus model's equivalence class is preserved.

Every computation runs on exact values: a float point is read at the
exact (dyadic) values of its entries, and its answer is the exact one
rounded once per entry.
"""

import math
import sys
from fractions import Fraction
from typing import List, Tuple

from . import _linalg as la
from .errors import NotPositiveDefiniteError, PreconditionError
from .forms import FlatTorus, QuadraticForm, jacobi_decompose, lll_reduce
from .rationals import (
    check_symmetric, coerce_integer, coerce_matrix, coerce_number, format_scalar, integer_rows,
    integral_matrix, matrix_rows, nearest_int, parse_matrix, parse_mode, parse_object, parse_size,
)


def default_u0(g: int) -> int:
    """Default fundamental-set slack: 2 in genus 1, 2^g above."""
    coerce_integer(g, "positive-genus", "g must be >= 1", low=1)
    return 2 if g == 1 else 2**g


class SiegelPoint:
    """Z = X + iY with X symmetric and Y positive definite, one mode."""

    __slots__ = ("g", "x", "y")

    def __init__(self, x, y):
        if not isinstance(y, QuadraticForm):
            y = QuadraticForm(y)
        g = y.n
        rows = matrix_rows(coerce_matrix(x, y.mode, "X")[0], "shape-match", "X must be g x g", g, g)
        check_symmetric(rows, "X")
        self.g = g
        self.x = tuple(tuple(r) for r in rows)
        self.y = y

    @property
    def mode(self) -> str:
        return self.y.mode

    def to_exact(self) -> "SiegelPoint":
        """The point itself when exact; else its entries' exact values."""
        if self.mode == "exact":
            return self
        return SiegelPoint([[Fraction(v) for v in r] for r in self.x], self.y.to_exact())

    def __eq__(self, other):
        return (
            isinstance(other, SiegelPoint)
            and self.x == other.x
            and self.y == other.y
        )

    def __repr__(self):
        return f"SiegelPoint(x={[list(r) for r in self.x]!r}, y={self.y!r})"

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "X": [[format_scalar(v) for v in r] for r in self.x],
            "Y": [[format_scalar(v) for v in r] for r in self.y.entries],
            "mode": self.mode,
        }

    @classmethod
    def from_json_dict(cls, doc: dict, pointer: str = "") -> "SiegelPoint":
        parse_object(doc, (), pointer, "point must be an object")
        mode = parse_mode(doc, pointer)
        x = parse_matrix(doc.get("X"), mode, f"{pointer}/X")
        y = parse_matrix(doc.get("Y"), mode, f"{pointer}/Y")
        parse_size(doc, "g", len(y), "Y", pointer)
        return cls(x, QuadraticForm(y, mode))


def _sympl_j(g: int) -> List[List[int]]:
    j = la.zeros(2 * g, 2 * g)
    for i in range(g):
        j[i][g + i] = 1
        j[g + i][i] = -1
    return j


class SymplecticElement:
    """Integral 2g x 2g matrix preserving the standard alternating form.

    The constructor reads integer entries, rejecting any other, and checks
    gamma^T J gamma = J.  The named constructors and compose build
    matrices that are symplectic by construction, from checked inputs,
    and skip that product.
    """

    __slots__ = ("g", "mat")

    def __init__(self, mat):
        rows = integral_matrix(mat, "gamma")
        n = len(rows)
        if n % 2 != 0 or any(len(r) != n for r in rows):
            raise PreconditionError("even-size", "matrix must be 2g x 2g")
        g = n // 2
        j = _sympl_j(g)
        prod = la.mat_mul(la.transpose(rows), la.mat_mul(j, rows))
        if prod != j:
            raise PreconditionError("symplectic", "gamma^T J gamma != J")
        self.g = g
        self.mat = tuple(tuple(r) for r in rows)

    @classmethod
    def _symplectic(cls, rows) -> "SymplecticElement":
        """The element of 2g x 2g integer rows known to be symplectic."""
        element = object.__new__(cls)
        element.g = len(rows) // 2
        element.mat = tuple(tuple(r) for r in rows)
        return element

    @classmethod
    def identity(cls, g: int) -> "SymplecticElement":
        return cls._symplectic(la.identity(2 * g))

    @classmethod
    def from_gl(cls, u) -> "SymplecticElement":
        """GL(g, Z) embedding sending Y to U^T Y U.

        diag(U^T, U^-1) is symplectic for every invertible U; U must be
        integral with an integral inverse.
        """
        u = matrix_rows(u, "square-matrix", "U must be g x g")
        g = len(u)
        if any(len(r) != g for r in u):
            raise PreconditionError("square-matrix", "U must be g x g")
        u = integral_matrix(u, "U", "unimodular")
        try:
            u_inv = la.int_inverse(u)
        except (ArithmeticError, ValueError):
            raise PreconditionError("unimodular", "U must be in GL(g, Z)") from None
        ut = la.transpose(u)
        m = la.zeros(2 * g, 2 * g)
        for i in range(g):
            m[i][:g] = ut[i]
            m[g + i][g:] = u_inv[i]
        return cls._symplectic(m)

    @classmethod
    def translation(cls, s) -> "SymplecticElement":
        """Z -> Z + S for integral symmetric S."""
        rows = integral_matrix(s, "S")
        g = len(rows)
        if any(len(r) != g for r in rows):
            raise PreconditionError("symmetric", "S must be a symmetric g x g matrix")
        check_symmetric(rows, "S")
        m = la.identity(2 * g)
        for i in range(g):
            m[i][g:] = rows[i]
        return cls._symplectic(m)

    @classmethod
    def partial_inversion(cls, g: int, index: int = 0) -> "SymplecticElement":
        """Inversion in one coordinate direction; full inversion at g = 1."""
        coerce_integer(g, "positive-genus", "g must be an integer >= 1", low=1)
        coerce_integer(index, "index-range", f"index must be an integer in 0..{g - 1}", 0, g - 1)
        m = la.zeros(2 * g, 2 * g)
        for i in range(g):
            if i == index:
                m[i][g + i] = -1
                m[g + i][i] = 1
            else:
                m[i][i] = 1
                m[g + i][g + i] = 1
        return cls._symplectic(m)

    def blocks(self):
        g = self.g
        a = [[self.mat[i][j] for j in range(g)] for i in range(g)]
        b = [[self.mat[i][g + j] for j in range(g)] for i in range(g)]
        c = [[self.mat[g + i][j] for j in range(g)] for i in range(g)]
        d = [[self.mat[g + i][g + j] for j in range(g)] for i in range(g)]
        return a, b, c, d

    def compose(self, other: "SymplecticElement") -> "SymplecticElement":
        return SymplecticElement._symplectic(la.mat_mul(self.mat, other.mat))

    def act(self, z: SiegelPoint) -> SiegelPoint:
        """Z -> (AZ + B)(CZ + D)^{-1}, returned in the mode of Z.

        W = gamma Z is symmetric, so W(CZ + D) = AZ + B transposes to
        (CZ + D)^T W = (AZ + B)^T.  With P = CX + D and Q = CY its real and
        imaginary parts form one real 2g x 2g system
        [[P^T, -Q^T], [Q^T, P^T]] [Re W; Im W] = [(AX + B)^T; (AY)^T],
        solved by one elimination on the exact values of Z; a float Z gets
        W rounded once per entry.
        """
        a, b, c, d = self.blocks()
        exact = z.to_exact()
        g, x, y = z.g, exact.x, exact.y.rows
        p = la.transpose(la.mat_add(la.mat_mul(c, x), d))
        q = la.transpose(la.mat_mul(c, y))
        lhs = [pr + [-v for v in qr] for pr, qr in zip(p, q)]
        lhs += [qr + pr for pr, qr in zip(p, q)]
        rhs = la.transpose(la.mat_add(la.mat_mul(a, x), b))
        rhs += la.transpose(la.mat_mul(a, y))
        w = la.solve(lhs, rhs)
        return SiegelPoint(w[:g], QuadraticForm(w[g:], z.mode))

    def __repr__(self):
        return f"SymplecticElement({[list(r) for r in self.mat]!r})"


def metric_matrix(z: SiegelPoint) -> QuadraticForm:
    """Gram matrix of the 2g-torus attached to Z; determinant is 1.

    Blocks: [[Y^{-1}, Y^{-1} X], [X Y^{-1}, X Y^{-1} X + Y]], exact; a
    float point gets the exact Gram rounded once per entry.  That Gram is
    positive definite because Y is, but its rounding need not be when Y is
    nearly singular: such a point fails `well-conditioned`.
    """
    exact = z.to_exact()
    x, y = exact.x, exact.y.rows
    y_inv = la.solve(y, la.identity(z.g))
    top_right = la.mat_mul(y_inv, x)
    bottom_left = la.mat_mul(x, y_inv)
    bottom_right = la.mat_add(la.mat_mul(x, la.mat_mul(y_inv, x)), y)
    rows = [r + s for r, s in zip(y_inv, top_right)]
    rows += [r + s for r, s in zip(bottom_left, bottom_right)]
    try:
        return QuadraticForm._from_gram(*integer_rows(rows), z.mode)
    except NotPositiveDefiniteError as exc:  # only a float point's rounding
        raise PreconditionError(
            "well-conditioned",
            "the exact Gram of this point is positive definite but its rounding to "
            f"doubles is not ({exc}); give the point in mode exact",
        )


def torus_model(z: SiegelPoint) -> FlatTorus:
    return FlatTorus(metric_matrix(z))


def in_siegel_set(z: SiegelPoint, u) -> bool:
    """Strict fundamental-set inequalities with slack u > 1.

    |x_ij| < u, |1 - b_ij| < u above the diagonal, 1 < u d_1, and
    d_i < u d_{i+1}.  An infinite u would admit every point, so u must
    be finite, and for a float point, whose products with u are doubles,
    within the double range.
    """
    if not 1 < coerce_number(u, "slack-range", "u must be a real number") < math.inf or (
        z.mode == "float" and u > sys.float_info.max
    ):
        raise PreconditionError("slack-range", f"u must be finite and exceed 1, not {u!r}")
    g = z.g
    for i in range(g):
        for j in range(g):
            if abs(z.x[i][j]) >= u:
                return False
    dec = jacobi_decompose(z.y)
    for i in range(g):
        for j in range(i + 1, g):
            if abs(1 - dec.b[i][j]) >= u:
                return False
    if not 1 < u * dec.d[0]:
        return False
    for i in range(g - 1):
        if not dec.d[i] < u * dec.d[i + 1]:
            return False
    return True


def siegel_reduce(
    z: SiegelPoint, u=None, max_iterations: int = 64
) -> Tuple[SiegelPoint, SymplecticElement, bool]:
    """Move Z into the fundamental set, tracking the symplectic witness.

    Each round lattice-reduces Y (Y -> U^T Y U, X -> U^T X U), translates
    X by an integral symmetric S into [-1/2, 1/2], and, if Z is still
    outside, applies the partial inversion in the first coordinate.  The
    rounds run on the exact values of Z, so a float point takes the steps
    of its exact copy and gets back that copy's witness and flag, with the
    reduced point rounded once per entry; an exact point stays exact.

    Why the rounds end: after LLL and translation only 1 < u d_1 can
    fail.  Then |x_11| <= 1/2 and y_11 = d_1 <= 1/u <= 1/2, so
    |z_11|^2 < 1 and the inversion, which divides det Y by |z_11|^2,
    raises det Y; the other steps keep it.  On one orbit det Im(gamma Z)
    takes finitely many values above any bound (Siegel), so it cannot
    rise forever.  max_iterations stays as a user bound; the flag reports
    whether membership at slack u was reached within it.
    """
    g = z.g
    coerce_integer(
        max_iterations, "nonnegative-iterations", "max_iterations must be an integer >= 0", low=0
    )
    if u is None:
        u = default_u0(g)
    if not default_u0(g) <= coerce_number(u, "slack-range", "u must be a real number") < math.inf:
        raise PreconditionError(
            "slack-range",
            f"u must be finite and >= configured default {default_u0(g)}, not {u!r}",
        )
    gamma = SymplecticElement.identity(g)
    cur = z.to_exact()
    ok = in_siegel_set(cur, u)
    for _ in range(max_iterations):
        if ok:
            break
        y, u_gl = lll_reduce(cur.y)
        x = cur.x
        if u_gl != la.identity(g):
            gamma = SymplecticElement.from_gl(u_gl).compose(gamma)
            x = la.mat_mul(la.transpose(u_gl), la.mat_mul(x, u_gl))
        # translate X into [-1/2, 1/2]; X symmetric, so S is too
        s = [[-nearest_int(v) for v in r] for r in x]
        if any(v != 0 for r in s for v in r):
            gamma = SymplecticElement.translation(s).compose(gamma)
            x = la.mat_add(x, s)
        cur = SiegelPoint(x, y)
        ok = in_siegel_set(cur, u)
        if not ok and not 1 < u * cur.y.entries[0][0]:
            step = SymplecticElement.partial_inversion(g, 0)
            cur = step.act(cur)
            gamma = step.compose(gamma)
            ok = in_siegel_set(cur, u)
    return SiegelPoint(cur.x, cur.y if z.mode == "exact" else cur.y.to_float()), gamma, ok
