"""Points of the genus-g upper half space and their flat-torus models.

A point Z = X + iY (X symmetric, Y positive definite) determines a real
2g-dimensional flat torus whose Gram matrix has determinant one.  The
standard fundamental-set membership test and a best-effort reduction into
it are provided; reduction steps act through integral symplectic matrices
so the torus model's equivalence class is preserved.
"""

from fractions import Fraction
from typing import List, Tuple, Union

from . import _linalg as la
from .errors import ModeMixError, PreconditionError, SchemaError
from .forms import (
    FlatTorus,
    QuadraticForm,
    _nearest_int,
    _symmetrized,
    jacobi_decompose,
    lll_reduce,
)
from .rationals import format_scalar, parse_matrix

Scalar = Union[Fraction, float]


def default_u0(g: int) -> int:
    """Default fundamental-set slack: 2 in genus 1, 2^g above."""
    if g < 1:
        raise PreconditionError("positive-genus", "g must be >= 1")
    return 2 if g == 1 else 2**g


class SiegelPoint:
    """Z = X + iY with X symmetric and Y positive definite, one mode."""

    __slots__ = ("g", "x", "y")

    def __init__(self, x, y):
        if not isinstance(y, QuadraticForm):
            y = QuadraticForm(y)
        g = y.n
        rows = [list(r) for r in x]
        if len(rows) != g or any(len(r) != g for r in rows):
            raise PreconditionError("shape-match", "X must be g x g")
        if y.mode == "exact":
            try:
                rows = [[Fraction(v) for v in r] for r in rows]
            except (TypeError, ValueError):
                raise ModeMixError("X has float entries but Y is exact")
            if any(isinstance(v, float) for r in x for v in r):
                raise ModeMixError("X has float entries but Y is exact")
        else:
            rows = [[float(v) for v in r] for r in rows]
        for i in range(g):
            for j in range(i + 1, g):
                if rows[i][j] != rows[j][i]:
                    raise PreconditionError("symmetric", "X must be symmetric")
        self.g = g
        self.x = tuple(tuple(r) for r in rows)
        self.y = y

    @property
    def mode(self) -> str:
        return self.y.mode

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
        if not isinstance(doc, dict):
            raise SchemaError("point must be an object", pointer or "/")
        mode = doc.get("mode", "exact")
        x = parse_matrix(doc.get("X"), mode, f"{pointer}/X")
        y = parse_matrix(doc.get("Y"), mode, f"{pointer}/Y")
        return cls(x, QuadraticForm(y, mode))


def _sympl_j(g: int) -> List[List[int]]:
    j = la.zeros(2 * g, 2 * g)
    for i in range(g):
        j[i][g + i] = 1
        j[g + i][i] = -1
    return j


class SymplecticElement:
    """Integral 2g x 2g matrix preserving the standard alternating form."""

    __slots__ = ("g", "mat")

    def __init__(self, mat):
        rows = [[int(v) for v in r] for r in mat]
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
    def identity(cls, g: int) -> "SymplecticElement":
        return cls(la.identity(2 * g))

    @classmethod
    def from_gl(cls, u) -> "SymplecticElement":
        """GL(g, Z) embedding sending Y to U^T Y U."""
        g = len(u)
        ut = la.transpose([[int(v) for v in r] for r in u])
        u_inv = la.int_matrix(la.inv([[Fraction(v) for v in r] for r in u]))
        m = la.zeros(2 * g, 2 * g)
        for i in range(g):
            for j in range(g):
                m[i][j] = ut[i][j]
                m[g + i][g + j] = u_inv[i][j]
        return cls(m)

    @classmethod
    def translation(cls, s) -> "SymplecticElement":
        """Z -> Z + S for integral symmetric S."""
        g = len(s)
        m = la.identity(2 * g)
        for i in range(g):
            for j in range(g):
                m[i][g + j] = int(s[i][j])
        return cls(m)

    @classmethod
    def partial_inversion(cls, g: int, index: int = 0) -> "SymplecticElement":
        """Inversion in one coordinate direction; full inversion at g = 1."""
        m = la.zeros(2 * g, 2 * g)
        for i in range(g):
            if i == index:
                m[i][g + i] = -1
                m[g + i][i] = 1
            else:
                m[i][i] = 1
                m[g + i][g + i] = 1
        return cls(m)

    def blocks(self):
        g = self.g
        a = [[self.mat[i][j] for j in range(g)] for i in range(g)]
        b = [[self.mat[i][g + j] for j in range(g)] for i in range(g)]
        c = [[self.mat[g + i][j] for j in range(g)] for i in range(g)]
        d = [[self.mat[g + i][g + j] for j in range(g)] for i in range(g)]
        return a, b, c, d

    def compose(self, other: "SymplecticElement") -> "SymplecticElement":
        return SymplecticElement(la.mat_mul(self.mat, other.mat))

    def act(self, z: SiegelPoint) -> SiegelPoint:
        """Z -> (AZ + B)(CZ + D)^{-1}.

        Stays exact when C = 0 (then the action is affine in X, Y);
        otherwise the complex inverse runs in floats.
        """
        a, b, c, d = self.blocks()
        g = z.g
        if all(v == 0 for r in c for v in r):
            d_inv = la.inv([[Fraction(v) for v in r] for r in d])
            if z.mode == "float":
                d_inv = [[float(v) for v in r] for r in d_inv]
            ax = la.mat_mul(a, [list(r) for r in z.x])
            x_new = la.mat_mul(la.mat_add(ax, b), d_inv)
            y_new = la.mat_mul(la.mat_mul(a, z.y.rows), d_inv)
            x_new = _symmetrized(x_new)
            y_new = _symmetrized(y_new)
            return SiegelPoint(x_new, QuadraticForm(y_new, z.mode))
        zc = [
            [complex(float(z.x[i][j]), float(z.y.entries[i][j])) for j in range(g)]
            for i in range(g)
        ]
        num = la.mat_add(la.mat_mul(a, zc), [[complex(v) for v in r] for r in b])
        den = la.mat_add(la.mat_mul(c, zc), [[complex(v) for v in r] for r in d])
        znew = la.mat_mul(num, la.inv(den))
        x_new = _symmetrized([[v.real for v in r] for r in znew])
        y_new = _symmetrized([[v.imag for v in r] for r in znew])
        return SiegelPoint(x_new, QuadraticForm(y_new, "float"))

    def __repr__(self):
        return f"SymplecticElement({[list(r) for r in self.mat]!r})"


def metric_matrix(z: SiegelPoint) -> QuadraticForm:
    """Gram matrix of the 2g-torus attached to Z; determinant is 1.

    Blocks: [[Y^{-1}, Y^{-1} X], [X Y^{-1}, X Y^{-1} X + Y]].
    """
    g = z.g
    y = z.y.rows
    x = [list(r) for r in z.x]
    y_inv = la.inv(y)
    top_right = la.mat_mul(y_inv, x)
    bottom_left = la.mat_mul(x, y_inv)
    bottom_right = la.mat_add(la.mat_mul(x, la.mat_mul(y_inv, x)), y)
    rows = []
    for i in range(g):
        rows.append(list(y_inv[i]) + list(top_right[i]))
    for i in range(g):
        rows.append(list(bottom_left[i]) + list(bottom_right[i]))
    return QuadraticForm(_symmetrized(rows), z.mode)


def torus_model(z: SiegelPoint) -> FlatTorus:
    return FlatTorus(metric_matrix(z))


def in_siegel_set(z: SiegelPoint, u) -> bool:
    """Strict fundamental-set inequalities with slack u > 1.

    |x_ij| < u, |1 - b_ij| < u above the diagonal, 1 < u d_1, and
    d_i < u d_{i+1}.
    """
    if u <= 1:
        raise PreconditionError("slack-range", "u must exceed 1")
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

    Alternates lattice reduction of Y, integral translation of X, and a
    partial inversion when the smallest diagonal of the Jacobi
    decomposition is too small.  Best effort: the success flag reports
    whether membership at slack u was reached within the iteration cap.
    Inversions leave exact arithmetic (documented mode change), except in
    genus 1 where the full inversion is rational.
    """
    g = z.g
    if u is None:
        u = default_u0(g)
    if u < default_u0(g):
        raise PreconditionError(
            "slack-range", f"u must be >= configured default {default_u0(g)}"
        )
    gamma = SymplecticElement.identity(g)
    cur = z
    for _ in range(max_iterations):
        if in_siegel_set(cur, u):
            return cur, gamma, True
        # lattice-reduce Y
        _, u_gl = lll_reduce(cur.y)
        if u_gl != la.identity(g):
            step = SymplecticElement.from_gl(u_gl)
            cur = step.act(cur)
            gamma = step.compose(gamma)
        # translate X into [-1/2, 1/2]; X symmetric, so S is too
        s = [[-_nearest_int(cur.x[i][j]) for j in range(g)] for i in range(g)]
        if any(v != 0 for r in s for v in r):
            step = SymplecticElement.translation(s)
            cur = step.act(cur)
            gamma = step.compose(gamma)
        if in_siegel_set(cur, u):
            return cur, gamma, True
        dec = jacobi_decompose(cur.y)
        if not 1 < u * dec.d[0]:
            if g == 1:
                step = SymplecticElement.partial_inversion(1)
                # rational full inversion: -1/z
                xv, yv = cur.x[0][0], cur.y.entries[0][0]
                norm = xv * xv + yv * yv
                cur = SiegelPoint([[-xv / norm]], QuadraticForm([[yv / norm]], cur.mode))
                gamma = step.compose(gamma)
            else:
                step = SymplecticElement.partial_inversion(g, 0)
                cur = step.act(cur)
                gamma = step.compose(gamma)
    return cur, gamma, in_siegel_set(cur, u)
