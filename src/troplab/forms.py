"""Positive-definite quadratic forms, flat tori, and their covering radii.

The form is the Gram matrix of a lattice basis; the associated flat torus
is R^n / Z^n with that inner product.  Exact mode keeps every entry a
Fraction so reduction and covering radii in every dimension are exact.
Float mode holds numerically sampled inputs, each entry read as its exact
(dyadic) value, and one rounding rule holds for every float answer: it
is the exact answer rounded once.  A form read from outside is
eliminated once, when it is built, fraction-free in integers; positive
definiteness, det, jacobi_decompose, LLL and the covering radius all
read those minors.  A derived form keeps the integers its derivation
produced (QuadraticForm._from_gram): LLL, scaling, rescaling, Jacobi
recomposition and the exact copy of a float form carry their minors
over, and a transform, a product, a tropical Jacobian or a Siegel metric
is eliminated once on its integer Gram.  The covering radius splits the
integer Gram into orthogonal blocks and LLL-reduces every block of
dimension >= 2 once in integers: a 2-dimensional block reads its closed
form off the reduced basis, and a larger one goes to the lattice search.

The search (troplab.lattice: enumeration, shortest vectors, the covering
radius of a block of dimension >= 3, equivalence and homothety) loads
only when a call needs it, so building forms, Siegel points and tori
compiles none of it.  Four of its names, shortest_vector, is_equivalent,
is_homothetic and cube_sign_walk, also resolve here, and load it on
first access.

Mixing modes silently would hide precision loss, so mixed-mode operations
raise and callers convert explicitly (to_float is lossy and deliberate,
to_exact is lossless binary expansion).  Entries enter a mode through
rationals.coerce_matrix, as the X of a Siegel point and the edge lengths
of a graph do: a float in exact mode raises, and a float entry must be
finite.
"""

import math
import operator
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

import troplab

from . import _linalg as la
from .errors import ModeMixError, NotPositiveDefiniteError, PreconditionError
from .rationals import (
    Scalar, as_integers, check_symmetric, coerce_integer, coerce_matrix, coerce_number,
    coerce_vector, exponent_split, format_scalar, integer_rows, integral_matrix, matrix_rows,
    parse_matrix, parse_mode, parse_object, parse_size, past_double, quotient, round_half_away,
)

# names whose home is the lattice search: each resolves here on first
# access, and only then loads that module
_SEARCH_NAMES = ("shortest_vector", "is_equivalent", "is_homothetic", "cube_sign_walk")


def __getattr__(name):
    # importlib asks for __path__ on every `from .forms import ...`, so
    # every other name fails at once, without loading the search
    if name not in _SEARCH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(troplab.lattice, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_SEARCH_NAMES))


class QuadraticForm:
    """Symmetric positive-definite matrix with a declared arithmetic mode.

    Entries are normalized to Fraction ("exact") or float ("float") and
    stored immutably with the fraction-free LDL^T of the Gram
    (_integer_ldl).  Positive definiteness is decided exactly on its
    leading minors, so a float form is accepted exactly when its
    to_exact() is; the error names the first minor that is not positive.
    det() and jacobi_decompose are exact, or on a float form the exact
    value rounded once.
    """

    __slots__ = ("n", "entries", "mode", "_gram", "_den", "_minors", "_lam")

    def __init__(self, entries: Sequence[Sequence], mode: Optional[str] = None):
        rows, mode = coerce_matrix(entries, mode)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise PreconditionError("square-matrix", "entries must be n x n")
        check_symmetric(rows, "entries")
        for i, r in enumerate(rows):
            r[:i] = [rows[j][i] for j in range(i)]  # one object for both halves
        self._set(rows, mode, *_integer_ldl(rows))

    def _set(self, rows, mode, g, den, d, lam):
        # the slots of every form, read from outside or derived
        self.n = len(rows)
        self.entries = tuple(tuple(r) for r in rows)
        self.mode = mode
        self._gram, self._den, self._minors, self._lam = g, den, d, lam

    @classmethod
    def _from_gram(cls, g, den: int, mode: str, minors=None) -> "QuadraticForm":
        """The form g / den in mode, for a symmetric integer Gram g and den > 0.

        It is put over the lcm of its entries' denominators, as the
        constructor puts it: g and den are divided by c = gcd(den, content
        of g), the minors d_i by c^i and lambda_ij by c^(j+1).  minors are
        (d, lam) of g when the caller has them; without them g is
        eliminated in integers, and a leading minor <= 0 raises
        NotPositiveDefiniteError as the constructor does.  A float form
        rounds each entry once and reads the result back, since it stores
        the integers of its rounded entries.
        """
        form = cls.__new__(cls)
        n = len(g)
        rows = [[0] * n for _ in range(n)]
        if mode == "float":
            for i in range(n):
                for j in range(i + 1):
                    rows[i][j] = rows[j][i] = quotient(mode, g[i][j], den)
            form._set(rows, mode, *_integer_ldl(rows))
            return form
        c = math.gcd(den, *(x for r in g for x in r))
        if c != 1:
            g, den = [[x // c for x in r] for r in g], den // c
            if minors is not None:
                minors = _scaled_minors(minors, c, operator.floordiv)
        g = tuple(map(tuple, g))
        d, lam = _eliminate(g) if minors is None else minors
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = Fraction(g[i][j], den)
        form._set(rows, mode, g, den, tuple(d), tuple(map(tuple, lam)))
        return form

    def _scaled(self, p: int, q: int) -> "QuadraticForm":
        """(p / q) F for integers p, q > 0, on the stored integers: p g
        over q den, whose minors are d_i p^i and lambda_ij p^(j+1)."""
        g = [[p * x for x in r] for r in self._gram]
        minors = None
        if self.mode == "exact":
            minors = _scaled_minors((self._minors, self._lam), p, operator.mul)
        return QuadraticForm._from_gram(g, self._den * q, self.mode, minors)

    # -- basic algebra ---------------------------------------------------

    def det(self) -> Scalar:
        """d_n / den^n from the stored minors."""
        return quotient(self.mode, self._minors[-1], self._den**self.n)

    def scale(self, c: Scalar) -> "QuadraticForm":
        """c F for c > 0, read in the form's mode."""
        (c,), _ = coerce_vector([c], self.mode, "c")
        if c <= 0:
            raise PreconditionError("positive-scale", "scale factor must be > 0")
        (p,), q = as_integers([c])
        return self._scaled(p, q)

    def evaluate(self, v: Sequence[int]) -> Scalar:
        """Value of the form on a vector of n numbers (coerce_vector)."""
        v, _ = coerce_vector(v, None, "v")
        if len(v) != self.n:
            raise PreconditionError("shape-match", f"v must have {self.n} entries")
        return sum(x * y for x, y in zip(v, la.mat_vec(self.entries, v)))

    def transform(self, u: Sequence[Sequence[int]]) -> "QuadraticForm":
        """U^T F U for an integer matrix U (columns are new basis vectors).

        U has n rows of equal length and integral entries, read by value
        (an integral float counts).  Computed on the stored integer Gram; a
        float form gets the exact product rounded once per entry.
        """
        what = f"U must have {self.n} rows of equal length"
        rows = matrix_rows(u, "matrix-shape", what, self.n)
        if any(len(r) != len(rows[0]) for r in rows):
            raise PreconditionError("matrix-shape", what)
        u = integral_matrix(rows, "U")
        m = la.mat_mul(la.transpose(u), la.mat_mul(self._gram, u))
        return QuadraticForm._from_gram(m, self._den, self.mode)

    def to_float(self) -> "QuadraticForm":
        return QuadraticForm._from_gram(self._gram, self._den, "float")

    def to_exact(self) -> "QuadraticForm":
        """The form itself when exact; else its entries' exact values,
        which its integers already hold."""
        if self.mode == "exact":
            return self
        return QuadraticForm._from_gram(self._gram, self._den, "exact", (self._minors, self._lam))

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and self.mode == other.mode
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.mode, self.entries))

    def __repr__(self):
        return f"QuadraticForm({[list(r) for r in self.entries]!r}, mode={self.mode!r})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "entries": [[format_scalar(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_json_dict(cls, doc: dict, pointer: str = "") -> "QuadraticForm":
        parse_object(doc, (), pointer, "form must be an object")
        mode = parse_mode(doc, pointer)
        rows = parse_matrix(doc.get("entries"), mode, pointer + "/entries")
        parse_size(doc, "n", len(rows), "entries", pointer)
        return cls(rows, mode)

    @property
    def rows(self) -> List[list]:
        return [list(r) for r in self.entries]


def _integer_ldl(entries):
    """Fraction-free LDL^T of F, a float read as its dyadic value.

    Returns (g, den, d, lam): g = den * F is integral, d[i] is the i-th
    leading principal minor of g (d[0] = 1) and lam[i][j] = d[j+1] mu_ij
    for j < i, all integers by exact division (Bareiss, Math. Comp. 22
    (1968); Cohen, Alg. 2.6.7).  The first d[i] <= 0 raises
    NotPositiveDefiniteError(i).
    """
    # the lower triangle is all the elimination reads
    low, den = integer_rows(r[: i + 1] for i, r in enumerate(entries))
    d, lam = _eliminate(low)
    n = len(low)
    g = tuple(tuple(low[max(i, j)][min(i, j)] for j in range(n)) for i in range(n))
    return g, den, d, lam


def _eliminate(low):
    """(d, lam) of the integer Gram whose row i begins with low[i][: i + 1]."""
    d, lam = [1], []
    for i, gi in enumerate(low):
        li = []
        lam.append(li)
        for j in range(i + 1):
            t, lj = gi[j], lam[j]
            for s in range(j):
                t = (d[s + 1] * t - li[s] * lj[s]) // d[s]
            li.append(t)
        if li[i] <= 0:
            raise NotPositiveDefiniteError(i + 1)
        d.append(li.pop())
    return tuple(d), tuple(map(tuple, lam))


def _scaled_minors(minors, p: int, op):
    """(d, lam) of the integer Gram p g (op = operator.mul) or g / p
    (operator.floordiv, exact) from those of g: d_i p^i and lambda_ij p^(j+1)."""
    d, lam = minors
    powers = [1]
    for _ in d[1:]:
        powers.append(powers[-1] * p)
    return (
        [op(x, w) for x, w in zip(d, powers)],
        [[op(x, w) for x, w in zip(r, powers[1:])] for r in lam],
    )


class JacobiDecomposition(NamedTuple):
    """F = B^T diag(d) B with B unit upper triangular and d positive."""

    b: tuple
    d: tuple

    def recompose(self) -> QuadraticForm:
        """The form B^T diag(d) B: float when an entry of B or d is a float
        (rationals.coerce_matrix), else exact, and in both modes computed
        exactly, a float form being the exact Gram rounded once per entry.

        The upper triangle of B and d are read as integers, B = B' / beta
        and d = d' / delta, so that g = B'^T diag(d') B' is the Gram over
        beta^2 delta; entry (i, j) sums b'_ki d'_k b'_kj over k <= i, the
        rows where column i of B can be nonzero.  With B unit triangular
        the minors of an exact g need no elimination: d_i is the product
        of beta^2 d'_k over k < i, and lambda_ij = d_{j+1} b_ji.
        """
        d, d_mode = coerce_vector(self.d, None, "d")
        n = len(d)
        b, b_mode = coerce_matrix(self.b, None, "B")
        b = matrix_rows(b, "shape-match", "B must be n x n for the n entries of d", n, n)
        mode = "exact" if b_mode == d_mode == "exact" else "float"
        b, beta = integer_rows(r[k:] for k, r in enumerate(b))
        b = [[0] * k + r for k, r in enumerate(b)]
        d, delta = as_integers(d)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = sum(b[k][i] * (d[k] * b[k][j]) for k in range(i + 1))
        minors = None
        if all(b[k][k] == beta for k in range(n)):
            minors = [1]
            for k, x in enumerate(d):
                if x <= 0:
                    raise NotPositiveDefiniteError(k + 1)
                minors.append(minors[-1] * beta * beta * x)
            lam = [[minors[j + 1] // beta * b[j][i] for j in range(i)] for i in range(n)]
            minors = (minors, lam)
        return QuadraticForm._from_gram(rows, beta * beta * delta, mode, minors)


def jacobi_decompose(form: QuadraticForm) -> JacobiDecomposition:
    """Unit-upper-triangular diagonalization of a positive-definite form.

    The diagonal entries are the squared lengths of the Gram-Schmidt
    vectors of the standard basis.  Both factors are read off the minors
    stored with the form: b_ij = lambda_ji / d_{i+1} for i < j and
    d_i = d_{i+1} / (d_i den), exact, or on a float form rounded once.
    """
    return jacobi_from_minors(form.mode, form._den, form._minors, form._lam)


def jacobi_from_minors(mode: str, den: int, d, lam) -> JacobiDecomposition:
    """The Jacobi factors of the integer Gram with minors d and lam, over den."""
    n = len(lam)
    b = tuple(
        tuple(
            quotient(mode, lam[j][i], d[i + 1]) if j > i else int(j == i)
            for j in range(n)
        )
        for i in range(n)
    )
    dvec = tuple(quotient(mode, d[i + 1], d[i] * den) for i in range(n))
    if mode == "float" and 0.0 in dvec:
        raise PreconditionError(
            "well-conditioned",
            f"the Gram-Schmidt length d[{dvec.index(0.0)}] of this form is positive but "
            "rounds to 0.0 in doubles; decompose its to_exact()",
        )
    return JacobiDecomposition(b=b, d=dvec)


# -- LLL reduction ---------------------------------------------------------

# the Lovasz constant of every reduction; covering_radius_sq relies on
# 3/4 in dimension 2
LLL_DELTA = Fraction(3, 4)


def lll_reduce(form: QuadraticForm) -> Tuple[QuadraticForm, List[List[int]]]:
    """Gram-matrix LLL.  Returns (reduced, U) with U^T F U = reduced.

    For k = 1, 2, ... size-reduce b_k against b_{k-1}, ..., b_0 (rounding
    mu_kj half away from zero), then keep k + 1 if the Lovasz condition
    with delta = LLL_DELTA holds, else swap b_{k-1}, b_k and step back.
    This is the integral LLL (H. Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.6.7) on the integer Gram stored with
    the form: it starts from the leading minors d_i and
    lambda_ij = d_{j+1} mu_ij of the form's elimination, which stay
    integers and are updated in O(n) per step by exact division.  A float
    form is read from the exact values of its entries, so it takes the
    same steps as its to_exact() and gets back the exact reduced Gram
    rounded once per entry.
    """
    if form.n <= 1:
        return form, la.identity(form.n)
    m, d, lam = [list(r) for r in form._gram], list(form._minors), [list(r) for r in form._lam]
    u = _lll_integer(m, d, lam)
    return QuadraticForm._from_gram(m, form._den, form.mode, (d, lam)), u


def _translate(m, u, k, j, q):
    # b_k <- b_k - q b_j
    n = len(m)
    for r in range(n):
        u[r][k] -= q * u[r][j]
    mkk = m[k][k] - 2 * q * m[k][j] + q * q * m[j][j]
    for i in range(n):
        if i != k:
            m[k][i] -= q * m[j][i]
            m[i][k] = m[k][i]
    m[k][k] = mkk


def _swap(m, u, k):
    # b_{k-1} <-> b_k
    for r in range(len(m)):
        u[r][k - 1], u[r][k] = u[r][k], u[r][k - 1]
    m[k - 1], m[k] = m[k], m[k - 1]
    for r in range(len(m)):
        m[r][k - 1], m[r][k] = m[r][k], m[r][k - 1]


def _lll_integer(m, d, lam) -> List[List[int]]:
    """LLL-reduce the integer Gram m, its minors d and lam, in place; returns U."""
    dn, dd = LLL_DELTA.numerator, LLL_DELTA.denominator
    n = len(m)
    u = la.identity(n)
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            q = round_half_away(lk[j], d[j + 1])
            if q:
                _translate(m, u, k, j, q)
                lk[j] -= q * d[j + 1]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
        lkk = lk[k - 1]
        # B_k >= (LLL_DELTA - mu^2) B_{k-1}, times d_k d_{k-1} dd
        if dd * (d[k + 1] * d[k - 1] + lkk * lkk) >= dn * d[k] * d[k]:
            k += 1
            continue
        # Cohen's SWAPI: rows k-1 and k of lam trade their first k-1
        # entries, columns k-1 and k of the later rows mix, d_k changes
        _swap(m, u, k)
        lam[k - 1][: k - 1], lk[: k - 1] = lk[: k - 1], lam[k - 1][: k - 1]
        b = (d[k - 1] * d[k + 1] + lkk * lkk) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lkk * t) // d[k]
            li[k - 1] = (b * t + lkk * li[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    return u


# -- covering radius -------------------------------------------------------


def _orthogonal_components(g) -> List[List[int]]:
    """Connected components of the off-diagonal support graph of g."""
    n = len(g)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and g[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def covering_radius_sq(form: QuadraticForm) -> Scalar:
    """Covering radius squared: a Fraction for exact forms.

    Splits the integer Gram g = den F stored with the form into orthogonal
    blocks (zero off-diagonal couplings) and adds their values by the
    Pythagorean law; a float form is read on the same integers, and its
    exact answer rounded once.  A block of dimension 1 is half the circle,
    g / (4 den).  Every larger block is LLL-reduced once in integers, and
    the reduced block with its minors goes to the reader for its size.  In
    dimension 2, LLL with delta = 3/4 leaves |b12| <= b11 / 2 and
    b22 >= 3/4 b11, so with b12 made <= 0 the reduced basis is an obtuse
    superbase; the Delaunay triangles are then non-obtuse and congruent,
    and mu^2 is their circumradius, q1 q2 q3 / (4 det den).  A block of
    dimension >= 3 goes to lattice.block_covering_radius_sq; the package
    loads that module on the first such block (troplab.__getattr__).
    """
    gram, den = form._gram, form._den
    total = Fraction(0)
    for comp in _orthogonal_components(gram):
        g = [[gram[i][j] for j in comp] for i in comp]
        if len(g) == 1:
            total += Fraction(g[0][0], 4 * den)
            continue
        _, _, d, lam = _integer_ldl(g)
        d, lam = list(d), [list(r) for r in lam]
        _lll_integer(g, d, lam)
        if len(g) == 2:
            q1, q2, b = g[0][0], g[1][1], -abs(g[0][1])
            total += Fraction(q1 * q2 * (q1 + 2 * b + q2), 4 * d[2] * den)
        else:
            total += troplab.lattice.block_covering_radius_sq(g, d, lam, den)
    return quotient(form.mode, total.numerator, total.denominator)


def covering_radius(form: QuadraticForm) -> float:
    """The covering radius as a float, the root of the exact square taken
    so that only a radius itself past the double range fails `finite`."""
    mu2 = covering_radius_sq(form)
    if form.mode == "float":
        return math.sqrt(mu2)
    y, k = exponent_split(mu2, 2)
    try:
        return math.ldexp(math.sqrt(y), k)
    except OverflowError:
        raise past_double(
            "the covering radius", mu2, 2, "covering_radius_sq gives its square exactly"
        ) from None


# -- flat tori ---------------------------------------------------------------


class FlatTorus:
    """R^n / Z^n with the inner product given by a positive-definite Gram.

    The diameter equals the covering radius of the Gram form.
    """

    __slots__ = ("gram",)

    def __init__(self, gram):
        if not isinstance(gram, QuadraticForm):
            gram = QuadraticForm(gram)
        self.gram = gram

    @property
    def dimension(self) -> int:
        return self.gram.n

    def diameter(self) -> float:
        return covering_radius(self.gram)

    def __eq__(self, other):
        return isinstance(other, FlatTorus) and self.gram == other.gram

    def __repr__(self):
        return f"FlatTorus({self.gram!r})"

    def to_json_dict(self) -> dict:
        return {"gram": self.gram.to_json_dict()}

    @classmethod
    def from_json_dict(cls, doc: dict, pointer: str = "") -> "FlatTorus":
        parse_object(doc, ("gram",), pointer, "torus must be an object")
        return cls(QuadraticForm.from_json_dict(doc["gram"], pointer + "/gram"))


def rescale_to_diameter_one(torus) -> FlatTorus:
    """Scale the metric so the diameter is 1.

    The integer Gram g = den F is divided by den mu^2, with mu^2 the exact
    covering radius squared, so the result keeps the mode of the input:
    exact, or on a float form the exact answer rounded once per entry.
    """
    form = torus.gram if isinstance(torus, FlatTorus) else torus
    if not isinstance(form, QuadraticForm):
        form = QuadraticForm(form)
    if form.n == 0:
        raise PreconditionError("positive-dimension", "cannot rescale a point")
    mu2 = covering_radius_sq(form.to_exact())
    return FlatTorus(form._scaled(mu2.denominator, mu2.numerator))


def product(t1: FlatTorus, t2: FlatTorus) -> FlatTorus:
    """Metric product; the Gram is the block diagonal sum."""
    if t1.dimension == 0:
        return t2
    if t2.dimension == 0:
        return t1
    if t1.gram.mode != t2.gram.mode:
        raise ModeMixError("product of mixed-mode tori; convert one side")
    f1, f2 = t1.gram, t2.gram
    # both integer Grams over den = lcm(den1, den2)
    den = math.lcm(f1._den, f2._den)
    p1, p2 = den // f1._den, den // f2._den
    g = [[p1 * x for x in r] + [0] * f2.n for r in f1._gram]
    g += [[0] * f1.n + [p2 * x for x in r] for r in f2._gram]
    return FlatTorus(QuadraticForm._from_gram(g, den, f1.mode))


def join_path(x: FlatTorus, t) -> FlatTorus:
    """Point on the canonical path joining a torus to the unit-diameter circle.

    At parameter t the Gram is blockdiag((1-t)^2 X, [t^2]) rescaled to
    diameter one; t = 0 returns the rescaled torus itself and t = 1 the
    circle [4].  It is computed on the exact values of X and t; when
    either is float, the answer is the exact one rounded once per entry.
    """
    what = "t must be a number in [0, 1]"
    if not 0 <= coerce_number(t, "join-parameter", what) <= 1:  # a NaN fails here too
        raise PreconditionError("join-parameter", what)
    joined, tq = x.gram.to_exact(), Fraction(t)
    if tq == 1:
        joined = QuadraticForm([[1]])
    elif tq > 0:
        shrunk = FlatTorus(joined.scale((1 - tq) ** 2))
        joined = product(shrunk, FlatTorus(QuadraticForm([[tq * tq]]))).gram
    out = rescale_to_diameter_one(joined)
    exact = x.gram.mode == "exact" and not isinstance(t, float)
    return out if exact else FlatTorus(out.gram.to_float())


class _LimitSpaceFields(NamedTuple):
    circle_circumferences: tuple
    euclidean_rank: int
    torus_part: Optional[FlatTorus]


class LimitSpace(_LimitSpaceFields):
    """Product description of a collapse limit.

    circle_circumferences lists the compact circle factors, euclidean_rank
    counts flat R factors, torus_part is an optional flat torus factor.
    """

    __slots__ = ()

    def __new__(
        cls,
        circle_circumferences: tuple,
        euclidean_rank: int,
        torus_part: Optional[FlatTorus] = None,
    ):
        circles, _ = coerce_vector(circle_circumferences, None, "circle_circumferences")
        if any(c <= 0 for c in circles):
            raise PreconditionError("positive-circumference", "circle factors must be positive")
        coerce_integer(
            euclidean_rank, "nonnegative-rank", "euclidean rank must be an integer >= 0", low=0
        )
        return tuple.__new__(cls, (tuple(circles), euclidean_rank, torus_part))

    def to_json_dict(self) -> dict:
        return {
            "circle_circumferences": [
                format_scalar(c) for c in self.circle_circumferences
            ],
            "euclidean_rank": self.euclidean_rank,
            "torus_part": self.torus_part.to_json_dict() if self.torus_part else None,
        }
