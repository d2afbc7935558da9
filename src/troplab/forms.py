"""Positive-definite quadratic forms, flat tori, and exact lattice geometry.

The form is the Gram matrix of a lattice basis; the associated flat torus
is R^n / Z^n with that inner product.  Exact mode keeps every entry a
Fraction so reduction, equivalence testing and covering radii in every
dimension are exact.  Float mode holds numerically sampled inputs, each
entry read as its exact (dyadic) value.  A form is eliminated once, when
it is built, fraction-free in integers; positive definiteness, det,
jacobi_decompose, LLL and the covering radius all read those minors, and
a float answer is the exact one rounded once.  Equivalence matches inner
products on the integer Grams, exactly or, with a tolerance, within a
slack scaled to the same integer units.  The covering radius splits the
integer Gram into orthogonal blocks, a float Gram read on its integers
without conversion, and LLL-reduces every block of dimension >= 2 once in
integers: a 2-dimensional block reads its closed form off the reduced
basis, with no separate Gauss reduction, a 3-dimensional one goes to an
obtuse superbase and the edge-cube sign walk (cube_sign_walk, which also
serves tropical.torelli), and the Voronoi cell serves dimension >= 4.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import _linalg as la
from .errors import ModeMixError, NotPositiveDefiniteError, PreconditionError
from .rationals import (
    Scalar, as_integers, coerce_matrix, format_scalar, parse_matrix, parse_mode, parse_object,
    parse_size, past_double, quotient, round_half_away,
)


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
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise PreconditionError(
                        "symmetric", f"entries[{i}][{j}] != entries[{j}][{i}]"
                    )
                rows[j][i] = rows[i][j]  # one object for both halves
        self.n = n
        self.entries = tuple(tuple(r) for r in rows)
        self.mode = mode
        self._gram, self._den, self._minors, self._lam = _integer_ldl(self.entries)

    # -- basic algebra ---------------------------------------------------

    def det(self) -> Scalar:
        """d_n / den^n from the stored minors."""
        return quotient(self.mode, self._minors[-1], self._den**self.n)

    def scale(self, c: Scalar) -> "QuadraticForm":
        if c <= 0:
            raise PreconditionError("positive-scale", "scale factor must be > 0")
        if self.mode == "exact" and isinstance(c, float):
            raise ModeMixError("float scale on an exact form; convert first")
        return QuadraticForm(
            [[c * x for x in row] for row in self.entries], self.mode
        )

    def evaluate(self, v: Sequence[int]) -> Scalar:
        """Value of the form on an integer vector."""
        return sum(
            self.entries[i][j] * v[i] * v[j]
            for i in range(self.n)
            for j in range(self.n)
        )

    def transform(self, u: Sequence[Sequence[int]]) -> "QuadraticForm":
        """U^T F U for an integer matrix U (columns are new basis vectors).

        Computed on the stored integer Gram; a float form gets the exact
        product rounded once per entry.
        """
        m = la.mat_mul(la.transpose(u), la.mat_mul(self._gram, u))
        rows = [[quotient(self.mode, x, self._den) for x in r] for r in m]
        return QuadraticForm(rows, self.mode)

    def to_float(self) -> "QuadraticForm":
        return QuadraticForm(self.entries, "float")

    def to_exact(self) -> "QuadraticForm":
        """The form itself when exact; else its entries' exact values."""
        if self.mode == "exact":
            return self
        # float -> Fraction is the exact binary expansion, never lossy
        return QuadraticForm(
            [[Fraction(x) for x in row] for row in self.entries], "exact"
        )

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
    flat, den = as_integers(x for i, r in enumerate(entries) for x in r[: i + 1])
    low = [flat[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] for i in range(len(entries))]
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
    n = len(low)
    g = tuple(tuple(low[max(i, j)][min(i, j)] for j in range(n)) for i in range(n))
    return g, den, tuple(d), tuple(map(tuple, lam))


class JacobiDecomposition(NamedTuple):
    """F = B^T diag(d) B with B unit upper triangular and d positive."""

    b: tuple
    d: tuple

    def recompose(self) -> QuadraticForm:
        """The form B^T diag(d) B, in the arithmetic of the entries of B and d.

        Entry (i, j), i <= j, sums b_ki (d_k b_kj) over k <= i, the rows
        where column i of B can be nonzero; entry (j, i) is the same
        number, so a float form is symmetric however its products round.
        """
        b, d = self.b, self.d
        n = len(d)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = sum(b[k][i] * (d[k] * b[k][j]) for k in range(i + 1))
        return QuadraticForm(rows)


def jacobi_decompose(form: QuadraticForm) -> JacobiDecomposition:
    """Unit-upper-triangular diagonalization of a positive-definite form.

    The diagonal entries are the squared lengths of the Gram-Schmidt
    vectors of the standard basis.  Both factors are read off the minors
    stored with the form: b_ij = lambda_ji / d_{i+1} for i < j and
    d_i = d_{i+1} / (d_i den), exact, or on a float form rounded once.
    """
    return _jacobi(form.mode, form._den, form._minors, form._lam)


def _jacobi(mode: str, den: int, d, lam) -> JacobiDecomposition:
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
    m = [list(r) for r in form._gram]
    u = _lll_integer(m, list(form._minors), [list(r) for r in form._lam])
    rows = [[quotient(form.mode, x, form._den) for x in row] for row in m]
    return QuadraticForm(rows, form.mode), u


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


# -- enumeration -----------------------------------------------------------


def _enumerate_up_to(bmat, dvec, bound) -> List[Tuple[Tuple[int, ...], Scalar]]:
    """All nonzero integer vectors with form value <= bound (both signs)."""
    n = len(dvec)
    found = []
    x = [0] * n

    def recurse(j, partial):
        if j < 0:
            if any(x):
                found.append((tuple(x), partial))
            return
        c = sum(bmat[j][i] * x[i] for i in range(j + 1, n))
        room = bound - partial
        if room < 0:
            return
        rad = math.sqrt(max(0.0, float(room / dvec[j]))) if dvec[j] else 0.0
        cf = float(c)
        lo = math.floor(-cf - rad) - 1
        hi = math.ceil(-cf + rad) + 1
        for xj in range(lo, hi + 1):
            term = dvec[j] * (xj + c) ** 2
            if term <= room:
                x[j] = xj
                recurse(j - 1, partial + term)
        x[j] = 0

    recurse(n - 1, 0 * dvec[0] if n else 0)
    return found


def shortest_vector(form: QuadraticForm) -> Tuple[Tuple[int, ...], Scalar]:
    """A shortest nonzero lattice vector and its squared length.

    Deterministic: among all minimizers the sign-canonical lexicographically
    smallest coordinate vector is returned.
    """
    if form.n == 0:
        raise PreconditionError("positive-dimension", "no vectors in dimension 0")
    reduced, u = lll_reduce(form)
    dec = jacobi_decompose(reduced)
    bound = min(reduced.entries[i][i] for i in range(form.n))
    candidates = _enumerate_up_to(dec.b, dec.d, bound)
    best_val = None
    best_vecs = []
    for vec, val in candidates:
        if best_val is None or val < best_val:
            best_val, best_vecs = val, [vec]
        elif val == best_val:
            best_vecs.append(vec)
    out = []
    for vec in best_vecs:
        w = la.mat_vec(u, list(vec))
        for c in w:
            if c != 0:
                if c < 0:
                    w = [-t for t in w]
                break
        out.append(tuple(w))
    return min(out), best_val


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


def _echelon_add(echelon, row):
    """Add an integer row [a | b] to a reduced echelon list of (pivot, row).

    Every row of the list is zero in the pivot columns of the others and
    positive in its own; the new list keeps that, with each row divided
    by the gcd of its entries.  Returns None when the new row's left part
    depends on the rows already there.
    """
    for p, e in echelon:
        if row[p]:
            row = [e[p] * a - row[p] * b for a, b in zip(row, e)]
    p = next((j for j in range(len(row) - 1) if row[j]), None)
    if p is None:
        return None
    c = math.gcd(*row) * (1 if row[p] > 0 else -1)
    row = [a // c for a in row]
    out = []
    for q, e in echelon:
        if e[p]:
            e = [row[p] * a - e[p] * b for a, b in zip(e, row)]
            c = math.gcd(*e)
            e = [a // c for a in e]
        out.append((q, e))
    out.append((p, row))
    return out


def _voronoi_covering_radius_sq(g, d, lam, den: int) -> Fraction:
    """Covering radius squared of the form g / den from its Voronoi cell.

    g is an integer Gram with its minors d and lam as _integer_ldl gives
    them, LLL-reduced so that the enumeration stays small; the search runs
    in the units of g.  mu^2 is the largest norm of a vertex of the Voronoi
    cell of 0 (Conway & Sloane, SPLAG ch. 2).  Once every nonzero class of
    L/2L has a vector of norm <= bound, the vectors of norm <= bound
    include all the shortest ones of each class: these are the Voronoi
    vectors, and a class whose only shortest vectors are +-v makes v
    relevant.  The cell is {x : 2<x, v> <= Q(v) for every relevant v},
    and a vertex lies on n independent of these bisectors.  The lattice points nearest a vertex
    (0 and the v on its bisectors) pairwise differ by Voronoi vectors, by
    the parallelogram law, so only such n-sets of relevant vectors are
    solved, and a solution counts if it satisfies every inequality.
    """
    n = len(g)
    dec = _jacobi("exact", 1, d, lam)
    # a class c in {0,1}^n has a vector of norm Q(c), so the doubling ends
    bound = max(g[i][i] for i in range(n))
    while True:
        shortest = {}
        for vec, val in _enumerate_up_to(dec.b, dec.d, bound):
            key = tuple(x & 1 for x in vec)
            if not any(key):
                continue
            known = shortest.get(key)
            if known is None or val < known[0]:
                shortest[key] = (val, [vec])
            elif val == known[0]:
                known[1].append(vec)
        if len(shortest) == 2**n - 1:
            break
        bound *= 2
    voronoi = {v for _, vecs in shortest.values() for v in vecs}
    relevant = [v for _, vecs in shortest.values() if len(vecs) == 2 for v in vecs]
    m = len(relevant)
    index = {v: i for i, v in enumerate(relevant)}
    neg = [index[tuple(-x for x in v)] for v in relevant]
    # the bisector of v, 2<x, v> = Q(v), as the integer row [g v | Q(v)]
    eqs = []
    for v in relevant:
        w = la.mat_vec(g, v)
        eqs.append(w + [sum(a * b for a, b in zip(w, v))])
    adj = [
        sum(
            1 << j
            for j, w in enumerate(relevant)
            if tuple(a - b for a, b in zip(v, w)) in voronoi
        )
        for v in relevant
    ]

    # best vertex norm so far, as (numerator, denominator) in units of g
    best = [0, 1]

    def visit(echelon):
        # row (p, e) says e[p] y_p = e[n] for y = 2x; x = ys / (2 d)
        d = math.lcm(*(e[p] for p, e in echelon))
        ys = [0] * n
        for p, e in echelon:
            ys[p] = e[n] * (d // e[p])
        num = sum(a * b for a, b in zip(la.mat_vec(g, ys), ys))
        if num * best[1] <= best[0] * 4 * d * d:
            return
        for r in eqs:
            if sum(a * b for a, b in zip(r, ys)) > r[n] * d:
                return
        best[0], best[1] = num, 4 * d * d

    def extend(echelon, cand):
        if len(echelon) == n:
            visit(echelon)
            return
        need = n - len(echelon) - 1
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            nxt = cand & adj[i]
            if nxt.bit_count() >= need:
                grown = _echelon_add(echelon, eqs[i])
                if grown is not None:
                    extend(grown, nxt)

    # -x is a vertex with x: walk only the n-sets whose smallest index is
    # below every index of their negatives
    for i in range(m):
        if neg[i] > i:
            above = sum(1 << j for j in range(i + 1, m) if neg[j] > i)
            extend(_echelon_add([], eqs[i]), adj[i] & above)
    return Fraction(best[0], best[1] * den)


def cube_sign_walk(classes: Dict[Tuple[int, ...], int], gram) -> Tuple[int, int]:
    """(det Q, max_s b^T adj(Q) b) with b = sum_f s_f w_f f over s in {1, -1}^k.

    The k classes map integer functionals f (tuples, pairwise independent
    up to sign) to positive integer weights w_f, and gram is the integer
    Q = sum_f w_f f f^T.  When the f are totally unimodular, as the
    columns of a graph's cycle basis are, the Voronoi cell of Z^n under Q
    is the orthogonal projection of the cube [-1/2, 1/2]^k under the
    inner product weighted by w (Bacher, de la Harpe & Nagnibeda,
    Bull. SMF 125 (1997); Amini, arXiv:1007.2456), so the covering radius
    squared is max / (4 det Q).

    s and -s agree, so the first class keeps its sign and a Gray-code walk
    flips one other sign per step, an O(n) integer update of adj(Q) b from
    adj(Q) f.  The walk visits all 2^(k-1) sign vectors: on a 2-vCPU host
    the 15 classes of K6 take about 0.05 s, the 21 of K7 about 3.2 s, and
    each further class doubles the time.
    """
    n = len(gram)
    det, adj = la.int_adjugate(gram)
    # per class: the rows where f is +1 and -1, 2 w adj(Q) f, 4 w and
    # 4 w^2 f^T adj(Q) f
    steps = []
    b = [0] * n
    for f, w in classes.items():
        af = la.mat_vec(adj, f)
        steps.append((
            [i for i, x in enumerate(f) if x > 0],
            [i for i, x in enumerate(f) if x < 0],
            [2 * w * x for x in af],
            4 * w,
            4 * w * w * sum(map(operator.mul, f, af)),
        ))
        b = [x + w * y for x, y in zip(b, f)]
    v = la.mat_vec(adj, b)
    value = best = sum(map(operator.mul, b, v))
    signs = [1] * len(steps)
    for i in range(1, 1 << (len(steps) - 1)):
        k = (i & -i).bit_length()
        plus, minus, step, coef, const = steps[k]
        t = sum(v[j] for j in plus) - sum(v[j] for j in minus)
        # flipping s_k adds d = 2 s_k' w_k f_k to b: the value gains
        # 2 d^T adj(Q) b + d^T adj(Q) d
        if signs[k] > 0:
            value += const - coef * t
            v = list(map(operator.sub, v, step))
        else:
            value += const + coef * t
            v = list(map(operator.add, v, step))
        signs[k] = -signs[k]
        if value > best:
            best = value
    return det, best


# the six pairs of a superbase of dimension 3
_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def _selling_covering_radius_sq(g, den: int) -> Fraction:
    """Covering radius squared of the 3-dimensional form g / den by Selling
    reduction (Conway & Sloane, "Low-dimensional lattices VI", Proc. R.
    Soc. A 436 (1992)).

    On the integer Gram g, LLL-reduced so that few steps remain, with
    basis v_1, v_2, v_3, v_0 = -(v_1 + v_2 + v_3) completes a superbase.
    While some <v_i, v_j> = t > 0, the step v_i -> -v_i, v_k -> v_k + v_i for the two
    other k keeps the sum zero and changes sum_k N(v_k) by
    2 <v_i, v_k + v_l> + 2 N(v_i) = -2 <v_i, v_i + v_j> + 2 N(v_i) = -2t.
    That sum is a positive integer and each step lowers it by a positive
    integer, so the loop ends, with every p_ij = -<v_i, v_j> >= 0.  Then
    Q(x) = sum_{i<j} p_ij (x_i - x_j)^2 with x_0 = 0, a weighted Laplacian
    of K4 on the functionals e_j and e_i - e_j, which are totally
    unimodular, and mu^2 = max / (4 det Q den) from cube_sign_walk.  The
    step changes only the six inner products off the diagonal, each from
    the old ones, as the diagonal is minus the rest of its row.
    """
    # s[i][j] = <v_i, v_j>; the steps keep only the entries off the diagonal
    s = [[0] * 4 for _ in range(4)]
    for a in range(3):
        s[0][a + 1] = s[a + 1][0] = -sum(g[a])
        for b in range(3):
            s[a + 1][b + 1] = g[a][b]
    while True:
        pair = next(((i, j) for i, j in _PAIRS if s[i][j] > 0), None)
        if pair is None:
            break
        i, j = pair
        k, l = (m for m in range(4) if m not in pair)
        t = s[i][j]
        new = {
            (i, j): -t, (i, k): s[i][l] + t, (i, l): s[i][k] + t,
            (j, k): s[j][k] + t, (j, l): s[j][l] + t, (k, l): s[k][l] - t,
        }
        for (a, b), x in new.items():
            s[a][b] = s[b][a] = x
    # x_i - x_j for the pair (i, j), with x_0 = 0; a zero weight drops out
    classes = {
        tuple((m == i) - (m == j) for m in (1, 2, 3)): -s[i][j] for i, j in _PAIRS if s[i][j]
    }
    q = [[sum(w * f[a] * f[b] for f, w in classes.items()) for b in range(3)] for a in range(3)]
    det, best = cube_sign_walk(classes, q)
    return Fraction(best, 4 * det * den)


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
    and mu^2 is their circumradius, q1 q2 q3 / (4 det den).  Dimension 3
    uses the obtuse superbase of Selling reduction and the edge-cube sign
    walk; the Voronoi cell serves dimension >= 4.
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
        elif len(g) == 3:
            total += _selling_covering_radius_sq(g, den)
        else:
            total += _voronoi_covering_radius_sq(g, d, lam, den)
    return quotient(form.mode, total.numerator, total.denominator)


def covering_radius(form: QuadraticForm) -> float:
    """The covering radius as a float, the root of the exact square taken
    so that only a radius itself past the double range fails `finite`."""
    mu2 = covering_radius_sq(form)
    if form.mode == "float":
        return math.sqrt(mu2)
    y, k = _exponent_split(mu2, 2)
    try:
        return math.ldexp(math.sqrt(y), k)
    except OverflowError:
        raise past_double(
            "the covering radius", mu2, 2, "covering_radius_sq gives its square exactly"
        ) from None


def _exponent_split(x: Fraction, n: int) -> Tuple[float, int]:
    """(y, k) with x = 2^(kn) y and y a double near 1, for an exact x > 0
    of any size: 2^k y^(1/n) is then the n-th root of x, with the root
    taken in floats and only the final ldexp able to overflow."""
    k = (x.numerator.bit_length() - x.denominator.bit_length()) // n
    return float(x / Fraction(2) ** (k * n)), k


# -- equivalence and homothety ----------------------------------------------


def _match_scale(m1: QuadraticForm, m2: QuadraticForm) -> Tuple[int, int]:
    """(a, den) with a / den the largest absolute entry of the two forms,
    read exactly from their integer Grams, so an exact form past the
    double range has one too."""
    a1, a2 = (max(abs(x) for row in f._gram for x in row) for f in (m1, m2))
    return (a1, m1._den) if a1 * m2._den >= a2 * m1._den else (a2, m2._den)


def is_equivalent(
    f1: QuadraticForm, f2: QuadraticForm, tol: Optional[float] = None
) -> Optional[List[List[int]]]:
    """GL(n, Z) equivalence.  Returns U with U^T f1 U = f2, or None.

    Both forms are LLL-reduced, and the images of the reduced basis of f1
    are chosen in turn from the vectors of f2 of the matching length.  A
    candidate for vector i is tested against each chosen vector w with one
    dot product with the stored image of w under the Gram of f2.

    The search runs on the integer Grams g = den F stored with the forms:
    <v, w> = F1[i][j] in the reduced forms is tested as
    v^T (den1 g2) w = den2 g1[i][j].  Exact mode (both forms exact, tol
    omitted) certifies absence: the candidate lists are complete, the
    backtracking exhausts every matching of pairwise inner products, and
    the witness is checked as U^T g1 U den2 = g2 den1.  With tol, the same
    search accepts an inner product within slack = tol times the largest
    entry of the reduced forms, in integer units floor(slack den1 den2),
    and None only means no match within tolerance.  The slack is relative
    to that entry at every scale, so forms scaled by any s > 0 match as
    the unscaled ones do; the entry is read from the integer Grams, and
    the slack of two exact forms is exact, so they may lie past the
    double range.
    """
    if f1.n != f2.n:
        raise PreconditionError("dimension-match", "forms have different ranks")
    n = f1.n
    if n == 0:
        return []
    exact = tol is None
    if exact and not f1.mode == f2.mode == "exact":
        raise ModeMixError(
            "float-mode equivalence needs an explicit tol; "
            "exact certification requires two exact forms"
        )
    if not exact and not 0 <= tol < math.inf:
        raise PreconditionError(
            "nonnegative-tolerance", f"tol must be finite and >= 0, not {tol!r}"
        )

    m1, u1 = lll_reduce(f1)
    m2, u2 = lll_reduce(f2)
    if exact and m1.det() != m2.det():
        return None
    if exact:
        slack = 0
    else:
        a, den = _match_scale(m1, m2)
        if "float" in (m1.mode, m2.mode):
            slack = tol * quotient("float", a, den)
        else:
            slack = Fraction(tol) * Fraction(a, den)
    dec2 = jacobi_decompose(m2)
    need = [m1.entries[i][i] for i in range(n)]
    maxnorm = max(need) + slack
    pool = _enumerate_up_to(dec2.b, dec2.d, maxnorm)
    cands = []
    for i in range(n):
        ci = sorted(vec for vec, val in pool if abs(val - need[i]) <= slack)
        if not ci:
            return None
        cands.append(ci)

    gram = [[m1._den * x for x in row] for row in m2._gram]
    target = [[m2._den * x for x in row] for row in m1._gram]
    islack = math.floor(Fraction(slack) * m1._den * m2._den)
    chosen: List[Tuple[int, ...]] = []
    images: list = []  # gram v for each chosen v

    def extend(i):
        if i == n:
            return True
        row = target[i]
        for v in cands[i]:
            for image, t in zip(images, row):
                if abs(sum(map(operator.mul, v, image)) - t) > islack:
                    break
            else:
                chosen.append(v)
                images.append(la.mat_vec(gram, v))
                if extend(i + 1):
                    return True
                chosen.pop()
                images.pop()
        return False

    if not extend(0):
        return None
    t = la.transpose([list(v) for v in chosen])  # columns are images
    # U = U1 T^-1 U2^-1 = U1 (U2 T)^-1 is integral iff U2 T is unimodular
    try:
        u = la.mat_mul(u1, la.int_inverse(la.mat_mul(u2, t)))
    except (ZeroDivisionError, ValueError):
        return None
    if exact:
        # U^T g1 U / den1 = g2 / den2, in integers
        g1u = la.mat_mul(la.transpose(u), la.mat_mul(f1._gram, u))
        if any(
            x * f2._den != y * f1._den
            for r1, r2 in zip(g1u, f2._gram)
            for x, y in zip(r1, r2)
        ):
            raise RuntimeError("witness verification failed")
    return u


def _integer_nth_root(value: int, n: int) -> Optional[int]:
    if value < 0:
        return None
    if value in (0, 1):
        return value
    # integer Newton from above ends at floor(value^(1/n))
    x = 1 << -(-value.bit_length() // n)
    while True:
        y = ((n - 1) * x + value // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x**n == value else None


def _fraction_nth_root(x: Fraction, n: int) -> Optional[Fraction]:
    num = _integer_nth_root(x.numerator, n)
    if num is None:
        return None
    den = _integer_nth_root(x.denominator, n)
    if den is None:
        return None
    return Fraction(num, den)


def is_homothetic(
    f1: QuadraticForm, f2: QuadraticForm, tol: float = 1e-6
) -> Optional[Tuple[Scalar, List[List[int]]]]:
    """Equality up to positive scale: returns (c, U) with U^T (c f1) U = f2.

    The determinant pins the only possible scale, c = (det f2 / det f1)^(1/n),
    with the ratio read exactly from the stored minors (d_n / den^n of each
    form).  When both forms are exact the test is exact: a ratio that is no
    rational n-th power proves them not homothetic.  Otherwise the float
    path with tol decides, on c = 2^k (ratio / 2^(kn))^(1/n) with k chosen
    so that the root is taken in floats on a ratio near 1 and no scale
    overflows a double before the answer does.
    """
    if f1.n != f2.n:
        raise PreconditionError("dimension-match", "forms have different ranks")
    n = f1.n
    if n == 0:
        return (Fraction(1), []) if f1.mode == "exact" else (1.0, [])
    ratio = Fraction(f2._minors[-1] * f1._den**n, f1._minors[-1] * f2._den**n)
    if f1.mode == "exact" and f2.mode == "exact":
        c = _fraction_nth_root(ratio, n)
        if c is None:
            return None
        u = is_equivalent(f1.scale(c), f2)
        return (c, u) if u is not None else None
    y, k = _exponent_split(ratio, n)
    c = math.ldexp(y ** (1.0 / n), k)
    u = is_equivalent(f1.to_float().scale(c), f2.to_float(), tol=tol)
    return (c, u) if u is not None else None


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
    den = form._den * mu2.numerator
    rows = [[quotient(form.mode, mu2.denominator * x, den) for x in r] for r in form._gram]
    return FlatTorus(QuadraticForm(rows, form.mode))


def product(t1: FlatTorus, t2: FlatTorus) -> FlatTorus:
    """Metric product; the Gram is the block diagonal sum."""
    if t1.dimension == 0:
        return t2
    if t2.dimension == 0:
        return t1
    if t1.gram.mode != t2.gram.mode:
        raise ModeMixError("product of mixed-mode tori; convert one side")
    n1, n2 = t1.dimension, t2.dimension
    rows = [list(r) + [0] * n2 for r in t1.gram.entries]
    rows += [[0] * n1 + list(r) for r in t2.gram.entries]
    return FlatTorus(QuadraticForm(rows, t1.gram.mode))


def join_path(x: FlatTorus, t) -> FlatTorus:
    """Point on the canonical path joining a torus to the unit-diameter circle.

    At parameter t the Gram is blockdiag((1-t)^2 X, [t^2]) rescaled to
    diameter one; t = 0 returns the rescaled torus itself and t = 1 the
    circle [4].  It is computed on the exact values of X and t; when
    either is float, the answer is the exact one rounded once per entry.
    """
    tq = t if isinstance(t, float) else Fraction(t)
    if not 0 <= tq <= 1:  # a NaN fails here too
        raise PreconditionError("join-parameter", "t must lie in [0, 1]")
    joined, tq = x.gram.to_exact(), Fraction(tq)
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
        for c in circle_circumferences:
            if c <= 0:
                raise PreconditionError(
                    "positive-circumference", "circle factors must be positive"
                )
        if euclidean_rank < 0:
            raise PreconditionError("nonnegative-rank", "euclidean rank < 0")
        return tuple.__new__(cls, (circle_circumferences, euclidean_rank, torus_part))

    def to_json_dict(self) -> dict:
        return {
            "circle_circumferences": [
                format_scalar(c) for c in self.circle_circumferences
            ],
            "euclidean_rank": self.euclidean_rank,
            "torus_part": self.torus_part.to_json_dict() if self.torus_part else None,
        }
