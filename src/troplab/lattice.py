"""Lattice search on the integer Grams of quadratic forms.

Short-vector enumeration, shortest vectors, the covering radius of a
block of dimension >= 3, and GL(n, Z) equivalence and homothety.  Each
search runs in integers, on the Gram g = den F and the leading minors
that troplab.forms keeps with every form, LLL-reduced first.  Equivalence
matches inner products on the integer Grams, exactly or, with a
tolerance, within a slack scaled to the same integer units.  One
short-vector walk serves every search in both modes: each level takes
its range of candidates from math.isqrt on the exact values of its
numbers, a float read as its dyadic value, and a walk whose widest
level would hold more than sys.maxsize candidates fails `search-range`
before it starts.  A float shortest vector is that of the exact copy,
its length rounded once; a tolerant search sums its float norms in
doubles.  A 3-dimensional block of the covering radius goes to an
obtuse superbase and the edge-cube sign walk (cube_sign_walk, which also
serves tropical.torelli), and the Voronoi cell serves dimension >= 4.

Building forms, Siegel points and tori never loads this module:
forms.covering_radius_sq imports it for a block of dimension >= 3,
tropical.torelli for its sign walk, and troplab.forms resolves
shortest_vector, is_equivalent, is_homothetic and cube_sign_walk here on
first access.
"""

import math
import operator
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import _linalg as la
from .errors import ModeMixError, PreconditionError
from .forms import QuadraticForm, jacobi_decompose, jacobi_from_minors, lll_reduce
from .rationals import Scalar, coerce_number, exponent_split, quotient, square_range


# -- enumeration -----------------------------------------------------------


# the widest level of a walk holds 2 isqrt(floor(bound / min d_j)) + 1
# candidates, which is at most sys.maxsize iff bound < _RANGE_LIMIT min d_j;
# a power of two, so the product is exact in doubles too
_RANGE_LIMIT = ((sys.maxsize + 1) // 2) ** 2


def _check_search_range(dvec, bound) -> None:
    """Refuse a walk that cannot finish, before it starts.

    The all-zero prefix reaches every level with room = bound, so level j
    holds 2 isqrt(floor(bound / d_j)) + 1 candidates there, the most at the
    smallest d_j.  A count past sys.maxsize fails `search-range` in both
    modes, as does a float d_j rounded to 0.0, whose level is unbounded.
    """
    dmin = min(dvec)
    if bound < _RANGE_LIMIT * dmin:
        return
    if not dmin or bound == math.inf:
        count = "unboundedly many"
    else:
        count = 2 * math.isqrt(math.floor(Fraction(bound) / Fraction(dmin))) + 1
        e = math.log10(count)
        count = f"about {10 ** (e % 1):.3g}e+{math.floor(e)}"
    raise PreconditionError(
        "search-range",
        f"the lattice search would try {count} values of one coordinate, "
        f"more than {sys.maxsize}: the bound is too far above the smallest Gram-Schmidt length",
    )


def _enumerate_up_to(bmat, dvec, bound) -> List[Tuple[Tuple[int, ...], Scalar]]:
    """All nonzero integer vectors with form value <= bound (both signs).

    Fincke-Pohst on F = B^T diag(d) B: level j, from the last coordinate
    to the first, takes each x_j with d_j (x_j + c)^2 <= room, where
    c = sum_{i>j} b_ji x_i and room is the bound less the terms of the
    levels above, in ascending order.  One walk serves both modes: each
    level reads c, room and d_j at their exact values and takes its range
    from math.isqrt on integers (rationals.square_range), so it tests no
    candidate.  The partial sums stay in the number type of d, Fractions
    or floats; the bound is read in that type, a float bound exactly on
    an exact walk.  A float walk sums its terms in doubles, so a vector on
    the boundary may be left out.
    """
    n = len(dvec)
    _check_search_range(dvec, bound)
    found = []
    x = [0] * n
    zero = 0 * dvec[0]
    # the bound in the walk's number type: Fraction() reads a float
    # exactly, and a float walk rounds it back to that float
    bound = zero + Fraction(bound)

    def recurse(j, partial):
        if j < 0:
            if any(x):
                found.append((tuple(x), partial))
            return
        c = sum(bmat[j][i] * x[i] for i in range(j + 1, n))
        for xj in square_range(c, bound - partial, dvec[j]):
            x[j] = xj
            recurse(j - 1, partial + dvec[j] * (xj + c) ** 2)
        x[j] = 0

    recurse(n - 1, zero)
    return found


def shortest_vector(form: QuadraticForm) -> Tuple[Tuple[int, ...], Scalar]:
    """A shortest nonzero lattice vector and its squared length.

    Deterministic: among all minimizers the sign-canonical lexicographically
    smallest coordinate vector is returned.  A float form gets the answer
    of its to_exact(), the length rounded once.
    """
    if form.n == 0:
        raise PreconditionError("positive-dimension", "no vectors in dimension 0")
    reduced, u = lll_reduce(form.to_exact())
    dec = jacobi_decompose(reduced)
    bound = min(reduced.entries[i][i] for i in range(form.n))
    candidates = _enumerate_up_to(dec.b, dec.d, bound)
    best_val = min(val for _, val in candidates)
    mapped = (tuple(la.mat_vec(u, vec)) for vec, val in candidates if val == best_val)
    vec = min(max(w, tuple(-x for x in w)) for w in mapped)
    return vec, quotient(form.mode, best_val.numerator, best_val.denominator)



# -- covering radius of a block ---------------------------------------------


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

    g is an integer Gram with its minors d and lam as a form stores them,
    LLL-reduced so that the enumeration stays small; the search runs
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
    dec = jacobi_from_minors("exact", 1, d, lam)
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


def block_covering_radius_sq(g, d, lam, den: int) -> Fraction:
    """Covering radius squared of the form g / den, for an LLL-reduced
    integer block g of dimension >= 3 with its minors d and lam as
    forms.covering_radius_sq hands them over: Selling reduction and the
    sign walk in dimension 3, the Voronoi cell above."""
    if len(g) == 3:
        return _selling_covering_radius_sq(g, den)
    return _voronoi_covering_radius_sq(g, d, lam, den)


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
    # the slack of a float form is a double, so tol must have one too
    if not exact and not 0 <= coerce_number(
        tol, "nonnegative-tolerance", "tol must be a real number"
    ) <= sys.float_info.max:
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


def is_homothetic(
    f1: QuadraticForm, f2: QuadraticForm, tol: float = 1e-6
) -> Optional[Tuple[Scalar, List[List[int]]]]:
    """Equality up to positive scale: returns (c, U) with U^T (c f1) U = f2.

    Exact forms (both exact) take the scale from their contents.  The
    content of a form is the gcd of the entries of its integer Gram
    g = den F over den; it is a GL(n, Z) invariant and scales with the
    form, so c = content(f2) / content(f1) is the only scale that can
    work.  A pair whose determinants do not differ by c^n, read exactly
    on the stored minors, is not homothetic; any other pair is decided by
    the exact is_equivalent.  Float forms take the scale from the
    determinants, c = (det f2 / det f1)^(1/n), with the ratio read
    exactly from the stored minors, and the float path with tol decides,
    on c = 2^k (ratio / 2^(kn))^(1/n) with k chosen so that the root is
    taken in floats on a ratio near 1 and no scale overflows a double
    before the answer does.
    """
    if f1.n != f2.n:
        raise PreconditionError("dimension-match", "forms have different ranks")
    n = f1.n
    if n == 0:
        return (Fraction(1), []) if f1.mode == "exact" else (1.0, [])
    # det f2 / det f1 = d2 / d1
    d1, d2 = f1._minors[-1] * f2._den**n, f2._minors[-1] * f1._den**n
    if f1.mode == "exact" and f2.mode == "exact":
        content1, content2 = (math.gcd(*(x for r in f._gram for x in r)) for f in (f1, f2))
        c = Fraction(content2 * f1._den, content1 * f2._den)
        if c**n * d1 != d2:
            return None
        u = is_equivalent(f1.scale(c), f2)
        return (c, u) if u is not None else None
    y, k = exponent_split(Fraction(d2, d1), n)
    c = math.ldexp(y ** (1.0 / n), k)
    u = is_equivalent(f1.to_float().scale(c), f2.to_float(), tol=tol)
    return (c, u) if u is not None else None
