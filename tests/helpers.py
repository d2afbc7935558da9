"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: the
covering radius is brute-forced on a grid, graph diameters are sampled
densely along edges with a hand-rolled all-pairs shortest path, or taken
exactly over every pair of quarter-grid points, the covering radius of a
graph's cycle lattice is the largest projection of a cube vertex, found
over every sign vector with a grounded Laplacian, equivalence witnesses are
searched over bounded-entry integer matrices, or found again by the
backtracking search with Fraction inner products, the collar integral is
summed by Simpson's rule, LLL output is compared with the textbook
recompute-everything loop and its conditions are read off Gram
determinants, and orbit quotients are compared with the loop that
minimizes every chain and facet over the whole group, and counted by
Burnside's lemma.  The worked example of each docs/commands page is read
here too, for the CLI tests.
"""

import itertools
import math
import operator
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from troplab import DualComplex, QuadraticForm, WeightedMetricGraph


def seeded(n: int) -> random.Random:
    return random.Random(n)


# -- random matrix generators -------------------------------------------------


def random_unimodular(rng: random.Random, n: int, steps: int = 5):
    """Product of elementary shears and signed swaps; det is +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.random() < 0.5 and n > 1:
        i, j = rng.sample(range(n), 2)
        m[i], m[j] = m[j], [-v for v in m[i]]
    return m


def random_pd_form(rng: random.Random, n: int, mode: str = "exact") -> QuadraticForm:
    """U^T D U for diagonal positive D and small unimodular U."""
    d = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
    u = random_unimodular(rng, n, steps=4)
    rows = [
        [sum(Fraction(u[k][i]) * d[k] * u[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    if mode == "float":
        return QuadraticForm([[float(x) for x in r] for r in rows], "float")
    return QuadraticForm(rows, "exact")


def a_n_gram(n: int):
    """Cartan matrix of the root lattice A_n."""
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


def d_n_gram(n: int):
    """Cartan matrix of D_n (n >= 4): the chain A_n with node 0 moved from
    node 1 to node 2."""
    m = a_n_gram(n)
    m[0][1] = m[1][0] = 0
    m[0][2] = m[2][0] = -1
    return m


def e_n_gram(n: int):
    """Cartan matrix of E_n (n = 6, 7, 8): the chain A_{n-1} with node n-1
    attached to node 2."""
    m = [row + [0] for row in a_n_gram(n - 1)] + [[0] * n]
    m[n - 1][n - 1] = 2
    m[2][n - 1] = m[n - 1][2] = -1
    return m


def random_rational_form(rng: random.Random, n: int) -> QuadraticForm:
    """M^T M + I/2 with M of small rationals: an exact positive-definite
    form with unrelated denominators."""
    m = [
        [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(n)
    ]
    half = Fraction(1, 2)
    return QuadraticForm(
        [
            [
                sum(m[k][i] * m[k][j] for k in range(n)) + (half if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def random_integer_pd(rng: random.Random, n: int):
    """M^T M + I with small integer M: integer positive definite."""
    m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return [
        [
            sum(m[k][i] * m[k][j] for k in range(n)) + (1 if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]


# -- brute-force oracles -------------------------------------------------------


def sampled_covering_radius(form_rows, steps: int = 24, span: int = 2) -> float:
    """Max over a grid of the distance to the lattice; a lower bound on mu
    that converges as the grid refines."""
    f = [[float(x) for x in row] for row in form_rows]
    n = len(f)
    offsets = list(itertools.product(range(-span, span + 1), repeat=n))
    worst = 0.0
    for cell in itertools.product(range(steps), repeat=n):
        x = [c / steps for c in cell]
        best = min(
            sum(
                (x[i] - k[i]) * f[i][j] * (x[j] - k[j])
                for i in range(n)
                for j in range(n)
            )
            for k in offsets
        )
        if best > worst:
            worst = best
    return math.sqrt(worst)


def collar_quadrature(t, c_star: float, steps: int = 2000) -> float:
    """Integral of pi / sin(pi x) over [eps, 1 - eps], eps = log c* / log|t|,
    by composite Simpson's rule.  The integrand is symmetric about 1/2, and
    x = e^s turns each half into the smooth pi x / sin(pi x) ds."""
    eps = math.log(c_star) / math.log(abs(t))
    a, b = math.log(eps), math.log(0.5)
    h = (b - a) / steps

    def f(s):
        x = math.exp(s)
        return math.pi * x / math.sin(math.pi * x)

    total = f(a) + f(b)
    for k in range(1, steps):
        total += (4 if k % 2 else 2) * f(a + k * h)
    return 2.0 * total * h / 3.0


def reference_lll(form: QuadraticForm, delta=Fraction(3, 4)):
    """Gram-matrix LLL of an exact form that recomputes the whole
    Gram-Schmidt table in Fractions after every step: the textbook loop
    the library's integral LLL must reproduce step for step.  Returns the
    reduced Gram rows and U."""
    n = form.n
    m = [list(r) for r in form.entries]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        bst = [None] * n
        for i in range(n):
            for j in range(i):
                mu[i][j] = (
                    m[i][j] - sum(mu[i][k] * mu[j][k] * bst[k] for k in range(j))
                ) / bst[j]
            bst[i] = m[i][i] - sum(mu[i][k] ** 2 * bst[k] for k in range(i))
        return mu, bst

    def translate(k, j, q):
        for r in range(n):
            u[r][k] -= q * u[r][j]
        mkk = m[k][k] - 2 * q * m[k][j] + q * q * m[j][j]
        for i in range(n):
            if i != k:
                m[k][i] -= q * m[j][i]
                m[i][k] = m[k][i]
        m[k][k] = mkk

    def swap(k):
        for r in range(n):
            u[r][k - 1], u[r][k] = u[r][k], u[r][k - 1]
        m[k - 1], m[k] = m[k], m[k - 1]
        for r in range(n):
            m[r][k - 1], m[r][k] = m[r][k], m[r][k - 1]

    def round_half_away(x):
        q = math.floor(abs(x) + Fraction(1, 2))
        return q if x >= 0 else -q

    k = 1
    while k < n:
        mu, bst = gso()
        for j in range(k - 1, -1, -1):
            q = round_half_away(mu[k][j])
            if q != 0:
                translate(k, j, q)
                mu, bst = gso()
        if bst[k] >= (delta - mu[k][k - 1] ** 2) * bst[k - 1]:
            k += 1
        else:
            swap(k)
            k = max(k - 1, 1)
    return m, u


def _fraction_det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for cc in range(c, n):
                a[r][cc] -= f * a[c][cc]
    return det


def is_unimodular(u) -> bool:
    return abs(_fraction_det(u)) == 1


def lll_conditions_hold(rows, delta=Fraction(3, 4)) -> bool:
    """Size and Lovasz conditions of a Gram matrix, read off determinants:
    d_i is the i-th leading principal minor, d_{j+1} mu_ij the minor with
    column j replaced by column i, and B_i = d_{i+1} / d_i."""
    n = len(rows)
    d = [_fraction_det([row[:i] for row in rows[:i]]) for i in range(n + 1)]
    for i in range(n):
        for j in range(i):
            lam = _fraction_det([row[:j] + [row[i]] for row in rows[: j + 1]])
            if 2 * abs(lam) > d[j + 1]:
                return False
    for k in range(1, n):
        mu = _fraction_det([row[: k - 1] + [row[k]] for row in rows[:k]]) / d[k]
        if d[k + 1] / d[k] < (delta - mu * mu) * d[k] / d[k - 1]:
            return False
    return True


def grid_gap(form_rows, steps: int) -> float:
    """Metric diameter of one grid cell: the sampling error bound."""
    f = [[float(x) for x in row] for row in form_rows]
    n = len(f)
    h = 1.0 / steps
    return math.sqrt(sum(abs(f[i][j]) for i in range(n) for j in range(n))) * h


def brute_equivalent(f1: QuadraticForm, f2: QuadraticForm, bound: int = 2):
    """Exhaustive search for U with U^T f1 U = f2, entries in [-bound, bound]."""
    n = f1.n
    cols = list(itertools.product(range(-bound, bound + 1), repeat=n))
    for flat in itertools.product(cols, repeat=n):
        u = [[flat[j][i] for j in range(n)] for i in range(n)]
        det = _int_det(u)
        if det not in (1, -1):
            continue
        if f1.transform(u) == f2:
            return u
    return None


def _int_det(m) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _int_det(minor)
    return total


def reference_is_equivalent(f1: QuadraticForm, f2: QuadraticForm):
    """Exact GL(n, Z) equivalence by the backtracking search over
    Fractions: the witness the library must reproduce.

    Both forms are reduced by reference_lll.  Vector i of the reduced f1
    is sent, in sorted order, to each vector of the reduced f2 of the same
    norm (_vectors_up_to), kept if its inner products with the vectors
    already chosen, each a sum of n^2 Fraction products, match f1.  With T
    the chosen columns, the witness is U1 (U2 T)^-1, or None when no
    matching exists or U2 T is not unimodular.
    """
    n = f1.n
    if n == 0:
        return []
    m1, u1 = reference_lll(f1)
    m2, u2 = reference_lll(f2)
    if _fraction_det(m1) != _fraction_det(m2):
        return None
    found = _vectors_up_to(m2, max(m1[i][i] for i in range(n)))
    cands = [sorted(v for v, val in found if val == m1[i][i]) for i in range(n)]
    chosen = []

    def inner(a, b):
        return sum(m2[i][j] * a[i] * b[j] for i in range(n) for j in range(n))

    def extend(i):
        if i == n:
            return True
        for v in cands[i]:
            if all(inner(v, chosen[j]) == m1[i][j] for j in range(i)):
                chosen.append(v)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return None
    u2t = [[sum(u2[i][k] * chosen[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    inv = _fraction_inverse(u2t)
    if inv is None or any(x.denominator != 1 for row in inv for x in row):
        return None
    return [[int(sum(u1[i][k] * inv[k][j] for k in range(n))) for j in range(n)] for i in range(n)]


def _vectors_up_to(rows, bound):
    """Every nonzero integer x with x^T rows x <= bound, with its value.

    rows = B^T diag(q) B with B unit upper triangular, so the value is
    the sum of q_i (x_i + c_i)^2 with c_i = sum_{j > i} b_ij x_j; x_i is
    tried over a box around -c_i of integer half-width isqrt(room / q_i)
    + 1 and kept when its term fits the room left.
    """
    n = len(rows)
    b, q = jacobi_factors(rows)
    found, x = [], [0] * n

    def walk(i, value):
        if i < 0:
            if any(x):
                found.append((tuple(x), value))
            return
        c = sum(b[i][j] * x[j] for j in range(i + 1, n))
        half = math.isqrt(math.floor((bound - value) / q[i])) + 1
        for xi in range(math.floor(-c) - half, math.ceil(-c) + half + 1):
            term = q[i] * (xi + c) ** 2
            if value + term <= bound:
                x[i] = xi
                walk(i - 1, value + term)
        x[i] = 0

    walk(n - 1, Fraction(0))
    return found


def jacobi_factors(rows):
    """(B, q) in Fractions with rows = B^T diag(q) B, B unit upper triangular."""
    n = len(rows)
    q, b = [], []
    for i in range(n):
        qi = rows[i][i] - sum(b[k][i] ** 2 * q[k] for k in range(i))
        bi = [Fraction(int(i == j)) for j in range(n)]
        for j in range(i + 1, n):
            bi[j] = (rows[i][j] - sum(b[k][i] * q[k] * b[k][j] for k in range(i))) / qi
        q.append(qi)
        b.append(bi)
    return b, q


def box_vectors_up_to(rows, bound):
    """Every nonzero integer x with x^T rows x <= bound, with its value, by
    brute force over the Cauchy-Schwarz box.

    x_i = <rows^-1 e_i, x> in the inner product of rows, so
    x_i^2 <= (rows^-1)_ii x^T rows x <= bound (rows^-1)_ii, and every
    integer point of that box is evaluated exactly.
    """
    n = len(rows)
    inv = _fraction_inverse(rows)
    half = [math.isqrt(math.floor(bound * inv[i][i])) for i in range(n)]
    found = []
    for x in itertools.product(*(range(-h, h + 1) for h in half)):
        value = sum(Fraction(rows[i][j]) * x[i] * x[j] for i in range(n) for j in range(n))
        if any(x) and value <= bound:
            found.append((x, value))
    return found


def _fraction_inverse(rows):
    """Inverse of a rational matrix over Fractions; None when singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            f = a[r][c]
            if r != c and f != 0:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def sampled_graph_diameter(vertices, edges, steps: int = 40) -> float:
    """Dense two-point sampling over all edge pairs, with an independent
    Floyd-Warshall for the vertex-to-vertex legs."""
    ids = [v[0] if isinstance(v, tuple) else v for v in vertices]
    n = len(ids)
    idx = {v: i for i, v in enumerate(ids)}
    inf = float("inf")
    dist = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v, length in edges:
        i, j = idx[u], idx[v]
        le = float(length)
        if le < dist[i][j]:
            dist[i][j] = dist[j][i] = le
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = dist[i][k] + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    pts = []
    for e, (u, v, length) in enumerate(edges):
        le = float(length)
        for s in range(steps + 1):
            pts.append((e, le * s / steps))
    worst = 0.0
    for (e, s), (f, t) in itertools.combinations_with_replacement(pts, 2):
        eu, ev, el = edges[e][0], edges[e][1], float(edges[e][2])
        fu, fv, fl = edges[f][0], edges[f][1], float(edges[f][2])
        a, b = idx[eu], idx[ev]
        c, d = idx[fu], idx[fv]
        cand = min(
            s + dist[a][c] + t,
            s + dist[a][d] + (fl - t),
            (el - s) + dist[b][c] + t,
            (el - s) + dist[b][d] + (fl - t),
        )
        if e == f:
            cand = min(cand, abs(s - t))
        if cand > worst:
            worst = cand
    return worst


def grid_graph_diameter(vertices, edges) -> Fraction:
    """Exact diameter of a metric graph with rational lengths.

    Scaled to integer lengths, the distance between a point of edge e and
    one of edge f is a min of affine functions of the two positions with
    slopes +-1 (and |x - y| on one edge), so it peaks at a corner of that
    line arrangement, where both positions are half-integers.  Taking
    every pair of points on the quarter grid of the scaled lengths
    therefore finds the maximum; positions are counted in quarters, so
    the search runs in integers.
    """
    ids = [v[0] for v in vertices]
    idx = {v: i for i, v in enumerate(ids)}
    lengths = [Fraction(e[2]) for e in edges]
    scale = 4 * math.lcm(*(l.denominator for l in lengths))
    quarters = [int(l * scale) for l in lengths]
    n = len(ids)
    dist = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for (u, v, _), q in zip(edges, quarters):
        i, j = idx[u], idx[v]
        if i != j and q < dist[i][j]:
            dist[i][j] = dist[j][i] = q
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = dist[i][k] + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    worst = max(max(row) for row in dist)
    for e, f in itertools.combinations_with_replacement(range(len(edges)), 2):
        a, b = idx[edges[e][0]], idx[edges[e][1]]
        c, d = idx[edges[f][0]], idx[edges[f][1]]
        le, lf = quarters[e], quarters[f]
        for x in range(le + 1):
            # from the point x of e, the point y of f is min(to_c + y,
            # to_d + lf - y) away, and at most |x - y| when f is e
            to_c = min(x + dist[a][c], le - x + dist[b][c])
            to_d = min(x + dist[a][d], le - x + dist[b][d])
            far = map(min, range(to_c, to_c + lf + 1), range(to_d + lf, to_d - 1, -1))
            if e == f:
                far = map(min, far, map(abs, range(x, x - lf - 1, -1)))
            worst = max(worst, max(far))
    return Fraction(worst, scale)


def zonotope_covering_radius_sq(vertices, edges) -> Fraction:
    """Exact covering radius squared of the cycle lattice of a metric graph.

    Under <x, y> = sum_e l_e x_e y_e the Voronoi cell of H1(G, Z) is the
    orthogonal projection pi of the cube [-1/2, 1/2]^E onto the cycle
    space (Bacher, de la Harpe & Nagnibeda, Bull. SMF 125 (1997)), so
    mu^2 = max |pi(s)|^2 / 4 over every sign vector s in {1, -1}^E.  No
    cycle basis is used: s = pi(s) + y, where y_e = (phi_v - phi_u) / l_e
    is the current of the vertex potentials phi with Lap phi = j, for the
    boundary j = d s and the Laplacian Lap with conductances 1 / l_e;
    |y|^2 = j^T phi, so |pi(s)|^2 = sum_e l_e - j^T Lap^+ j.  Lap is
    grounded at the first vertex, inverted over Fractions and put over one
    common denominator, so the loop over sign vectors adds integers.
    """
    index = {v[0]: i for i, v in enumerate(vertices)}
    n = len(vertices)
    ends = [(index[u], index[v]) for u, v, _ in edges]
    lap = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), (_, _, length) in zip(ends, edges):
        if i != j:
            c = 1 / Fraction(length)
            lap[i][i] += c
            lap[j][j] += c
            lap[i][j] -= c
            lap[j][i] -= c
    green = _fraction_inverse([row[1:] for row in lap[1:]])
    den = math.lcm(*(x.denominator for row in green for x in row))
    green = [[int(x * den) for x in row] for row in green]
    least = None
    seen = set()
    # s and -s give the same value, so the first sign stays +1
    for rest in itertools.product((1, -1), repeat=len(edges) - 1):
        j = [0] * n
        for s, (u, v) in zip((1,) + rest, ends):
            j[u] -= s
            j[v] += s
        j = tuple(j[1:])
        if j in seen:
            continue
        seen.add(j)
        val = sum(a * sum(map(operator.mul, row, j)) for a, row in zip(j, green) if a)
        if least is None or val < least:
            least = val
    return (sum(Fraction(e[2]) for e in edges) - Fraction(least, den)) / 4


def random_multigraph(rng: random.Random, max_vertices: int = 5, max_extra: int = 5):
    """Vertices and edges of a connected multigraph, loops and parallel
    edges likely, with small rational lengths."""
    nv = rng.randint(1, max_vertices)
    vids = ["v%d" % i for i in range(nv)]
    pairs = [(vids[rng.randrange(i)], vids[i]) for i in range(1, nv)]
    for _ in range(rng.randint(1, max_extra)):
        u = rng.choice(vids)
        pairs.append((u, u) if rng.random() < 0.25 else (u, rng.choice(vids)))
    if pairs and rng.random() < 0.5:
        pairs.append(rng.choice(pairs))
    edges = [(u, v, Fraction(rng.randint(1, 4), rng.randint(1, 2))) for u, v in pairs]
    return [(v, 0) for v in vids], edges


def complete_graph(n: int):
    edges = [(i, j, Fraction(1)) for i, j in itertools.combinations(range(n), 2)]
    return [(v, 0) for v in range(n)], edges


def reference_quotient(c: DualComplex, elements):
    """Orbit quotient of the barycentric subdivision, by the loop that
    takes every chain's orbit representative as a minimum over all group
    elements, and again for each facet.  Returns (cells, facets)."""
    strata = [frozenset(lab) for labels in c.cells.values() for lab in labels]

    def key(ch):
        return [(len(s), sorted(s)) for s in ch]

    chains = {0: sorted(((s,) for s in strata), key=key)}
    d = 0
    while True:
        nxt = [ch + (t,) for ch in chains[d] for t in strata if ch[-1] < t]
        if not nxt:
            break
        d += 1
        chains[d] = sorted(nxt, key=key)

    def orbit_rep(chain):
        return min(
            (tuple(frozenset(p[i - 1] for i in s) for s in chain) for p in elements),
            key=key,
        )

    cells, facets, rep_label = {}, {}, {}
    for d in sorted(chains):
        labels = []
        for ch in chains[d]:
            rep = orbit_rep(ch)
            if rep in rep_label:
                continue
            lab = tuple(tuple(sorted(s)) for s in rep)
            rep_label[rep] = lab
            labels.append(lab)
            facets[lab] = tuple(
                rep_label[orbit_rep(rep[:i] + rep[i + 1 :])] for i in range(len(rep)) if d
            )
        cells[d] = tuple(labels)
    return cells, facets


def _surjections(c: int, m: int) -> int:
    return sum((-1) ** j * math.comb(m, j) * (m - j) ** c for j in range(m + 1))


def cyclic_quotient_counts(n: int):
    """Cells per dimension of the barycentric subdivision of the full
    (n-1)-simplex modulo the rotation group C_n, by Burnside's lemma.

    A rotation by k has gcd(k, n) cycles; it fixes a chain of m strata
    exactly when every stratum is a union of cycles, and such chains of
    a c-set are the maps of the cycles onto m nonempty layers plus a
    possibly empty rest."""
    counts = {}
    for m in range(1, n + 1):
        fixed = sum(
            _surjections(c, m) + _surjections(c, m + 1)
            for c in (math.gcd(k, n) for k in range(n))
        )
        counts[m - 1] = fixed // n
    return counts


def symmetric_quotient(n: int):
    """Cells and facets of the full (n-1)-simplex's subdivision modulo
    S_n in closed form.  S_n moves any chain onto the chain of initial
    segments {1..s} with the same sizes, its least member, so there is
    one cell per set of sizes, listed in lexicographic order."""
    cells, facets = {}, {}
    for d in range(n):
        cells[d] = tuple(
            tuple(tuple(range(1, s + 1)) for s in sizes)
            for sizes in itertools.combinations(range(1, n + 1), d + 1)
        )
        for lab in cells[d]:
            facets[lab] = tuple(lab[:i] + lab[i + 1 :] for i in range(d + 1)) if d else ()
    return cells, facets


# -- graph builders ------------------------------------------------------------


def loop_graph(length) -> WeightedMetricGraph:
    return WeightedMetricGraph([("p", 0)], [("p", "p", Fraction(length))])


def segment_graph(length) -> WeightedMetricGraph:
    return WeightedMetricGraph(
        [("p", 0), ("q", 0)], [("p", "q", Fraction(length))]
    )


def theta_graph(l1, l2, l3) -> WeightedMetricGraph:
    return WeightedMetricGraph(
        [("p", 0), ("q", 0)],
        [
            ("p", "q", Fraction(l1)),
            ("p", "q", Fraction(l2)),
            ("p", "q", Fraction(l3)),
        ],
    )


def handcuff_graph(a, b, bridge) -> WeightedMetricGraph:
    """Two loops joined by a bridge edge."""
    return WeightedMetricGraph(
        [("p", 0), ("q", 0)],
        [
            ("p", "p", Fraction(a)),
            ("q", "q", Fraction(b)),
            ("p", "q", Fraction(bridge)),
        ],
    )


def random_connected_graph(rng: random.Random, max_b1: int = 4) -> WeightedMetricGraph:
    nv = rng.randint(2, 5)
    vids = ["v%d" % i for i in range(nv)]
    vertices = [(v, 0) for v in vids]
    edges = []
    for i in range(1, nv):
        j = rng.randrange(i)
        edges.append((vids[j], vids[i], Fraction(rng.randint(1, 5), rng.randint(1, 3))))
    for _ in range(rng.randint(1, max_b1)):
        a = rng.randrange(nv)
        b = rng.randrange(nv)
        edges.append((vids[a], vids[b], Fraction(rng.randint(1, 5), rng.randint(1, 3))))
    return WeightedMetricGraph(vertices, edges)


def relabeled_shuffled(graph: WeightedMetricGraph, rng: random.Random) -> WeightedMetricGraph:
    """Same metric graph, new vertex names and edge order: forces a
    different deterministic spanning tree in general."""
    names = {vid: "w%d" % i for i, (vid, _) in enumerate(reversed(graph.vertices))}
    vertices = [(names[vid], w) for vid, w in graph.vertices]
    edges = [(names[u], names[v], length) for u, v, length in graph.edges]
    rng.shuffle(edges)
    return WeightedMetricGraph(vertices, edges)


# -- CLI worked examples --------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

COMMAND_PAGES = sorted((ROOT / "docs" / "commands").glob("*.md"))


def worked_example(page, tmp_path):
    """(command, input path, stdout) of the page's worked example.

    Each page ends in an input.json block and a console block: the
    command line, a blank line, then stdout exactly as printed.
    """
    example = page.read_text(encoding="utf-8").split("## Worked example", 1)[1]
    blocks = dict(re.findall(r"```(json|console)\n(.*?)```", example, re.S))
    command_line, blank, expected = blocks["console"].split("\n", 2)
    assert blank == ""
    command = command_line.split()
    assert command[:2] == ["$", "troplab"] and command[3:] == ["input.json"]
    (tmp_path / "input.json").write_text(blocks["json"], encoding="utf-8")
    return command[2], str(tmp_path / "input.json"), expected


LOADED_MODULES = """
import contextlib, io, sys
from troplab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("troplab.")))
"""


def run_probe(code, *args):
    """Stdout lines of `python -c code args` in a fresh interpreter that
    imports troplab from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout.split("\n")


def loaded_submodules(command, path):
    """Exit code of `troplab command path` run in a fresh interpreter, and
    the troplab submodules it loaded, named without the package prefix."""
    code, *loaded = run_probe(LOADED_MODULES, command, path)[0].split()
    return int(code), {m.split(".", 1)[1] for m in loaded}
