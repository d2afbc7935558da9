"""Reference values and verifiers, independent of troplab.

Nothing here imports troplab.  Lattices are built from their Cartan
matrices, covering radii come from closed forms (Conway & Sloane, SPLAG
ch. 4), Jacobian determinants from Kirchhoff's matrix-tree theorem, metric
graph diameters from breadth-first search on the edge-halved graph, orbit
counts from Burnside's lemma, and every witness a call returns (a
unimodular change of basis, a symplectic matrix) is checked exactly.

Matrices are lists of lists of ints or Fractions.
"""

import math
from fractions import Fraction

# -- matrices ----------------------------------------------------------------


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(r) for r in zip(*a)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def conjugate(f, u):
    """U^T F U."""
    return mat_mul(transpose(u), mat_mul(f, u))


def scaled(f, c):
    return [[c * x for x in row] for row in f]


def det(a):
    """Exact determinant by Fraction elimination with row pivoting."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for j in range(n):
        p = next((i for i in range(j, n) if m[i][j] != 0), None)
        if p is None:
            return Fraction(0)
        if p != j:
            m[j], m[p] = m[p], m[j]
            out = -out
        out *= m[j][j]
        for i in range(j + 1, n):
            f = m[i][j] / m[j][j]
            if f:
                for k in range(j, n):
                    m[i][k] -= f * m[j][k]
    return out


def inverse(a):
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for j in range(n):
        p = next(i for i in range(j, n) if m[i][j] != 0)
        m[j], m[p] = m[p], m[j]
        piv = m[j][j]
        m[j] = [x / piv for x in m[j]]
        for i in range(n):
            if i != j and m[i][j] != 0:
                f = m[i][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return [row[n:] for row in m]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[k + i][k + j] = x
        k += len(b)
    return out


def permutation_matrix(p):
    """Columns are standard vectors: column j is e_{p[j]}."""
    n = len(p)
    return [[1 if p[j] == i else 0 for j in range(n)] for i in range(n)]


def random_unimodular(rng, n, steps, spread=1):
    """Product of `steps` elementary shears, one signed swap; det is +-1."""
    m = identity(n)
    if n == 1:
        return [[rng.choice((-1, 1))]]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([k for k in range(-spread, spread + 1) if k])
        for k in range(n):
            m[i][k] += c * m[j][k]
    i, j = rng.sample(range(n), 2)
    m[i], m[j] = m[j], [-v for v in m[i]]
    return m


# -- lattices and their closed forms -----------------------------------------


def a_n(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)]


def d_n(n):
    m = a_n(n)
    m[n - 1][n - 2] = m[n - 2][n - 1] = 0
    m[n - 1][n - 3] = m[n - 3][n - 1] = -1
    return m


def e_n(n):
    """E6, E7, E8 Cartan matrix: a chain of n - 1 nodes, one branch at node 3."""
    m = a_n(n - 1)
    m = [row + [0] for row in m] + [[0] * n]
    m[n - 1][n - 1] = 2
    m[n - 1][2] = m[2][n - 1] = -1
    return m


def z_n(n):
    return identity(n)


LATTICES = {"A": a_n, "D": d_n, "E": e_n, "Z": z_n}


def minimum(kind):
    """Squared length of the shortest nonzero vector."""
    return 1 if kind == "Z" else 2


def covering_radius_sq(kind, n):
    """mu^2 for A_n, D_n, Z^n and E8 (SPLAG ch. 4)."""
    if kind == "A":
        a = (n + 1) // 2
        return Fraction(a * (n + 1 - a), n + 1)
    if kind == "D":
        return max(Fraction(1), Fraction(n, 4))
    if kind == "Z":
        return Fraction(n, 4)
    if kind == "E" and n == 8:
        return Fraction(1)
    raise ValueError(f"no closed form for {kind}{n}")


K4_JACOBIAN_MU_SQ = Fraction(5, 4)


def is_rational_power(x, n):
    """True when the positive rational x is the n-th power of a rational."""
    x = Fraction(x)

    def root(v):
        if v < 2:
            return v
        r = int(round(v ** (1.0 / n)))
        return any(c >= 0 and c**n == v for c in (r - 1, r, r + 1))

    return bool(root(x.numerator)) and bool(root(x.denominator))


# -- verifiers for forms -------------------------------------------------------


def is_integral_unimodular(u):
    return all(isinstance(x, int) for row in u for x in row) and abs(det(u)) == 1


def gso(f):
    """Gram-Schmidt coefficients mu and squared lengths of a Gram matrix."""
    n = len(f)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bst = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (Fraction(f[i][j]) - sum(mu[i][k] * mu[j][k] * bst[k]
                                                 for k in range(j))) / bst[j]
        bst[i] = Fraction(f[i][i]) - sum(mu[i][k] ** 2 * bst[k] for k in range(i))
    return mu, bst


def lll_conditions(r, delta=Fraction(3, 4), slack=0):
    """Size reduction |mu_ij| <= 1/2 and the Lovasz condition at delta."""
    r = [[Fraction(x) for x in row] for row in r]
    mu, bst = gso(r)
    n = len(r)
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2) + slack:
                return False
    for k in range(1, n):
        if bst[k] < (delta - mu[k][k - 1] ** 2) * bst[k - 1] * (1 - slack):
            return False
    return True


def close(a, b, tol):
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def matrices_close(a, b, tol):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(close(x, y, tol) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


# -- Siegel upper half space -----------------------------------------------------


def sympl_j(g):
    j = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        j[i][g + i] = 1
        j[g + i][i] = -1
    return j


def is_symplectic(gamma):
    g = len(gamma) // 2
    return (all(isinstance(x, int) for row in gamma for x in row)
            and conjugate(sympl_j(g), gamma) == sympl_j(g))


def jacobi(y):
    """Y = B^T diag(d) B with B unit upper triangular: (B, d)."""
    mu, d = gso(y)
    return transpose(mu), d


def in_fundamental_set(x, y, u):
    """Strict inequalities |x_ij| < u, |1 - b_ij| < u, 1 < u d_1, d_i < u d_(i+1)."""
    g = len(y)
    if any(abs(v) >= u for row in x for v in row):
        return False
    b, d = jacobi(y)
    for i in range(g):
        for j in range(i + 1, g):
            if abs(1 - b[i][j]) >= u:
                return False
    if not 1 < u * d[0]:
        return False
    return all(d[i] < u * d[i + 1] for i in range(g - 1))


def act(gamma, x, y):
    """(AZ + B)(CZ + D)^-1 with Z = X + iY, exact; returns (X', Y').

    Z is split into real and imaginary parts: with P = CX + D, Q = CY,
    (P + iQ)^-1 = (P + Q P^-1 Q)^-1 - i P^-1 Q (P + Q P^-1 Q)^-1 whenever
    P is invertible, which holds for C = 0 and for the genus-1 inversion
    at X != 0.  Otherwise the complex product runs in floats.
    """
    g = len(x)
    a = [row[:g] for row in gamma[:g]]
    b = [row[g:] for row in gamma[:g]]
    c = [row[:g] for row in gamma[g:]]
    d = [row[g:] for row in gamma[g:]]
    ax_b = [[p + q for p, q in zip(r1, r2)] for r1, r2 in zip(mat_mul(a, x), b)]
    ay = mat_mul(a, y)
    p = [[s + t for s, t in zip(r1, r2)] for r1, r2 in zip(mat_mul(c, x), d)]
    q = mat_mul(c, y)
    if det(p) != 0:
        p_inv = inverse(p)
        s = inverse([[s + t for s, t in zip(r1, r2)]
                     for r1, r2 in zip(p, mat_mul(q, mat_mul(p_inv, q)))])
        re = s
        im = [[-v for v in row] for row in mat_mul(p_inv, mat_mul(q, s))]
        # (N_re + i N_im)(re + i im)
        x_new = [[u - v for u, v in zip(r1, r2)]
                 for r1, r2 in zip(mat_mul(ax_b, re), mat_mul(ay, im))]
        y_new = [[u + v for u, v in zip(r1, r2)]
                 for r1, r2 in zip(mat_mul(ax_b, im), mat_mul(ay, re))]
        return x_new, y_new
    if g == 1:
        # (a z + b) / (c z + d) with c z + d = i q
        qq = q[0][0]
        return [[ay[0][0] / qq]], [[-ax_b[0][0] / qq]]
    raise ValueError("singular CX + D outside genus 1")


# -- graphs --------------------------------------------------------------------


def complete_graph(n):
    return list(range(n)), [(i, j) for i in range(n) for j in range(i + 1, n)]


def cycle_graph(n):
    return list(range(n)), [(i, (i + 1) % n) for i in range(n)]


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return list(range(10)), outer + spokes + inner


def cube_graph():
    edges = [(v, v ^ (1 << k)) for v in range(8) for k in range(3) if v < v ^ (1 << k)]
    return list(range(8)), edges


def complete_bipartite_graph(a, b):
    return list(range(a + b)), [(i, j) for i in range(a) for j in range(a, a + b)]


def prism_graph(n):
    """C_n x K_2: two n-cycles joined by rungs."""
    return list(range(2 * n)), ([(i, (i + 1) % n) for i in range(n)]
                                + [(n + i, n + (i + 1) % n) for i in range(n)]
                                + [(i, n + i) for i in range(n)])


def wheel_graph(n):
    """An n-cycle and a hub joined to every cycle vertex."""
    return list(range(n + 1)), [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]


def theta_graph():
    return [0, 1], [(0, 1), (0, 1), (0, 1)]


def dumbbell_graph():
    return [0, 1], [(0, 0), (1, 1), (0, 1)]


def loop_graph():
    return [0], [(0, 0)]


def betti(vertices, edges):
    return len(edges) - len(vertices) + 1


def jacobian_det(vertices, edges, lengths):
    """det of the cycle-lattice Gram with edge lengths (Kirchhoff).

    Equals the sum over spanning trees T of the product of the lengths of
    the edges outside T: det(reduced Laplacian with conductances 1/l)
    times the product of all lengths.  Loops contribute their length.
    """
    pos = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    lap = [[Fraction(0)] * n for _ in range(n)]
    prod = Fraction(1)
    for (u, v), length in zip(edges, lengths):
        prod *= length
        if u == v:
            continue
        i, j = pos[u], pos[v]
        c = 1 / Fraction(length)
        lap[i][i] += c
        lap[j][j] += c
        lap[i][j] -= c
        lap[j][i] -= c
    reduced = [row[1:] for row in lap[1:]]
    return (det(reduced) if reduced else Fraction(1)) * prod


def metric_diameter_unit(vertices, edges):
    """Diameter of the metric graph with unit edges.

    Distances between points of two unit edges are minima of affine
    functions with slopes +-1 and integer constants, so the maximum sits
    at an edge end or an edge midpoint.  Halving every edge therefore
    makes the diameter a vertex-to-vertex distance, found by BFS.
    """
    adj = {("v", v): [] for v in vertices}
    for k, (u, v) in enumerate(edges):
        mid = ("e", k)
        adj[mid] = [("v", u), ("v", v)]
        adj[("v", u)].append(mid)
        adj[("v", v)].append(mid)
    best = 0
    for src in adj:
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for p in frontier:
                for q in adj[p]:
                    if q not in dist:
                        dist[q] = dist[p] + 1
                        nxt.append(q)
            frontier = nxt
        best = max(best, max(dist.values()))
    return Fraction(best, 2)


# -- complexes -------------------------------------------------------------------


def simplex_cells(n):
    """Cells per dimension of the dual complex of the full (n-1)-simplex."""
    return {d: math.comb(n, d + 1) for d in range(n)}


def _chains(c, k):
    """Strict chains of k nonempty subsets of a c-element set."""
    # g[m][k]: chains of length k whose top set is one fixed m-set
    g = [[0] * (k + 1) for _ in range(c + 1)]
    for m in range(1, c + 1):
        g[m][1] = 1
        for length in range(2, k + 1):
            g[m][length] = sum(math.comb(m, j) * g[j][length - 1] for j in range(1, m))
    return sum(math.comb(c, m) * g[m][k] for m in range(1, c + 1))


def cyclic_quotient_cells(n):
    """Burnside count of C_n-orbits of chains in the full n-subset lattice.

    Rotation by k has gcd(k, n) cycles; a chain is fixed exactly when every
    set in it is a union of cycles.
    """
    out = {}
    for d in range(n):
        fixed = sum(_chains(math.gcd(k, n), d + 1) for k in range(n))
        out[d] = fixed // n
    return out


# -- collars ---------------------------------------------------------------------


def collar_length(t, c_star):
    """-2 log tan(pi eps / 2) with eps = log c* / log|t|."""
    eps = math.log(c_star) / math.log(abs(t))
    return -2.0 * math.log(math.tan(math.pi * eps / 2))


# -- JSON values -----------------------------------------------------------------


def value(x):
    """JSON scalar to Fraction (ints and "p/q" strings) or float."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            return x
    return x


def same_value(actual, expected, tol):
    """Compare JSON documents by value: rationals exactly, floats within tol.

    An expected rational asks for the same rational, never a float; an
    expected float passes a float within tol or a rational of its value.
    """
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and actual.keys() == expected.keys()
                and all(same_value(actual[k], expected[k], tol) for k in expected))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(same_value(a, e, tol) for a, e in zip(actual, expected)))
    a, e = value(actual), value(expected)
    if isinstance(e, (bool, type(None))) or isinstance(a, (bool, type(None))):
        return a is e
    if isinstance(e, Fraction):
        return isinstance(a, Fraction) and a == e
    if isinstance(e, float) and isinstance(a, (Fraction, float)):
        return close(a, e, tol)
    return a == e
