"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: the
covering radius is brute-forced on a grid, graph diameters are sampled
densely along edges with a hand-rolled all-pairs shortest path,
equivalence witnesses are searched over bounded-entry integer matrices,
and the collar integral is summed by Simpson's rule.
"""

import itertools
import math
import random
from fractions import Fraction

from troplab import QuadraticForm, WeightedMetricGraph


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
