"""Weighted metric graphs, their diameters, and tropical Jacobians.

A weighted metric graph is a connected finite graph with positive edge
lengths and nonnegative integer vertex weights; loops and parallel edges
are allowed.  The Jacobian is the lattice of integer cycles with the
inner product that weighs each edge by its length, and the Torelli map
sends the graph to the unit-diameter real torus of that lattice; its
covering radius is read off the projected edge cube (torelli), not
searched for as for a general form.

Every answer about a graph is computed in integers, on the lengths
scaled to a common denominator (rationals.as_integers), and formed once
at the end: an exact graph gets exact Fractions, so downstream rescaling
stays exact, and a float graph gets its exact answer rounded once.  The
Jacobian Gram and the Torelli torus both read one integer Jacobian
(_integer_jacobian) over the fundamental cycles of a deterministic
spanning tree, which also decides connectivity.

Diameter means the diameter of the metric realization: the maximum
distance between any two points, edge interiors included.  It comes
from all-pairs vertex distances plus a closed form for each pair of
edges.  Seen from a point x of edge e, the farthest point of another
edge f = (u_f, v_f, l_f) is (d(x, u_f) + d(x, v_f) + l_f) / 2 away, and
the sum d(x, u_f) + d(x, v_f) of two tent functions of x peaks where
the tent of u_f does; _integer_diameter gives the derivation.
"""

import operator
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import troplab

from .errors import PreconditionError, SchemaError
from .forms import FlatTorus, QuadraticForm
from .rationals import (
    Scalar, as_integers, coerce_integer, coerce_vector, format_scalar, parse_array, parse_integer,
    parse_matrix, parse_mode, parse_object, parse_scalar, quotient,
)


class WeightedMetricGraph:
    """Connected multigraph with vertex weights and positive edge lengths.

    Vertices are (id, weight) pairs with unique hashable ids; edges are
    (u, v, length) triples in a fixed input order that all cycle-space
    coordinates refer to.  Lengths are all Fraction ("exact" mode) or all
    float ("float"), mirroring QuadraticForm.  The constructor checks the
    combinatorics once; a length variant (with_lengths, scaled) reads only
    its new lengths and shares the checked vertices and spanning tree.
    """

    __slots__ = ("vertices", "edges", "mode", "_pos", "_tree")

    def __init__(self, vertices: Sequence[Tuple], edges: Sequence[Tuple], mode: Optional[str] = None):
        try:
            verts = [(vid, w) for vid, w in vertices]
            edges = [(u, v, length) for u, v, length in edges]
        except (TypeError, ValueError):  # not iterable, or of the wrong length
            raise PreconditionError(
                "graph-shape", "vertices must be (id, weight) pairs, edges (u, v, length) triples"
            ) from None
        for vid, w in verts:
            what = f"weight of vertex {vid!r} must be a nonnegative integer"
            coerce_integer(w, "vertex-weight", what, low=0)
        if not verts:
            raise PreconditionError("nonempty-graph", "a graph needs at least one vertex")
        pos = {}
        try:
            for i, (vid, _) in enumerate(verts):
                if vid in pos:
                    raise PreconditionError("unique-vertex-ids", f"duplicate vertex id {vid!r}")
                pos[vid] = i
        except TypeError:
            raise PreconditionError("unique-vertex-ids", f"vertex id {vid!r} is not hashable")

        lengths, mode = _positive_lengths([e[2] for e in edges], mode)
        try:
            for k, (u, v, _) in enumerate(edges):
                if u not in pos or v not in pos:
                    raise PreconditionError(
                        "edge-endpoints", f"edge {k} references an unknown vertex"
                    )
        except TypeError:  # an unhashable endpoint
            raise PreconditionError("edge-endpoints", f"edge {k} has an unhashable endpoint")

        self.vertices = tuple(verts)
        self.edges = tuple((u, v, length) for (u, v, _), length in zip(edges, lengths))
        self.mode = mode
        self._pos = pos
        self._tree = _spanning_tree(self)
        if len(self._tree) < len(verts) - 1:
            raise PreconditionError("connected", "graph is not connected")

    def vertex_index(self, vid) -> int:
        return self._pos[vid]

    def valence(self, vid) -> int:
        """Number of edge ends at the vertex; a loop contributes 2."""
        if vid not in self._pos:
            raise PreconditionError("edge-endpoints", f"unknown vertex {vid!r}")
        return sum((u == vid) + (v == vid) for u, v, _ in self.edges)

    def weight_sum(self) -> int:
        return sum(w for _, w in self.vertices)

    def with_lengths(self, lengths: Sequence, mode: Optional[str] = None) -> "WeightedMetricGraph":
        """The graph with the same vertices, ids and edge endpoints, and
        these lengths in edge order.

        The lengths are read as the constructor reads them, one per edge;
        the vertices, the id positions and the spanning tree are shared
        with this graph, which checked them when it was built.
        """
        lengths, mode = _positive_lengths(lengths, mode)
        if len(lengths) != len(self.edges):
            raise PreconditionError(
                "graph-shape",
                f"expected {len(self.edges)} lengths, one per edge, got {len(lengths)}",
            )
        graph = object.__new__(WeightedMetricGraph)
        graph.vertices, graph._pos, graph._tree = self.vertices, self._pos, self._tree
        graph.edges = tuple((u, v, length) for (u, v, _), length in zip(self.edges, lengths))
        graph.mode = mode
        return graph

    def scaled(self, c: Scalar) -> "WeightedMetricGraph":
        """Same combinatorics with every length multiplied by c > 0, read
        in the graph's mode."""
        (c,), _ = coerce_vector([c], self.mode, "c")
        if c <= 0:
            raise PreconditionError("positive-scale", "scale factor must be > 0")
        return self.with_lengths([c * l for _, _, l in self.edges], self.mode)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "vertices": [{"id": vid, "w": w} for vid, w in self.vertices],
            "edges": [
                {"u": u, "v": v, "len": format_scalar(l)} for u, v, l in self.edges
            ],
        }

    @classmethod
    def from_json_dict(cls, obj, pointer: str = "") -> "WeightedMetricGraph":
        parse_object(obj, (), pointer, "expected a graph object")
        mode = parse_mode(obj, pointer)

        def vertex_id(x, here):
            if isinstance(x, str):
                return x
            return parse_integer(x, here, "vertex id must be a string or integer")

        def vertex(v, here):
            parse_object(v, ("id", "w"), here, "vertex needs 'id' and 'w'")
            vid = vertex_id(v["id"], here + "/id")
            what = "weight must be a nonnegative integer"
            if parse_integer(v["w"], here + "/w", what) < 0:
                raise SchemaError(what, here + "/w")
            return vid, v["w"]

        def edge(e, here):
            parse_object(e, ("u", "v", "len"), here, "edge needs 'u', 'v', and 'len'")
            u, v = vertex_id(e["u"], here + "/u"), vertex_id(e["v"], here + "/v")
            return u, v, parse_scalar(e["len"], mode, here + "/len")

        verts = parse_array(
            obj.get("vertices"), vertex, pointer + "/vertices", "vertices must be a nonempty list",
            nonempty=True,
        )
        edges = parse_array(obj.get("edges", []), edge, pointer + "/edges", "edges must be a list")
        return cls(verts, edges, mode)


def _positive_lengths(values: Sequence, mode: Optional[str]) -> Tuple[List[Scalar], str]:
    """The lengths through rationals.coerce_vector, and the mode; a length
    <= 0 fails `positive-length`."""
    lengths, mode = coerce_vector(values, mode, "lengths")
    for k, length in enumerate(lengths):
        if length <= 0:
            raise PreconditionError("positive-length", f"edge {k} has nonpositive length")
    return lengths, mode


def first_betti(graph: WeightedMetricGraph) -> int:
    """Rank of the cycle space: #edges - #vertices + 1 (graph is connected)."""
    return len(graph.edges) - len(graph.vertices) + 1


def unstable_vertices(graph: WeightedMetricGraph) -> list:
    """Ids of the weight-0 vertices of valence < 3, in vertex order: a
    stable type has none."""
    return [vid for vid, w in graph.vertices if w == 0 and graph.valence(vid) < 3]


def is_stable_type(graph: WeightedMetricGraph, g: int) -> bool:
    """Genus count b1 + sum of weights equals g, and no vertex is unstable."""
    return first_betti(graph) + graph.weight_sum() == g and not unstable_vertices(graph)


# -- metric realization ----------------------------------------------------


def _integer_diameter(graph: WeightedMetricGraph) -> Tuple[List[int], int, int]:
    """(lengths, den, best4): the lengths as integers L_e over one
    denominator den (rationals.as_integers), exact for a Fraction and for
    a float alike, and best4 = 4 den diam, four times the diameter of the
    scaled graph; all of the work runs on Python ints.

    Vertex pairs and pairs of points on one edge e = (u, v, l) come from
    the vertex distances d; the farthest two points of e are min(l,
    (l + d(u, v)) / 2) apart.  For two different edges e = (u_e, v_e,
    l_e) and f = (u_f, v_f, l_f), a point x of e (its distance from u_e)
    is at d(x, w) = min(x + d(u_e, w), l_e - x + d(v_e, w)) from a vertex
    w.  As |d(x, u_f) - d(x, v_f)| <= l_f, the farthest point of f is at
    (d(x, u_f) + d(x, v_f) + l_f) / 2.  Each d(x, w) rises with slope 1
    up to its breakpoint and falls with slope -1 after it, so their sum
    is flat between the two breakpoints and peaks at both, among them
    the one of u_f, x1 = (l_e + d(v_e, u_f) - d(u_e, u_f)) / 2.  Four
    times the pair's maximum is therefore
        l_e + d(u_e, u_f) + d(v_e, u_f) + 2 l_f
          + min(l_e + d(v_e, u_f) - d(u_e, u_f) + 2 d(u_e, v_f),
                l_e - d(v_e, u_f) + d(u_e, u_f) + 2 d(v_e, v_f)),
    a constant number of additions per edge pair; loops and parallel
    edges need no special case.
    """
    lengths, den = as_integers(l for _, _, l in graph.edges)
    ends = [
        (graph.vertex_index(u), graph.vertex_index(v), l)
        for (u, v, _), l in zip(graph.edges, lengths)
    ]
    # all-pairs vertex distances (Floyd-Warshall); the graph is connected,
    # so no distance reaches far, the total length plus one
    n = len(graph.vertices)
    far = 1 + sum(l for _, _, l in ends)
    dist = [[far] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for i, j, l in ends:
        if i != j and l < dist[i][j]:
            dist[i][j] = dist[j][i] = l
    for k in range(n):
        dk = dist[k]
        for di in dist:
            dik = di[k]
            if dik == far:
                continue
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    best4 = 4 * max(max(row) for row in dist)
    for a, (ia, ja, le) in enumerate(ends):
        # points x <= y on the same edge: the far side of min(direct, around)
        best4 = max(best4, min(4 * le, 2 * (le + dist[ia][ja])))
        du, dv = dist[ia], dist[ja]
        for ib, jb, lf in ends[a + 1 :]:
            rise = le + dv[ib] - du[ib]
            fall = le - dv[ib] + du[ib]
            val4 = (
                le + du[ib] + dv[ib] + 2 * lf
                + min(rise + 2 * du[jb], fall + 2 * dv[jb])
            )
            if val4 > best4:
                best4 = val4
    return lengths, den, best4


def graph_diameter(graph: WeightedMetricGraph) -> Scalar:
    """Diameter of the metric realization: exact for an exact graph, and
    for a float graph its exact diameter rounded once."""
    _, den, best4 = _integer_diameter(graph)
    return quotient(graph.mode, best4, 4 * den)


def rescale_graph_to_diameter_one(graph: WeightedMetricGraph) -> WeightedMetricGraph:
    """The graph with every length divided by the diameter.

    Each length l_e = L_e / den becomes 4 L_e / best4 (_integer_diameter),
    formed once: exact, or for a float graph the exact length rounded once.
    """
    lengths, _, best4 = _integer_diameter(graph)
    if not best4:
        raise PreconditionError(
            "positive-diameter", "cannot rescale a graph with no edges"
        )
    return graph.with_lengths([quotient(graph.mode, 4 * l, best4) for l in lengths], graph.mode)


# -- cycle space -------------------------------------------------------------


def _spanning_tree(graph: WeightedMetricGraph) -> List[int]:
    """Edge indices of the lexicographic-Kruskal spanning tree; on a
    disconnected graph, a forest with fewer than #vertices - 1 edges."""
    order = sorted(
        range(len(graph.edges)),
        key=lambda k: (
            tuple(sorted((repr(graph.edges[k][0]), repr(graph.edges[k][1])))),
            k,
        ),
    )
    parent = list(range(len(graph.vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    tree = []
    for k in order:
        u, v, _ = graph.edges[k]
        ru, rv = find(graph.vertex_index(u)), find(graph.vertex_index(v))
        if ru != rv:
            parent[ru] = rv
            tree.append(k)
    return tree


def cycle_basis(graph: WeightedMetricGraph) -> List[List[int]]:
    """Fundamental cycles of the deterministic spanning tree.

    Rows are indexed by non-tree edges in input order; columns by all
    edges in input order, entries in {-1, 0, 1}.  Each non-tree edge
    k = (u, v) is traversed u->v and closed through the tree: with
    to_root[w] the signed tree edges climbed from w to the root, row k is
    e_k + to_root[v] - to_root[u], where the climb that u and v share
    cancels.
    """
    tree = set(graph._tree)
    adj: Dict[object, list] = {vid: [] for vid, _ in graph.vertices}
    for k in tree:
        u, v, _ = graph.edges[k]
        adj[u].append((v, k, 1))
        adj[v].append((u, k, -1))
    root = graph.vertices[0][0]
    # to_root[w][k]: the sign of edge k on the climb from w, -1 where it
    # is climbed against its stored direction
    to_root = {root: [0] * len(graph.edges)}
    stack = [root]
    while stack:
        cur = stack.pop()
        for nxt, k, s in adj[cur]:
            if nxt not in to_root:
                to_root[nxt] = climb = list(to_root[cur])
                climb[k] = -s
                stack.append(nxt)
    rows = []
    for k, (u, v, _) in enumerate(graph.edges):
        if k not in tree:
            row = list(map(operator.sub, to_root[v], to_root[u]))
            row[k] = 1
            rows.append(row)
    return rows


class _TropicalAVFields(NamedTuple):
    b1: int
    gram: QuadraticForm


class TropicalAV(_TropicalAVFields):
    """Integer cycle lattice with its length-weighted inner product."""

    __slots__ = ()

    def __new__(cls, b1: int, gram: QuadraticForm):
        if b1 != gram.n:
            raise PreconditionError("rank-matches-gram", "rank must equal the Gram size")
        return tuple.__new__(cls, (b1, gram))

    def to_json_dict(self) -> dict:
        return {
            "b1": self.b1,
            "mode": self.gram.mode,
            "gram": [[format_scalar(x) for x in row] for row in self.gram.entries],
        }

    @classmethod
    def from_json_dict(cls, obj, pointer: str = "") -> "TropicalAV":
        parse_object(obj, ("gram",), pointer)
        mode = parse_mode(obj, pointer)
        gram = QuadraticForm(parse_matrix(obj["gram"], mode, pointer + "/gram"), mode)
        return cls(parse_integer(obj.get("b1", gram.n), pointer + "/b1"), gram)


def _integer_jacobian(graph: WeightedMetricGraph):
    """(classes, Q, den): the cycle lattice in integers, with Q = den J.

    The lengths are read as integers L_e over one denominator den.  The
    column c_e of edge e in the cycle basis gives J = sum_e l_e c_e c_e^T;
    a bridge has c_e = 0 and drops out, and edges whose columns agree up
    to sign give the same term, so they merge into one class keyed by the
    column with its first nonzero entry positive and weighted by the sum
    of their lengths.  Then Q = sum_k L_k c_k c_k^T over the classes.
    """
    basis = cycle_basis(graph)
    if not basis:
        raise PreconditionError(
            "positive-genus", "tropical Jacobian of a tree is a point"
        )
    lengths, den = as_integers(l for _, _, l in graph.edges)
    classes: Dict[Tuple[int, ...], int] = {}
    for col, l in zip(zip(*basis), lengths):
        lead = next((x for x in col if x), 0)
        if lead:
            key = col if lead > 0 else tuple(-x for x in col)
            classes[key] = classes.get(key, 0) + l
    g = len(basis)
    gram = [
        [sum(l * c[a] * c[b] for c, l in classes.items()) for b in range(g)]
        for a in range(g)
    ]
    return classes, gram, den


def tropical_jacobian(graph: WeightedMetricGraph) -> TropicalAV:
    """Cycle lattice with gram[a][b] = sum over edges of a_e * b_e * length.

    The Gram is Q / den of the integer Jacobian: exact for an exact graph,
    and for a float graph its exact Jacobian rounded once per entry.
    """
    _, gram, den = _integer_jacobian(graph)
    return TropicalAV(len(gram), QuadraticForm._from_gram(gram, den, graph.mode))


def torelli(graph: WeightedMetricGraph) -> FlatTorus:
    """Unit-diameter flat torus of the tropical Jacobian: J / mu^2.

    The Voronoi cell of the cycle lattice under the length-weighted inner
    product is the orthogonal projection of the cube [-1/2, 1/2]^E
    (Bacher, de la Harpe & Nagnibeda, Bull. SMF 125 (1997); Amini,
    arXiv:1007.2456), so mu^2 is the largest |pi(s / 2)|^2 over sign
    vectors s.  In the cycle basis, with c_e the column of edge e, that is
        mu^2 = max_s b^T J^-1 b / 4,   b = sum_e s_e l_e c_e.
    Edges in one class of the integer Jacobian (_integer_jacobian) are in
    series, and the maximum puts their terms in line, so with Q = den J
    and L_k the integer length of class k
        mu^2 = max_s b^T adj(Q) b / (4 det(Q) den),   b = sum_k s_k L_k c_k,
    the edge-cube sign walk of lattice.cube_sign_walk, which also gives
    covering_radius_sq its blocks of dimension 3 (an obtuse superbase
    makes such a block a weighted K4 Laplacian); the Voronoi cell serves
    dimension >= 4 only.  The walk is the one part of the lattice search
    a graph needs, so the search loads (troplab.__getattr__) when a
    Torelli torus is first asked for, and not with the graphs.  The walk
    visits all 2^(k-1) sign vectors of the k classes, so each further
    class doubles the time.  The torus
    J / mu^2 = 4 det(Q) Q / max is formed once: an exact Fraction, or for a
    float graph its exact copy's torus rounded once per entry.
    """
    classes, gram, _ = _integer_jacobian(graph)
    det, best = troplab.lattice.cube_sign_walk(classes, gram)
    g = [[4 * det * x for x in r] for r in gram]
    return FlatTorus(QuadraticForm._from_gram(g, best, graph.mode))
