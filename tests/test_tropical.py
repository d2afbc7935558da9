import itertools
import math
from fractions import Fraction

import pytest

from troplab import (
    ModeMixError,
    PreconditionError,
    QuadraticForm,
    SchemaError,
    WeightedMetricGraph,
    covering_radius_sq,
    cycle_basis,
    first_betti,
    graph_diameter,
    is_equivalent,
    is_stable_type,
    rescale_graph_to_diameter_one,
    torelli,
    tropical_jacobian,
)
from troplab.tropical import TropicalAV, unstable_vertices

from helpers import (
    complete_graph,
    grid_graph_diameter,
    handcuff_graph,
    loop_graph,
    random_connected_graph,
    random_multigraph,
    relabeled_shuffled,
    sampled_graph_diameter,
    seeded,
    segment_graph,
    theta_graph,
    zonotope_covering_radius_sq,
)

F = Fraction


def path_tree(*lengths):
    n = len(lengths)
    vertices = [("v%d" % i, 0) for i in range(n + 1)]
    edges = [("v%d" % i, "v%d" % (i + 1), F(l)) for i, l in enumerate(lengths)]
    return WeightedMetricGraph(vertices, edges)


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _unit_graph(n, pairs):
    return [(i, 0) for i in range(n)], [(u, v, F(1)) for u, v in pairs]


# Petersen, the cube, K3,3 and the wheels W5, W6 (hub n, rim 0..n-1)
NAMED_GRAPHS = [
    _unit_graph(10, _cycle(5) + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
    _unit_graph(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b]),
    _unit_graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    _unit_graph(6, _cycle(5) + [(i, 5) for i in range(5)]),
    _unit_graph(7, _cycle(6) + [(i, 6) for i in range(6)]),
]


class TestGraphValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(PreconditionError):
            WeightedMetricGraph([("a", 0), ("a", 1)], [])

    def test_negative_weight_rejected(self):
        with pytest.raises(PreconditionError):
            WeightedMetricGraph([("a", -1)], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(PreconditionError):
            WeightedMetricGraph([("a", 0)], [("a", "b", F(1))])

    def test_nonpositive_length_rejected(self):
        with pytest.raises(PreconditionError):
            WeightedMetricGraph([("a", 0)], [("a", "a", F(0))])

    def test_disconnected_rejected(self):
        # two points; two components that each have edges; a triangle and
        # an isolated vertex
        cases = [
            ("ab", []),
            ("abcd", [("a", "b"), ("c", "d"), ("c", "c")]),
            ("abcd", [("a", "b"), ("b", "c"), ("c", "a")]),
        ]
        for vertices, edges in cases:
            with pytest.raises(PreconditionError) as info:
                WeightedMetricGraph([(v, 0) for v in vertices], [(u, v, F(1)) for u, v in edges])
            assert info.value.invariant == "connected"

    def test_mode_mix_rejected(self):
        with pytest.raises(ModeMixError):
            WeightedMetricGraph([("a", 0)], [("a", "a", 1.5)], "exact")

    def test_json_round_trip(self):
        g = handcuff_graph(1, 2, F(3, 7))
        doc = g.to_json_dict()
        back = WeightedMetricGraph.from_json_dict(doc)
        assert back.vertices == g.vertices
        assert back.edges == g.edges


def _slots(g):
    return g.vertices, g.edges, g.mode, g._pos, g._tree


class TestLengthVariants:
    def test_with_lengths_matches_the_constructor(self):
        # loops and parallel edges, exact and float lengths, each slot
        # equal to the graph built from scratch
        rng = seeded(71)
        for _ in range(60):
            vertices, edges = random_multigraph(rng)
            g = WeightedMetricGraph(vertices, edges)
            exact = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in edges]
            floats = [float(x) for x in exact]
            integers = [rng.randint(1, 5) for _ in edges]
            for lengths, mode in [(exact, None), (exact, "exact"), (floats, None),
                                  (exact, "float"), (integers, None)]:
                rebuilt = WeightedMetricGraph(
                    g.vertices, [(u, v, l) for (u, v, _), l in zip(g.edges, lengths)], mode
                )
                variant = g.with_lengths(lengths, mode)
                assert _slots(variant) == _slots(rebuilt)
                assert variant.vertices is g.vertices and variant._tree is g._tree

    @pytest.mark.parametrize(
        "lengths, mode, invariant",
        [
            ([1, 2], None, "graph-shape"),
            ([1, 2, 3, 4], None, "graph-shape"),
            ([1, 0, 3], None, "positive-length"),
            ([1, F(-1, 2), 3], None, "positive-length"),
            ([1.0, -2.0, 3.0], None, "positive-length"),
            ([1.0, math.inf, 3.0], None, "finite"),
            ([1.0, math.nan, 3.0], "float", "finite"),
            ([1, 2.5, 3], "exact", "matching-arithmetic-modes"),
            ([1, None, 3], None, "numeric-entries"),
            (None, None, "numeric-entries"),
        ],
    )
    def test_with_lengths_raises_the_constructors_invariant(self, lengths, mode, invariant):
        g = theta_graph(1, 2, 3)
        with pytest.raises(PreconditionError) as info:
            g.with_lengths(lengths, mode)
        assert info.value.invariant == invariant
        if lengths is not None and len(lengths) == len(g.edges):
            # the constructor on the same lengths fails the same way
            with pytest.raises(PreconditionError) as built:
                WeightedMetricGraph(
                    g.vertices, [(u, v, l) for (u, v, _), l in zip(g.edges, lengths)], mode
                )
            assert str(built.value) == str(info.value)

    def test_scaled_reads_its_factor_in_the_graphs_mode(self):
        g = theta_graph(1, 2, 3)
        assert g.scaled(2).edges == theta_graph(2, 4, 6).edges
        assert g.scaled(F(1, 2)).mode == "exact"
        h = WeightedMetricGraph(g.vertices, [(u, v, float(l)) for u, v, l in g.edges])
        assert h.scaled(2).edges == tuple((u, v, 2.0 * l) for u, v, l in h.edges)
        assert h.scaled(F(1, 2)).mode == "float"
        for graph, c, invariant in [
            (g, 0, "positive-scale"),
            (g, F(-1), "positive-scale"),
            (h, -2.0, "positive-scale"),
            (g, 2.0, "matching-arithmetic-modes"),
            (g, None, "numeric-entries"),
            (g, [1], "numeric-entries"),
            (g, "x", "numeric-entries"),
            (h, math.nan, "finite"),
            (h, 10**400, "finite"),
        ]:
            with pytest.raises(PreconditionError) as info:
                graph.scaled(c)
            assert info.value.invariant == invariant


class TestCombinatorics:
    def test_first_betti(self):
        assert first_betti(loop_graph(1)) == 1
        assert first_betti(theta_graph(1, 1, 1)) == 2
        assert first_betti(handcuff_graph(1, 1, 1)) == 2
        assert first_betti(segment_graph(1)) == 0

    def test_valence_counts_loops_twice(self):
        g = handcuff_graph(1, 1, 1)
        assert g.valence("p") == 3

    def test_stability(self):
        assert is_stable_type(theta_graph(1, 1, 1), 2)
        assert is_stable_type(handcuff_graph(1, 1, 1), 2)
        assert not is_stable_type(loop_graph(1), 1)
        weighted = WeightedMetricGraph([("a", 2)], [])
        assert is_stable_type(weighted, 2)
        assert not is_stable_type(weighted, 3)

    def test_unstable_vertices_are_the_weight_zero_ones_of_valence_below_three(self):
        # a loop at "a", a weight-1 leaf "b", a weight-0 leaf "c" and a
        # weight-0 vertex "d" of valence 2 between "a" and "c"
        g = WeightedMetricGraph(
            [("a", 0), ("b", 1), ("c", 0), ("d", 0)],
            [("a", "a", F(1)), ("a", "b", F(1)), ("a", "d", F(1)), ("d", "c", F(1))],
        )
        assert unstable_vertices(g) == ["c", "d"]
        assert not is_stable_type(g, 2)
        assert unstable_vertices(theta_graph(1, 1, 1)) == []


class TestDiameter:
    def test_frozen_values(self):
        assert graph_diameter(loop_graph(3)) == F(3, 2)
        assert graph_diameter(segment_graph(1)) == 1
        assert graph_diameter(handcuff_graph(1, 1, 1)) == 2
        assert graph_diameter(theta_graph(1, 1, 1)) == 1
        assert graph_diameter(path_tree(1, 1, 1)) == 3

    def test_uneven_theta(self):
        # deep pair sits on the long strand: going around costs (4 + 1) / 2
        assert graph_diameter(theta_graph(1, 1, 4)) == F(5, 2)

    def test_sampled_oracle_agreement(self):
        rng = seeded(41)
        graphs = [
            loop_graph(3),
            handcuff_graph(1, 2, F(1, 2)),
            theta_graph(1, 2, 3),
            path_tree(1, F(1, 2), 2),
        ]
        for _ in range(6):
            graphs.append(random_connected_graph(rng, max_b1=3))
        for g in graphs:
            exact = float(graph_diameter(g))
            sampled = sampled_graph_diameter(g.vertices, g.edges, steps=60)
            longest = max(float(l) for _, _, l in g.edges)
            assert sampled <= exact + 1e-9
            assert exact <= sampled + 2 * longest / 60 + 1e-9

    def test_grid_oracle_on_random_multigraphs(self):
        # loops, parallel edges and single-vertex graphs included
        rng = seeded(45)
        for _ in range(40):
            vertices, edges = random_multigraph(rng)
            g = WeightedMetricGraph(vertices, edges)
            assert graph_diameter(g) == grid_graph_diameter(vertices, edges)

    def test_grid_oracle_on_named_graphs(self):
        rng = seeded(46)
        graphs = [complete_graph(n) for n in range(4, 9)] + NAMED_GRAPHS
        for vertices, edges in graphs:
            assert graph_diameter(WeightedMetricGraph(vertices, edges)) == (
                grid_graph_diameter(vertices, edges)
            )
            # the same shape with uneven lengths
            uneven = [(u, v, F(rng.randint(1, 3), rng.randint(1, 2))) for u, v, _ in edges]
            assert graph_diameter(WeightedMetricGraph(vertices, uneven)) == (
                grid_graph_diameter(vertices, uneven)
            )

    def test_float_lengths_match_the_exact_diameter(self):
        rng = seeded(47)
        cases = [random_multigraph(rng) for _ in range(20)] + [complete_graph(6)]
        for vertices, edges in cases:
            exact = grid_graph_diameter(vertices, edges)
            floats = [(u, v, float(l)) for u, v, l in edges]
            value = graph_diameter(WeightedMetricGraph(vertices, floats))
            assert isinstance(value, float)
            # the lengths are dyadic, so the floats hold them exactly and
            # the exact diameter is rounded once
            assert value == float(exact)

    def test_grid_oracle_with_mixed_denominators(self):
        # lengths in thirds, sevenths, elevenths and powers of two, so
        # every length is scaled by its own factor to the common one
        cases = [
            [("p", "q", F(1, 3)), ("q", "r", F(1, 7)), ("r", "p", F(1, 11)),
             ("q", "q", F(1, 2))],
            [("p", "q", F(2, 3)), ("p", "q", F(1, 8)), ("q", "r", F(3, 7))],
            [("r", "r", F(1, 16)), ("p", "q", F(1, 3)), ("q", "r", F(1, 7))],
            [("p", "q", F(3, 32)), ("q", "r", F(1, 11)), ("r", "p", F(1, 4))],
        ]
        vertices = [("p", 0), ("q", 0), ("r", 0)]
        for edges in cases:
            assert graph_diameter(WeightedMetricGraph(vertices, edges)) == (
                grid_graph_diameter(vertices, edges)
            )

    def test_extreme_float_lengths_round_once(self):
        # closed forms in exact arithmetic on the floats' own values,
        # rounded once: loop l / 2, segment l, theta (l2 + l3) / 2 for
        # sorted lengths l1 <= l2 <= l3
        p, q = ("p", 0), ("q", 0)
        for lo, hi in [(1e-200, 1e200), (1e-200, 1e-199), (1e199, 1e200)]:
            for l in (lo, hi):
                loop = WeightedMetricGraph([p], [("p", "p", l)])
                assert graph_diameter(loop) == float(F(l) / 2)
                segment = WeightedMetricGraph([p, q], [("p", "q", l)])
                assert graph_diameter(segment) == l
            for lengths in [(lo, lo, hi), (hi, lo, hi), (lo, hi, lo)]:
                theta = WeightedMetricGraph([p, q], [("p", "q", l) for l in lengths])
                l1, l2, l3 = sorted(map(F, lengths))
                assert graph_diameter(theta) == float((l2 + l3) / 2)

    def test_rescale_makes_diameter_one(self):
        g = handcuff_graph(1, 2, F(3, 2))
        scaled = rescale_graph_to_diameter_one(g)
        assert graph_diameter(scaled) == 1


class TestCycleBasis:
    def test_loop(self):
        assert cycle_basis(loop_graph(2)) == [[1]]

    def test_theta(self):
        rows = cycle_basis(theta_graph(1, 1, 1))
        assert len(rows) == 2
        for row in rows:
            assert sorted(map(abs, row)) == [0, 1, 1]

    def test_tree_has_empty_basis(self):
        assert cycle_basis(path_tree(1, 1)) == []

    def test_rows_are_cycles(self):
        # every basis row has zero boundary: at each vertex the signed
        # edge incidences cancel; each row has a non-tree edge of its own,
        # in input order, and the other edges form a spanning tree
        rng = seeded(42)
        graphs = [random_connected_graph(rng) for _ in range(10)]
        # loops and parallel edges
        graphs += [WeightedMetricGraph(*random_multigraph(rng)) for _ in range(20)]
        graphs += [banana(4), handcuff_graph(1, 2, 3), loop_graph(1)]
        for g in graphs:
            rows = cycle_basis(g)
            assert len(rows) == first_betti(g)
            for row in rows:
                boundary = {vid: 0 for vid, _ in g.vertices}
                for k, (u, v, _) in enumerate(g.edges):
                    boundary[v] += row[k]
                    boundary[u] -= row[k]
                assert all(c == 0 for c in boundary.values())
            assert own_columns(g, rows) is not None


def is_spanning_tree(g, edges):
    parent = {vid: vid for vid, _ in g.vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for k in edges:
        ru, rv = find(g.edges[k][0]), find(g.edges[k][1])
        if ru == rv:
            return False
        parent[ru] = rv
    return len(edges) == len(g.vertices) - 1


def own_columns(g, rows):
    """Increasing columns, one per row, where the rows read as the identity
    and whose complement is a spanning tree, or None if there are none."""
    n = len(g.edges)
    single = [
        [j for j in range(n) if row[j] == 1 and sum(abs(r[j]) for r in rows) == 1]
        for row in rows
    ]
    for own in itertools.product(*single):
        if list(own) == sorted(set(own)) and is_spanning_tree(
            g, [k for k in range(n) if k not in own]
        ):
            return own
    return None


class TestJacobian:
    def test_loop(self):
        tav = tropical_jacobian(loop_graph(5))
        assert tav.b1 == 1
        assert tav.gram == QuadraticForm([[5]])

    def test_handcuff_is_diagonal(self):
        tav = tropical_jacobian(handcuff_graph(2, 3, 7))
        assert tav.gram == QuadraticForm([[2, 0], [0, 3]])

    def test_theta_class(self):
        tav = tropical_jacobian(theta_graph(1, 1, 1))
        hexagonal = QuadraticForm([[2, 1], [1, 2]])
        assert is_equivalent(tav.gram, hexagonal) is not None

    def test_tree_rejected(self):
        with pytest.raises(PreconditionError) as info:
            tropical_jacobian(path_tree(1, 1))
        assert info.value.invariant == "positive-genus"

    def test_scaling_equivariance(self):
        g = theta_graph(1, 2, 3)
        c = F(5, 3)
        assert tropical_jacobian(g.scaled(c)).gram == tropical_jacobian(g).gram.scale(c)

    def test_positive_definite_on_random_graphs(self):
        rng = seeded(43)
        for _ in range(20):
            g = random_connected_graph(rng)
            tav = tropical_jacobian(g)
            assert tav.gram.det() > 0
            assert tav.b1 == first_betti(g)

    def test_json_round_trip(self):
        tav = tropical_jacobian(handcuff_graph(1, 2, 3))
        doc = tav.to_json_dict()
        assert doc["gram"] == [[1, 0], [0, 2]]
        back = TropicalAV.from_json_dict(doc)
        assert back.gram == tav.gram and back.b1 == tav.b1

    @pytest.mark.parametrize("b1", [1.0, True, "1"], ids=["float", "bool", "str"])
    def test_json_rank_must_be_an_integer(self, b1):
        with pytest.raises(SchemaError) as info:
            TropicalAV.from_json_dict({"b1": b1, "gram": [[1]]})
        assert info.value.pointer == "/b1"

    def test_basis_independence_with_witness(self):
        rng = seeded(44)
        changed = 0
        for _ in range(20):
            g = random_connected_graph(rng, max_b1=4)
            h = relabeled_shuffled(g, rng)
            f1 = tropical_jacobian(g).gram
            f2 = tropical_jacobian(h).gram
            if f1 != f2:
                changed += 1
            u = is_equivalent(f1, f2)
            assert u is not None
            assert f1.transform(u) == f2
        assert changed >= 1


class TestTorelli:
    def test_loop_gives_unit_circle(self):
        assert torelli(loop_graph(9)).gram == QuadraticForm([[4]])

    def test_equal_handcuff(self):
        t = torelli(handcuff_graph(1, 1, 1))
        assert t.gram == QuadraticForm([[2, 0], [0, 2]])

    def test_uneven_handcuff(self):
        t = torelli(handcuff_graph(1, 2, 1))
        assert t.gram == QuadraticForm([[F(4, 3), 0], [0, F(8, 3)]])

    def test_bridge_length_never_matters(self):
        for x in (F(1, 7), F(3), F(100)):
            for y in (F(1, 2), F(5)):
                a = torelli(handcuff_graph(1, 2, x))
                b = torelli(handcuff_graph(1, 2, y))
                assert a.gram == b.gram

    def test_scale_invariance(self):
        g = theta_graph(1, 2, 3)
        assert torelli(g).gram == torelli(g.scaled(F(7, 2))).gram


# shapes whose cycle lattices the zonotope tests compare: K4, K3,3, the
# triangular prism, the wheel W5 and K5, as (vertex count, edges)
ZONOTOPE_SHAPES = {
    "K4": (4, list(itertools.combinations(range(4), 2))),
    "K33": (6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "prism": (6, _cycle(3) + [(3 + i, 3 + (i + 1) % 3) for i in range(3)]
              + [(i, i + 3) for i in range(3)]),
    "W5": (6, _cycle(5) + [(i, 5) for i in range(5)]),
    "K5": (5, list(itertools.combinations(range(5), 2))),
}


def _shape(name, lengths=None):
    n, pairs = ZONOTOPE_SHAPES[name]
    lengths = lengths or [F(1)] * len(pairs)
    return [(i, 0) for i in range(n)], [(u, v, l) for (u, v), l in zip(pairs, lengths)]


def banana(n):
    return WeightedMetricGraph([("p", 0), ("q", 0)], [("p", "q", F(1))] * n)


def assert_torus(graph, mu_sq):
    # the Torelli torus is the Jacobian over its covering radius squared
    assert torelli(graph).gram == tropical_jacobian(graph).gram.scale(1 / mu_sq)


class TestTorelliZonotope:
    def test_closed_forms(self):
        # Conway & Sloane, SPLAG ch. 4: a loop is a circle of length L, the
        # theta graph's lattice is c A2, the dumbbell's Z + Z, and the
        # banana graph of n unit edges has lattice A_{n-1}, whose mu^2 is
        # a (n - a) / n with a = floor(n / 2)
        cases = [(loop_graph(L), F(L) / 4) for L in (1, F(7, 3))]
        cases += [(theta_graph(c, c, c), 2 * F(c) / 3) for c in (1, F(5, 2))]
        cases += [(handcuff_graph(a, b, x), F(a + b) / 4)
                  for a, b, x in [(1, 1, 1), (2, F(1, 3), 5)]]
        cases += [(banana(n), F((n // 2) * (n - n // 2), n)) for n in range(2, 8)]
        for g, mu_sq in cases:
            assert zonotope_covering_radius_sq(g.vertices, g.edges) == mu_sq
            assert_torus(g, mu_sq)
        # the Voronoi search agrees where it is quick, A1 to A4
        for n in range(2, 6):
            assert covering_radius_sq(tropical_jacobian(banana(n)).gram) == (
                F((n // 2) * (n - n // 2), n)
            )

    def test_oracle_voronoi_and_torelli_agree_on_random_lengths(self):
        rng = seeded(48)
        for name in ZONOTOPE_SHAPES:
            for trial in range(5):
                n, pairs = ZONOTOPE_SHAPES[name]
                lengths = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in pairs]
                vertices, edges = _shape(name, lengths)
                g = WeightedMetricGraph(vertices, edges)
                mu_sq = zonotope_covering_radius_sq(vertices, edges)
                assert_torus(g, mu_sq)
                # the Voronoi search takes about a second on K5
                if name != "K5":
                    assert covering_radius_sq(tropical_jacobian(g).gram) == mu_sq

    def test_series_splits_and_hanging_trees_leave_the_torus(self):
        rng = seeded(49)
        for name in ("K4", "K33", "W5"):
            n, pairs = ZONOTOPE_SHAPES[name]
            lengths = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in pairs]
            vertices, edges = _shape(name, lengths)
            g = WeightedMetricGraph(vertices, edges)
            torus = torelli(g).gram
            # a tree of bridges hung on a vertex: new vertices come last,
            # so the spanning tree and the cycle basis keep their rows
            hung = WeightedMetricGraph(
                vertices + [("t0", 0), ("t1", 0), ("t2", 0)],
                edges + [(0, "t0", F(3)), ("t0", "t1", F(1, 5)), ("t0", "t2", F(7))],
            )
            assert torelli(hung).gram == torus
            # edge k as a path of three edges of the same total length; the
            # cycle basis may change, so the tori are compared through the
            # witness that the Jacobians are equivalent
            k = rng.randrange(len(edges))
            u, v, length = edges[k]
            cuts = [length * F(1, 5), length * F(1, 2)]
            split = WeightedMetricGraph(
                vertices + [("s0", 0), ("s1", 0)],
                edges[:k] + [(u, "s0", cuts[0]), ("s0", "s1", cuts[1]),
                             ("s1", v, length - sum(cuts))] + edges[k + 1:],
            )
            w = is_equivalent(tropical_jacobian(g).gram, tropical_jacobian(split).gram)
            assert w is not None
            assert torelli(split).gram == torus.transform(w)

    def test_petersen_and_k6(self):
        petersen, k6 = NAMED_GRAPHS[0], complete_graph(6)
        assert zonotope_covering_radius_sq(*petersen) == F(31, 10)
        assert zonotope_covering_radius_sq(*k6) == F(7, 2)
        assert_torus(WeightedMetricGraph(*petersen), F(31, 10))
        assert_torus(WeightedMetricGraph(*k6), F(7, 2))

    def test_float_graph_gets_its_exact_torus_rounded_once(self):
        rng = seeded(50)
        for name in ("K4", "prism"):
            n, pairs = ZONOTOPE_SHAPES[name]
            # dyadic lengths, so the floats hold them exactly
            lengths = [F(rng.randint(1, 9), 2 ** rng.randint(0, 3)) for _ in pairs]
            vertices, edges = _shape(name, lengths)
            exact = torelli(WeightedMetricGraph(vertices, edges)).gram
            floats = [(u, v, float(l)) for u, v, l in edges]
            rounded = torelli(WeightedMetricGraph(vertices, floats)).gram
            assert rounded.mode == "float"
            assert rounded.entries == tuple(tuple(map(float, r)) for r in exact.entries)

    def test_float_graph_gets_its_exact_jacobian_rounded_once(self):
        # the lengths are not dyadic, so summing float products would round
        # each term; the oracle sums the exact values and rounds once
        rng = seeded(51)
        n, pairs = ZONOTOPE_SHAPES["K5"]
        for _ in range(20):
            g = WeightedMetricGraph(
                [(i, 0) for i in range(n)],
                [(u, v, rng.choice([0.1, 0.2, 0.3, 0.7, 1e-3, 1 / 3])) for u, v in pairs],
            )
            rows = cycle_basis(g)
            want = [
                [float(sum(F(l) * a[e] * b[e] for e, (_, _, l) in enumerate(g.edges)))
                 for b in rows]
                for a in rows
            ]
            gram = tropical_jacobian(g).gram
            assert gram.mode == "float"
            assert [list(r) for r in gram.entries] == want
