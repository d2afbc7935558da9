import itertools
import math
from fractions import Fraction

import pytest

from troplab import (
    AVFamily,
    CurveFamily,
    GluingFunction,
    NotPositiveDefiniteError,
    PreconditionError,
    QuadraticForm,
    WeightedMetricGraph,
    av_family_limit,
    av_family_numeric_oracle,
    collar_length,
    curve_family_gh_limit,
    curve_family_hybrid_limit,
    graph_diameter,
    is_homothetic,
    is_stable_type,
    torelli_family_compare,
    tropical_jacobian,
)
from troplab import tropical

from helpers import (
    collar_quadrature,
    handcuff_graph,
    loop_graph,
    random_integer_pd,
    seeded,
    theta_graph,
)

F = Fraction


def closed_form_collar(t: float, c_star: float) -> float:
    """Independent antiderivative check for the neck integral."""
    eps = math.log(c_star) / math.log(t)
    return -2.0 * math.log(math.tan(math.pi * eps / 2.0))


class TestAVFamily:
    def test_accepts_matrix_input(self):
        fam = AVFamily([[2, 1], [1, 2]])
        assert fam.torus_rank == 2

    def test_rejects_non_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            AVFamily([[1, 2], [2, 1]])

    def test_rejects_float_valuations(self):
        with pytest.raises(PreconditionError):
            AVFamily(QuadraticForm([[1.0]], "float"))

    def test_json_round_trip_with_block(self):
        fam = AVFamily([[3]], abelian_block=QuadraticForm([[1, 0], [0, 1]]))
        doc = fam.to_json_dict()
        back = AVFamily.from_json_dict(doc)
        assert back.valuation_matrix == fam.valuation_matrix
        assert back.abelian_block == fam.abelian_block

    def test_rank_key_must_agree(self):
        from troplab import SchemaError

        with pytest.raises(SchemaError):
            AVFamily.from_json_dict({"r": 2, "M": [[1]]})

    @pytest.mark.parametrize(
        "doc, pointer",
        [
            ({"M": [[1, 0]]}, "/M/0"),
            ({"M": []}, "/M"),
            ({"M": None}, "/M"),
            ({"M": [[1.5]]}, "/M/0/0"),
            ({"M": [[1]], "abelian_block": [[1], [0]]}, "/abelian_block/0"),
        ],
        ids=["not-square", "empty", "null", "float", "block-not-square"],
    )
    def test_malformed_matrices_are_schema_errors(self, doc, pointer):
        from troplab import SchemaError

        with pytest.raises(SchemaError) as info:
            AVFamily.from_json_dict(doc)
        assert info.value.pointer == pointer


class TestAVLimit:
    def test_hexagonal_rescale(self):
        fam = AVFamily([[2, 1], [1, 2]])
        lim = av_family_limit(fam)
        assert lim.gram == QuadraticForm([[3, F(3, 2)], [F(3, 2), 3]])

    def test_diagonal_rescale(self):
        lim = av_family_limit(AVFamily([[1, 0], [0, 2]]))
        assert lim.gram == QuadraticForm([[F(4, 3), 0], [0, F(8, 3)]])

    def test_abelian_block_is_discarded(self):
        plain = av_family_limit(AVFamily([[2, 1], [1, 2]]))
        padded = av_family_limit(
            AVFamily([[2, 1], [1, 2]], abelian_block=QuadraticForm([[7]]))
        )
        assert plain.gram == padded.gram

    def test_oracle_matches_at_small_t(self):
        rng = seeded(51)
        mats = [[[1, 0], [0, 2]], [[2, 1], [1, 3]]]
        for n in (2, 3):
            for _ in range(3):
                mats.append(random_integer_pd(rng, n))
        for m in mats:
            fam = AVFamily(m)
            lim = av_family_limit(fam)
            (torus,) = av_family_numeric_oracle(fam, [1e-8])
            got = is_homothetic(torus.gram, lim.gram.to_float(), tol=1e-3)
            assert got is not None

    def test_oracle_t_range(self):
        with pytest.raises(PreconditionError):
            av_family_numeric_oracle(AVFamily([[1]]), [2.0])


class TestCurveFamily:
    def test_multiplicities_must_be_positive_integers(self):
        g = loop_graph(1)
        with pytest.raises(PreconditionError):
            CurveFamily(g, [0])
        with pytest.raises(PreconditionError):
            CurveFamily(g, [F(1, 2)])

    def test_multiplicity_count_checked(self):
        with pytest.raises(PreconditionError):
            CurveFamily(loop_graph(1), [1, 1])

    def test_stability_enforced_at_genus_two(self):
        # two loops joined at a single 4-valent vertex is fine,
        # but a dangling 1-valent weight-0 vertex is not
        g = WeightedMetricGraph(
            [("a", 0), ("b", 0)],
            [("a", "a", F(1)), ("a", "a", F(1)), ("a", "b", F(1))],
        )
        with pytest.raises(PreconditionError, match="vertex 'b' has valence < 3") as info:
            CurveFamily(g, [1, 1, 1])
        assert info.value.invariant == "stable-dual-graph"
        assert not is_stable_type(g, 2)

    def test_genus_one_loop_accepted(self):
        fam = CurveFamily(loop_graph(1), [3])
        assert fam.genus == 1

    def test_no_nodes_rejected_at_limit_time(self):
        fam = CurveFamily(WeightedMetricGraph([("a", 2)], []), [])
        with pytest.raises(PreconditionError) as info:
            curve_family_gh_limit(fam)
        assert info.value.invariant == "nodal-central-fiber"

    def test_edge_lengths_default_in_json(self):
        fam = CurveFamily.from_json_dict(
            {
                "graph": {
                    "vertices": [{"id": "a", "w": 0}],
                    "edges": [{"u": "a", "v": "a"}],
                },
                "multiplicities": [2],
            }
        )
        assert fam.multiplicities == (2,)


class TestCurveLimits:
    def test_gh_limit_has_unit_diameter(self):
        fam = CurveFamily(handcuff_graph(1, 1, 1), [1, 2, 3])
        out = curve_family_gh_limit(fam)
        assert graph_diameter(out) == 1

    def test_gh_limit_ignores_multiplicities(self):
        g = handcuff_graph(1, 1, 1)
        a = curve_family_gh_limit(CurveFamily(g, [1, 2, 3]))
        b = curve_family_gh_limit(CurveFamily(g, [5, 5, 5]))
        assert a.edges == b.edges

    def test_gh_limit_base_change_invariance(self):
        g = theta_graph(1, 1, 1)
        a = curve_family_gh_limit(CurveFamily(g, [1, 2, 3]))
        b = curve_family_gh_limit(CurveFamily(g, [4, 8, 12]))
        assert a.edges == b.edges

    def test_hybrid_limit_log_weights(self):
        fam = CurveFamily(handcuff_graph(1, 1, 1), [1, 2, 3])
        out = curve_family_hybrid_limit(fam, GluingFunction.LOG)
        assert [l for _, _, l in out.edges] == [F(1, 6), F(1, 3), F(1, 2)]

    def test_hybrid_limit_loglog_uniform(self):
        fam = CurveFamily(handcuff_graph(1, 1, 1), [1, 2, 3])
        out = curve_family_hybrid_limit(fam, GluingFunction.LOGLOG)
        assert [l for _, _, l in out.edges] == [F(1, 3)] * 3

    def test_hybrid_log_projective_invariance(self):
        g = theta_graph(1, 1, 1)
        a = curve_family_hybrid_limit(CurveFamily(g, [1, 2, 3]), GluingFunction.LOG)
        b = curve_family_hybrid_limit(CurveFamily(g, [2, 4, 6]), GluingFunction.LOG)
        assert a.edges == b.edges
        c = curve_family_hybrid_limit(CurveFamily(g, [2, 2, 3]), GluingFunction.LOG)
        assert a.edges != c.edges


class TestCollar:
    def test_matches_closed_form(self):
        for t, c in ((1e-4, 0.5), (1e-6, 0.5), (1e-5, 0.3), (1e-9, 0.7)):
            got = collar_length(t, c)
            want = closed_form_collar(t, c)
            assert abs(got - want) <= 1e-6 * abs(want)

    def test_matches_independent_quadrature(self):
        for t, c in ((1e-4, 0.5), (1e-6, 0.5), (1e-5, 0.3), (1e-9, 0.7), (1e-14, 0.5)):
            got = collar_length(t, c)
            want = collar_quadrature(t, c)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_growth_matches_double_log_up_to_bounded_error(self):
        values = []
        for k in range(4, 9):
            length = collar_length(10.0 ** -k, 0.5)
            assert math.isfinite(length)
            values.append(length - 2.0 * math.log(k * math.log(10.0)))
        assert max(values) - min(values) < 0.2

    def test_domain_checks(self):
        with pytest.raises(PreconditionError):
            collar_length(0.9, 0.5)
        with pytest.raises(PreconditionError):
            collar_length(0.0, 0.5)
        with pytest.raises(PreconditionError):
            collar_length(1e-8, 1.5)

    def test_complex_parameter_uses_modulus(self):
        a = collar_length(1e-6, 0.5)
        b = collar_length(1e-6 * complex(0, 1), 0.5)
        assert a == pytest.approx(b, rel=1e-12)


def k4_family(multiplicities) -> CurveFamily:
    edges = [(u, v, F(1)) for u, v in itertools.combinations("abcd", 2)]
    return CurveFamily(WeightedMetricGraph([(v, 0) for v in "abcd"], edges), multiplicities)


class TestTorelliComparison:
    def test_k4_equal_multiplicities_are_continuous_and_exact(self):
        cmp = torelli_family_compare(k4_family([3] * 6))
        assert cmp.continuous
        assert cmp.gh_side.gram.mode == cmp.av_side.gram.mode == "exact"
        assert cmp.gh_side.gram == cmp.av_side.gram

    def test_k4_nearly_equal_multiplicities_are_discontinuous(self):
        # the det ratio of the two Jacobians is no rational cube
        cmp = torelli_family_compare(k4_family([10**7] * 5 + [10**7 + 1]))
        assert not cmp.continuous
        assert cmp.gh_side.gram.mode == cmp.av_side.gram.mode == "exact"

    def test_uneven_handcuff_is_discontinuous(self):
        fam = CurveFamily(handcuff_graph(1, 1, 1), [1, 2, 3])
        cmp = torelli_family_compare(fam)
        assert not cmp.continuous
        assert cmp.gh_side.gram == QuadraticForm([[2, 0], [0, 2]])
        assert cmp.av_side.gram == QuadraticForm([[F(4, 3), 0], [0, F(8, 3)]])

    def test_even_handcuff_is_continuous(self):
        fam = CurveFamily(handcuff_graph(1, 1, 1), [5, 5, 7])
        cmp = torelli_family_compare(fam)
        assert cmp.continuous
        assert cmp.gh_side.gram == cmp.av_side.gram

    def test_single_loop_is_continuous(self):
        cmp = torelli_family_compare(CurveFamily(loop_graph(1), [4]))
        assert cmp.continuous
        assert cmp.gh_side.gram == QuadraticForm([[4]])

    def test_av_side_is_the_limit_of_the_valuation_form(self):
        # the abelian side is av_family_limit of the m-weighted Jacobian,
        # whose covering radius the Voronoi search finds on its own
        rng = seeded(52)
        for graph in (k4_family([1] * 6).graph, theta_graph(1, 1, 1),
                      handcuff_graph(1, 1, 1), loop_graph(1)):
            for _ in range(3):
                mult = [rng.randint(1, 9) for _ in graph.edges]
                weighted = WeightedMetricGraph(
                    graph.vertices, [(u, v, F(m)) for (u, v, _), m in zip(graph.edges, mult)]
                )
                cmp = torelli_family_compare(CurveFamily(graph, mult))
                assert cmp.av_side == av_family_limit(AVFamily(tropical_jacobian(weighted).gram))

    def test_tree_rejected(self):
        g = WeightedMetricGraph(
            [("a", 1), ("b", 1)], [("a", "b", F(1))]
        )
        fam = CurveFamily(g, [1])
        with pytest.raises(PreconditionError) as info:
            torelli_family_compare(fam)
        assert info.value.invariant == "positive-genus"

    def test_json_shape(self):
        fam = CurveFamily(handcuff_graph(1, 1, 1), [1, 2, 3])
        doc = torelli_family_compare(fam).to_json_dict()
        assert set(doc) == {"gh_side", "av_side", "continuous"}
        assert doc["continuous"] is False


def test_a_built_family_builds_no_spanning_tree_again(monkeypatch):
    # the dual graph's combinatorics is checked once, when the family is
    # built: every length variant shares its spanning tree
    built = []
    spanning_tree = tropical._spanning_tree
    monkeypatch.setattr(tropical, "_spanning_tree", lambda g: built.append(g) or spanning_tree(g))
    fam = k4_family([1, 2, 3, 1, 2, 3])
    assert len(built) == 1
    curve_family_gh_limit(fam)
    curve_family_hybrid_limit(fam, GluingFunction.LOG)
    curve_family_hybrid_limit(fam, GluingFunction.LOGLOG)
    torelli_family_compare(fam)
    assert len(built) == 1
