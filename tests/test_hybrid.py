import math
from fractions import Fraction

import pytest

from troplab import (
    CurveFamily,
    DualComplex,
    FlatTorus,
    GluingFunction,
    MonomialEntry,
    WeightedMetricGraph,
    GroupAction,
    HybridLimit,
    IncidenceComplex,
    JacobiDecomposition,
    LimitSpace,
    MonomialPathChart,
    PreconditionError,
    QuadraticForm,
    SchemaError,
    SiegelPoint,
    SymbolicSiegelPath,
    SymplecticElement,
    classify_collapse_numeric,
    collar_length,
    default_u0,
    downward_closure,
    dual_complex,
    fixed_injrad_limit,
    hybrid_limit,
    in_siegel_set,
    is_equivalent,
    join_path,
    product_collapse_reduce,
    pushforward_map,
    quotient_complex,
    siegel_reduce,
    tropicalize,
)

from helpers import (
    cyclic_quotient_counts,
    reference_quotient,
    seeded,
    symmetric_quotient,
)

F = Fraction


def simplex(n: int) -> IncidenceComplex:
    """Every nonempty subset of 1..n is a stratum."""
    return IncidenceComplex(n, downward_closure([list(range(1, n + 1))]))


def segment() -> IncidenceComplex:
    return IncidenceComplex(2, [[1], [2], [1, 2]])


class TestIncidence:
    def test_downward_closure(self):
        strata = downward_closure([[1, 2, 3]])
        assert len(strata) == 7

    def test_closure_required(self):
        with pytest.raises(PreconditionError) as info:
            IncidenceComplex(2, [[1, 2]])
        assert info.value.invariant == "downward-closure"

    def test_ids_in_range(self):
        with pytest.raises(PreconditionError):
            IncidenceComplex(1, [[1], [2]])

    def test_json_round_trip(self):
        inc = segment()
        back = IncidenceComplex.from_json_dict(inc.to_json_dict())
        assert back.n == inc.n and back.strata == inc.strata


class TestDualComplex:
    def test_cell_counts_match_strata_sizes(self):
        rng = seeded(61)
        for _ in range(10):
            n = rng.randint(1, 5)
            seeds = [
                rng.sample(range(1, n + 1), rng.randint(1, n))
                for _ in range(rng.randint(1, 3))
            ]
            inc = IncidenceComplex(n, downward_closure(seeds))
            dc = dual_complex(inc)
            by_size = {}
            for s in inc.strata:
                by_size[len(s) - 1] = by_size.get(len(s) - 1, 0) + 1
            assert dc.counts() == by_size

    def test_facets_are_codimension_one(self):
        dc = dual_complex(simplex(3))
        assert dc.counts() == {0: 3, 1: 3, 2: 1}
        (top,) = dc.cells[2]
        assert len(dc.facets[top]) == 3

    def test_vertex_only(self):
        dc = dual_complex(IncidenceComplex(1, [[1]]))
        assert dc.counts() == {0: 1}
        assert dc.dimension() == 0

    @pytest.mark.parametrize(
        "cells, facets, invariant",
        [
            ({0: ["a", "a"]}, {}, "unique-cells"),
            ({0: ["a", "b"], 1: ["a"]}, {"a": ["a", "b"]}, "unique-cells"),
            ({0: ["a"]}, {"a": ["a"]}, "facet-count"),
            ({0: ["a", "b"], 1: ["e"]}, {"e": ["a"]}, "facet-count"),
            ({0: ["a", "b"], 1: ["e"]}, {}, "facet-count"),
            ({0: ["a", "b"], 1: ["e"]}, {"e": ["a", "x"]}, "facet-dimension"),
            ({0: ["a", "b", "c"], 2: ["t"]}, {"t": ["a", "b", "c"]}, "facet-dimension"),
        ],
        ids=["duplicate-vertex", "label-in-two-dimensions", "vertex-with-facet",
             "edge-with-one-facet", "edge-with-no-facets", "unknown-facet",
             "facet-two-dimensions-down"],
    )
    def test_malformed_complex_fails_its_invariant(self, cells, facets, invariant):
        with pytest.raises(PreconditionError) as info:
            DualComplex(cells, facets)
        assert info.value.invariant == invariant

    def test_rebuilding_a_computed_complex_changes_nothing(self):
        segment_flip = GroupAction.from_generators(segment(), [(2, 1)])
        cyclic = GroupAction.from_generators(simplex(4), [(2, 3, 4, 1)])
        for dc in (dual_complex(segment()), dual_complex(simplex(4)),
                   quotient_complex(dual_complex(segment()), segment_flip),
                   quotient_complex(dual_complex(simplex(4)), cyclic)):
            back = DualComplex(dc.cells, dc.facets)
            assert back.cells == dc.cells and back.facets == dc.facets
            assert back.to_json_dict() == dc.to_json_dict()


class TestGroupAction:
    def test_identity_required(self):
        with pytest.raises(PreconditionError):
            GroupAction(segment(), [(2, 1)])

    def test_from_generators_builds_closure(self):
        act = GroupAction.from_generators(segment(), [(2, 1)])
        assert len(act.elements) == 2

    def test_strata_preservation_checked(self):
        inc = IncidenceComplex(2, [[1], [2]])
        # swapping is fine here; now break it with an asymmetric complex
        GroupAction.from_generators(inc, [(2, 1)])
        lop = IncidenceComplex(2, [[1]])
        with pytest.raises(PreconditionError) as info:
            GroupAction.from_generators(lop, [(2, 1)])
        assert info.value.invariant == "strata-preserving"

    def test_unclosed_list_is_rejected(self):
        # the 3-cycle's inverse (its square) is missing: the product of the
        # 3-cycle with itself already leaves the list
        with pytest.raises(PreconditionError) as info:
            GroupAction(simplex(3), [(1, 2, 3), (2, 3, 1)])
        assert info.value.invariant == "group-closure"
        with pytest.raises(PreconditionError) as info:
            GroupAction(simplex(4), [(1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3)])
        assert info.value.invariant == "group-closure"

    def test_any_order_of_a_group_is_accepted(self):
        full = GroupAction.from_generators(simplex(4), [(2, 3, 4, 1), (2, 1, 3, 4)])
        elems = list(full.elements)
        seeded(62).shuffle(elems)
        act = GroupAction(simplex(4), elems)
        assert act.elements == tuple(elems)

    def test_first_offending_element_is_named(self):
        # strata {1}, {2}, {3}, {1,2}: the swap of 2 and 3 breaks them
        inc = IncidenceComplex(3, [[1], [2], [3], [1, 2]])
        with pytest.raises(PreconditionError) as info:
            GroupAction(inc, [(1, 2, 3), (1, 3, 2)])
        assert info.value.invariant == "strata-preserving"
        assert "(1, 3, 2)" in str(info.value)

    def test_malformed_permutation(self):
        with pytest.raises(PreconditionError):
            GroupAction.from_generators(segment(), [(1, 1)])

    def test_closures_past_8_factorial_fail_group_size(self):
        # a swap and an n-cycle generate S_n: S_8 has exactly 8! elements
        # and is built, S_9 fails as its closure grows past them
        def symmetric(n):
            points = IncidenceComplex(n, [[i] for i in range(1, n + 1)])
            swap = (2, 1) + tuple(range(3, n + 1))
            cycle = tuple(range(2, n + 1)) + (1,)
            return GroupAction.from_generators(points, [swap, cycle])

        assert len(symmetric(8).elements) == math.factorial(8)
        with pytest.raises(PreconditionError) as info:
            symmetric(9)
        assert info.value.invariant == "group-size"


@pytest.mark.parametrize(
    "build, invariant",
    [
        (lambda: WeightedMetricGraph([("a", 0)], [(["a"], "a", 1)]), "edge-endpoints"),
        (lambda: WeightedMetricGraph([(["a"], 0)], [("a", "a", 1)]), "unique-vertex-ids"),
        (lambda: IncidenceComplex(2, [[[1]]]), "divisor-range"),
        (lambda: GroupAction(segment(), [[1, [2]]]), "permutation"),
        (lambda: GroupAction.from_generators(segment(), [[1, [2]]]), "permutation"),
        (lambda: MonomialPathChart(segment(), [[1], 0]), "numeric-entries"),
        (lambda: GroupAction(segment(), [(1, 2), (2.0, 1.0)]), "permutation"),
        (lambda: GroupAction.from_generators(segment(), [(2.0, 1.0)]), "permutation"),
        (lambda: GroupAction(segment(), [(True, 2)]), "permutation"),
        (lambda: QuadraticForm([[None, 0], [0, 1]]), "numeric-entries"),
        (lambda: SiegelPoint([[None]], [[1]]), "numeric-entries"),
        (lambda: WeightedMetricGraph([("a", 0)], [("a", "a", "x")]), "numeric-entries"),
        (lambda: WeightedMetricGraph([None], []), "graph-shape"),
        (lambda: WeightedMetricGraph([("a", 0, 1)], []), "graph-shape"),
        (lambda: WeightedMetricGraph([("a", 0)], [("a", "a")]), "graph-shape"),
        (lambda: QuadraticForm([[1, 0], None]), "numeric-entries"),
        (lambda: MonomialPathChart(segment(), None), "exact-exponents"),
        (lambda: MonomialPathChart(segment(), [0.5, 0]), "matching-arithmetic-modes"),
        (lambda: MonomialEntry(0.1, 1), "matching-arithmetic-modes"),
        (lambda: MonomialEntry(0, "x"), "numeric-entries"),
        (lambda: pushforward_map([[1]], ["1/0"]), "numeric-entries"),
        (lambda: pushforward_map([[1]], [1.0]), "matching-arithmetic-modes"),
        (lambda: pushforward_map([None], [1]), "matrix-shape"),
        (lambda: pushforward_map([[True]], [1]), "nonnegative-integer-matrix"),
        (lambda: CurveFamily(two_loops(), 2.5), "positive-multiplicity"),
        (lambda: fixed_injrad_limit([1, 2], 1.5), "rank-range"),
        (lambda: fixed_injrad_limit([1, 2], True), "rank-range"),
        (lambda: default_u0(1.5), "positive-genus"),
        (lambda: GluingFunction.LOG.weights([1, 0.5]), "matching-arithmetic-modes"),
        (lambda: GluingFunction.LOG.weights([1, -1]), "positive-order"),
        (lambda: GluingFunction.LOGLOG.weights([0, 1]), "positive-order"),
        (lambda: SymbolicSiegelPath(None, [[MonomialEntry(1)]], [MonomialEntry(1)]), "shape-match"),
        # the identity of 1..n is refused before it is built: tuple() of
        # that range overflowed
        (lambda: GroupAction.trivial(IncidenceComplex(10**400, [[1]])), "permutation-degree"),
        (lambda: GroupAction(IncidenceComplex(10**400, [[1]]), []), "permutation-degree"),
        (lambda: collar_length(0.001, math.nan), "finite"),
        (lambda: collar_length(0.001, "x"), "numeric-entries"),
        (lambda: WeightedMetricGraph([("a", 1.0)], []), "vertex-weight"),
        (lambda: SymplecticElement.partial_inversion(2, 5), "index-range"),
        (lambda: SymplecticElement.partial_inversion(2, -1), "index-range"),
        (lambda: SymplecticElement.partial_inversion(True, 0), "positive-genus"),
        (lambda: siegel_reduce(SiegelPoint([[0]], [[2]]), max_iterations=2.5),
         "nonnegative-iterations"),
        (lambda: siegel_reduce(SiegelPoint([[0]], [[2]]), max_iterations=True),
         "nonnegative-iterations"),
        (lambda: QuadraticForm([[2, 1], [1, 2]]).scale(None), "numeric-entries"),
        (lambda: QuadraticForm([[2, 1], [1, 2]]).scale("x"), "numeric-entries"),
        (lambda: QuadraticForm([[2, 1], [1, 2]]).transform([[1, 0]]), "matrix-shape"),
        (lambda: QuadraticForm([[2, 1], [1, 2]]).transform([[1.5, 0], [0, 1]]), "integral"),
        (lambda: LimitSpace(("a",), 0), "numeric-entries"),
        (lambda: LimitSpace((1,), True), "nonnegative-rank"),
        (lambda: LimitSpace((1,), 1.5), "nonnegative-rank"),
        (lambda: SymbolicSiegelPath.diagonal([MonomialEntry(1)]).reparametrized(True),
         "positive-power"),
        (lambda: SymbolicSiegelPath.diagonal([MonomialEntry(1)]).reparametrized(1.5),
         "positive-power"),
        # Fraction() and float() read numeric text and bools as numbers
        (lambda: QuadraticForm([["1/2"]]), "numeric-entries"),
        (lambda: QuadraticForm([[True]]), "numeric-entries"),
        (lambda: QuadraticForm([["2.5"]], "float"), "numeric-entries"),
        (lambda: QuadraticForm([[1]]).scale(True), "numeric-entries"),
        (lambda: QuadraticForm([[1]]).scale("2"), "numeric-entries"),
        (lambda: two_loops().scaled(True), "numeric-entries"),
        (lambda: in_siegel_set(SiegelPoint([[0]], [[1]]), u="3"), "slack-range"),
        (lambda: in_siegel_set(SiegelPoint([[0.0]], [[1.0]]), u=10**400), "slack-range"),
        (lambda: collar_length("x", 0.5), "numeric-entries"),
        (lambda: is_equivalent(QuadraticForm([[1]]), QuadraticForm([[1]]), tol=True),
         "nonnegative-tolerance"),
        (lambda: tropicalize([[0.5, 2.0]], tol=True), "positive-tolerance"),
        (lambda: tropicalize([[0.5, None]]), "numeric-entries"),
        # a matrix that must be symmetric names its first unequal pair
        (lambda: QuadraticForm([[2, 1], [0, 2]]), "symmetric"),
        (lambda: SiegelPoint([[0, 1], [0, 0]], [[2, 1], [1, 2]]), "symmetric"),
        (lambda: SymbolicSiegelPath(
            [[MonomialEntry(), MonomialEntry(1)], [MonomialEntry(), MonomialEntry()]],
            [[MonomialEntry(1), MonomialEntry()], [MonomialEntry(), MonomialEntry(1)]],
            [MonomialEntry(1, 1), MonomialEntry(2, 1)],
        ), "symmetric"),
        (lambda: SymplecticElement.translation([[0, 1], [0, 0]]), "symmetric"),
        # an integral matrix reads a bool or text as no integer
        (lambda: SymplecticElement([[True, 0], [0, 1]]), "integral"),
        (lambda: QuadraticForm([[2]]).transform([[True]]), "integral"),
        (lambda: SymplecticElement.from_gl([[True, 0], [0, 1]]), "unimodular"),
        (lambda: SymplecticElement.from_gl([["1"]]), "unimodular"),
        (lambda: SymplecticElement.from_gl(5), "square-matrix"),
        (lambda: SymplecticElement.translation(5), "integral"),
        (lambda: SymplecticElement.translation([["1"]]), "integral"),
        (lambda: JacobiDecomposition([[None]], [1]).recompose(), "numeric-entries"),
        (lambda: classify_collapse_numeric(doubling_samples(), tol="x"), "positive-tolerance"),
        (lambda: classify_collapse_numeric(doubling_samples(), tol=True), "positive-tolerance"),
        (lambda: classify_collapse_numeric(doubling_samples(), tol=math.nan),
         "positive-tolerance"),
        (lambda: classify_collapse_numeric(doubling_samples(), tol=-1.0), "positive-tolerance"),
        (lambda: join_path(FlatTorus([[2]]), True), "join-parameter"),
        (lambda: join_path(FlatTorus([[2]]), "1/2"), "join-parameter"),
        (lambda: join_path(FlatTorus([[2]]), "x"), "join-parameter"),
        (lambda: SymbolicSiegelPath.diagonal([MonomialEntry(1)]).point_at(True),
         "numeric-entries"),
        (lambda: SymbolicSiegelPath.diagonal([MonomialEntry(1)]).point_at("2"),
         "numeric-entries"),
        (lambda: fixed_injrad_limit([1, 2], 1, "x"), "slack-range"),
        (lambda: GluingFunction.LOG.evaluate("x"), "unit-disc"),
        (lambda: QuadraticForm([[1]]).evaluate([True]), "numeric-entries"),
        (lambda: QuadraticForm([[1]]).evaluate(["x"]), "numeric-entries"),
        (lambda: product_collapse_reduce([(FlatTorus([[1]]), 1, 2)]), "factor-pair"),
        (lambda: tropicalize([[True, 0.5]]), "numeric-entries"),
    ],
    ids=["graph-endpoint", "graph-vertex", "stratum", "action", "generators", "exponent",
         "action-float", "generators-float", "action-bool", "form", "siegel", "graph-length",
         "vertex-not-a-pair", "vertex-triple", "edge-pair", "form-row", "exponents",
         "exponent-float", "monomial-float", "monomial-exponent", "coordinate-string",
         "coordinate-float", "matrix-row", "matrix-bool", "multiplicities", "rank-float",
         "rank-bool", "genus-float", "orders-float", "orders-negative", "orders-zero",
         "path-x-none", "trivial-huge-degree", "no-elements-huge-degree", "c-star-nan",
         "c-star-string",
         "vertex-weight-float", "inversion-index-high", "inversion-index-negative",
         "inversion-genus-bool", "max-iterations-float", "max-iterations-bool",
         "form-scale-none", "form-scale-string", "transform-short", "transform-float",
         "limit-circle-string", "limit-rank-bool", "limit-rank-float", "reparametrized-bool",
         "reparametrized-float", "form-text", "form-bool", "float-form-text", "form-scale-bool",
         "form-scale-text", "graph-scale-bool", "slack-text", "float-slack-huge",
         "collar-t-string", "equivalence-tol-bool", "tropicalize-tol-bool",
         "tropicalize-coordinate-none", "form-asymmetric", "siegel-x-asymmetric",
         "path-x-asymmetric", "translation-asymmetric", "gamma-bool", "transform-u-bool",
         "from-gl-bool", "from-gl-text", "from-gl-not-an-array", "translation-not-an-array",
         "translation-text", "recompose-none", "numeric-tol-text", "numeric-tol-bool",
         "numeric-tol-nan", "numeric-tol-negative", "join-t-bool", "join-t-text",
         "join-t-string", "point-at-bool", "point-at-text", "injrad-u0-string",
         "gluing-z-string", "evaluate-bool", "evaluate-string", "product-triple",
         "tropicalize-coordinate-bool"],
)
def test_malformed_constructor_entry_is_a_precondition_failure(build, invariant):
    # each used to escape as a TypeError, ValueError or IndexError from
    # hashing, comparing, indexing by, unpacking or converting the entry,
    # or to be accepted (a bool or float count, an index out of range)
    with pytest.raises(PreconditionError) as info:
        build()
    assert info.value.invariant == invariant


def two_loops():
    """One vertex with two loops: a stable genus-2 dual graph."""
    return WeightedMetricGraph([("a", 0)], [("a", "a", 1), ("a", "a", 1)])


def doubling_samples():
    """Eight genus-1 samples whose Y doubles: a diverging top diagonal."""
    return [SiegelPoint([[0.0]], [[2.0 ** k]]) for k in range(8)]


# each public constructor or function that reads its arguments, with valid
# arguments, as nested lists whose nodes the sweep below replaces one at a
# time
CONSTRUCTORS = {
    "QuadraticForm": (QuadraticForm, ([[2, 1], [1, 2]],)),
    "QuadraticForm-float": (QuadraticForm, ([[2.0, 1.0], [1.0, 2.0]],)),
    "SiegelPoint": (SiegelPoint, ([[0, 1], [1, 0]], [[2, 1], [1, 2]])),
    "WeightedMetricGraph": (
        WeightedMetricGraph, ([["a", 0], ["b", 1]], [["a", "b", 1], ["b", "a", 2]])
    ),
    "IncidenceComplex": (IncidenceComplex, (2, [[1], [2], [1, 2]])),
    "GroupAction": (lambda e: GroupAction(segment(), e), ([[1, 2], [2, 1]],)),
    "GroupAction.from_generators": (
        lambda g: GroupAction.from_generators(segment(), g), ([[2, 1]],)
    ),
    "MonomialPathChart": (lambda m: MonomialPathChart(segment(), m), ([1, 2],)),
    "MonomialEntry": (MonomialEntry, (1, 2)),
    "CurveFamily": (lambda m: CurveFamily(two_loops(), m), ([1, 2],)),
    "WeightedMetricGraph.scaled": (lambda c: two_loops().scaled(c), (2,)),
    "WeightedMetricGraph.with_lengths": (lambda l: two_loops().with_lengths(l), ([1, 2],)),
    "pushforward_map": (pushforward_map, ([[1, 0], [0, 1]], [1, 0])),
    "QuadraticForm.scale": (lambda c: QuadraticForm([[2, 1], [1, 2]]).scale(c), (2,)),
    "QuadraticForm.transform": (
        lambda u: QuadraticForm([[2, 1], [1, 2]]).transform(u), ([[1, 1], [0, 1]],)
    ),
    "LimitSpace": (LimitSpace, ([1, 2], 1)),
    "SymbolicSiegelPath.reparametrized": (
        lambda k: SymbolicSiegelPath.diagonal([MonomialEntry(1, 1)]).reparametrized(k), (2,)
    ),
    "fixed_injrad_limit": (fixed_injrad_limit, ([1, 2], 1, 4)),
    # a genus of 10**400 is valid, but its slack 2**(10**400) never finishes
    "default_u0": (lambda g: g == 10**400 or default_u0(g), (2,)),
    "GluingFunction.LOG.weights": (GluingFunction.LOG.weights, ([1, 2],)),
    "in_siegel_set": (lambda u: in_siegel_set(SiegelPoint([[0.5]], [[2.0]]), u), (2,)),
    "collar_length": (collar_length, (0.001, 0.5)),
    "is_equivalent": (
        lambda tol: is_equivalent(QuadraticForm([[2.0, 1.0], [1.0, 2.0]]),
                                  QuadraticForm([[2.0, -1.0], [-1.0, 2.0]]), tol=tol),
        (0.1,),
    ),
    "tropicalize": (tropicalize, ([[0.5, 2.0], [0.25, 4.0], [0.125, 8.0]], 1e-6)),
    "SymplecticElement": (SymplecticElement, ([[1, 0], [0, 1]],)),
    "SymplecticElement.from_gl": (SymplecticElement.from_gl, ([[1, 1], [0, 1]],)),
    "SymplecticElement.translation": (SymplecticElement.translation, ([[1, 2], [2, 0]],)),
    "JacobiDecomposition.recompose": (
        lambda b, d: JacobiDecomposition(b, d).recompose(),
        ([[1, Fraction(1, 2)], [0, 1]], [1, 2]),
    ),
    "classify_collapse_numeric": (
        lambda tol: classify_collapse_numeric(doubling_samples(), tol), (1e-3,)
    ),
    "join_path": (lambda t: join_path(FlatTorus([[2]]), t), (Fraction(1, 2),)),
    "SymbolicSiegelPath.point_at": (
        lambda s: SymbolicSiegelPath.diagonal([MonomialEntry(1, 1)]).point_at(s), (2,)
    ),
    "GluingFunction.LOG.evaluate": (GluingFunction.LOG.evaluate, (0.5,)),
    "QuadraticForm.evaluate": (
        lambda v: QuadraticForm([[2, 1], [1, 2]]).evaluate(v), ([1, -1],)
    ),
    # a torus given as its Gram rows, so the sweep reaches its entries too
    "product_collapse_reduce": (
        product_collapse_reduce, ([([[1]], 1), ([[2, 1], [1, 2]], 2)],)
    ),
    # a MonomialEntry is a tuple, so the sweep reaches its fields too
    "SymbolicSiegelPath": (
        SymbolicSiegelPath,
        (
            [[MonomialEntry(), MonomialEntry(1)], [MonomialEntry(1), MonomialEntry()]],
            [[MonomialEntry(1), MonomialEntry(1)], [MonomialEntry(), MonomialEntry(1)]],
            [MonomialEntry(1, 1), MonomialEntry(2, 1)],
        ),
    ),
}
BAD_ENTRIES = [None, [1], "x", 2.5, True, math.nan, 10**400]


def _node_paths(tree, path=()):
    """The path of every node below the root: each argument, each of its
    rows and entries, down to the leaves."""
    if path:
        yield path
    if isinstance(tree, (list, tuple)):
        for i, sub in enumerate(tree):
            yield from _node_paths(sub, path + (i,))


def _replaced(tree, path, value):
    if not path:
        return value
    out = list(tree)
    out[path[0]] = _replaced(tree[path[0]], path[1:], value)
    return out


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_no_malformed_entry_escapes_as_a_bare_error(name):
    # every node of the arguments, a whole argument or row included,
    # replaced by each bad value: the constructor accepts it or fails a
    # named invariant or the schema
    build, args = CONSTRUCTORS[name]
    build(*args)
    for path in _node_paths(args):
        for bad in BAD_ENTRIES:
            try:
                build(*_replaced(args, path, bad))
            except (PreconditionError, SchemaError):
                pass


class TestQuotient:
    def test_segment_flip(self):
        inc = segment()
        dc = dual_complex(inc)
        act = GroupAction.from_generators(inc, [(2, 1)])
        q = quotient_complex(dc, act)
        assert q.counts() == {0: 2, 1: 1}

    def test_trivial_action_is_barycentric_subdivision(self):
        cases = [segment(), simplex(2), simplex(3)]
        expected = [{0: 3, 1: 2}, {0: 3, 1: 2}, {0: 7, 1: 12, 2: 6}]
        for inc, want in zip(cases, expected):
            dc = dual_complex(inc)
            q = quotient_complex(dc, GroupAction.trivial(inc))
            assert q.counts() == want

    def test_triangle_rotation(self):
        inc = IncidenceComplex(3, [[1], [2], [3], [1, 2], [2, 3], [1, 3]])
        dc = dual_complex(inc)
        act = GroupAction.from_generators(inc, [(2, 3, 1)])
        q = quotient_complex(dc, act)
        assert q.counts() == {0: 2, 1: 2}

    def test_full_symmetric_group_on_solid_triangle(self):
        inc = simplex(3)
        dc = dual_complex(inc)
        act = GroupAction.from_generators(inc, [(2, 1, 3), (2, 3, 1)])
        assert len(act.elements) == 6
        q = quotient_complex(dc, act)
        assert q.counts() == {0: 3, 1: 3, 2: 1}

    @pytest.mark.parametrize(
        "kind, n", [(k, n) for n in (3, 4, 5) for k in "CS"] + [("C", 6)]
    )
    def test_matches_the_per_chain_minimum(self, kind, n):
        inc = simplex(n)
        dc = dual_complex(inc)
        act = GroupAction.from_generators(inc, self._generators(kind, n))
        q = quotient_complex(dc, act)
        cells, facets = reference_quotient(dc, act.elements)
        assert q.cells == cells
        assert q.facets == facets
        want = cyclic_quotient_counts(n) if kind == "C" else {
            d: math.comb(n, d + 1) for d in range(n)
        }
        assert q.counts() == want

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_symmetric_group_closed_form(self, n):
        # S6 on the 5-simplex: 720 elements, 4683 chains, 63 cells
        inc = simplex(n)
        act = GroupAction.from_generators(inc, self._generators("S", n))
        assert len(act.elements) == math.factorial(n)
        q = quotient_complex(dual_complex(inc), act)
        cells, facets = symmetric_quotient(n)
        assert q.cells == cells
        assert q.facets == facets
        assert q.counts() == {d: math.comb(n, d + 1) for d in range(n)}

    def test_generators_close_to_the_elements(self):
        rot = (2, 3, 4, 5, 6, 1)
        r2 = (3, 4, 5, 6, 1, 2)
        r3 = (4, 5, 6, 1, 2, 3)
        ident = tuple(range(1, 7))
        inc = simplex(6)
        for gens, kept in [
            ([rot, r2, r3], (rot,)),
            ([ident, r3, r2, rot], (r3, r2)),
            ([r2, ident, r3], (r2, r3)),
        ]:
            act = GroupAction.from_generators(inc, gens)
            assert act.generators == kept
            assert self._closure(act.generators, 6) == set(act.elements)
        for kind, n in [("C", 5), ("S", 5), ("D", 6), ("K", 5)]:
            full = GroupAction.from_generators(simplex(n), self._generators(kind, n))
            elems = list(full.elements)
            seeded(64).shuffle(elems)
            for act in (full, GroupAction(simplex(n), elems)):
                assert self._closure(act.generators, n) == set(act.elements)
                assert 2 ** len(act.generators) <= len(act.elements)

    @pytest.mark.parametrize(
        "kind, n", [("C", 4), ("S", 4), ("D", 4), ("K", 4), ("D", 5), ("K", 5)]
    )
    def test_any_presentation_matches_the_per_chain_minimum(self, kind, n):
        # the same group from its generators, from redundant generators
        # with the identity among them, and from a shuffled element list
        inc = simplex(n)
        dc = dual_complex(inc)
        gens = self._generators(kind, n)
        act = GroupAction.from_generators(inc, gens)
        cells, facets = reference_quotient(dc, act.elements)
        powers = [self._compose(g, g) for g in gens]
        elems = list(act.elements)
        seeded(65).shuffle(elems)
        for other in (
            act,
            GroupAction.from_generators(inc, powers + [tuple(range(1, n + 1))] + gens),
            GroupAction(inc, elems),
        ):
            assert set(other.elements) == set(act.elements)
            q = quotient_complex(dc, other)
            assert q.cells == cells
            assert q.facets == facets

    @pytest.mark.parametrize(
        "kind, n", [("C", 4), ("S", 4), ("D", 4), ("K", 4), ("C", 5), ("D", 5), ("C", 6), ("D", 6)]
    )
    def test_invariant_subcomplex_matches_the_per_chain_minimum(self, kind, n):
        # the orbits of a few random faces of the simplex, closed downward
        rng = seeded(66 + n)
        gens = self._generators(kind, n)
        full = GroupAction.from_generators(simplex(n), gens)
        for _ in range(3):
            faces = [rng.sample(range(1, n + 1), rng.randint(2, n - 1)) for _ in range(2)]
            orbit = {tuple(sorted(p[i - 1] for i in f)) for f in faces for p in full.elements}
            inc = IncidenceComplex(n, downward_closure(orbit))
            assert inc.strata != simplex(n).strata
            dc = dual_complex(inc)
            act = GroupAction.from_generators(inc, gens)
            q = quotient_complex(dc, act)
            cells, facets = reference_quotient(dc, act.elements)
            assert q.cells == cells
            assert q.facets == facets

    def test_cyclic_six_counts(self):
        assert cyclic_quotient_counts(6) == {0: 13, 1: 103, 2: 351, 3: 560, 4: 420, 5: 120}

    @staticmethod
    def _generators(kind, n):
        """C_n and S_n, the dihedral group of the n-gon 1..n, and the
        Klein four-group on 1..4."""
        rot = tuple(range(2, n + 1)) + (1,)
        rest = tuple(range(5, n + 1))
        return {
            "C": [rot],
            "S": [rot, (2, 1) + tuple(range(3, n + 1))],
            "D": [rot, tuple(range(n, 0, -1))],
            "K": [(2, 1, 4, 3) + rest, (3, 4, 1, 2) + rest],
        }[kind]

    @staticmethod
    def _compose(p, q):
        return tuple(p[q[i] - 1] for i in range(len(p)))

    @classmethod
    def _closure(cls, gens, n):
        group = {tuple(range(1, n + 1))}
        frontier = list(group)
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = cls._compose(g, cur)
                if nxt not in group:
                    group.add(nxt)
                    frontier.append(nxt)
        return group

    def test_action_must_match_complex(self):
        dc = dual_complex(segment())
        other = GroupAction.trivial(simplex(3))
        with pytest.raises(PreconditionError) as info:
            quotient_complex(dc, other)
        assert info.value.invariant == "matching-strata"


class TestGluingFunctions:
    def test_from_string(self):
        assert GluingFunction.from_string("Log") is GluingFunction.LOG
        assert GluingFunction.from_string("loglog") is GluingFunction.LOGLOG
        with pytest.raises(SchemaError):
            GluingFunction.from_string("exp")

    def test_domain(self):
        with pytest.raises(PreconditionError):
            GluingFunction.LOG.evaluate(1.5)

    def test_rescaling_drift_is_bounded(self):
        # admissibility: f(c z) - f(z) stays bounded as z -> 0
        for f, bound in ((GluingFunction.LOG, 3.0), (GluingFunction.LOGLOG, 1.0)):
            for c in (0.1, 0.5, 2.0):
                drifts = [
                    abs(f.evaluate(min(c * z, 0.99)) - f.evaluate(z))
                    for z in (1e-3, 1e-6, 1e-9, 1e-12)
                ]
                assert max(drifts) <= bound
        # and the double log forgets constants entirely in the limit
        tail = abs(
            GluingFunction.LOGLOG.evaluate(0.5 * 1e-12)
            - GluingFunction.LOGLOG.evaluate(1e-12)
        )
        assert tail < 0.03


class TestMonomialChart:
    def test_float_exponents_rejected(self):
        with pytest.raises(PreconditionError):
            MonomialPathChart(segment(), [0.5, 0])

    def test_negative_exponents_rejected(self):
        with pytest.raises(PreconditionError):
            MonomialPathChart(segment(), [F(-1), F(0)])

    def test_support_must_be_a_stratum(self):
        inc = IncidenceComplex(2, [[1], [2]])
        with pytest.raises(PreconditionError) as info:
            MonomialPathChart(inc, [1, 1])
        assert info.value.invariant == "support-stratum"

    def test_support_reported_one_indexed(self):
        chart = MonomialPathChart(simplex(3), [0, 2, 1])
        assert chart.support() == (2, 3)


class TestHybridLimit:
    def test_log_weights(self):
        chart = MonomialPathChart(simplex(3), [1, 2, 3])
        lim = hybrid_limit(chart, GluingFunction.LOG)
        assert lim.support == (1, 2, 3)
        assert lim.coordinates == (F(1, 6), F(1, 3), F(1, 2))

    def test_loglog_uniform(self):
        chart = MonomialPathChart(simplex(3), [1, 2, 3])
        lim = hybrid_limit(chart, GluingFunction.LOGLOG)
        assert lim.coordinates == (F(1, 3),) * 3

    def test_interior_path_rejected(self):
        chart = MonomialPathChart(simplex(2), [0, 0])
        with pytest.raises(PreconditionError) as info:
            hybrid_limit(chart, GluingFunction.LOG)
        assert "does not approach the boundary" in str(info.value)

    def test_log_reparametrization_invariance(self):
        rng = seeded(62)
        for _ in range(15):
            n = rng.randint(1, 4)
            inc = simplex(n)
            m = [F(rng.randint(0, 5)) for _ in range(n)]
            if all(v == 0 for v in m):
                m[0] = F(1)
            k = F(rng.randint(1, 9))
            a = hybrid_limit(MonomialPathChart(inc, m), GluingFunction.LOG)
            b = hybrid_limit(
                MonomialPathChart(inc, [k * v for v in m]), GluingFunction.LOG
            )
            assert a == b

    def test_json_shape(self):
        lim = HybridLimit((1, 3), (F(1, 4), F(3, 4)))
        assert lim.to_json_dict() == {"support": [1, 3], "coords": ["1/4", "3/4"]}


class TestTropicalize:
    def test_shrinking_point_finds_direction(self):
        v = (1.0, 2.0)
        points = [
            [math.exp(-k * v[0]), math.exp(-k * v[1])] for k in (1, 2, 4, 8, 16)
        ]
        out = tropicalize(points)
        assert out.direction is not None
        norm = math.sqrt(5.0)
        assert out.direction[0] == pytest.approx(1.0 / norm, abs=1e-9)
        assert out.direction[1] == pytest.approx(2.0 / norm, abs=1e-9)

    def test_interior_point_has_no_direction(self):
        out = tropicalize([[0.5, 0.5]] * 5)
        assert out.direction is None

    def test_zero_coordinate_rejected(self):
        with pytest.raises(PreconditionError):
            tropicalize([[0.0, 0.5]])

    @pytest.mark.parametrize(
        "z", [math.nan, math.inf, -math.inf, complex(math.nan, 0), complex(1.7e308, 1.7e308)],
        ids=["nan", "inf", "-inf", "complex-nan", "modulus-past-double"],
    )
    def test_non_finite_coordinate_fails_finite(self, z):
        # each used to give a vector entry of nan or -inf, or an OverflowError
        with pytest.raises(PreconditionError) as info:
            tropicalize([[0.5, 0.5], [0.5, z]])
        assert info.value.invariant == "finite"
        assert "point 1" in str(info.value) and "coordinate 1" in str(info.value)

    def test_ragged_points_rejected(self):
        with pytest.raises(PreconditionError):
            tropicalize([[0.5, 0.5], [0.5]])

    def test_vectors_are_componentwise_neg_log(self):
        out = tropicalize([[0.5, 0.25]])
        assert out.vectors[0][0] == pytest.approx(math.log(2.0))
        assert out.vectors[0][1] == pytest.approx(math.log(4.0))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a nan or negative tol used to report no direction on points
        # where the default finds (1, 2) / sqrt(5)
        points = [[math.exp(-k), math.exp(-2 * k)] for k in range(1, 6)]
        assert tropicalize(points).direction is not None
        with pytest.raises(PreconditionError) as info:
            tropicalize(points, tol)
        assert info.value.invariant == "positive-tolerance"


class TestPushforward:
    def test_drop_one_divisor(self):
        m = [[1, 0, 0], [0, 1, 0]]
        y = pushforward_map(m, [F(1, 6), F(1, 3), F(1, 2)])
        assert y == (F(1, 3), F(2, 3))

    def test_merge_divisors(self):
        m = [[1, 1, 0], [0, 0, 1]]
        y = pushforward_map(m, [F(1, 6), F(1, 3), F(1, 2)])
        assert y == (F(1, 2), F(1, 2))

    def test_total_kill_rejected(self):
        with pytest.raises(PreconditionError) as info:
            pushforward_map([[0, 0], [0, 0]], [F(1, 2), F(1, 2)])
        assert info.value.invariant == "positive-column"

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            pushforward_map([[1, -1]], [F(1, 2), F(1, 2)])
        with pytest.raises(PreconditionError):
            pushforward_map([[1, 1]], [F(1, 2), F(1, 4)])
        with pytest.raises(PreconditionError):
            pushforward_map([[1]], [F(1, 2), F(1, 2)])

    def test_functoriality_with_hybrid_limit(self):
        # pushing the path forward then taking limits agrees with
        # pushing the limit coordinates forward
        rng = seeded(63)
        checked = 0
        degenerate = 0
        for _ in range(50):
            n = rng.randint(1, 4)
            k = rng.randint(1, 4)
            inc_src = simplex(n)
            inc_dst = simplex(k)
            x = [F(rng.randint(0, 4)) for _ in range(n)]
            if all(v == 0 for v in x):
                x[rng.randrange(n)] = F(1)
            m = [[rng.randint(0, 2) for _ in range(n)] for _ in range(k)]
            pushed_exps = [sum(F(m[i][j]) * x[j] for j in range(n)) for i in range(k)]
            src_limit = hybrid_limit(MonomialPathChart(inc_src, x), GluingFunction.LOG)
            full = [F(0)] * n
            for pos, c in zip(src_limit.support, src_limit.coordinates):
                full[pos - 1] = c
            if all(v == 0 for v in pushed_exps):
                with pytest.raises(PreconditionError):
                    hybrid_limit(
                        MonomialPathChart(inc_dst, pushed_exps), GluingFunction.LOG
                    )
                with pytest.raises(PreconditionError):
                    pushforward_map(m, full)
                degenerate += 1
                continue
            dst_limit = hybrid_limit(
                MonomialPathChart(inc_dst, pushed_exps), GluingFunction.LOG
            )
            y = pushforward_map(m, full)
            assert dst_limit.support == tuple(
                i + 1 for i, v in enumerate(y) if v > 0
            )
            for pos, c in zip(dst_limit.support, dst_limit.coordinates):
                assert y[pos - 1] == c
            checked += 1
        assert checked >= 30
        assert checked + degenerate == 50
