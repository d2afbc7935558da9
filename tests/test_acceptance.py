"""Acceptance suite: twelve checks at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v` for one PASSED/FAILED line
per criterion; each test also prints its own `criterion NN: PASS` line
(visible with -s or -rA).
"""

import math
from fractions import Fraction

import pytest

from troplab import (
    AVFamily,
    CurveFamily,
    FlatTorus,
    GluingFunction,
    GroupAction,
    IncidenceComplex,
    MonomialEntry,
    MonomialPathChart,
    QuadraticForm,
    SiegelPoint,
    SymbolicSiegelPath,
    WeightedMetricGraph,
    av_family_limit,
    av_family_numeric_oracle,
    classify_collapse_numeric,
    classify_collapse_symbolic,
    collar_length,
    covering_radius,
    covering_radius_sq,
    curve_family_gh_limit,
    downward_closure,
    dual_complex,
    fixed_injrad_limit,
    fixed_volume_limit,
    hybrid_limit,
    is_equivalent,
    is_homothetic,
    product_collapse_reduce,
    pushforward_map,
    quotient_complex,
    rescale_to_diameter_one,
    torelli_family_compare,
    tropical_jacobian,
)

from helpers import (
    handcuff_graph,
    random_connected_graph,
    random_integer_pd,
    random_pd_form,
    random_unimodular,
    relabeled_shuffled,
    sampled_covering_radius,
    seeded,
    theta_graph,
)

F = Fraction
I2 = QuadraticForm([[1, 0], [0, 1]])
I3 = QuadraticForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def run_criterion(num: int, desc: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {desc}")
        raise
    print(f"criterion {num:2d}: PASS  {desc}")


def test_criterion_01_elliptic_collapse():
    def body():
        ks = [10.0 * 10.0 ** (3.0 * i / 9.0) for i in range(10)]
        samples = [
            SiegelPoint([[0.0]], QuadraticForm([[k]], "float")) for k in ks
        ]
        numeric = classify_collapse_numeric(samples, tol=1e-3)
        assert numeric.limit.gram.n == 1
        assert abs(float(numeric.limit.gram.entries[0][0]) - 4.0) <= 1e-3
        symbolic = classify_collapse_symbolic(
            SymbolicSiegelPath.diagonal([MonomialEntry(F(1), F(1))])
        )
        assert symbolic.limit.gram == QuadraticForm([[4]])

    run_criterion(1, "elliptic collapse to the unit-diameter circle", body)


def test_criterion_02_valuation_family_oracle_agreement():
    def body():
        rng = seeded(102)
        mats = [[[1, 0], [0, 2]], [[2, 1], [1, 3]]]
        for n in (2, 3):
            for _ in range(5):
                mats.append(random_integer_pd(rng, n))
        for m in mats:
            fam = AVFamily(m)
            lim = av_family_limit(fam)
            (torus,) = av_family_numeric_oracle(fam, [1e-8])
            got = is_homothetic(torus.gram, lim.gram.to_float(), tol=1e-3)
            assert got is not None

    run_criterion(2, "valuation matrix limit matches the sampled family", body)


def test_criterion_03_torelli_discontinuity():
    def body():
        uneven = torelli_family_compare(
            CurveFamily(handcuff_graph(1, 1, 1), [1, 2, 3])
        )
        assert uneven.continuous is False
        assert is_homothetic(uneven.gh_side.gram, I2) is not None
        assert (
            is_homothetic(uneven.av_side.gram, QuadraticForm([[1, 0], [0, 2]]))
            is not None
        )
        even = torelli_family_compare(
            CurveFamily(handcuff_graph(1, 1, 1), [5, 5, 7])
        )
        assert even.continuous is True

    run_criterion(3, "metric and abelian limits disagree exactly when uneven", body)


def test_criterion_04_gluing_dichotomy():
    def body():
        inc = IncidenceComplex(3, downward_closure([[1, 2, 3]]))
        chart = MonomialPathChart(inc, [1, 2, 3])
        log_limit = hybrid_limit(chart, GluingFunction.LOG)
        assert log_limit.coordinates == (F(1, 6), F(1, 3), F(1, 2))
        loglog_limit = hybrid_limit(chart, GluingFunction.LOGLOG)
        assert loglog_limit.coordinates == (F(1, 3), F(1, 3), F(1, 3))
        graph = theta_graph(1, 1, 1)
        reference = None
        for mult in ([1, 2, 3], [7, 1, 1], [2, 2, 2]):
            out = curve_family_gh_limit(CurveFamily(graph, mult))
            lengths = [l for _, _, l in out.edges]
            assert len(set(lengths)) == 1
            if reference is None:
                reference = out.edges
            assert out.edges == reference

    run_criterion(4, "log weights vs uniform double-log weights", body)


def test_criterion_05_collar_asymptotics():
    def body():
        drifts = []
        for k in range(4, 9):
            t = 10.0 ** -k
            value = collar_length(t, 0.5)
            assert math.isfinite(value)
            eps = math.log(0.5) / math.log(t)
            closed = -2.0 * math.log(math.tan(math.pi * eps / 2.0))
            assert abs(value - closed) <= 1e-6 * abs(closed)
            drifts.append(value - 2.0 * math.log(k * math.log(10.0)))
        assert max(drifts) - min(drifts) < 0.2

    run_criterion(5, "collar length grows like twice the double log", body)


def test_criterion_06_covering_radius_exactness():
    def body():
        assert covering_radius_sq(QuadraticForm([[4]])) == 1
        assert abs(covering_radius(I2) - math.sqrt(2.0) / 2.0) <= 1e-6
        assert (
            abs(
                covering_radius(QuadraticForm([[1, 0], [0, 2]]))
                - math.sqrt(3.0) / 2.0
            )
            <= 1e-6
        )
        # a sheared basis of Z^3: one 3-d block, not three orthogonal ones
        sheared = I3.transform([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        sampled = covering_radius(sheared)
        assert abs(sampled - math.sqrt(3.0) / 2.0) <= 1e-3
        oracle = sampled_covering_radius(I3.rows, steps=12, span=1)
        assert abs(sampled - oracle) <= 1e-3

    run_criterion(6, "covering radii: exact closed forms and a grid oracle", body)


def test_criterion_07_equivalence_suite():
    def body():
        skew = QuadraticForm([[1, 1], [1, 2]])
        witness = is_equivalent(skew, I2)
        assert witness is not None
        assert skew.transform(witness) == I2
        assert is_homothetic(I2, QuadraticForm([[1, 0], [0, 2]])) is None
        rng = seeded(107)
        for _ in range(50):
            n = rng.randint(1, 3)
            f = random_pd_form(rng, n)
            g = f.transform(random_unimodular(rng, n))
            h = g.transform(random_unimodular(rng, n))
            assert is_equivalent(f, f) is not None
            w1 = is_equivalent(f, g)
            assert w1 is not None and f.transform(w1) == g
            w2 = is_equivalent(g, f)
            assert w2 is not None and g.transform(w2) == f
            w3 = is_equivalent(f, h)
            assert w3 is not None and f.transform(w3) == h

    run_criterion(7, "unimodular equivalence is a certified equivalence relation", body)


def test_criterion_08_stacky_quotient():
    def body():
        inc = IncidenceComplex(2, [[1], [2], [1, 2]])
        action = GroupAction.from_generators(inc, [(2, 1)])
        q = quotient_complex(dual_complex(inc), action)
        assert q.counts() == {0: 2, 1: 1}

    run_criterion(8, "edge flip quotient has two vertex orbits, one edge orbit", body)


def test_criterion_09_product_collapse_law():
    def body():
        rng = seeded(109)
        s = F(10) ** 6
        for _ in range(100):
            a = random_pd_form(rng, 2)
            b = random_pd_form(rng, 2)
            zero = F(0)
            rows = [
                [a.entries[0][0], a.entries[0][1], zero, zero],
                [a.entries[1][0], a.entries[1][1], zero, zero],
                [zero, zero, s * s * b.entries[0][0], s * s * b.entries[0][1]],
                [zero, zero, s * s * b.entries[1][0], s * s * b.entries[1][1]],
            ]
            big = rescale_to_diameter_one(QuadraticForm(rows, "exact"))
            block = QuadraticForm(
                [
                    [big.gram.entries[2][2], big.gram.entries[2][3]],
                    [big.gram.entries[3][2], big.gram.entries[3][3]],
                ],
                "exact",
            )
            target = rescale_to_diameter_one(b)
            got = is_homothetic(block, target.gram)
            assert got is not None
            assert abs(float(got[0]) - 1.0) <= 1e-3
            reduced = product_collapse_reduce(
                [(FlatTorus(a), F(0)), (FlatTorus(b), F(1))]
            )
            assert reduced.gram == target.gram

    run_criterion(9, "the fastest factor owns the rescaled product limit", body)


def test_criterion_10_functoriality():
    def body():
        rng = seeded(110)
        for _ in range(50):
            n = rng.randint(1, 4)
            k = rng.randint(1, 4)
            inc_src = IncidenceComplex(n, downward_closure([list(range(1, n + 1))]))
            inc_dst = IncidenceComplex(k, downward_closure([list(range(1, k + 1))]))
            while True:
                x = [F(rng.randint(0, 4)) for _ in range(n)]
                m = [[rng.randint(0, 2) for _ in range(n)] for _ in range(k)]
                pushed = [
                    sum(F(m[i][j]) * x[j] for j in range(n)) for i in range(k)
                ]
                if any(v > 0 for v in x) and any(v > 0 for v in pushed):
                    break
            src = hybrid_limit(MonomialPathChart(inc_src, x), GluingFunction.LOG)
            full = [F(0)] * n
            for pos, c in zip(src.support, src.coordinates):
                full[pos - 1] = c
            dst = hybrid_limit(MonomialPathChart(inc_dst, pushed), GluingFunction.LOG)
            y = pushforward_map(m, full)
            assert dst.support == tuple(i + 1 for i, v in enumerate(y) if v > 0)
            for pos, c in zip(dst.support, dst.coordinates):
                assert y[pos - 1] == c

    run_criterion(10, "pushing paths forward commutes with taking limits", body)


def test_criterion_11_jacobian_basis_independence():
    def body():
        rng = seeded(111)
        distinct = 0
        for _ in range(20):
            g = random_connected_graph(rng, max_b1=4)
            h = relabeled_shuffled(g, rng)
            f1 = tropical_jacobian(g).gram
            f2 = tropical_jacobian(h).gram
            if f1 != f2:
                distinct += 1
            witness = is_equivalent(f1, f2)
            assert witness is not None
            assert f1.transform(witness) == f2
        assert distinct >= 1

    run_criterion(11, "cycle-basis choice never changes the Jacobian class", body)


def test_criterion_12_fixed_normalization_limits():
    def body():
        path = SymbolicSiegelPath.diagonal(
            [MonomialEntry(F(2), F(0)), MonomialEntry(F(1), F(1))]
        )
        space = fixed_volume_limit(path)
        assert space.euclidean_rank == 1
        assert space.torus_part.gram == QuadraticForm([[F(1, 2), 0], [0, 2]])
        circles = fixed_injrad_limit([F(1)], 0)
        assert circles.circle_circumferences == (F(1),)
        assert circles.euclidean_rank == 1
        assert circles.torus_part is None

    run_criterion(12, "volume and injectivity-radius normalized limit spaces", body)
