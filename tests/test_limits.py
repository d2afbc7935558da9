import math
from fractions import Fraction

import pytest

from troplab import (
    FlatTorus,
    MonomialEntry,
    PreconditionError,
    QuadraticForm,
    SiegelPoint,
    SymbolicSiegelPath,
    classify_collapse_numeric,
    classify_collapse_symbolic,
    fixed_injrad_limit,
    fixed_volume_limit,
    is_equivalent,
    is_homothetic,
    lll_reduce,
    metric_matrix,
    product_collapse_reduce,
    rescale_to_diameter_one,
    siegel_reduce,
)

from helpers import seeded

F = Fraction


def mono(c, e=0):
    return MonomialEntry(F(c), F(e))


def diag_path(*entries):
    return SymbolicSiegelPath.diagonal([mono(c, e) for c, e in entries])


def frame_path(d, x=(), b=()):
    """The path with diagonal d = [(c, e), ...] whose X is zero and B the
    identity but for the entries {(i, j): (c, e)} given in x and b."""
    g = len(d)
    xs = [[mono(0)] * g for _ in range(g)]
    bs = [[mono(int(i == j)) for j in range(g)] for i in range(g)]
    for (i, j), entry in dict(x).items():
        xs[i][j] = xs[j][i] = mono(*entry)
    for (i, j), entry in dict(b).items():
        bs[i][j] = mono(*entry)
    return SymbolicSiegelPath(xs, bs, [mono(*entry) for entry in d])


def sample_points(path, exponents_of_ten=range(1, 9)):
    return [path.point_at(F(10) ** k) for k in exponents_of_ten]


class TestMonomialEntry:
    def test_zero_normalizes_exponent(self):
        assert MonomialEntry(0, 5).exponent == 0

    def test_limit_values(self):
        assert mono(3, -2).limit() == 0
        assert mono(3, 0).limit() == 3
        with pytest.raises(PreconditionError, match="entry diverges; no limit exists"):
            mono(3, 1).limit()
        with pytest.raises(PreconditionError, match=r"X\[0\]\[1\] diverges"):
            mono(3, 1).limit("X[0][1]")

    def test_reparametrize_scales_exponent(self):
        assert mono(2, F(1, 2)).reparametrized(4) == mono(2, 2)

    def test_json_round_trip_both_conventions(self):
        m = mono(F(3, 2), F(-1, 3))
        doc = m.to_json_dict()
        assert MonomialEntry.from_json_dict(doc) == m
        flipped = MonomialEntry.from_json_dict(doc, t_convention=True)
        assert flipped.exponent == -m.exponent


def test_pointwise_value_needs_an_integer_exponent():
    assert mono(3, 2).value_at(F(2)) == 12
    with pytest.raises(PreconditionError) as info:
        mono(1, F(1, 2)).value_at(F(4))
    assert info.value.invariant == "integer-exponent"


class TestPathValidation:
    def test_diagonal_exponents_must_be_sorted(self):
        path = diag_path((1, 2), (1, 1))
        with pytest.raises(PreconditionError):
            classify_collapse_symbolic(path)

    def test_empty_path_is_refused(self):
        with pytest.raises(PreconditionError) as info:
            SymbolicSiegelPath([], [], [])
        assert info.value.invariant == "positive-genus"

    def test_diverging_x_still_collapses_to_the_circle(self):
        # X never enters a collapse: X = s, D = s is the circle (r = 0)
        path = frame_path([(1, 1)], x={(0, 0): (1, 1)})
        res = classify_collapse_symbolic(path)
        assert (res.r, res.collapsed, res.profile) == (0, True, (F(1),))
        assert res.limit.gram == QuadraticForm([[4]])
        space = fixed_volume_limit(path)
        assert (space.euclidean_rank, space.torus_part) == (1, None)

    @pytest.mark.parametrize(
        "limit, path, entry",
        [
            # the fractional part of B_12 = s / 7 oscillates in the tail
            (classify_collapse_symbolic, frame_path([(1, 1), (1, 1)], b={(0, 1): (F(1, 7), 1)}), "B[0][1]"),
            # no direction diverges, so the limit reads all of X
            (classify_collapse_symbolic, frame_path([(1, 0), (1, 0)], x={(1, 1): (1, 1)}), "X[1][1]"),
            # the converging torus of the first two directions reads X_22
            (fixed_volume_limit, frame_path([(1, 0), (1, 0), (1, 1)], x={(1, 1): (1, 1)}), "X[1][1]"),
        ],
        ids=["collapse-B-in-the-tail", "collapse-X-of-a-bounded-path", "volume-X-in-the-torus"],
    )
    def test_diverging_entry_the_limit_reads_is_refused(self, limit, path, entry):
        with pytest.raises(PreconditionError) as info:
            limit(path)
        assert info.value.invariant == "bounded-entry"
        assert f"{entry} diverges; no limit exists" in str(info.value)

    @pytest.mark.parametrize("limit", [classify_collapse_symbolic, fixed_volume_limit])
    def test_d_ordering_is_checked_before_any_entry(self, limit):
        # fails d-ordering and has a diverging X entry that both limits read
        path = frame_path([(1, 2), (1, 1)], x={(0, 0): (1, 1)})
        with pytest.raises(PreconditionError) as info:
            limit(path)
        assert info.value.invariant == "d-ordering"

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(PreconditionError):
            SymbolicSiegelPath.diagonal([MonomialEntry(F(-1), F(1))])


class TestSymbolicCollapse:
    def test_single_growing_direction(self):
        res = classify_collapse_symbolic(diag_path((1, 1)))
        assert res.collapsed
        assert res.r == 0
        assert res.profile == (F(1),)
        assert res.limit.gram == QuadraticForm([[4]])

    def test_lagging_direction_collapses(self):
        res = classify_collapse_symbolic(diag_path((2, 0), (1, 1)))
        assert res.r == 1
        assert res.profile == (F(1),)
        assert res.limit.gram == QuadraticForm([[4]])

    def test_equal_rate_raises_dimension(self):
        res = classify_collapse_symbolic(diag_path((1, 1), (2, 1)))
        assert res.r == 0
        assert res.profile == (F(1, 2), F(1))
        expect = rescale_to_diameter_one(
            QuadraticForm([[F(1, 2), 0], [0, 1]])
        )
        assert res.limit.gram == expect.gram

    def test_bounded_path_keeps_full_torus(self):
        res = classify_collapse_symbolic(diag_path((1, 0), (2, 0)))
        assert not res.collapsed
        assert res.r == 0
        assert res.limit.gram.n == 4

    def test_reparametrization_invariance(self):
        for path in (
            diag_path((1, 1)),
            diag_path((2, 0), (1, 1)),
            diag_path((1, 1), (3, 2)),
        ):
            base = classify_collapse_symbolic(path)
            for k in (2, 3):
                again = classify_collapse_symbolic(path.reparametrized(k))
                assert again.r == base.r
                assert again.profile == base.profile
                assert again.limit.gram == base.limit.gram

    def test_diverging_x_drops_out(self):
        # X11 = s, D = (s, 2s): the limit of X = 0, diag(1/2, 1) rescaled
        res = classify_collapse_symbolic(frame_path([(1, 1), (2, 1)], x={(0, 0): (1, 1)}))
        assert (res.r, res.profile) == (0, (F(1, 2), F(1)))
        assert res.limit.gram == QuadraticForm([[F(4, 3), 0], [0, F(8, 3)]])

    def test_diverging_b_outside_the_tail_drops_out(self):
        # B12 = s, D = (s, s^3): the first direction collapses, so only
        # B's 1 x 1 tail is read and the limit is the circle
        res = classify_collapse_symbolic(frame_path([(1, 1), (1, 3)], b={(0, 1): (1, 1)}))
        assert (res.r, res.profile) == (1, (F(1),))
        assert res.limit.gram == QuadraticForm([[4]])

    def test_abelian_block_does_not_change_class(self):
        small = classify_collapse_symbolic(diag_path((1, 0), (1, 1)))
        padded = classify_collapse_symbolic(diag_path((1, 0), (1, 0), (1, 1)))
        assert small.limit.gram == padded.limit.gram


class TestNumericCollapse:
    def test_needs_eight_samples(self):
        path = diag_path((1, 1))
        with pytest.raises(PreconditionError):
            classify_collapse_numeric(sample_points(path, range(1, 5)))

    def test_membership_enforced(self):
        bad = SiegelPoint([[3]], QuadraticForm([[1]]))
        with pytest.raises(PreconditionError):
            classify_collapse_numeric([bad] * 8)

    def test_agrees_with_symbolic(self):
        cases = [
            diag_path((1, 1)),
            diag_path((2, 0), (1, 1)),
            diag_path((1, 1), (2, 1)),
        ]
        for path in cases:
            sym = classify_collapse_symbolic(path)
            num = classify_collapse_numeric(sample_points(path))
            assert num.r == sym.r
            assert num.collapsed == sym.collapsed
            got = is_homothetic(
                num.limit.gram.to_float(), sym.limit.gram.to_float(), tol=1e-3
            )
            assert got is not None

    def test_bounded_samples_report_no_divergence(self):
        path = diag_path((1, 0), (2, 0))
        num = classify_collapse_numeric(sample_points(path))
        assert not num.collapsed
        assert num.report is not None
        assert not num.report.diverging

    def test_samples_that_neither_diverge_nor_settle_are_refused(self):
        # the top diagonal 2 s^2 at s = 10^k, k = 1, 3, 2, 5, 4, 7, 6, 8:
        # its last three values fall and rise, so the last sample is no limit
        samples = []
        for k in (1, 3, 2, 5, 4, 7, 6, 8):
            s = 10.0**k
            x = [[-0.5, -1 / s], [-1 / s, -0.25]]
            samples.append(SiegelPoint(x, QuadraticForm([[1.5 * s, 0.0], [0.0, 2 * s * s]])))
        with pytest.raises(PreconditionError, match="oscillating-ratios: d_2 neither diverges"):
            classify_collapse_numeric(samples)

    def test_collapse_that_is_no_initial_block_is_refused(self):
        # d_3 = 10^(k+4) diverges; d_1 / d_3 = 2e-3 stays at tol's order
        # while d_2 / d_3 falls below tol, as d_1 < u d_2 with u = 8 allows
        samples = []
        for k in range(1, 9):
            d3 = F(10) ** (k + 4)
            diag = [F(2, 1000) * d3, F(90 - k, 100000) * d3, d3]
            y = QuadraticForm([[diag[i] if i == j else 0 for j in range(3)] for i in range(3)])
            samples.append(SiegelPoint([[0] * 3 for _ in range(3)], y))
        with pytest.raises(PreconditionError, match="not an initial block") as info:
            classify_collapse_numeric(samples)
        assert info.value.invariant == "oscillating-ratios"

    def test_report_shape(self):
        path = diag_path((2, 0), (1, 1))
        num = classify_collapse_numeric(sample_points(path))
        rep = num.report
        assert rep.diverging
        assert rep.collapsed_directions == (1,)
        assert len(rep.d_top) == 8
        assert set(rep.ratios) == {1, 2}


class TestFixedVolume:
    def test_split_two_dim_path(self):
        space = fixed_volume_limit(diag_path((2, 0), (1, 1)))
        assert space.circle_circumferences == ()
        assert space.euclidean_rank == 1
        expect = QuadraticForm([[F(1, 2), 0], [0, 2]])
        assert space.torus_part.gram == expect

    def test_everything_diverges(self):
        space = fixed_volume_limit(diag_path((1, 1), (1, 2)))
        assert space.torus_part is None
        assert space.euclidean_rank == 2

    def test_diverging_x_outside_the_block(self):
        # X = [[1/3, s/7], [s/7, 0]], D = (1, s): the torus of X11 = 1/3,
        # Y11 = 1 times R
        path = frame_path([(1, 0), (1, 1)], x={(0, 0): (F(1, 3), 0), (0, 1): (F(1, 7), 1)})
        space = fixed_volume_limit(path)
        assert space.euclidean_rank == 1
        assert space.torus_part.gram == QuadraticForm([[1, F(1, 3)], [F(1, 3), F(10, 9)]])

    def test_nothing_diverges(self):
        space = fixed_volume_limit(diag_path((3, 0)))
        assert space.euclidean_rank == 0
        assert space.torus_part.gram.n == 2


class TestFixedInjrad:
    def test_genus_one_circle(self):
        space = fixed_injrad_limit([F(1)], 0)
        assert space.circle_circumferences == (F(1),)
        assert space.euclidean_rank == 1
        assert space.torus_part is None

    def test_circumference_ratios(self):
        space = fixed_injrad_limit([F(1), F(2), F(6)], 1)
        assert space.circle_circumferences == (F(3), F(1))
        assert space.euclidean_rank == 4

    def test_rank_range(self):
        with pytest.raises(PreconditionError):
            fixed_injrad_limit([F(1)], 1)

    def test_profile_ordering_enforced(self):
        with pytest.raises(PreconditionError):
            fixed_injrad_limit([F(8), F(1)], 0, u0=2)

    def test_exact_profile_stays_exact(self):
        space = fixed_injrad_limit([1, F(3, 2), 3], 0)
        assert space.circle_circumferences == (F(3), F(2), F(1))
        assert all(type(c) is F for c in space.circle_circumferences)

    def test_one_float_entry_makes_the_profile_float(self):
        space = fixed_injrad_limit([F(1), 2.0, F(6)], 1)
        assert space.circle_circumferences == (3.0, 1.0)
        assert all(type(c) is float for c in space.circle_circumferences)

    def test_empty_profile_rejected(self):
        with pytest.raises(PreconditionError) as info:
            fixed_injrad_limit([], 0)
        assert info.value.invariant == "positive-genus"

    def test_nan_entry_rejected(self):
        with pytest.raises(PreconditionError) as info:
            fixed_injrad_limit([F(1), math.nan], 0)
        assert info.value.invariant == "finite"
        assert "a[1] is nan" in str(info.value)


class TestProductCollapse:
    def test_dominant_block_wins(self):
        a = FlatTorus(QuadraticForm([[1, 0], [0, 3]]))
        b = FlatTorus(QuadraticForm([[2, 1], [1, 2]]))
        out = product_collapse_reduce([(a, F(0)), (b, F(1))])
        assert out.gram == rescale_to_diameter_one(b.gram).gram

    def test_tie_is_rejected(self):
        a = FlatTorus(QuadraticForm([[1]]))
        b = FlatTorus(QuadraticForm([[2]]))
        with pytest.raises(PreconditionError):
            product_collapse_reduce([(a, F(1)), (b, F(1))])

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            product_collapse_reduce([])

    def test_exact_exponents_compare_exactly(self):
        a = FlatTorus(QuadraticForm([[1]]))
        b = FlatTorus(QuadraticForm([[2]]))
        out = product_collapse_reduce([(a, 1), (b, F(1, 3))])
        assert out.gram == rescale_to_diameter_one(a.gram).gram

    def test_one_float_exponent_makes_all_float(self):
        # F(1, 3) and 1 / 3 round to the same float, so neither dominates
        a = FlatTorus(QuadraticForm([[1]]))
        b = FlatTorus(QuadraticForm([[2]]))
        with pytest.raises(PreconditionError) as info:
            product_collapse_reduce([(a, F(1, 3)), (b, 1 / 3)])
        assert info.value.invariant == "dominant-factor"
        out = product_collapse_reduce([(a, F(1, 2)), (b, 0.25)])
        assert out.gram == rescale_to_diameter_one(a.gram).gram

    def test_nan_exponent_rejected(self):
        a = FlatTorus(QuadraticForm([[1]]))
        b = FlatTorus(QuadraticForm([[2]]))
        with pytest.raises(PreconditionError) as info:
            product_collapse_reduce([(a, F(1)), (b, math.nan)])
        assert info.value.invariant == "finite"
        assert "exponents[1] is nan" in str(info.value)


def frame_product(b, d):
    """B^T diag(d) B by the definition, entry by entry."""
    n = len(d)
    return [[sum(b[k][i] * d[k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def matrix_product(p, q):
    return [[sum(p[i][k] * q[k][j] for k in range(len(q))) for j in range(len(q[0]))] for i in range(len(p))]


def random_frame_path(rng, exps):
    """A monomial path with the given integer d exponents and bounded,
    non-diagonal X and B: each entry off the diagonal of B is zero, constant
    or decays like 1/s, so only the constants survive in the limit.  Entries
    stay within 5/2, so the samples lie in the fundamental set."""
    g = len(exps)

    def bounded():
        return mono(F(rng.randint(-5, 5), rng.randint(2, 4)), rng.choice([0, 0, -1]))

    x = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            x[i][j] = x[j][i] = bounded()
    b = [[bounded() if j > i else mono(int(i == j)) for j in range(g)] for i in range(g)]
    d = [mono(F(rng.randint(4, 8), 4), e) for e in exps]
    return SymbolicSiegelPath(x, b, d)


def limit_of(m):
    return [[v.limit() for v in row] for row in m]


def assert_proportional(gram, block, tol=0):
    # gram = c * block for one c > 0
    c = gram[0][0] / block[0][0]
    assert c > 0
    for row, brow in zip(gram, block):
        for v, w in zip(row, brow):
            assert abs(v - c * w) <= tol


class TestCollapseOracle:
    """Limits against B^T diag(a) B formed here, without library algebra."""

    @staticmethod
    def collapsing_exponents(rng):
        g = rng.randint(2, 4)
        r = rng.randint(0, g - 1)
        top = rng.randint(1, 3)
        return sorted(rng.randint(0, top - 1) for _ in range(r)) + [top] * (g - r), r

    def test_symbolic_and_numeric_collapse(self):
        rng = seeded(23)
        for _ in range(30):
            exps, r = self.collapsing_exponents(rng)
            g = len(exps)
            path = random_frame_path(rng, exps)
            a = [F(0)] * r + [m.coefficient / path.d[-1].coefficient for m in path.d[r:]]
            full = frame_product(limit_of(path.b), a)
            block = [row[r:] for row in full[r:]]

            sym = classify_collapse_symbolic(path)
            assert (sym.r, sym.collapsed, sym.profile) == (r, True, tuple(a[r:]))
            assert sym.limit.gram.mode == "exact"
            assert_proportional(sym.limit.gram.entries, block)
            # the discarded directions span the kernel of the full product
            assert all(full[i][j] == 0 for i in range(g) for j in range(g) if min(i, j) < r)

            samples = [
                SiegelPoint([[float(v) for v in row] for row in z.x], z.y.to_float())
                for z in (path.point_at(F(10) ** k) for k in range(1, 9))
            ]
            num = classify_collapse_numeric(samples)
            assert (num.r, num.collapsed) == (r, True)
            assert num.limit.gram.mode == "float"
            assert_proportional(num.limit.gram.entries, block, tol=1e-6)

    def test_volume_limit(self):
        rng = seeded(29)
        for _ in range(30):
            g = rng.randint(1, 4)
            r = rng.randint(0, g)
            path = random_frame_path(rng, [0] * r + sorted(rng.randint(1, 3) for _ in range(g - r)))
            space = fixed_volume_limit(path)
            assert (space.circle_circumferences, space.euclidean_rank) == ((), g - r)
            if r == 0:
                assert space.torus_part is None
                continue
            x = [row[:r] for row in limit_of(path.x)[:r]]
            b = [row[:r] for row in limit_of(path.b)[:r]]
            y = frame_product(b, [m.coefficient for m in path.d[:r]])
            # the metric matrix of X + iY is [[Y^-1, Y^-1 X], [X Y^-1, Y + X Y^-1 X]]
            gram = space.torus_part.gram.entries
            top_left = [row[:r] for row in gram[:r]]
            top_right = [row[r:] for row in gram[:r]]
            bottom_right = [row[r:] for row in gram[r:]]
            identity = [[int(i == j) for j in range(r)] for i in range(r)]
            assert matrix_product(y, top_left) == identity
            assert matrix_product(y, top_right) == x
            x_yinv_x = matrix_product(x, top_right)
            assert [[p - q for p, q in zip(u, v)] for u, v in zip(bottom_right, x_yinv_x)] == y


def projected_gram(gram, drop, keep):
    """Gram of the basis vectors keep projected orthogonally off the span of
    the vectors drop: elimination of drop's rows leaves the Schur complement."""
    idx = list(drop) + list(keep)
    m = [[F(gram[i][j]) for j in idx] for i in idx]
    for p in range(len(drop)):
        for i in range(p + 1, len(idx)):
            f = m[i][p] / m[p][p]
            m[i] = [v - f * w for v, w in zip(m[i], m[p])]
    return [row[len(drop):] for row in m[len(drop):]]


class TestSampledRoutes:
    """Paths whose X and B diverge outside the entries a limit reads,
    against sampled points: Siegel-reduced samples through the numeric
    classifier for the collapse, and for the fixed-volume torus the LLL-
    reduced metric matrix with its g - r shortest vectors projected out."""

    @staticmethod
    def wild_path(rng, exps, read):
        """Integer d exponents exps; an entry (i, j) of X or B ("X", i, j)
        may diverge unless read says the limit reads it."""
        g = len(exps)

        def entry(name, i, j):
            e = rng.choice([-1, 0]) if read(name, i, j) else rng.choice([-1, 0, 1, 2])
            return mono(F(rng.randint(-5, 5), rng.randint(2, 4)), e)

        x = [[None] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                x[i][j] = x[j][i] = entry("X", i, j)
        b = [[entry("B", i, j) if j > i else mono(int(i == j)) for j in range(g)] for i in range(g)]
        d = [mono(F(rng.randint(4, 8), 4), e) for e in exps]
        return SymbolicSiegelPath(x, b, d)

    @staticmethod
    def diverges(path):
        return any(m.exponent > 0 for rows in (path.x, path.b) for row in rows for m in row)

    def test_collapse(self):
        rng = seeded(31)
        wild = 0
        for _ in range(16):
            g = rng.randint(2, 4)
            r = rng.randint(0, g - 1)
            top = rng.randint(1, 2)
            exps = sorted(rng.randint(0, top - 1) for _ in range(r)) + [top] * (g - r)
            # a collapse reads B's block on the surviving directions only
            path = self.wild_path(rng, exps, lambda name, i, j: name == "B" and i >= r)
            wild += self.diverges(path)
            sym = classify_collapse_symbolic(path)
            samples = []
            for k in range(3, 13):
                z, _, ok = siegel_reduce(path.point_at(F(10) ** k + F(1, 3)))
                assert ok
                samples.append(z)
            num = classify_collapse_numeric(samples)
            assert (num.r, num.collapsed) == (sym.r, True)
            assert is_equivalent(num.limit.gram, sym.limit.gram, tol=1e-4) is not None
        assert wild > 0

    def test_volume_limit(self):
        rng = seeded(37)
        wild = 0
        for _ in range(16):
            g = rng.randint(2, 4)
            r = rng.randint(1, g - 1)
            exps = [0] * r + sorted(rng.randint(1, 2) for _ in range(g - r))
            # the torus reads the upper-left r x r blocks of X and B only
            path = self.wild_path(rng, exps, lambda name, i, j: i < r and j < r)
            wild += self.diverges(path)
            space = fixed_volume_limit(path)
            assert space.euclidean_rank == g - r
            for s in (F(10) ** 9 + F(1, 3), F(10) ** 11 + F(2, 7)):
                gram, _ = lll_reduce(metric_matrix(path.point_at(s)))
                order = sorted(range(2 * g), key=lambda i: gram.entries[i][i])
                block = projected_gram(gram.entries, order[: g - r], order[g - r : g + r])
                assert is_equivalent(QuadraticForm(block), space.torus_part.gram, tol=1e-4) is not None
        assert wild > 0
