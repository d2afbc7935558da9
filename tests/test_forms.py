import math
import operator
import time
import types
from collections import Counter
from fractions import Fraction

import pytest

from troplab import _linalg as la
from troplab import (
    FlatTorus,
    JacobiDecomposition,
    ModeMixError,
    MonomialEntry,
    NotPositiveDefiniteError,
    PreconditionError,
    QuadraticForm,
    SchemaError,
    SiegelPoint,
    SymbolicSiegelPath,
    WeightedMetricGraph,
    classify_collapse_numeric,
    covering_radius,
    covering_radius_sq,
    is_equivalent,
    is_homothetic,
    jacobi_decompose,
    join_path,
    lll_reduce,
    metric_matrix,
    product,
    rescale_to_diameter_one,
    shortest_vector,
    torelli,
    tropical_jacobian,
)
from troplab import forms, lattice

from helpers import (
    _fraction_inverse,
    _vectors_up_to,
    a_n_gram,
    box_vectors_up_to,
    brute_equivalent,
    d_n_gram,
    e_n_gram,
    grid_gap,
    is_unimodular,
    jacobi_factors,
    lll_conditions_hold,
    random_integer_pd,
    random_pd_form,
    random_rational_form,
    random_unimodular,
    reference_is_equivalent,
    reference_lll,
    sampled_covering_radius,
    seeded,
    zonotope_covering_radius_sq,
)

F = Fraction
I2 = QuadraticForm([[1, 0], [0, 1]])
I3 = QuadraticForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
# U^T I3 U has no zero coupling: Z^3 as one block
SHEAR3 = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
# the unit-length K4 Jacobian: the body-centred cubic lattice, mu^2 = 5/4
K4_JACOBIAN = [[3, 1, -1], [1, 3, 1], [-1, 1, 3]]
# Lovasz constants: lll_reduce runs at forms.LLL_DELTA = 3/4, and the
# others, set in its place, check the integral Lovasz test at any delta
DELTAS = [pytest.param(d, id=str(d)) for d in (F(1, 2), F(3, 4), F(99, 100))]
# scales at which a tolerance relative to the largest entry must decide as
# it does at 1
SCALES = [1e-200, 1e-8, 1e-6, 1.0, 1e160, 1e200]
# positive definite to an LDL^T in doubles, but read exactly its leading
# minor 3 is <= 0
FLOAT_ROUNDED_PD = [
    [2881380564045.619, -13017722465288.047, 11161405797526.898],
    [-13017722465288.047, 58812467849253.66, -50458815056625.625],
    [11161405797526.898, -50458815056625.625, 912388792012503.4],
]
# a Gram-Schmidt length of this one vanishes in doubles, not when read exactly
FLOAT_ILL_CONDITIONED = [
    [7570.00174041, 3880.00058816, 7990.00147608, 58990.00896944, -260.0],
    [3880.00058816, 4640.01025216, 7800.00063808, 70360.15384544, -80.0],
    [7990.00147608, 7800.00063808, 13610.00161504, 118330.00973072, -200.0],
    [58990.00896944, 70360.15384544, 118330.00973072, 1066932.3086429602, -1220.0],
    [-260.0, -80.0, -200.0, -1220.0, 10.0],
]


class TestQuadraticForm:
    def test_rejects_asymmetric(self):
        with pytest.raises(PreconditionError):
            QuadraticForm([[1, 1], [0, 1]])

    def test_rejects_indefinite_with_minor_index(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            QuadraticForm([[1, 2], [2, 1]])
        assert info.value.minor_index == 2

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            QuadraticForm([[0]])
        assert info.value.minor_index == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(PreconditionError) as info:
            QuadraticForm([[bad]])
        assert info.value.invariant == "finite"
        with pytest.raises(PreconditionError) as info:
            QuadraticForm([[2.0, 0.0], [0.0, bad]])
        assert info.value.invariant == "finite"
        assert "entries[1][1]" in str(info.value)

    def test_mode_mixing_rejected(self):
        with pytest.raises(ModeMixError):
            QuadraticForm([[1.5]], "exact")

    def test_mode_inference(self):
        assert QuadraticForm([[1]]).mode == "exact"
        assert QuadraticForm([[1.0]]).mode == "float"

    def test_evaluate_and_det(self):
        f = QuadraticForm([[2, 1], [1, 2]])
        assert f.evaluate([1, -1]) == 2
        assert f.det() == 3

    def test_transform_is_congruence(self):
        f = QuadraticForm([[1, 0], [0, 1]])
        u = [[1, 1], [0, 1]]
        assert f.transform(u) == QuadraticForm([[1, 1], [1, 2]])

    def test_json_round_trip(self):
        f = QuadraticForm([[F(1, 3), F(1, 7)], [F(1, 7), F(2)]])
        doc = f.to_json_dict()
        assert QuadraticForm.from_json_dict(doc) == f

    def test_json_unknown_mode_is_schema_error(self):
        doc = {"n": 1, "mode": "fuzzy", "entries": [[1]]}
        with pytest.raises(SchemaError) as info:
            QuadraticForm.from_json_dict(doc, "")
        assert info.value.pointer == "/mode"

    @pytest.mark.parametrize("n", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_json_size_must_be_an_integer(self, n):
        with pytest.raises(SchemaError) as info:
            QuadraticForm.from_json_dict({"n": n, "entries": [[1]]})
        assert info.value.pointer == "/n"


COERCING_CONSTRUCTORS = {
    "form": (lambda v, mode: QuadraticForm([[2, 0], [0, v]], mode), "entries[1][1]"),
    "siegel-x": (
        lambda v, mode: SiegelPoint([[0, 0], [0, v]], QuadraticForm([[1, 0], [0, 1]], mode)),
        "X[1][1]",
    ),
    "graph-lengths": (
        lambda v, mode: WeightedMetricGraph([("a", 0)], [("a", "a", 1), ("a", "a", v)], mode),
        "lengths[1]",
    ),
}


@pytest.mark.parametrize("build, where", COERCING_CONSTRUCTORS.values(), ids=COERCING_CONSTRUCTORS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_mode_rejects_non_finite_entries(build, where, bad):
    with pytest.raises(PreconditionError) as info:
        build(bad, "float")
    assert info.value.invariant == "finite"
    assert f"{where} is {bad!r}" in str(info.value)


@pytest.mark.parametrize("build, where", COERCING_CONSTRUCTORS.values(), ids=COERCING_CONSTRUCTORS)
def test_exact_mode_rejects_float_entries(build, where):
    with pytest.raises(ModeMixError):
        build(1.5, "exact")
    assert build(Fraction(3, 2), "exact").mode == "exact"
    assert build(1.5, "float").mode == "float"


@pytest.mark.parametrize("form, c", [(I2, 0), (I2, F(-1, 2)), (I2.to_float(), -2.0)])
def test_scale_must_be_positive(form, c):
    with pytest.raises(PreconditionError) as info:
        form.scale(c)
    assert info.value.invariant == "positive-scale"


def test_a_point_has_no_diameter_to_rescale():
    point = QuadraticForm([])
    for torus in (point, FlatTorus(point)):
        with pytest.raises(PreconditionError, match="cannot rescale a point") as info:
            rescale_to_diameter_one(torus)
        assert info.value.invariant == "positive-dimension"


class TestJacobi:
    def test_recompose_identity_exact(self):
        rng = seeded(11)
        for _ in range(25):
            n = rng.randint(1, 4)
            f = random_pd_form(rng, n)
            dec = jacobi_decompose(f)
            assert dec.recompose() == f

    def test_recompose_float_frame_is_symmetric(self):
        # b_ki (d_k b_kj) and b_kj (d_k b_ki) round differently, so a
        # recomposition that computed both halves in floats could fail
        # "symmetric"; it is the exact Gram rounded once per entry
        rng = seeded(12)
        for _ in range(40):
            n = rng.randint(3, 5)
            b = [[rng.uniform(-1, 1) if j > i else float(i == j) for j in range(n)] for i in range(n)]
            d = [rng.uniform(0.5, 3.0) for _ in range(n)]
            f = JacobiDecomposition(b, d).recompose()
            exact = JacobiDecomposition(
                [[Fraction(v) for v in r] for r in b], [Fraction(v) for v in d]
            ).recompose()
            assert f.mode == "float"
            assert f.entries == tuple(tuple(float(w) for w in r) for r in exact.entries)

    def test_a_length_rounded_to_zero_fails_well_conditioned(self):
        # positive definite, but d_1 = u / (2^40 + 1) underflows to 0.0
        u = 2.0**-1074
        f = QuadraticForm([[(2**40 + 1) * u, 2**20 * u], [2**20 * u, u]])
        with pytest.raises(PreconditionError, match=r"to_exact\(\)") as info:
            jacobi_decompose(f)
        assert info.value.invariant == "well-conditioned"
        assert jacobi_decompose(f.to_exact()).d[1] == F(1, 2**1074 * (2**40 + 1))

    def test_a_frame_whose_rounding_is_not_positive_definite_fails_well_conditioned(self):
        # d > 0 with B unit upper triangular: the exact Gram is positive
        # definite, but its leading minor 3 rounded to doubles is not
        b = [[1, 45787461, -56241421], [0, 1, 2393571], [0, 0, 1]]
        d = [9, 8, 7]
        frame = JacobiDecomposition([[float(x) for x in r] for r in b], [float(x) for x in d])
        with pytest.raises(PreconditionError, match="rounding to doubles") as info:
            frame.recompose()
        assert info.value.invariant == "well-conditioned"
        assert JacobiDecomposition(b, d).recompose().det() == 9 * 8 * 7

    def test_unit_upper_triangular_factor(self):
        f = QuadraticForm([[2, 1], [1, 2]])
        dec = jacobi_decompose(f)
        assert dec.b[0][0] == 1 and dec.b[1][1] == 1
        assert dec.b[1][0] == 0
        assert all(d > 0 for d in dec.d)


class TestLLL:
    def test_witness_is_congruence(self):
        rng = seeded(12)
        for _ in range(20):
            f = random_pd_form(rng, rng.randint(1, 4))
            reduced, u = lll_reduce(f)
            assert f.transform(u) == reduced

    def test_first_vector_short(self):
        # a badly skewed basis of the square lattice comes back to norm 1
        f = QuadraticForm([[1, 7], [7, 50]])
        reduced, _ = lll_reduce(f)
        assert reduced.entries[0][0] == 1

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_reference_on_rational_forms(self, monkeypatch, n, delta):
        monkeypatch.setattr(forms, "LLL_DELTA", delta)
        f = random_rational_form(seeded(100 + n), n)
        reduced, u = lll_reduce(f)
        want_rows, want_u = reference_lll(f, delta)
        assert reduced == QuadraticForm(want_rows)
        assert u == want_u
        assert lll_conditions_hold(reduced.rows, delta)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize(
        "rows", [a_n_gram(12), d_n_gram(8), e_n_gram(8)], ids=["A12", "D8", "E8"]
    )
    def test_matches_reference_on_root_lattice_conjugates(self, monkeypatch, rows, delta):
        monkeypatch.setattr(forms, "LLL_DELTA", delta)
        n = len(rows)
        f = QuadraticForm(rows).transform(random_unimodular(seeded(n), n, steps=2 * n))
        reduced, u = lll_reduce(f)
        want_rows, want_u = reference_lll(f, delta)
        assert reduced == QuadraticForm(want_rows)
        assert u == want_u
        assert f.transform(u) == reduced
        assert lll_conditions_hold(reduced.rows, delta)

    def test_conditions_checker_rejects_unreduced(self):
        assert not lll_conditions_hold([[F(1), F(7)], [F(7), F(50)]])
        assert not lll_conditions_hold([[F(4), F(0)], [F(0), F(1)]])
        assert lll_conditions_hold([[F(1), F(0)], [F(0), F(1)]])


class TestFloatLLLBreakdown:
    # forms on which an elimination in doubles breaks down: read exactly,
    # a float form is decided as its to_exact() would be
    def test_rounded_form_points_to_exact(self):
        # the constructor rejects the float form at the minor that rejects
        # the same values as Fractions
        exact = [[F(x) for x in row] for row in FLOAT_ROUNDED_PD]
        for rows in (FLOAT_ROUNDED_PD, exact):
            with pytest.raises(NotPositiveDefiniteError) as info:
                QuadraticForm(rows)
            assert info.value.minor_index == 3

    def test_vanishing_gram_schmidt_length(self):
        f = QuadraticForm(FLOAT_ILL_CONDITIONED)
        reduced, u = lll_reduce(f)
        assert is_unimodular(u)
        exact = f.to_exact().transform(u)
        assert lll_conditions_hold(exact.rows)
        assert exact.to_float() == reduced


class TestFloatLLLMatchesExact:
    # dyadic entries make to_float() lossless, so the float LLL must take
    # the steps of the exact one and round its reduced Gram once
    @staticmethod
    def check(exact):
        f = exact.to_float()
        assert f.to_exact() == exact
        want, want_u = lll_reduce(exact)
        reduced, u = lll_reduce(f)
        assert u == want_u
        assert reduced == want.to_float()

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("n", range(2, 13))
    def test_rational_forms(self, monkeypatch, n, delta):
        monkeypatch.setattr(forms, "LLL_DELTA", delta)
        self.check(random_rational_form(seeded(100 + n), n).to_float().to_exact())

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize(
        "rows",
        [a_n_gram(3), a_n_gram(12), d_n_gram(8), e_n_gram(8)],
        ids=["A3", "A12", "D8", "E8"],
    )
    def test_root_lattice_conjugates(self, monkeypatch, rows, delta):
        # mu = -1/2 occurs on A3's conjugates: both modes round it to -1
        monkeypatch.setattr(forms, "LLL_DELTA", delta)
        n = len(rows)
        f = QuadraticForm(rows).transform(random_unimodular(seeded(n), n, steps=2 * n))
        self.check(f)


def near_singular_rows(rng, n, dyadic):
    """M M^T + s I with M of rank n - 1 and a tiny shift s of either sign,
    as floats: about half of these forms are positive definite.  Dyadic
    entries are sums of multiples of 1/64 and s = +-2^-k, k <= 40, which
    doubles hold exactly; the others are products of uniform doubles,
    rounded at every step, with s down to the size of that rounding."""
    if dyadic:
        m = [[F(rng.randint(-16, 16), 8) for _ in range(n - 1)] for _ in range(n)]
        shift = F(rng.choice((-1, 1)), 2 ** rng.randint(6, 40))
    else:
        m = [[rng.uniform(-2, 2) for _ in range(n - 1)] for _ in range(n)]
        shift = rng.choice((-1, 1)) * 10.0 ** -rng.randint(10, 17)
    rows = [
        [sum(a * b for a, b in zip(m[i], m[j])) + (shift if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    return [[float(x) for x in row] for row in rows]


def dyadic_pd_form(rng, n):
    """M^T M + I/2 with M of small multiples of 1/4, held exactly in doubles."""
    m = [[F(rng.randint(-8, 8), 4) for _ in range(n)] for _ in range(n)]
    rows = [
        [sum(m[k][i] * m[k][j] for k in range(n)) + (F(1, 2) if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    return QuadraticForm(rows).to_float()


class TestFloatMatchesExact:
    # a float form is its exact dyadic value: it is accepted exactly when
    # its to_exact() is, and its det and Jacobi factors are the exact ones
    # rounded once
    @staticmethod
    def minor_or_none(rows):
        try:
            QuadraticForm(rows)
        except NotPositiveDefiniteError as err:
            return err.minor_index
        return None

    @pytest.mark.parametrize("dyadic", [True, False], ids=["dyadic", "non-dyadic"])
    def test_acceptance_det_and_jacobi(self, dyadic):
        rng = seeded(30 + dyadic)
        outcomes = set()
        for _ in range(80):
            rows = near_singular_rows(rng, rng.randint(2, 6), dyadic)
            exact_rows = [[F(x) for x in row] for row in rows]
            minor = self.minor_or_none(rows)
            assert minor == self.minor_or_none(exact_rows)
            outcomes.add(minor is None)
            if minor is not None:
                continue
            f = QuadraticForm(rows)
            exact = f.to_exact()
            assert exact == QuadraticForm(exact_rows)
            assert f.det() == float(exact.det())
            got, want = jacobi_decompose(f), jacobi_decompose(exact)
            assert got.b == tuple(tuple(float(x) for x in row) for row in want.b)
            assert got.d == tuple(float(x) for x in want.d)
        assert outcomes == {True, False}

    def test_tolerant_equivalence_on_dyadic_forms(self):
        # entries are multiples of 1/16, so a match within the tolerance is
        # an exact match and both answers must agree
        rng = seeded(32)
        for _ in range(12):
            n = rng.randint(2, 4)
            f = dyadic_pd_form(rng, n)
            same = f.transform(random_unimodular(rng, n))
            bumped = [list(row) for row in same.rows]
            i = rng.randrange(n)
            bumped[i][i] += 0.125
            for g in (same, QuadraticForm(bumped)):
                want = is_equivalent(f.to_exact(), g.to_exact())
                got = is_equivalent(f, g, tol=1e-9)
                assert (got is None) == (want is None)
                if got is not None:
                    assert f.to_exact().transform(got) == g.to_exact()

    def test_numeric_collapse_on_dyadic_samples(self):
        # samples of a path with quarter-integer X, B and D coefficients at
        # s = 2^k are dyadic, so a float copy holds each exactly; Jacobi
        # factors are exact or rounded once, and the rest of the numeric
        # classification runs in doubles in both modes, so the answers agree
        # except the bounded limit, whose float metric matrix is solved in
        # doubles
        rng = seeded(33)

        def quarter(lo, hi):
            return MonomialEntry(F(rng.randint(4 * lo, 4 * hi), 4))

        outcomes = set()
        for k in range(30):
            g = 1 + k % 3
            exps = sorted(rng.randint(0, 2) for _ in range(g))
            exps[-1] = max(exps[-1], 1)
            if k % 5 == 0:  # bounded: the limit torus has dimension 2g
                g = min(g, 2)
                exps = [0] * g
            x = [[None] * g for _ in range(g)]
            b = [[MonomialEntry(int(i == j)) for j in range(g)] for i in range(g)]
            for i in range(g):
                for j in range(i, g):
                    x[i][j] = x[j][i] = quarter(-1, 1)
                    if j > i:
                        b[i][j] = quarter(-1, 1)
            d = [MonomialEntry(quarter(1, 3).coefficient, e) for e in exps]
            path = SymbolicSiegelPath(x, b, d)
            exact = [path.point_at(2**t) for t in range(1, 9)]
            floats = [
                SiegelPoint(
                    [[float(v) for v in r] for r in z.x],
                    QuadraticForm([[float(v) for v in r] for r in z.y.entries], "float"),
                )
                for z in exact
            ]
            try:
                want = classify_collapse_numeric(exact)
            except PreconditionError as err:
                with pytest.raises(PreconditionError) as info:
                    classify_collapse_numeric(floats)
                assert info.value.invariant == err.invariant
                outcomes.add(err.invariant)
                continue
            got = classify_collapse_numeric(floats)
            outcomes.add(want.collapsed)
            assert (got.r, got.profile, got.collapsed) == (want.r, want.profile, want.collapsed)
            assert got.report == want.report
            if want.collapsed:
                assert got.limit == want.limit
            else:
                for gr, wr in zip(got.limit.gram.entries, want.limit.gram.entries):
                    assert gr == pytest.approx([float(v) for v in wr], rel=1e-9, abs=1e-12)
        assert {True, False} <= outcomes


class TestShortestVector:
    def test_known_minima(self):
        assert shortest_vector(I2)[1] == 1
        assert shortest_vector(QuadraticForm([[2, 1], [1, 2]]))[1] == 2
        v, norm = shortest_vector(QuadraticForm([[1, 7], [7, 50]]))
        assert norm == 1

    def test_float_form_gets_the_exact_answer_rounded_once(self):
        # summed in doubles, the norms of this form exceed its rounded
        # diagonal, so a float walk bounded by that diagonal kept nothing
        f = QuadraticForm(
            [[1.3349150108450107, 0.13808345431570654, -0.4765415187115988],
             [0.13808345431570654, 1.2923932284517288, -0.7564286377271401],
             [-0.4765415187115988, -0.7564286377271401, 1.682526695948051]],
            "float",
        )
        v, norm = shortest_vector(f)
        exact_v, exact_norm = shortest_vector(f.to_exact())
        assert v == exact_v and type(norm) is float and norm == float(exact_norm)

    def test_vector_achieves_norm(self):
        rng = seeded(13)
        for _ in range(15):
            f = random_pd_form(rng, rng.randint(1, 3))
            v, norm = shortest_vector(f)
            assert f.evaluate(v) == norm
            assert any(c != 0 for c in v)

    def test_the_choice_is_the_canonical_smallest_minimizer(self):
        # brute force: the minimizers of U^T F U are the V v, V = U^-1, for
        # the minimizers v of F found in the Cauchy-Schwarz box of F; the
        # answer is the smallest max(w, -w) over them
        rng = seeded(75)
        cases = []
        for rows in (a_n_gram(3), d_n_gram(4)):
            for _ in range(6):
                v = random_unimodular(rng, len(rows), steps=8)
                u = [[int(x) for x in r] for r in _fraction_inverse(v)]
                cases.append((QuadraticForm(rows).transform(u), rows, v))
        for _ in range(30):
            n = rng.randint(1, 4)
            f = random_pd_form(rng, n) if rng.random() < 0.5 else random_rational_form(rng, n)
            cases.append((f, f.rows, [[int(i == j) for j in range(n)] for i in range(n)]))
        ties = 0
        for f, rows, v in cases:
            box = box_vectors_up_to(rows, min(rows[i][i] for i in range(len(rows))))
            best = min(val for _, val in box)
            mapped = [tuple(sum(map(operator.mul, r, x)) for r in v) for x, val in box if val == best]
            ties += len(mapped) > 2
            want = min(max(w, tuple(-a for a in w)) for w in mapped)
            assert shortest_vector(f) == (want, best)
        assert ties >= 12


def lattice_value(rows, x):
    return sum(F(rows[i][j]) * x[i] * x[j] for i in range(len(x)) for j in range(len(x)))


class TestEnumeration:
    """The Fincke-Pohst walk against brute force over the Cauchy-Schwarz
    box, on Jacobi factors computed here, not by the library."""

    @staticmethod
    def walk(rows, bound, to_float=False):
        b, q = jacobi_factors(rows)
        if to_float:
            b = [[float(x) for x in r] for r in b]
            q = [float(x) for x in q]
        return lattice._enumerate_up_to(b, q, bound)

    def cases(self):
        rng = seeded(71)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            rows = [
                [sum(m[k][i] * m[k][j] for k in range(n)) + (F(1, rng.randint(1, 4)) if i == j else 0)
                 for j in range(n)]
                for i in range(n)
            ]
            yield rows
        for rows in (a_n_gram(1), a_n_gram(2), a_n_gram(3), a_n_gram(4), d_n_gram(4)):
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            yield [[c * x for x in r] for r in rows]

    def test_exact_walk_matches_the_box(self):
        rng = seeded(72)
        on_bound = 0
        for rows in self.cases():
            n = len(rows)
            # a lattice value as the bound puts vectors exactly on it
            x = [0] * n
            while not any(x):
                x = [rng.randint(-1, 1) for _ in range(n)]
            value = lattice_value(rows, x)
            # a float bound, as a tolerant search of a float form against
            # an exact one passes, is read at its exact value
            bounds = [value, float(value), max(rows[i][i] for i in range(n))]
            for bound in bounds:
                got = self.walk(rows, bound)
                want = box_vectors_up_to(rows, F(bound))
                assert Counter(got) == Counter(want)
                assert all(isinstance(v, Fraction) for _, v in got)
                on_bound += sum(v == bound for _, v in got)
        assert on_bound > 0

    def test_float_walk_of_an_integer_form_matches_the_box(self):
        # its Jacobi factors 4, 4, 5 and 1/2 are exact in doubles, so every
        # value the float walk sums is exact too
        rows = [[4, 2, 2], [2, 5, 1], [2, 1, 6]]
        for bound in (4, 9, 16, 25):
            got = self.walk(rows, float(bound), to_float=True)
            want = [(x, float(v)) for x, v in box_vectors_up_to(rows, bound)]
            assert Counter(got) == Counter(want)
            assert any(v == bound for _, v in got)

    def test_visiting_order(self):
        # ascending x_j at every level, the last coordinate outermost
        rows = a_n_gram(3)
        got = [x for x, _ in self.walk(rows, 4)]
        assert got == sorted(got, key=lambda x: x[::-1])

    def test_kept_centres_match_the_direct_sums(self):
        # above dimension 4 the box is too slow: the reference walk sums
        # each centre directly, and the kept centres give the same list,
        # in the same order, with the same Fraction values
        rng = seeded(74)
        cases = []
        for rows in (
            [a_n_gram(n) for n in range(5, 9)]
            + [d_n_gram(n) for n in range(5, 9)]
            + [e_n_gram(n) for n in (6, 7, 8)]
        ):
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            cases += [([[c * x for x in r] for r in rows], k * 2 * c) for k in (1, 2)]
        for _ in range(20):
            rows = random_rational_form(rng, rng.randint(5, 6)).rows
            minimum = min(v for _, v in _vectors_up_to(rows, min(rows[i][i] for i in range(len(rows)))))
            cases += [(rows, minimum), (rows, 2 * minimum)]
        for rows, bound in cases:
            got = self.walk(rows, bound)
            want = _vectors_up_to(rows, bound)
            assert got == want
            assert all(isinstance(v, Fraction) for _, v in got)

    @staticmethod
    def both_signs(b, q, bound):
        """The walk's list by a walk over both signs, and the number of
        levels it enters.

        Every level is entered from the top, the zero prefix too, and keeps
        its centres and sums its value in the walk's order: c_k gains
        b_kj x_j for each x_j tried, the value gains q_j (x_j + c_j)^2.  A
        level's candidates are those of a box around -c_j whose term fits
        the room left, tested at the exact values of c_j, q_j and the room.
        """
        n = len(q)
        found, x, cen = [], [0] * n, [0 * q[0]] * n
        entered = 0

        def walk(j, partial):
            nonlocal entered
            if j < 0:
                if any(x):
                    found.append((tuple(x), partial))
                return
            entered += 1
            c, room = cen[j], bound - partial
            half = math.isqrt(max(0, math.floor(F(room) / F(q[j])))) + 1
            base = cen[:j]
            for xj in range(math.floor(-F(c)) - half, math.ceil(-F(c)) + half + 1):
                if F(q[j]) * (xj + F(c)) ** 2 > F(room):
                    continue
                x[j] = xj
                for k in range(j):
                    cen[k] = base[k] + b[k][j] * xj
                walk(j - 1, partial + q[j] * (xj + c) ** 2)
            cen[:j] = base
            x[j] = 0

        walk(n - 1, 0 * q[0])
        return found, entered

    def test_float_walk_matches_the_both_signs_walk(self):
        # random float forms, whose centres and values round: the same
        # list in the same order, each value equal bit for bit
        rng = seeded(76)
        on_bound = 0
        for _ in range(60):
            n = rng.randint(2, 6)
            m = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
            rows = [[sum(F(m[k][i]) * F(m[k][j]) for k in range(n)) + (i == j) for j in range(n)]
                    for i in range(n)]
            b, q = jacobi_factors(rows)
            b = [[float(v) for v in r] for r in b]
            q = [float(v) for v in q]
            top = float(max(rows[i][i] for i in range(n)))
            for bound in (q[0], top, 1.5 * top):
                got = lattice._enumerate_up_to(b, q, bound)
                want, _ = self.both_signs(b, q, bound)
                assert [x for x, _ in got] == [x for x, _ in want]
                assert [v.hex() for _, v in got] == [v.hex() for _, v in want]
                on_bound += any(v == bound for _, v in got)
        assert on_bound > 0

    def test_the_walk_enters_half_the_levels(self, monkeypatch):
        # the both-signs walk enters the n levels of the zero prefix once
        # and every other prefix with its negative; the walk fixes the sign
        # and enters each level of the zero prefix once to start a sign
        calls = [0]
        real = lattice.square_range

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(lattice, "square_range", counted)
        for n in range(5, 9):
            for rows in (a_n_gram(n), d_n_gram(n), e_n_gram(n)):
                b, q = jacobi_factors(rows)
                for bound in (2, 4):
                    calls[0] = 0
                    got = lattice._enumerate_up_to(b, q, bound)
                    want, entered = self.both_signs(b, q, bound)
                    assert got == want
                    assert 2 * calls[0] <= entered + n


class TestExactSearchUsesNoFloat:
    @pytest.fixture(autouse=True)
    def no_float(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a float in the exact search")

        monkeypatch.setattr(lattice, "float", refuse, raising=False)
        monkeypatch.setattr(lattice, "math", types.SimpleNamespace(**{**vars(math), "sqrt": refuse}))

    def test_patch_is_seen(self):
        # a call in the search's own namespace reaches the patched names
        for call in ("float(2)", "math.sqrt(2)"):
            with pytest.raises(AssertionError):
                eval(call, vars(lattice))

    def test_searches(self):
        e8 = QuadraticForm(e_n_gram(8)).scale(F(3, 7))
        assert shortest_vector(e8)[1] == F(6, 7)
        f = QuadraticForm(d_n_gram(5))
        g = f.transform(random_unimodular(seeded(73), 5))
        for u in (is_equivalent(f, g), is_equivalent(f, g, tol=1e-6)):
            assert u is not None and f.transform(u) == g
        assert is_homothetic(f, g.scale(F(5, 3)))[0] == F(5, 3)
        assert covering_radius_sq(QuadraticForm(a_n_gram(4))) == F(6, 5)


# ||x||^2 = x_0^2 + 10^400 x_1^2, past the double range, and x_0^2 + 10^60 x_1^2,
# inside it, whose equivalence search would still walk 2 10^30 + 1 values of x_0
WIDE = QuadraticForm([[1, 0], [0, 10**400]])
WIDE_60 = QuadraticForm([[1, 0], [0, 10**60]])


@pytest.mark.parametrize(
    "call, count",
    [
        (lambda: is_equivalent(WIDE, WIDE), "2e+200"),
        (lambda: is_homothetic(WIDE, WIDE.scale(3)), "2e+200"),
        (lambda: covering_radius_sq(QuadraticForm(
            [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 10**400]]
        )), "e+200"),
        (lambda: is_equivalent(WIDE_60, WIDE_60), "2e+30"),
    ],
    ids=["equivalent", "homothetic", "covering-radius", "equivalent-1e60"],
)
def test_a_search_that_cannot_finish_fails_search_range(call, count):
    start = time.perf_counter()
    with pytest.raises(PreconditionError) as info:
        call()
    assert time.perf_counter() - start < 1
    assert info.value.invariant == "search-range"
    assert count in str(info.value)


def test_search_range_holds_in_float_mode():
    wide = QuadraticForm([[1.0, 0.0], [0.0, 1e300]])
    with pytest.raises(PreconditionError) as info:
        is_equivalent(wide, wide, tol=1e-6)
    assert info.value.invariant == "search-range"
    # a slack of tol times the largest entry past the double range is inf
    big = I2.to_float().scale(1e10)
    with pytest.raises(PreconditionError, match="search-range: .* unboundedly many"):
        is_equivalent(big, big, tol=1e300)
    # a Gram-Schmidt length rounded to 0.0 leaves a level unbounded
    with pytest.raises(PreconditionError, match="search-range: .* unboundedly many"):
        lattice._enumerate_up_to(((1, 0.5), (0, 1)), (1.0, 0.0), 1.0)


class TestCoveringRadius:
    # circle of circumference sqrt(q): half of it is the farthest point
    def test_circle(self):
        assert covering_radius_sq(QuadraticForm([[4]])) == 1
        assert covering_radius_sq(QuadraticForm([[9]])) == F(9, 4)

    def test_square_lattice(self):
        assert covering_radius_sq(I2) == F(1, 2)

    def test_rectangular(self):
        assert covering_radius_sq(QuadraticForm([[1, 0], [0, 2]])) == F(3, 4)

    def test_hexagonal(self):
        assert covering_radius_sq(QuadraticForm([[2, 1], [1, 2]])) == F(2, 3)

    def test_skewed_unimodular(self):
        f = QuadraticForm([[1, F(1, 2)], [F(1, 2), F(5, 4)]])
        assert covering_radius_sq(f) == F(25, 64)

    def test_equivalent_to_square(self):
        assert covering_radius_sq(QuadraticForm([[1, 1], [1, 2]])) == F(1, 2)

    def test_cubic_lattice_sampled_path(self):
        # three orthogonal blocks would be exact; a sheared basis of Z^3
        # is one 3-d block
        mu = covering_radius(I3.transform(SHEAR3))
        assert abs(mu - math.sqrt(3) / 2) <= 1e-3

    def test_cubic_lattice_decomposed_is_exact(self):
        assert covering_radius_sq(I3) == F(3, 4)

    def test_grid_oracle_sandwich(self):
        rng = seeded(14)
        forms = [I2.rows, [[1, 0], [0, 2]], [[2, 1], [1, 2]]]
        for _ in range(5):
            forms.append(random_pd_form(rng, 2).rows)
        for rows in forms:
            mu = covering_radius(QuadraticForm(rows))
            lower = sampled_covering_radius(rows, steps=24)
            assert lower <= mu + 1e-9
            assert mu <= lower + grid_gap(rows, 24)

    def test_unimodular_invariance(self):
        rng = seeded(15)
        for _ in range(20):
            n = rng.randint(1, 3)
            f = random_pd_form(rng, n)
            u = random_unimodular(rng, n)
            assert covering_radius_sq(f.transform(u)) == covering_radius_sq(f)
        # forms with no orthogonal split, through the Voronoi cell
        rng = seeded(21)
        for n in (3, 3, 4, 4):
            f = QuadraticForm(random_integer_pd(rng, n))
            u = random_unimodular(rng, n)
            assert covering_radius_sq(f.transform(u)) == covering_radius_sq(f)

    def test_scaling_law_exact(self):
        rng = seeded(16)
        for _ in range(10):
            f = random_pd_form(rng, rng.randint(1, 2))
            c = F(rng.randint(1, 5), rng.randint(1, 5))
            assert covering_radius_sq(f.scale(c * c)) == c * c * covering_radius_sq(f)
        rng = seeded(22)
        for n in (3, 3, 4, 4):
            f = QuadraticForm(random_integer_pd(rng, n))
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            assert covering_radius_sq(f.scale(c)) == c * covering_radius_sq(f)


class TestPastTheDoubleRange:
    # mu^2 = 10^400 / 2 is no double, but its root 7.07e199 is one
    BIG = QuadraticForm([[10**400, 0], [0, 10**400]])

    def test_covering_radius_of_a_huge_exact_form(self):
        mu = math.sqrt(0.5) * 1e200
        assert covering_radius(self.BIG) == pytest.approx(mu, rel=1e-15)
        assert FlatTorus(self.BIG).diameter() == covering_radius(self.BIG)

    def test_root_is_the_rounded_square_root_in_range(self):
        rng = seeded(23)
        for _ in range(20):
            f = random_pd_form(rng, rng.randint(1, 3))
            assert covering_radius(f) == math.sqrt(float(covering_radius_sq(f)))
            tiny = f.scale(F(1, 10**200))
            assert covering_radius(tiny) == pytest.approx(covering_radius(f) * 1e-100, rel=1e-14)

    def test_a_radius_past_the_double_range_fails_finite(self):
        huge = QuadraticForm([[10**700, 0], [0, 10**700]])
        for call in (covering_radius, lambda f: FlatTorus(f).diameter()):
            with pytest.raises(PreconditionError) as info:
                call(huge)
            assert info.value.invariant == "finite"
            assert "7.07e+349" in str(info.value)

    def test_tolerant_equivalence_of_a_huge_exact_form(self):
        u = is_equivalent(self.BIG, self.BIG, tol=1e-6)
        assert u is not None
        assert self.BIG.transform(u) == self.BIG
        other = QuadraticForm([[10**400, 10**400], [10**400, 2 * 10**400]])
        assert is_equivalent(self.BIG, other, tol=1e-6) is not None
        assert is_equivalent(self.BIG, other.scale(2), tol=1e-6) is None

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(PreconditionError) as info:
            is_equivalent(I2.to_float(), I2.to_float(), tol=tol)
        assert info.value.invariant == "nonnegative-tolerance"


class TestVoronoiCoveringRadius:
    # closed forms (Conway & Sloane, SPLAG ch. 4): A_n has
    # mu^2 = a(n+1-a)/(n+1) with a = floor((n+1)/2); D_n has max(1, n/4)
    @pytest.mark.parametrize(
        "rows, want",
        [
            (a_n_gram(3), F(1)),
            (a_n_gram(4), F(6, 5)),
            (a_n_gram(5), F(3, 2)),
            (d_n_gram(4), F(1)),
            (d_n_gram(5), F(5, 4)),
            (K4_JACOBIAN, F(5, 4)),
            # Z^3 in a basis with no orthogonal split
            (I3.transform(SHEAR3).rows, F(3, 4)),
        ],
    )
    def test_closed_forms(self, rows, want):
        got = covering_radius_sq(QuadraticForm(rows))
        assert isinstance(got, Fraction)
        assert got == want

    def test_grid_lower_bound(self):
        # the grid search needs a short basis to find the nearest points
        rng = seeded(23)
        for n, steps in ((3, 10), (3, 10), (4, 5)):
            f, _ = lll_reduce(QuadraticForm(random_integer_pd(rng, n)))
            lower = sampled_covering_radius(f.rows, steps=steps, span=1)
            mu = covering_radius(f)
            assert lower <= mu + 1e-9
            assert mu <= lower + grid_gap(f.rows, steps)

    def test_float_form_reads_exactly(self):
        rng = seeded(24)
        forms = [QuadraticForm(random_integer_pd(rng, n)).to_float().scale(0.1) for n in (3, 4)]
        forms += [dyadic_pd_form(rng, n) for n in (2, 3, 3, 4)]
        for f in forms:
            got = covering_radius_sq(f)
            assert isinstance(got, float)
            assert got == float(covering_radius_sq(f.to_exact()))


@pytest.mark.parametrize(
    "name", ["shortest_vector", "is_equivalent", "is_homothetic", "cube_sign_walk"]
)
def test_search_names_resolve_here_from_the_lattice_module(name):
    assert getattr(forms, name) is getattr(lattice, name)
    assert name in dir(forms)


def test_other_names_are_missing():
    with pytest.raises(AttributeError, match="_enumerate_up_to"):
        forms._enumerate_up_to
    with pytest.raises(ImportError):
        from troplab.forms import no_such_name  # noqa: F401


def voronoi_search(form):
    """The Voronoi search run directly on the form's integer Gram, unreduced."""
    return lattice._voronoi_covering_radius_sq(form._gram, form._minors, form._lam, form._den)


class TestPlanarCoveringRadius:
    # blocks of dimension 2 read q1 q2 q3 / (4 det) off the LLL-reduced
    # basis; the Voronoi search and the closed forms of A2 and Z2 are the
    # oracles
    SKEWED = [
        [[3, F(17, 2)], [F(17, 2), 25]],
        [[1, F(99, 2)], [F(99, 2), 2452]],
        [[F(1, 3), F(-7, 5)], [F(-7, 5), 6]],
    ]

    def test_matches_voronoi_on_random_rational_forms(self):
        rng = seeded(27)
        cases = [QuadraticForm(rows) for rows in self.SKEWED]
        cases += [random_rational_form(rng, 2) for _ in range(200)]
        for f in cases:
            got = covering_radius_sq(f)
            assert isinstance(got, Fraction)
            assert got == voronoi_search(f)

    @pytest.mark.parametrize("rows, want", [(a_n_gram(2), F(2, 3)), (I2.rows, F(1, 2))],
                             ids=["A2", "Z2"])
    def test_closed_forms_in_skewed_bases(self, rows, want):
        rng = seeded(28)
        for _ in range(50):
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            u = random_unimodular(rng, 2, steps=12)
            f = QuadraticForm(rows).scale(c).transform(u)
            assert covering_radius_sq(f) == c * want

    def test_float_blocks_round_the_exact_answer_once(self):
        rng = seeded(29)
        cases = [dyadic_pd_form(rng, n) for n in (2, 2, 2, 3, 3, 3)]
        cases += [QuadraticForm(rows).to_float().scale(0.1) for rows in self.SKEWED]
        cases += [random_rational_form(rng, n).to_float() for n in (2, 3)]
        for f in cases:
            got = covering_radius_sq(f)
            assert isinstance(got, float)
            assert got == float(covering_radius_sq(f.to_exact()))
            assert got == float(voronoi_search(f))


class TestSellingCoveringRadius:
    # blocks of dimension 3 go through an obtuse superbase and the sign
    # walk; the Voronoi search, called directly, is the oracle
    def test_matches_voronoi_on_random_rational_forms(self):
        rng = seeded(25)
        for _ in range(200):
            f = random_rational_form(rng, 3)
            assert covering_radius_sq(f) == voronoi_search(f)

    @pytest.mark.parametrize("rows", [a_n_gram(3), K4_JACOBIAN], ids=["A3", "K4"])
    def test_matches_voronoi_on_float_blocks(self, rows):
        # a period matrix log-scaled as in a degenerating family, t -> 0
        for k in range(2, 13):
            f = QuadraticForm(rows).to_float().scale(-math.log(10.0**-k) / (2 * math.pi))
            exact = voronoi_search(f.to_exact())
            got = covering_radius_sq(f)
            assert isinstance(got, float)
            assert got == float(exact)
            assert covering_radius_sq(f.to_exact()) == exact

    def test_closed_forms_without_the_voronoi_search(self, monkeypatch):
        def refuse(g, d, lam, den):
            raise AssertionError(f"Voronoi search on a block of dimension {len(g)}")

        monkeypatch.setattr(lattice, "_voronoi_covering_radius_sq", refuse)
        assert covering_radius_sq(QuadraticForm(a_n_gram(3))) == 1
        assert covering_radius_sq(I3.transform(SHEAR3)) == F(3, 4)
        assert covering_radius_sq(QuadraticForm(K4_JACOBIAN)) == F(5, 4)
        with pytest.raises(AssertionError):
            covering_radius_sq(QuadraticForm(a_n_gram(4)))

    def test_k4_jacobians_meet_the_zonotope_oracle(self):
        rng = seeded(26)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        for _ in range(20):
            vertices = [(i, 0) for i in range(4)]
            edges = [(u, v, F(rng.randint(1, 9), rng.randint(1, 4))) for u, v in pairs]
            g = WeightedMetricGraph(vertices, edges)
            mu_sq = zonotope_covering_radius_sq(vertices, edges)
            assert covering_radius_sq(tropical_jacobian(g).gram) == mu_sq
            assert torelli(g).gram == tropical_jacobian(g).gram.scale(1 / mu_sq)


class TestEquivalence:
    def test_known_witness(self):
        u = is_equivalent(I2, QuadraticForm([[1, 1], [1, 2]]))
        assert u is not None
        assert I2.transform(u) == QuadraticForm([[1, 1], [1, 2]])

    def test_certified_absence(self):
        assert is_equivalent(I2, QuadraticForm([[1, 0], [0, 2]])) is None
        assert is_equivalent(I2, QuadraticForm([[2, 1], [1, 2]])) is None

    def test_rank_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            is_equivalent(I2, QuadraticForm([[1]]))

    def test_failed_witness_raises(self, monkeypatch):
        # the witness is checked with a raise that python -O keeps: an
        # inverse of U2 T doubled in every entry makes U^T I U = 4 I
        inverse = la.int_inverse
        monkeypatch.setattr(la, "int_inverse", lambda m: [[2 * x for x in r] for r in inverse(m)])
        with pytest.raises(RuntimeError, match="witness"):
            is_equivalent(I2, I2)

    def test_float_mode_needs_tol(self):
        with pytest.raises(ModeMixError):
            is_equivalent(I2.to_float(), I2.to_float())
        assert is_equivalent(I2.to_float(), I2.to_float(), tol=1e-9) is not None

    def test_tol_bounds_each_inner_product(self):
        # the slack is tol times the largest entry of the reduced forms (5
        # here): half of it on one inner product matches, five times it
        # does not, since every form equivalent to f is integral
        tol = 1e-6
        f = QuadraticForm([[3.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 5.0]])

        def perturbed(c):
            rows = f.rows
            rows[0][1] = rows[1][0] = 1 + c * tol * 5
            return QuadraticForm(rows)

        for f1 in (f, f.to_exact()):
            assert is_equivalent(f1, perturbed(0.5), tol=tol) is not None
            assert is_equivalent(f1, perturbed(5), tol=tol) is None

    def test_a_repeated_norm_shares_one_candidate_list(self):
        # Z^2 + 3 A_2: the reduced diagonal repeats the norms 1 and 6
        f = QuadraticForm([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 6, -3], [0, 0, -3, 6]])
        assert sorted(lll_reduce(f)[0].entries[i][i] for i in range(4)) == [1, 1, 6, 6]
        rng = seeded(19)
        for _ in range(5):
            g = f.transform(random_unimodular(rng, 4, steps=8))
            for f1, f2 in ((f, g), (g, f)):
                u = is_equivalent(f1, f2)
                assert u is not None and f1.transform(u) == f2

    def test_norms_closer_than_the_slack_keep_their_own_lists(self):
        # the lists are keyed by exact norm: 1 and 1 + 1e-9 lie within the
        # slack (3e-6) of each other and each still finds its vectors
        tol = 1e-6
        f = QuadraticForm([[1.0, 0.0, 0.0], [0.0, 1.0 + 1e-9, 0.0], [0.0, 0.0, 3.0]])
        rng = seeded(20)
        for _ in range(5):
            g = f.transform(random_unimodular(rng, 3))
            for f1, f2 in ((f, g), (g, f)):
                u = is_equivalent(f1, f2, tol=tol)
                assert u is not None and is_unimodular(u)
                got = f1.transform(u).entries
                assert all(
                    abs(x - y) <= tol * 3 for r, s in zip(got, f2.entries) for x, y in zip(r, s)
                )

    @pytest.mark.parametrize("s", SCALES)
    def test_tol_is_relative_at_every_scale(self, s):
        a2 = QuadraticForm([[2 * s, -s], [-s, 2 * s]])
        u = is_equivalent(a2, QuadraticForm([[2 * s, s], [s, 2 * s]]), tol=1e-6)
        assert u is not None
        assert is_unimodular(u)
        # off by 5 tol times the largest entry, 2 s
        far = QuadraticForm([[2 * s, s * (1 + 1e-5)], [s * (1 + 1e-5), 2 * s]])
        assert is_equivalent(a2, far, tol=1e-6) is None

    def test_agrees_with_bounded_brute_force(self):
        rng = seeded(17)
        pairs = [
            (I2, QuadraticForm([[1, 1], [1, 2]])),
            (I2, QuadraticForm([[1, 0], [0, 2]])),
            (QuadraticForm([[1, 0], [0, 2]]), QuadraticForm([[1, 0], [0, 3]])),
            (QuadraticForm([[2, 1], [1, 2]]), QuadraticForm([[2, -1], [-1, 2]])),
        ]
        for _ in range(6):
            f = random_pd_form(rng, 2)
            u = random_unimodular(rng, 2, steps=2)
            pairs.append((f, f.transform(u)))
        for f1, f2 in pairs:
            mine = is_equivalent(f1, f2)
            brute = brute_equivalent(f1, f2, bound=3)
            assert (mine is None) == (brute is None)
            if mine is not None:
                assert f1.transform(mine) == f2

    def test_equivalence_relation_on_random_sample(self):
        # reflexive, symmetric, transitive with explicit witnesses
        rng = seeded(18)
        for _ in range(50):
            n = rng.randint(1, 3)
            f = random_pd_form(rng, n)
            u1 = random_unimodular(rng, n)
            u2 = random_unimodular(rng, n)
            g = f.transform(u1)
            h = g.transform(u2)
            assert is_equivalent(f, f) is not None
            w = is_equivalent(f, g)
            assert w is not None and f.transform(w) == g
            wb = is_equivalent(g, f)
            assert wb is not None and g.transform(wb) == f
            wt = is_equivalent(f, h)
            assert wt is not None and f.transform(wt) == h


def z_plus(n, k):
    """Z^n + [k]: the identity of rank n with one more basis vector of norm k."""
    return [[(k if i == n else 1) if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]


# D6-D8 are left out: the Fraction search backtracks for seconds to
# minutes on their conjugates
ROOT_LATTICES = (
    [a_n_gram(n) for n in range(2, 9)]
    + [d_n_gram(n) for n in (4, 5)]
    + [e_n_gram(n) for n in (6, 7, 8)]
    + [z_plus(n - 1, 1) for n in range(2, 9)]
)


class TestEquivalenceReference:
    """Witnesses against the backtracking search over Fraction inner products."""

    def test_conjugate_pairs_give_the_reference_witness(self):
        rng = seeded(61)
        for k, rows in enumerate(ROOT_LATTICES):
            n = len(rows)
            f = QuadraticForm(rows).scale(F(rng.randint(1, 9), rng.randint(1, 9)))
            g = f.transform(random_unimodular(rng, n, steps=n))
            a, b = (f, g) if k % 2 else (g, f)
            want = reference_is_equivalent(a, b)
            assert want is not None
            assert is_equivalent(a, b) == want

    def test_same_det_other_denominator_gives_none(self):
        # a root lattice f scaled by c = p/11, p odd, against
        # 2c Z^(n-1) + [det f / (2c)^(n-1)]: the search for f in g runs on
        # the vectors of norm 2c and compares cross-multiplied integers of
        # denominators 11 and 11 2^k
        rng = seeded(62)
        for rows in (a_n_gram(2), a_n_gram(4), a_n_gram(6), d_n_gram(4), d_n_gram(5), e_n_gram(6)):
            n = len(rows)
            c = F(rng.randrange(1, 11, 2), 11)
            f = QuadraticForm(rows).scale(c)
            diag = [2 * c] * (n - 1) + [f.det() / (2 * c) ** (n - 1)]
            g = QuadraticForm([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
            assert f._den != g._den
            for a, b in ((f, g), (g, f)):
                assert reference_is_equivalent(a, b) is None
                assert is_equivalent(a, b) is None

    def test_same_det_inequivalent_lattices_give_none(self):
        d4, z3_4 = QuadraticForm(d_n_gram(4)), QuadraticForm(z_plus(3, 4))
        assert reference_is_equivalent(d4, z3_4) is None
        assert is_equivalent(d4, z3_4) is None
        for rows, other in ((d_n_gram(5), z_plus(4, 4)), (e_n_gram(6), z_plus(5, 3))):
            f, g = QuadraticForm(rows), QuadraticForm(other)
            assert f.det() == g.det()
            assert is_equivalent(f, g) is None
            assert is_equivalent(g.scale(F(2, 3)), f.scale(F(2, 3))) is None

    def test_homothety_with_rational_scale_gives_the_reference_witness(self):
        # c is the scale the pair is built with, not one read off the code
        rng = seeded(63)
        lattices = (a_n_gram(2), a_n_gram(3), a_n_gram(4), a_n_gram(5), d_n_gram(4),
                    d_n_gram(5), e_n_gram(6), z_plus(3, 1))
        for rows in lattices:
            n = len(rows)
            f = QuadraticForm(rows).scale(F(rng.randint(1, 9), rng.randint(2, 9)))
            c = F(rng.randint(1, 9), rng.randint(2, 9))
            g = f.scale(c).transform(random_unimodular(rng, n, steps=n))
            got = is_homothetic(f, g)
            assert got == (c, reference_is_equivalent(f.scale(c), g))
            assert got == (c, is_equivalent(f.scale(c), g))
            assert is_homothetic(g, f) == (1 / c, is_equivalent(g.scale(1 / c), f))


class TestHomothety:
    def test_scale_recovered_exactly(self):
        got = is_homothetic(QuadraticForm([[2, 0], [0, 2]]), I2)
        assert got is not None
        c, u = got
        assert c == F(1, 2)
        assert QuadraticForm([[2, 0], [0, 2]]).scale(c).transform(u) == I2

    def test_no_scale_makes_them_match(self):
        assert is_homothetic(I2, QuadraticForm([[1, 0], [0, 2]])) is None

    def test_det_ratio_no_rational_power_is_certified_no(self):
        # 1 + 10^-9 is no rational square; a float tolerance would say yes
        near = QuadraticForm([[1, 0], [0, F(10**9 + 1, 10**9)]])
        assert is_homothetic(I2, near) is None

    def test_huge_exact_scale(self):
        c = 10**110
        got = is_homothetic(I3, I3.scale(c))
        assert got is not None
        assert got[0] == c
        assert I3.scale(c).transform(got[1]) == I3.scale(c)

    def test_irrational_ratio_falls_back_to_float(self):
        # det ratio 2 is not a perfect square; scaled copies still match
        f = QuadraticForm([[1, 0], [0, 2]])
        got = is_homothetic(f, f.scale(F(3, 7)))
        assert got is not None
        assert got[0] == F(3, 7)
        loose = is_homothetic(I2, QuadraticForm([[1, 0], [0, 2]]), tol=1e-6)
        assert loose is None

    @pytest.mark.parametrize(
        "rows1, rows2, root",
        [
            ([[1, 0], [0, 4]], [[2, 0], [0, 2]], 1),
            ([[1, 0], [0, 1]], [[2, 1], [1, 5]], 3),
            (a_n_gram(2), [[1, 0], [0, 3]], 1),
            (d_n_gram(4), z_plus(3, 4), 1),
            (e_n_gram(6), z_plus(5, 3), 1),
        ],
        ids=["diag14-diag22", "I2-ratio-9", "A2-Z+3", "D4-Z3+4", "E6-Z5+3"],
    )
    def test_nth_power_det_ratio_without_homothety_gives_none(self, rows1, rows2, root):
        f1, f2 = QuadraticForm(rows1), QuadraticForm(rows2)
        assert f2.det() == root**f1.n * f1.det()
        for s in (F(1), F(2, 3)):
            assert is_homothetic(f1.scale(s), f2) is None
            assert is_homothetic(f2, f1.scale(s)) is None


    @pytest.mark.parametrize("s", SCALES)
    def test_float_scale_at_every_magnitude(self, s):
        a2 = QuadraticForm(a_n_gram(2))
        target = QuadraticForm([[2 * s, s], [s, 2 * s]])
        for f in (a2, a2.to_float()):
            got = is_homothetic(f, target)
            assert got is not None
            c, u = got
            assert c == pytest.approx(s, rel=1e-12)
            assert is_unimodular(u)


class TestTorus:
    def test_diameter_is_covering_radius(self):
        t = FlatTorus(QuadraticForm([[4]]))
        assert t.diameter() == pytest.approx(1.0)

    def test_rescale_exact_and_idempotent(self):
        t = rescale_to_diameter_one(QuadraticForm([[1]]))
        assert t.gram == QuadraticForm([[4]])
        again = rescale_to_diameter_one(t.gram)
        assert again.gram == t.gram

    def test_rescale_scale_invariant_at_gram_level(self):
        rng = seeded(19)
        for _ in range(10):
            f = random_pd_form(rng, 2)
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            a = rescale_to_diameter_one(f)
            b = rescale_to_diameter_one(f.scale(c))
            assert a.gram == b.gram

    def test_rescale_orthogonal_blocks_stay_exact(self):
        t = rescale_to_diameter_one(I3)
        assert t.gram == I3.scale(F(4, 3))

    def test_rescale_indecomposable_three_dim_stays_exact(self):
        # a conjugate of A3, whose mu^2 is 1
        chain = QuadraticForm([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        t = rescale_to_diameter_one(chain)
        assert t.gram == chain.scale(1 / F(1))
        assert t.diameter() == 1.0

    def test_product_pythagorean_diameter(self):
        rng = seeded(20)
        tol = 1e-6
        for _ in range(12):
            t1 = FlatTorus(random_pd_form(rng, rng.randint(1, 2)))
            t2 = FlatTorus(random_pd_form(rng, rng.randint(1, 2)))
            d = product(t1, t2).diameter()
            expect = math.hypot(t1.diameter(), t2.diameter())
            assert abs(d - expect) <= 2 * tol

    def test_product_mode_mix_rejected(self):
        with pytest.raises(ModeMixError):
            product(FlatTorus(I2), FlatTorus(I2.to_float()))


class TestJoinPath:
    def test_endpoints(self):
        x = FlatTorus(QuadraticForm([[1, 0], [0, 2]]))
        start = join_path(x, 0)
        assert start.gram == rescale_to_diameter_one(x).gram
        end = join_path(x, 1)
        assert end.gram == QuadraticForm([[4]])

    def test_midpoint_gram(self):
        # blockdiag((1/4) X, [1/4]) for the unit square torus
        x = FlatTorus(I2)
        mid = join_path(x, F(1, 2))
        raw = QuadraticForm(
            [[F(1, 4), 0, 0], [0, F(1, 4), 0], [0, 0, F(1, 4)]]
        )
        assert mid.gram == rescale_to_diameter_one(raw).gram

    def test_parameter_range(self):
        with pytest.raises(PreconditionError):
            join_path(FlatTorus(I2), 2)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_fails_the_range(self, t):
        with pytest.raises(PreconditionError) as info:
            join_path(FlatTorus(I2), t)
        assert info.value.invariant == "join-parameter"

    def test_diameter_one_along_path(self):
        x = FlatTorus(QuadraticForm([[3, 1], [1, 2]]))
        for t in (F(1, 10), F(1, 3), F(9, 10)):
            assert join_path(x, t).diameter() == pytest.approx(1.0, abs=1e-5)


# -- derived forms -------------------------------------------------------------

SLOTS = ("n", "entries", "mode", "_gram", "_den", "_minors", "_lam")


def assert_constructor_reread(form):
    # the re-read goes through the constructor's coercion and elimination
    ref = QuadraticForm(form.rows, form.mode)
    for slot in SLOTS:
        assert getattr(form, slot) == getattr(ref, slot), slot
    assert [type(x) for r in form.entries for x in r] == [type(x) for r in ref.entries for x in r]


def shared_factor_form(rng, n):
    """k G / m for an integer positive-definite G, with k and m sharing the
    factors 2 and 3: a derived Gram that picks up 2 or 3 must be reduced."""
    k = rng.choice((2, 3, 4, 6, 12))
    m = rng.choice((2, 3, 4, 6, 9, 12, 35))
    return QuadraticForm([[F(k * x, m) for x in r] for r in random_integer_pd(rng, n)])


def derived_forms(rng, f):
    """(site, form) for every library site that derives a form from another."""
    n = f.n
    c = F(rng.choice((2, 3, 4, 6, 9)), rng.choice((1, 2, 3, 4, 6)))
    u = [[2 * x for x in r] for r in random_unimodular(rng, n)] if n else []
    f2 = shared_factor_form(rng, rng.randint(1, 3))
    graph = WeightedMetricGraph(
        [("a", 0), ("b", 0)],
        [("a", "b", rng.choice((F(1, 2), F(3, 2), F(2, 3), 6))) for _ in range(rng.randint(2, 4))],
    )
    x = [[F(rng.randint(-3, 3), 6) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            x[i][j] = x[j][i]
    out = [
        ("lll_reduce", lll_reduce(f)[0]),
        ("scale", f.scale(c)),
        ("rescale_to_diameter_one", rescale_to_diameter_one(f).gram),
        ("to_float", f.to_float()),
        ("to_exact", f.to_float().to_exact()),
        ("recompose", jacobi_decompose(f).recompose()),
        ("transform", f.transform(u)),
        ("product", product(FlatTorus(f), FlatTorus(f2)).gram),
        ("tropical_jacobian", tropical_jacobian(graph).gram),
        ("torelli", torelli(graph).gram),
        ("metric_matrix", metric_matrix(SiegelPoint(x, f))),
    ]
    homothetic = is_homothetic(f, f.transform(random_unimodular(rng, n)).scale(c))
    assert homothetic is not None and homothetic[0] == c
    ff = f.to_float()
    out += [
        ("float lll_reduce", lll_reduce(ff)[0]),
        ("float scale", ff.scale(float(c))),
        ("float rescale_to_diameter_one", rescale_to_diameter_one(ff).gram),
        ("float transform", ff.transform(u)),
        ("float product", product(FlatTorus(ff), FlatTorus(f2.to_float())).gram),
        ("float metric_matrix", metric_matrix(SiegelPoint([[float(v) for v in r] for r in x], ff))),
    ]
    return out


class TestDerivedForms:
    def test_every_derived_form_equals_its_constructor_reread(self):
        rng = seeded(29)
        sites = set()
        for _ in range(40):
            f = shared_factor_form(rng, rng.randint(1, 5))
            for site, form in derived_forms(rng, f):
                assert_constructor_reread(form)
                sites.add(site)
        assert len(sites) == 17

    def test_float_results_are_the_exact_ones_rounded_once(self):
        rng = seeded(30)
        for _ in range(20):
            n = rng.randint(1, 5)
            ff = shared_factor_form(rng, n).to_float()
            fe = ff.to_exact()
            c = rng.uniform(0.1, 10.0)
            u = random_unimodular(rng, n)
            pairs = [
                (lll_reduce(ff)[0], lll_reduce(fe)[0]),
                (ff.scale(c), fe.scale(F(c))),
                (rescale_to_diameter_one(ff).gram, rescale_to_diameter_one(fe).gram),
                (ff.transform(u), fe.transform(u)),
                (fe.to_float(), fe),
            ]
            for got, exact in pairs:
                assert got.mode == "float"
                assert got.entries == tuple(tuple(float(x) for x in r) for r in exact.entries)

    def test_derived_grams_are_reduced_over_their_denominator(self):
        # 6 [[2, 1], [1, 2]] / 35 scaled by 35/3: the Gram 2 [[2, 1], [1, 2]]
        # over 1, with minors 1, 4, 12 and lambda_10 = 2
        f = QuadraticForm([[F(12, 35), F(6, 35)], [F(6, 35), F(12, 35)]])
        g = f.scale(F(35, 3))
        assert (g._gram, g._den, g._minors, g._lam) == (((4, 2), (2, 4)), 1, (1, 4, 12), ((), (2,)))

    def test_recompose_with_a_nonpositive_diagonal_names_the_constructor_minor(self):
        rng = seeded(31)
        for _ in range(40):
            n = rng.randint(1, 5)
            b = [[F(rng.randint(-4, 4), rng.randint(1, 4)) if j > i else F(int(i == j))
                  for j in range(n)] for i in range(n)]
            d = [F(rng.randint(1, 6), rng.randint(1, 5)) for _ in range(n)]
            d[rng.randrange(n)] = F(-rng.randint(0, 3), rng.randint(1, 3))
            rows = [[sum(b[k][i] * d[k] * b[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]
            with pytest.raises(NotPositiveDefiniteError) as want:
                QuadraticForm(rows)
            with pytest.raises(NotPositiveDefiniteError) as got:
                JacobiDecomposition(b, d).recompose()
            assert got.value.minor_index == want.value.minor_index
