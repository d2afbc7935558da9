import math
from fractions import Fraction

import pytest

from troplab import (
    PreconditionError,
    QuadraticForm,
    SchemaError,
    SiegelPoint,
    SymplecticElement,
    default_u0,
    in_siegel_set,
    is_equivalent,
    metric_matrix,
    siegel_reduce,
    torus_model,
)

from helpers import random_pd_form, seeded

F = Fraction


def point(x, y):
    return SiegelPoint(x, QuadraticForm(y))


def has_inversion(gamma):
    """C != 0: gamma is not affine, so some step of it inverted."""
    g = gamma.g
    return any(gamma.mat[g + i][j] for i in range(g) for j in range(g))


def is_symplectic(gamma):
    """gamma^T J gamma = J, with J = [[0, I], [-I, 0]], summed by hand."""
    n = len(gamma.mat)
    g = n // 2

    def j(r, c):
        return (c == r + g) - (r == c + g)

    m = gamma.mat
    return all(
        sum(m[k][r] * j(k, l) * m[l][c] for k in range(n) for l in range(n)) == j(r, c)
        for r in range(n)
        for c in range(n)
    )


def defining_identity_holds(gamma, z, w):
    """W(CZ + D) = AZ + B, real and imaginary parts apart, in Fractions.

    With Z = X + iY, W = U + iV, P = CX + D and Q = CY the two sides read
    (UP - VQ) + i(UQ + VP) = (AX + B) + i(AY).
    """
    g = z.g
    a, b, c, d = gamma.blocks()

    def mul(m, n):
        return [
            [sum(m[i][k] * n[k][j] for k in range(g)) for j in range(g)]
            for i in range(g)
        ]

    def add(m, n, sign=1):
        return [[m[i][j] + sign * n[i][j] for j in range(g)] for i in range(g)]

    x, y = [list(r) for r in z.x], [list(r) for r in z.y.entries]
    u, v = [list(r) for r in w.x], [list(r) for r in w.y.entries]
    p, q = add(mul(c, x), d), mul(c, y)
    real = add(mul(u, p), mul(v, q), -1) == add(mul(a, x), b)
    imag = add(mul(u, q), mul(v, p)) == mul(a, y)
    return real and imag


def float_point(x, y):
    return SiegelPoint(
        [[float(v) for v in r] for r in x],
        QuadraticForm([[float(v) for v in r] for r in y], "float"),
    )


def rounded_once(z):
    """The float point whose entries are those of z rounded to doubles."""
    return float_point(z.x, z.y.entries)


def dyadic_point(rng, g):
    """A point with dyadic entries: floats hold it exactly."""
    b = [
        [F(int(i == j)) if j <= i else F(rng.randint(-4, 4), 4) for j in range(g)]
        for i in range(g)
    ]
    scale = rng.choice([F(1, 1024), F(1, 16), F(1, 2), F(1), F(4)])
    d = [scale * F(rng.randint(1, 16), 4) for _ in range(g)]
    y = [
        [sum(b[k][i] * d[k] * b[k][j] for k in range(g)) for j in range(g)]
        for i in range(g)
    ]
    x = [[F(0)] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            x[i][j] = x[j][i] = F(rng.randint(-40, 40), rng.choice([1, 2, 4, 8]))
    return x, y


class TestDefaults:
    def test_slack_values(self):
        assert default_u0(1) == 2
        assert default_u0(2) == 4
        assert default_u0(3) == 8
        assert default_u0(4) == 16


class TestSiegelPoint:
    def test_shape_validation(self):
        with pytest.raises(PreconditionError):
            SiegelPoint([[0, 0]], QuadraticForm([[1]]))

    def test_symmetric_x_required(self):
        with pytest.raises(PreconditionError):
            SiegelPoint([[0, 1], [0, 0]], QuadraticForm([[1, 0], [0, 1]]))

    def test_json_round_trip(self):
        z = point([[F(1, 2)]], [[F(5, 3)]])
        assert SiegelPoint.from_json_dict(z.to_json_dict()) == z

    def test_json_missing_key(self):
        with pytest.raises(SchemaError):
            SiegelPoint.from_json_dict({"X": [[0]]})


class TestSymplectic:
    def test_rejects_non_symplectic(self):
        for mat in (
            [[1, 1], [1, 1]],
            [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]],
            # a translation by the non-symmetric S = [[0, 1], [0, 0]]
            [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        ):
            with pytest.raises(PreconditionError) as info:
                SymplecticElement(mat)
            assert info.value.invariant == "symplectic"

    def test_constructor_rejects_non_integral_entries(self):
        # an entry is read exactly, never truncated by int()
        for mat in ([[1, F(1, 2)], [0, 1]], [[1, 1.5], [0, 1]], [[1.9, 0], [0, 1]]):
            with pytest.raises(PreconditionError) as info:
                SymplecticElement(mat)
            assert info.value.invariant == "integral"
        assert SymplecticElement([[1, F(2, 1)], [0, 1.0]]).mat == ((1, 2), (0, 1))

    def test_translation_rejects_non_integral_entries(self):
        for s in ([[F(1, 2)]], [[1.9]], [[0, F(-1, 3)], [F(-1, 3), 0]]):
            with pytest.raises(PreconditionError) as info:
                SymplecticElement.translation(s)
            assert info.value.invariant == "integral"
        assert SymplecticElement.translation([[2.0]]).mat == ((1, 2), (0, 1))

    def test_named_constructors_check_their_inputs(self):
        # they skip the gamma^T J gamma product, so a translation must be
        # symmetric and a GL(g, Z) element integral with integral inverse
        with pytest.raises(PreconditionError):
            SymplecticElement.translation([[0, 1], [0, 0]])
        for u in ([[F(1, 2)]], [[2]], [[1, 1], [1, 1]]):
            with pytest.raises(PreconditionError) as info:
                SymplecticElement.from_gl(u)
            assert info.value.invariant == "unimodular"
        with pytest.raises(PreconditionError):
            SymplecticElement.from_gl([[1, 0]])

    def test_named_constructors_and_products_are_symplectic(self):
        rng = seeded(42)
        for g in (1, 2, 3):
            gamma = SymplecticElement.identity(g)
            for _ in range(12):
                kind = rng.randrange(3)
                if kind == 0:
                    s = [[0] * g for _ in range(g)]
                    for i in range(g):
                        for k in range(i, g):
                            s[i][k] = s[k][i] = rng.randint(-3, 3)
                    step = SymplecticElement.translation(s)
                elif kind == 1:
                    u = [[int(i == k) for k in range(g)] for i in range(g)]
                    i, k = rng.sample(range(g), 2) if g > 1 else (0, 0)
                    if i == k:
                        u[0][0] = -1
                    else:
                        u[i][k] = rng.randint(-3, 3)
                    step = SymplecticElement.from_gl(u)
                else:
                    step = SymplecticElement.partial_inversion(g, rng.randrange(g))
                assert is_symplectic(step)
                gamma = step.compose(gamma)
                assert is_symplectic(gamma)

    def test_translation_acts_on_x_only(self):
        z = point([[F(7, 2)]], [[F(2)]])
        step = SymplecticElement.translation([[-3]])
        moved = step.act(z)
        assert moved.x[0][0] == F(1, 2)
        assert moved.y == z.y

    def test_gl_embedding_acts_by_congruence_on_y(self):
        z = point([[0, 0], [0, 0]], [[2, 0], [0, 5]])
        u = [[0, 1], [1, 0]]
        step = SymplecticElement.from_gl(u)
        moved = step.act(z)
        assert moved.y == QuadraticForm([[5, 0], [0, 2]])

    def test_compose_matches_sequential_action(self):
        z = point([[F(1, 3)]], [[F(3, 2)]])
        s1 = SymplecticElement.translation([[2]])
        s2 = SymplecticElement.from_gl([[-1]])
        both = s2.compose(s1)
        assert both.act(z) == s2.act(s1.act(z))


class TestMetricMatrix:
    def test_identity_point(self):
        z = point([[0]], [[1]])
        assert metric_matrix(z) == QuadraticForm([[1, 0], [0, 1]])

    def test_known_value(self):
        z = point([[F(1, 2)]], [[2]])
        expect = QuadraticForm(
            [[F(1, 2), F(1, 4)], [F(1, 4), F(17, 8)]]
        )
        assert metric_matrix(z) == expect

    def test_determinant_one_exact(self):
        rng = seeded(31)
        for _ in range(20):
            g = rng.randint(1, 3)
            y = random_pd_form(rng, g)
            x = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(g)] for _ in range(g)]
            for i in range(g):
                for j in range(i):
                    x[i][j] = x[j][i]
            m = metric_matrix(SiegelPoint(x, y))
            assert m.det() == 1
            assert m.n == 2 * g

    @pytest.mark.parametrize("g", [1, 4])
    def test_nearly_singular_float_point(self, g):
        # Y = 1e-9 (I + J): the exact Gram has determinant 1 and entries
        # near 1e9, and in genus 1 its rounding to doubles is not positive
        # definite
        x = [[3 / 7 if i == j else 1 / 7 for j in range(g)] for i in range(g)]
        y = [[1e-9 * (1 + (i == j)) for j in range(g)] for i in range(g)]
        z = SiegelPoint(x, y)
        assert metric_matrix(z.to_exact()).det() == 1
        if g == 4:
            assert metric_matrix(z) == metric_matrix(z.to_exact()).to_float()
            return
        with pytest.raises(PreconditionError) as info:
            metric_matrix(z)
        assert info.value.invariant == "well-conditioned"
        assert "mode exact" in str(info.value)


class TestMembership:
    def test_interior_point_accepted(self):
        assert in_siegel_set(point([[0]], [[1]]), 2)

    @pytest.mark.parametrize("u", [1, F(1, 2), math.nan])
    def test_slack_must_exceed_one(self, u):
        with pytest.raises(PreconditionError) as info:
            in_siegel_set(point([[0]], [[1]]), u)
        assert info.value.invariant == "slack-range"

    def test_small_y_rejected(self):
        assert not in_siegel_set(point([[0]], [[F(1, 10)]]), 2)

    def test_large_x_rejected(self):
        assert not in_siegel_set(point([[3]], [[1]]), 2)

    def test_diagonal_ordering_enforced(self):
        ordered = point([[0, 0], [0, 0]], [[1, 0], [0, 1]])
        skewed = point([[0, 0], [0, 0]], [[100, 0], [0, 1]])
        assert in_siegel_set(ordered, 4)
        assert not in_siegel_set(skewed, 4)


class TestReduce:
    def test_rejects_small_slack(self):
        # NaN compares false both ways, so it must fail the check, not pass it
        for u in (1, math.nan):
            with pytest.raises(PreconditionError) as info:
                siegel_reduce(point([[0]], [[1]]), u=u)
            assert info.value.invariant == "slack-range"

    @pytest.mark.parametrize("u", [math.inf, float("nan")])
    def test_rejects_non_finite_slack(self, u):
        # an infinite slack would count Z = 9/2 + i/100 as reduced
        z = point([[F(9, 2)]], [[F(1, 100)]])
        for call in (lambda: in_siegel_set(z, u), lambda: siegel_reduce(z, u=u)):
            with pytest.raises(PreconditionError) as info:
                call()
            assert info.value.invariant == "slack-range"

    def test_translation_only(self):
        z = point([[F(9, 2)]], [[F(3)]])
        reduced, gamma, ok = siegel_reduce(z)
        assert ok
        assert abs(reduced.x[0][0]) <= F(1, 2)
        assert reduced.y == z.y
        assert gamma.act(z) == reduced

    def test_inversion_needed(self):
        z = point([[0]], [[F(1, 100)]])
        reduced, gamma, ok = siegel_reduce(z)
        assert ok
        assert in_siegel_set(reduced, 2)
        assert float(reduced.y.entries[0][0]) >= 0.5

    def test_membership_postcondition(self):
        rng = seeded(32)
        for _ in range(15):
            num = rng.randint(-20, 20)
            z = point([[F(num, 4)]], [[F(rng.randint(1, 40), 8)]])
            reduced, gamma, ok = siegel_reduce(z)
            if ok:
                assert in_siegel_set(reduced, 2)
            assert reduced.mode == "exact"
            assert gamma.act(z) == reduced

    def test_witness_preserves_torus_class_genus_one(self):
        rng = seeded(33)
        for _ in range(10):
            z = point(
                [[F(rng.randint(-9, 9), 2)]],
                [[F(rng.randint(1, 30), 10)]],
            )
            reduced, gamma, ok = siegel_reduce(z)
            assert ok
            t1 = torus_model(z).gram
            t2 = torus_model(reduced).gram
            assert is_equivalent(t1, t2) is not None

    def test_genus_two_lattice_reduction(self):
        y = QuadraticForm([[1, 7], [7, 50]])
        z = SiegelPoint([[0, 0], [0, 0]], y)
        reduced, gamma, ok = siegel_reduce(z, u=4)
        assert ok
        assert in_siegel_set(reduced, 4)
        assert gamma.act(z) == reduced

    @pytest.mark.parametrize("eps", [F(1, 1000), F(1, 10**6)], ids=["1e-3", "1e-6"])
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_inversions_stay_exact(self, g, eps):
        # Y = eps (I + J) lies far below the fundamental set, so the
        # reduction must invert; X holds random sevenths
        rng = seeded(40 + g)
        y = [[eps * (1 + (i == j)) for j in range(g)] for i in range(g)]
        x = [[F(0)] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                x[i][j] = x[j][i] = F(rng.randint(-20, 20), 7)
        z = point(x, y)
        reduced, gamma, ok = siegel_reduce(z)
        assert ok
        assert reduced.mode == "exact"
        assert has_inversion(gamma)
        assert is_symplectic(gamma)
        assert defining_identity_holds(gamma, z, reduced)

    def test_float_copy_of_dyadic_point_takes_the_exact_steps(self):
        # a float point is reduced at its exact value, so a float copy of a
        # dyadic point gets the exact witness and flag, inversions included,
        # and the exact answer rounded once per entry
        rng = seeded(41)
        with_inversion = 0
        for k in range(240):
            g = 1 + k % 4
            x, y = dyadic_point(rng, g)
            exact, gamma, ok = siegel_reduce(point(x, y))
            with_inversion += has_inversion(gamma)
            zf = float_point(x, y)
            rounded, gamma_f, ok_f = siegel_reduce(zf)
            assert (gamma_f.mat, ok_f) == (gamma.mat, ok)
            assert rounded == rounded_once(exact)
            assert gamma.act(zf) == rounded
            assert metric_matrix(zf) == metric_matrix(zf.to_exact()).to_float()
        assert with_inversion == 86

    @pytest.mark.parametrize("eps", [1e-3, 1e-9], ids=["1e-3", "1e-9"])
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_float_inversions_round_the_exact_answer_once(self, g, eps):
        # Y = eps (I + J) in doubles: every step acts on its exact value
        rng = seeded(50 + g)
        y = [[eps * (1 + (i == j)) for j in range(g)] for i in range(g)]
        x = [[0.0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                x[i][j] = x[j][i] = rng.randint(-20, 20) / 7
        zf = float_point(x, y)
        exact, gamma, ok = siegel_reduce(zf.to_exact())
        assert ok and has_inversion(gamma)
        rounded, gamma_f, ok_f = siegel_reduce(zf)
        assert (gamma_f.mat, ok_f) == (gamma.mat, ok)
        assert rounded == rounded_once(exact)
        assert gamma.act(zf) == rounded_once(gamma.act(zf.to_exact()))
        # at eps = 1e-9 the torus Gram of zf has entries near 1e9 and
        # determinant 1, so its rounding to doubles need not stay positive
        # definite
        for w in (zf, rounded) if eps > 1e-6 else (rounded,):
            assert metric_matrix(w) == metric_matrix(w.to_exact()).to_float()

    def test_float_half_rounds_away_from_zero(self):
        # -5/2 rounds to -3 in both modes, so X moves to +1/2
        for x in (F(-5, 2), -2.5):
            mode = "float" if isinstance(x, float) else "exact"
            z = SiegelPoint([[x]], QuadraticForm([[3]], mode))
            reduced, gamma, ok = siegel_reduce(z)
            assert ok
            assert gamma.mat == ((1, 3), (0, 1))
            assert reduced.x[0][0] == F(1, 2)
