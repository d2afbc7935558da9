import math
import random
from fractions import Fraction

import pytest

from troplab import _linalg as la
from troplab.errors import PreconditionError
from troplab.rationals import integral_matrix

from helpers import _fraction_inverse


def test_integral_matrix_rejects_non_integral_fraction():
    with pytest.raises(PreconditionError, match=r"integral: m\[0\]\[1\] is Fraction\(1, 2\)"):
        integral_matrix([[1, Fraction(1, 2)]], "m")


def test_integral_matrix_rejects_non_integral_float():
    with pytest.raises(PreconditionError, match=r"integral: m\[0\]\[0\] is 2.5"):
        integral_matrix([[2.5]], "m")


def test_integral_matrix_casts_integral_entries():
    assert integral_matrix([[Fraction(4, 2), 3.0, -1]], "m") == [[2, 3, -1]]


@pytest.mark.parametrize("entry", [True, False, "1", None, math.inf, math.nan, 1j])
def test_integral_matrix_rejects_bool_text_and_non_numbers(entry):
    # a bool compares equal to 0 or 1 and int() reads text, but neither is an integer here
    with pytest.raises(PreconditionError) as info:
        integral_matrix([[1, entry]], "m", "unimodular")
    assert info.value.invariant == "unimodular"


def test_mat_mul_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        la.mat_mul([[1, 2]], [[1, 2]])


def test_solve_is_exact_on_fractions():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    assert la.solve(a, [[1], [2]]) == [[Fraction(1, 5)], [Fraction(3, 5)]]
    assert la.mat_mul(a, la.solve(a, la.identity(2))) == la.identity(2)


def test_solve_rejects_singular():
    with pytest.raises(ZeroDivisionError, match="singular"):
        la.solve([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], la.identity(2))


def test_int_inverse_is_integral():
    u = [[2, 1], [1, 1]]
    inv = la.int_inverse(u)
    assert inv == [[1, -1], [-1, 2]]
    assert all(type(x) is int for row in inv for x in row)
    assert la.mat_mul(u, inv) == la.identity(2)


def test_int_inverse_rejects_singular_and_non_unimodular():
    with pytest.raises(ZeroDivisionError):
        la.int_inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="non-integral"):
        la.int_inverse([[2, 0], [0, 1]])


def test_int_adjugate_matches_the_fraction_inverse():
    rng = random.Random(51)
    seen = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        inverse = _fraction_inverse(a)
        try:
            det, adj = la.int_adjugate(a)
        except ZeroDivisionError:
            assert inverse is None
            continue
        seen += 1
        assert all(type(x) is int for r in adj for x in r)
        assert la.mat_mul(a, adj) == [[det * (i == j) for j in range(n)] for i in range(n)]
        assert adj == [[det * x for x in r] for r in inverse]
    assert seen > 200


def test_int_adjugate_sign_follows_row_swaps():
    # a zero leading entry forces a swap; det [[0, 1], [1, 0]] is -1
    assert la.int_adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    assert la.int_adjugate([[0, 2, 0], [0, 0, 3], [5, 0, 0]]) == (
        30, [[0, 0, 6], [15, 0, 0], [0, 10, 0]]
    )
