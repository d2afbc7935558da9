"""One contract for every float answer: the exact answer rounded once.

Each case builds a random dyadic input twice from the same seed, once
with Fraction scalars and once with floats of the same values (a double
holds a dyadic rational of this size exactly), and the float call must
return every scalar of the exact call's answer rounded once to a double.
"""

import random
from fractions import Fraction

import pytest

from troplab import (
    FlatTorus,
    JacobiDecomposition,
    QuadraticForm,
    SiegelPoint,
    SymplecticElement,
    covering_radius_sq,
    graph_diameter,
    join_path,
    lll_reduce,
    metric_matrix,
    rescale_graph_to_diameter_one,
    rescale_to_diameter_one,
    shortest_vector,
    torelli,
    tropical_jacobian,
)

from helpers import random_connected_graph, random_unimodular


def _dyadic(rng, top=64, shift=5):
    return Fraction(rng.randint(-top, top), 2 ** rng.randint(0, shift))


def _form(rng, cast, n=None):
    """A^T A + D for dyadic A and a positive dyadic diagonal D."""
    n = n or rng.randint(1, 4)
    a = [[_dyadic(rng, 8, 3) for _ in range(n)] for _ in range(n)]
    rows = [
        [sum(a[k][i] * a[k][j] for k in range(n)) + (Fraction(rng.randint(1, 8), 8) if i == j else 0)
         for j in range(n)]
        for i in range(n)
    ]
    return QuadraticForm([[cast(x) for x in r] for r in rows])


def _graph(rng, cast):
    """A random connected graph of genus >= 1 with dyadic lengths."""
    shape = random_connected_graph(rng)
    edges = [(u, v, cast(Fraction(rng.randint(1, 64), 2 ** rng.randint(0, 5))))
             for u, v, _ in shape.edges]
    return type(shape)(shape.vertices, edges)


def _point(rng, cast):
    y = _form(rng, cast, rng.randint(1, 3))
    x = [[0] * y.n for _ in range(y.n)]
    for i in range(y.n):
        for j in range(i + 1):
            x[i][j] = x[j][i] = cast(_dyadic(rng, 16, 4))
    return SiegelPoint(x, y)


def _t(rng):
    return Fraction(rng.randint(0, 16), 16)


def _scalars(answer):
    """The answer's scalars in a fixed order."""
    if hasattr(answer, "gram"):  # a torus or a tropical Jacobian
        answer = answer.gram
    if isinstance(answer, QuadraticForm):
        return [x for r in answer.entries for x in r]
    if isinstance(answer, SiegelPoint):
        return [x for r in answer.x for x in r] + _scalars(answer.y)
    if hasattr(answer, "edges"):
        return [length for _, _, length in answer.edges]
    return [answer]


def _act(rng, cast):
    z = _point(rng, cast)
    gamma = SymplecticElement.from_gl(random_unimodular(rng, z.g, steps=3))
    gamma = SymplecticElement.partial_inversion(z.g, rng.randrange(z.g)).compose(gamma)
    s = [[0] * z.g for _ in range(z.g)]
    s[0][0] = rng.randint(-2, 2)
    gamma = SymplecticElement.translation(s).compose(gamma)
    return _scalars(gamma.act(z))


def _recompose(rng, cast):
    # entries of B with 27-bit numerators, so that the products of a Gram
    # entry are too long for a double and a float sum of them would round
    n = rng.randint(1, 4)
    b = [[Fraction(rng.randint(-2**26, 2**26), 2**26) if j > i else Fraction(int(i == j))
          for j in range(n)] for i in range(n)]
    d = [Fraction(rng.randint(1, 64), 2 ** rng.randint(0, 5)) for _ in range(n)]
    frame = JacobiDecomposition([[cast(x) for x in r] for r in b], [cast(x) for x in d])
    return _scalars(frame.recompose())


def _shortest(rng, cast):
    vec, norm = shortest_vector(_form(rng, cast))
    return list(vec) + [norm]


def _lll(rng, cast):
    reduced, u = lll_reduce(_form(rng, cast))
    return _scalars(reduced) + [x for r in u for x in r]


# case -> (rng, cast) -> the answer's scalars; cast makes a scalar of the
# input Fraction (the exact copy) or float, and it applies to every input
CASES = {
    "rescale_to_diameter_one": lambda rng, cast: _scalars(rescale_to_diameter_one(_form(rng, cast))),
    "join_path": lambda rng, cast: _scalars(join_path(FlatTorus(_form(rng, cast)), cast(_t(rng)))),
    "join_path/float-torus": lambda rng, cast: _scalars(join_path(FlatTorus(_form(rng, cast)), _t(rng))),
    "join_path/float-t": lambda rng, cast: _scalars(join_path(FlatTorus(_form(rng, Fraction)), cast(_t(rng)))),
    "rescale_graph_to_diameter_one":
        lambda rng, cast: _scalars(rescale_graph_to_diameter_one(_graph(rng, cast))),
    "graph_diameter": lambda rng, cast: [graph_diameter(_graph(rng, cast))],
    "tropical_jacobian": lambda rng, cast: _scalars(tropical_jacobian(_graph(rng, cast))),
    "torelli": lambda rng, cast: _scalars(torelli(_graph(rng, cast))),
    "lll_reduce": _lll,
    "JacobiDecomposition.recompose": _recompose,
    "shortest_vector": _shortest,
    "covering_radius_sq": lambda rng, cast: [covering_radius_sq(_form(rng, cast))],
    "metric_matrix": lambda rng, cast: _scalars(metric_matrix(_point(rng, cast))),
    "SymplecticElement.act": _act,
}


@pytest.mark.parametrize("case", list(CASES))
def test_float_answer_is_the_exact_one_rounded_once(case):
    for seed in range(30):
        exact = CASES[case](random.Random(seed), Fraction)
        got = CASES[case](random.Random(seed), float)
        assert not any(isinstance(x, Fraction) for x in got), seed
        assert got == [float(x) for x in exact], seed
