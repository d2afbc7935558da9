"""One-parameter degenerations: abelian families, curve families, collars.

An abelian family is summarized by the valuation matrix of its period
monomials; the limit torus is just that matrix rescaled, and a numeric
oracle rebuilds the same answer from sampled metrics, which are multiples
of that matrix at every t, so each sample is the limit in doubles.  A
curve family is a stable dual graph with a node multiplicity per edge;
its metric limit forgets the multiplicities (all edges become equal),
while the hybrid limit keeps them as projective weights.  The collar
integral measures the hyperbolic length across a plumbing annulus.

The module joins two sides, and each reads its library modules through
the package, which loads a submodule on its first access: the abelian
side loads forms, the curve side tropical, and the Torelli comparison
the lattice search too.  The collar needs none of them.
"""

import math
from typing import TYPE_CHECKING, List, NamedTuple, Sequence

import troplab

from .errors import PreconditionError, SchemaError
from .rationals import (
    as_list, coerce_integer, coerce_number, coerce_vector, parse_array, parse_integer, parse_matrix,
    parse_object, parse_size,
)

if TYPE_CHECKING:
    # annotations only; each module loads with the side that runs it
    from .forms import FlatTorus
    from .hybrid import GluingFunction
    from .tropical import WeightedMetricGraph

TWO_PI = 2 * math.pi


class AVFamily:
    """Degenerating abelian family given by its period valuation matrix.

    valuation_matrix[i][j] is the vanishing order of the (i, j) period
    entry; it must be symmetric positive definite with exact rational
    entries.  An optional constant positive-definite block records the
    non-degenerating abelian part of a split extension; it never affects
    the limit.  Non-split extension data has no input slot on purpose:
    only the split case is in scope.
    """

    __slots__ = ("valuation_matrix", "abelian_block")

    def __init__(self, valuation_matrix, abelian_block=None):
        if not isinstance(valuation_matrix, troplab.forms.QuadraticForm):
            valuation_matrix = troplab.forms.QuadraticForm(valuation_matrix, "exact")
        if valuation_matrix.mode != "exact":
            raise PreconditionError(
                "exact-valuations", "valuation matrices are exact rationals"
            )
        if valuation_matrix.n < 1:
            raise PreconditionError("torus-rank", "need at least one degenerating direction")
        if abelian_block is not None and not isinstance(abelian_block, troplab.forms.QuadraticForm):
            abelian_block = troplab.forms.QuadraticForm(abelian_block)
        self.valuation_matrix = valuation_matrix
        self.abelian_block = abelian_block

    @property
    def torus_rank(self) -> int:
        return self.valuation_matrix.n

    def to_json_dict(self) -> dict:
        out = {
            "r": self.torus_rank,
            "M": self.valuation_matrix.to_json_dict()["entries"],
        }
        if self.abelian_block is not None:
            out["abelian_block"] = self.abelian_block.to_json_dict()["entries"]
        return out

    @classmethod
    def from_json_dict(cls, obj, pointer: str = "") -> "AVFamily":
        parse_object(obj, ("M",), pointer)

        def square(key):
            rows = parse_matrix(obj[key], "exact", f"{pointer}/{key}")
            if not rows:
                raise SchemaError("expected a nonempty matrix", f"{pointer}/{key}")
            for i, row in enumerate(rows):
                if len(row) != len(rows):
                    raise SchemaError("matrix must be square", f"{pointer}/{key}/{i}")
            return troplab.forms.QuadraticForm(rows, "exact")

        m = square("M")
        parse_size(obj, "r", m.n, "M", pointer)
        block = square("abelian_block") if obj.get("abelian_block") is not None else None
        return cls(m, block)


def av_family_limit(fam: AVFamily) -> "FlatTorus":
    """Diameter-1 torus of the valuation matrix; the abelian block drops out."""
    return troplab.forms.rescale_to_diameter_one(fam.valuation_matrix)


def av_family_numeric_oracle(fam: AVFamily, t_samples: Sequence[float]) -> List["FlatTorus"]:
    """Rescaled metric tori sampled along the family at the given t.

    With monomial period entries of order M[i][j], the imaginary part of
    the period matrix at parameter t is M * (-log t) / (2 pi), a multiple
    of M for every t in (0, 1).  So each sample, rescaled to diameter 1,
    equals av_family_limit up to the rounding of doubles at any t: it
    checks the float rescaling, not a convergence.
    """
    mfloat = fam.valuation_matrix.to_float().entries
    out = []
    for k, t in enumerate(t_samples):
        t = float(t)
        if not 0.0 < t < 1.0:
            raise PreconditionError("t-range", f"sample {k} must lie in (0, 1)")
        scale = -math.log(t) / TWO_PI
        y = [[x * scale for x in row] for row in mfloat]
        out.append(troplab.forms.rescale_to_diameter_one(troplab.forms.QuadraticForm(y, "float")))
    return out


class CurveFamily:
    """Nodal degeneration of curves: dual graph shape plus node multiplicities.

    Edge lengths on the input graph are ignored; only the combinatorics
    and the per-edge multiplicity m_e >= 1 matter.  The graph must be a
    stable dual graph for its genus b1 + sum of weights whenever that
    genus is at least 2 (smaller genera admit the degenerate shapes,
    e.g. a one-node irreducible curve whose graph is a single loop).
    """

    __slots__ = ("graph", "multiplicities")

    def __init__(self, graph: "WeightedMetricGraph", multiplicities: Sequence[int]):
        given = as_list(multiplicities, "positive-multiplicity", "multiplicities must be an array")
        mult = [
            coerce_integer(m, "positive-multiplicity", f"multiplicity of edge {k} must be >= 1", 1)
            for k, m in enumerate(given)
        ]
        if len(mult) != len(graph.edges):
            raise PreconditionError(
                "multiplicity-count",
                f"expected {len(graph.edges)} multiplicities, got {len(mult)}",
            )
        genus = troplab.tropical.first_betti(graph) + graph.weight_sum()
        unstable = troplab.tropical.unstable_vertices(graph) if genus >= 2 else []
        if unstable:
            raise PreconditionError(
                "stable-dual-graph",
                f"weight-0 vertex {unstable[0]!r} has valence < 3 in a genus-{genus} graph",
            )
        self.graph = graph
        self.multiplicities = tuple(mult)

    @property
    def genus(self) -> int:
        return troplab.tropical.first_betti(self.graph) + self.graph.weight_sum()

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "multiplicities": list(self.multiplicities),
        }

    @classmethod
    def from_json_dict(cls, obj, pointer: str = "") -> "CurveFamily":
        parse_object(obj, ("graph", "multiplicities"), pointer)
        here = pointer + "/graph"
        raw = parse_object(obj["graph"], (), here, "expected a graph object")

        def edge(e, at):
            # lengths are irrelevant here, so an edge may omit "len"
            return {"len": 1, **parse_object(e, (), at, "edge needs 'u', 'v', and 'len'")}

        edges = parse_array(raw.get("edges", []), edge, here + "/edges", "edges must be a list")
        graph = troplab.tropical.WeightedMetricGraph.from_json_dict({**raw, "edges": edges}, here)
        mult = parse_array(obj["multiplicities"], parse_integer, pointer + "/multiplicities")
        return cls(graph, mult)


def _require_edges(fam: CurveFamily):
    if not fam.graph.edges:
        raise PreconditionError(
            "nodal-central-fiber",
            "no collapse; limit is a Riemann surface, out of scope",
        )


def curve_family_gh_limit(fam: CurveFamily) -> "WeightedMetricGraph":
    """Metric limit: all edges the same length, diameter 1.

    The multiplicities cancel out of the rescaled limit, which is why
    the answer depends only on the dual graph.
    """
    _require_edges(fam)
    unit = fam.graph.with_lengths([1] * len(fam.graph.edges), "exact")
    return troplab.tropical.rescale_graph_to_diameter_one(unit)


def curve_family_hybrid_limit(
    fam: CurveFamily, gluing: "GluingFunction"
) -> "WeightedMetricGraph":
    """Limit dual graph with projectivized edge lengths (summing to 1).

    Plain log keeps the multiplicities as weights; iterated log forgets
    them and distributes length uniformly.
    """
    _require_edges(fam)
    return fam.graph.with_lengths(gluing.weights(fam.multiplicities), "exact")


def collar_length(t, c_star: float) -> float:
    """Hyperbolic length across the plumbing collar t/c* < |z| < c*.

    In the normalized variable x = log|z| / log|t| the collar becomes
    [eps, 1 - eps] with eps = log(c*) / log|t|, and the integrand is
    pi / sin(pi x), whose antiderivative is log tan(pi x / 2); the length
    is -2 log tan(pi eps / 2), and only |t| matters.  Grows like
    2 log(-log|t|).
    """
    at = abs(coerce_number(t, "numeric-entries", "t must be a number", complex_ok=True))
    (c_star,), _ = coerce_vector([c_star], "float", "c_star")
    # c_star < 1 first: the 4th power of a large c_star overflows
    if not (0.0 < c_star < 1.0 and 0.0 < at < c_star**4):
        raise PreconditionError(
            "collar-range", "need 0 < c_star < 1 and 0 < |t| < c_star^4"
        )
    eps = math.log(c_star) / math.log(at)
    return -2.0 * math.log(math.tan(math.pi * eps / 2.0))


class TorelliComparison(NamedTuple):
    """Both limit tori of a curve family and whether they agree."""

    gh_side: "FlatTorus"
    av_side: "FlatTorus"
    continuous: bool

    def to_json_dict(self) -> dict:
        return {
            "gh_side": self.gh_side.to_json_dict(),
            "av_side": self.av_side.to_json_dict(),
            "continuous": self.continuous,
        }


def torelli_family_compare(fam: CurveFamily) -> TorelliComparison:
    """Compare the metric-limit torus with the abelian-family limit torus.

    The metric side is the Torelli torus of the metric limit, the graph
    with all edges the same length; torelli is invariant under scaling,
    so the graph with unit lengths gives it without first rescaling to
    diameter 1.  The abelian side weights each cycle by the
    multiplicities (edge e contributes m_e to the valuation form) and
    rescales that, which is av_family_limit of the form and the Torelli
    torus of the graph with lengths m_e.
    They agree only for special multiplicity patterns.  A tree fails
    `positive-genus` in torelli.
    """
    gh_side = troplab.tropical.torelli(fam.graph.with_lengths([1] * len(fam.graph.edges), "exact"))
    av_side = troplab.tropical.torelli(fam.graph.with_lengths(fam.multiplicities, "exact"))
    continuous = troplab.lattice.is_homothetic(gh_side.gram, av_side.gram) is not None
    return TorelliComparison(gh_side, av_side, continuous)
