"""Collapse limits of one-parameter families of polarized flat tori.

Families are monomial paths in the upper half space (entrywise c * s^e as
s grows) or finite numeric sample sequences.  Classification finds which
Jacobi diagonal directions stay comparable to the largest one, assembles
the limit Gram from the limiting unit-triangular frame, and rescales to
diameter one.  Two further normalizations are provided: the fixed-volume
limit (keeps the converging block as a torus factor) and the fixed
injectivity radius limit (keeps every direction as a circle factor).
"""

import sys
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .errors import PreconditionError, SchemaError
from .forms import FlatTorus, JacobiDecomposition, LimitSpace, rescale_to_diameter_one
from .rationals import (
    Scalar, as_list, check_symmetric, coerce_integer, coerce_number, coerce_vector,
    format_rational, format_scalar, matrix_rows, parse_array, parse_object, parse_rational,
    parse_rows, parse_size,
)
from .siegel import SiegelPoint, default_u0, in_siegel_set, jacobi_decompose, metric_matrix


class _MonomialEntryFields(NamedTuple):
    coefficient: Fraction
    exponent: Fraction


class MonomialEntry(_MonomialEntryFields):
    """coefficient * s^exponent in the s -> +infinity convention.

    The zero entry is coefficient 0 with exponent normalized to 0.
    """

    __slots__ = ()

    def __new__(cls, coefficient=Fraction(0), exponent=Fraction(0)):
        (c, e), _ = coerce_vector([coefficient, exponent], "exact", "monomial (c, e)")
        return tuple.__new__(cls, (c, e if c != 0 else Fraction(0)))

    @property
    def is_zero(self) -> bool:
        return self.coefficient == 0

    def limit(self, name: str = "entry") -> Fraction:
        """Value as s -> infinity; a diverging entry fails `bounded-entry`
        under its name."""
        if self.is_zero or self.exponent < 0:
            return Fraction(0)
        if self.exponent == 0:
            return self.coefficient
        raise PreconditionError("bounded-entry", f"{name} diverges; no limit exists")

    def value_at(self, s: Fraction) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        e = self.exponent
        if e.denominator != 1:
            raise PreconditionError(
                "integer-exponent", "pointwise evaluation needs integer exponents"
            )
        return self.coefficient * Fraction(s) ** int(e)

    def reparametrized(self, k: int) -> "MonomialEntry":
        """Substitute s -> s^k."""
        return MonomialEntry(self.coefficient, self.exponent * k)

    def to_json_dict(self) -> dict:
        return {"c": format_rational(self.coefficient), "e": format_rational(self.exponent)}

    @classmethod
    def from_json_dict(cls, doc, pointer: str = "", t_convention: bool = False):
        parse_object(doc, ("c",), pointer, "monomial must be an object with 'c'")
        c = parse_rational(doc["c"], pointer + "/c")
        e = parse_rational(doc.get("e", 0), pointer + "/e")
        if t_convention:
            e = -e
        return cls(c, e)


CONSTANT_ONE = MonomialEntry(Fraction(1), Fraction(0))


class SymbolicSiegelPath:
    """Monomial path assembled from X, the Jacobi frame B, and diagonal D.

    Shape is validated on construction (X symmetric, B unit upper
    triangular, D positive coefficients); the analytic admissibility
    conditions are checked by the operations that need them, so that
    invalid paths produce the documented errors rather than being
    unconstructible: D's exponents must be ordered, and an entry of X or B
    must stay bounded only where a limit reads it.  Exponents are in s.
    """

    __slots__ = ("g", "x", "b", "d")

    def __init__(self, x, b, d):
        d = as_list(d, "shape-match", "D must be an array of monomials")
        g = len(d)
        if g < 1:
            raise PreconditionError("positive-genus", "D must be nonempty: a path needs g >= 1")
        x = matrix_rows(x, "shape-match", "X must be a g x g array of monomials", g, g)
        b = matrix_rows(b, "shape-match", "B must be a g x g array of monomials", g, g)
        if not all(isinstance(v, MonomialEntry) for r in x + b for v in r):
            raise PreconditionError("monomial-entries", "entries must be monomials")
        check_symmetric(x, "X")
        for i in range(g):
            if b[i][i] != CONSTANT_ONE:
                raise PreconditionError("unit-triangular", "B diagonal must be 1")
            for j in range(i):
                if not b[i][j].is_zero:
                    raise PreconditionError("unit-triangular", "B below diagonal must be 0")
        for j, entry in enumerate(d):
            if not isinstance(entry, MonomialEntry) or entry.coefficient <= 0:
                raise PreconditionError("positive-diagonal", f"d[{j}] must have c > 0")
        self.g = g
        self.x = tuple(tuple(r) for r in x)
        self.b = tuple(tuple(r) for r in b)
        self.d = tuple(d)

    @classmethod
    def diagonal(cls, d_entries: Sequence[MonomialEntry]) -> "SymbolicSiegelPath":
        g = len(d_entries)
        zero = MonomialEntry()
        x = [[zero] * g for _ in range(g)]
        b = [[CONSTANT_ONE if i == j else zero for j in range(g)] for i in range(g)]
        return cls(x, b, list(d_entries))

    def reparametrized(self, k: int) -> "SymbolicSiegelPath":
        """Substitute s -> s^k for an integer k >= 1."""
        coerce_integer(k, "positive-power", "k must be an integer >= 1", low=1)
        re = lambda m: m.reparametrized(k)
        return SymbolicSiegelPath(
            [[re(v) for v in r] for r in self.x],
            [[re(v) for v in r] for r in self.b],
            [re(v) for v in self.d],
        )

    def point_at(self, s) -> SiegelPoint:
        """Exact evaluation at a parameter value s, a number read at its
        exact value (integer exponents only)."""
        s = Fraction(coerce_vector([s], None, "s")[0][0])
        g = self.g
        xv = [[self.x[i][j].value_at(s) for j in range(g)] for i in range(g)]
        bv = [[self.b[i][j].value_at(s) for j in range(g)] for i in range(g)]
        dv = [self.d[j].value_at(s) for j in range(g)]
        return SiegelPoint(xv, JacobiDecomposition(bv, dv).recompose())

    def _validate_d_ordering(self):
        exps = [m.exponent for m in self.d]
        for j, e in enumerate(exps):
            if e < 0:
                raise PreconditionError(
                    "siegel-lower-bound",
                    f"d[{j}] decays; the path leaves every fundamental set",
                )
        for j in range(self.g - 1):
            if exps[j] > exps[j + 1]:
                raise PreconditionError(
                    "d-ordering", f"d[{j}] outgrows d[{j + 1}] beyond the allowed slack"
                )
        return exps

    def _block_limit(self, name: str, lo: int, hi: int) -> list:
        """Limits of the entries (i, j), lo <= i, j < hi, of X or B (name);
        only these must stay bounded."""
        mat = self.x if name == "X" else self.b
        return [
            [mat[i][j].limit(f"{name}[{i}][{j}]") for j in range(lo, hi)]
            for i in range(lo, hi)
        ]

    def _converging_point(self, r: int) -> SiegelPoint:
        """Limit of the upper-left r x r blocks of X and Y.

        Needs d_1, ..., d_r of exponent zero: the block of Y is then the
        recomposition of the limiting blocks of B and D.
        """
        x = self._block_limit("X", 0, r)
        head = JacobiDecomposition(
            self._block_limit("B", 0, r), [m.coefficient for m in self.d[:r]]
        )
        return SiegelPoint(x, head.recompose())

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "X": [[v.to_json_dict() for v in r] for r in self.x],
            "B": [[v.to_json_dict() for v in r] for r in self.b],
            "D": [v.to_json_dict() for v in self.d],
        }

    @classmethod
    def from_json_dict(cls, doc: dict, pointer: str = "") -> "SymbolicSiegelPath":
        parse_object(doc, ("X", "B", "D"), pointer, "path must be an object")
        convention = doc.get("convention", "s")
        if convention not in ("s", "t"):
            raise SchemaError("convention must be 's' or 't'", pointer + "/convention")

        def entry(v, here):
            return MonomialEntry.from_json_dict(v, here, convention == "t")

        x = parse_rows(doc["X"], entry, pointer + "/X")
        b = parse_rows(doc["B"], entry, pointer + "/B")
        d = parse_array(doc["D"], entry, pointer + "/D")
        parse_size(doc, "g", len(d), "D", pointer)
        return cls(x, b, d)


class NumericReport(NamedTuple):
    """Ratio trajectories backing a numeric classification."""

    d_top: tuple
    ratios: Dict[int, tuple]
    collapsed_directions: tuple
    diverging: bool

    def to_json_dict(self) -> dict:
        return {
            "d_top": list(self.d_top),
            "ratios": {str(k): list(v) for k, v in self.ratios.items()},
            "collapsed_directions": list(self.collapsed_directions),
            "diverging": self.diverging,
        }


class CollapseResult(NamedTuple):
    """r collapsed directions, the limit ratios, and the rescaled limit.

    collapsed is False for paths whose largest diagonal stays bounded; the
    limit is then the full 2g-dimensional rescaled torus of the limiting
    point rather than a (g - r)-dimensional quotient.
    """

    r: int
    profile: tuple
    limit: FlatTorus
    collapsed: bool = True
    report: Optional[NumericReport] = None

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "profile": [format_scalar(a) for a in self.profile],
            "collapsed": self.collapsed,
            "limit": self.limit.to_json_dict(),
            "report": self.report.to_json_dict() if self.report else None,
        }


def _collapse_tail(b, a) -> FlatTorus:
    """Rescaled limit torus of the surviving directions r, ..., g - 1.

    b and a are the lower-right blocks, from r on, of the frame B and of
    the limit ratios.  The limit Gram is the lower-right block of
    B^T diag(a) B, and the discarded block is the kernel.  B is unit upper
    triangular and a_j = 0 for j < r, so that block is the recomposition
    of b and a: no entry of B outside b, and no entry of X, enters.
    """
    return rescale_to_diameter_one(JacobiDecomposition(b, a).recompose())


def classify_collapse_symbolic(path: SymbolicSiegelPath) -> CollapseResult:
    """Limit of the rescaled tori along a monomial path.

    The ratios d_j / d_g converge to a_j (zero exactly when the exponent
    lags); with r zeros the limit is the tail of B_inf and a (see
    _collapse_tail).  With no diverging direction it is the rescaled torus
    of the limiting point.  Only the entries the limit reads must stay
    bounded.  The limit Gram is exact: its squared covering radius is
    rational.
    """
    exps = path._validate_d_ordering()
    g = path.g
    top = exps[g - 1]
    a = [
        path.d[j].coefficient / path.d[g - 1].coefficient if exps[j] == top else Fraction(0)
        for j in range(g)
    ]
    if top == 0:
        torus = rescale_to_diameter_one(metric_matrix(path._converging_point(g)))
        return CollapseResult(r=0, profile=tuple(a), limit=torus, collapsed=False)
    r = sum(1 for v in a if v == 0)
    torus = _collapse_tail(path._block_limit("B", r, g), a[r:])
    return CollapseResult(r=r, profile=tuple(a[r:]), limit=torus, collapsed=True)


def _settled(tail: Sequence[float], tol: float) -> bool:
    """Whether the values of tail agree within tol * max(1, the last one)."""
    return max(tail) - min(tail) <= tol * max(1.0, tail[-1])


def classify_collapse_numeric(
    samples: Sequence[SiegelPoint], tol: float = 1e-3, u=None
) -> CollapseResult:
    """Finite-sample version of the collapse classification.

    Requires at least 8 samples inside the fundamental set at slack u.
    Divergence of the top diagonal: strictly increasing over the last
    three samples and at least doubled overall; otherwise those three
    values must have settled within tol.  A direction is collapsed when
    its ratio tail is below tol and decreasing; any other ratio tail must
    have settled within tol.  An unsettled tail fails `oscillating-ratios`;
    a tol that is not a number in (0, inf) fails `positive-tolerance`.
    """
    tol = coerce_number(tol, "positive-tolerance", "tol must be a real number")
    if not 0 < tol <= sys.float_info.max:
        raise PreconditionError("positive-tolerance", f"tol must be finite and > 0, not {tol!r}")
    samples = list(samples)
    if len(samples) < 8:
        raise PreconditionError("sample-count", "need at least 8 sample points")
    g = samples[0].g
    if any(s.g != g for s in samples):
        raise PreconditionError("shape-match", "samples must share one genus")
    if u is None:
        u = default_u0(g)
    for idx, s in enumerate(samples):
        if not in_siegel_set(s, u):
            raise PreconditionError(
                "siegel-membership", f"sample {idx} is outside the fundamental set at u={u}"
            )
    decs = [jacobi_decompose(s.y) for s in samples]
    d_top = [float(dec.d[g - 1]) for dec in decs]
    ratios = {
        j + 1: tuple(float(dec.d[j]) / float(dec.d[g - 1]) for dec in decs)
        for j in range(g)
    }
    tail = d_top[-3:]
    diverging = tail[0] < tail[1] < tail[2] and d_top[-1] >= 2 * d_top[0]
    if not diverging and not _settled(tail, tol):
        raise PreconditionError(
            "oscillating-ratios",
            f"d_{g} neither diverges nor settles within tol; no limit classified",
        )
    collapsed_flags = [False] * g
    if diverging:
        for j in range(g):
            t3 = ratios[j + 1][-3:]
            if max(t3) < tol and t3[0] > t3[1] > t3[2]:
                collapsed_flags[j] = True
            elif not _settled(t3, tol):
                raise PreconditionError(
                    "oscillating-ratios",
                    f"ratio d_{j + 1}/d_{g} oscillates beyond tol; no subsequence classified",
                )
    r = sum(collapsed_flags)
    if any(collapsed_flags[r:]):
        raise PreconditionError(
            "oscillating-ratios", "collapsed directions are not an initial block"
        )
    report = NumericReport(
        d_top=tuple(d_top),
        ratios=ratios,
        collapsed_directions=tuple(j + 1 for j in range(g) if collapsed_flags[j]),
        diverging=diverging,
    )
    a = [0.0 if collapsed_flags[j] else ratios[j + 1][-1] for j in range(g)]
    if diverging:
        torus = _collapse_tail([row[r:] for row in decs[-1].b[r:]], a[r:])
    else:
        torus = rescale_to_diameter_one(metric_matrix(samples[-1]))
    return CollapseResult(
        r=r, profile=tuple(a[r:]), limit=torus, collapsed=diverging, report=report
    )


def fixed_volume_limit(path: SymbolicSiegelPath) -> LimitSpace:
    """Limit without rescaling: torus factor from the converging block.

    The first r diagonal directions (exponent zero) survive as a
    2r-dimensional polarized torus built from the limiting upper-left
    r x r blocks of X and B, the only entries that must stay bounded; each
    diverging direction contributes one flat R factor.
    """
    exps = path._validate_d_ordering()
    g = path.g
    r = sum(1 for e in exps if e == 0)
    if r == 0:
        return LimitSpace((), g, None)
    return LimitSpace((), g - r, FlatTorus(metric_matrix(path._converging_point(r))))


def fixed_injrad_limit(a: Sequence, r: int, u0=None) -> LimitSpace:
    """Circle factors with circumferences a_g / a_j, j > r, plus R^{g+r}.

    Only the split frame (X = 0, B = I) is covered.  The profile must
    satisfy the fundamental-set style constraints 1 < u0 a_1 and
    a_i < u0 a_{i+1}.
    Any float entry makes the whole profile float.
    """
    a, mode = coerce_vector(a, None, "a")
    g = len(a)
    if g == 0:
        raise PreconditionError("positive-genus", "profile must be nonempty")
    coerce_integer(r, "rank-range", "need 0 <= r < g", 0, g - 1)
    if u0 is None:
        u0 = default_u0(g)
    u0 = coerce_number(u0, "slack-range", "u0 must be a real number")
    if mode == "float" and u0 > sys.float_info.max:  # its products with a are doubles
        raise PreconditionError("slack-range", "u0 must lie in the double range for a float a")
    if not 1 < u0 * a[0]:
        raise PreconditionError("slack-range", "need 1 < u0 * a_1")
    for i in range(g - 1):
        if not a[i] < u0 * a[i + 1]:
            raise PreconditionError("slack-range", f"need a_{i + 1} < u0 * a_{i + 2}")
    circles = tuple(a[g - 1] / a[j] for j in range(r, g))
    return LimitSpace(circles, g + r, None)


def product_collapse_reduce(
    blocks: Sequence[Tuple[FlatTorus, Scalar]]
) -> FlatTorus:
    """Rescaled limit of a metric product whose factors blow up at
    different monomial rates: only the strictly dominant factor survives.
    Any float exponent makes all of them float.
    """
    blocks = matrix_rows(blocks, "factor-pair", "blocks must be (torus, exponent) pairs", cols=2)
    if not blocks:
        raise PreconditionError("nonempty-product", "no factors given")
    exps, _ = coerce_vector([e for _, e in blocks], None, "exponents")
    top = max(exps)
    winners = [i for i, e in enumerate(exps) if e == top]
    if len(winners) != 1:
        raise PreconditionError(
            "dominant-factor", "no strictly dominant factor; the limit mixes blocks"
        )
    return rescale_to_diameter_one(blocks[winners[0]][0])
