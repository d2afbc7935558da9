"""Dual complexes of boundary divisors, finite quotients, and hybrid limits.

The input is combinatorial: divisor ids 1..n and the collection of
nonempty intersections (strata).  The dual complex has one cell per
stratum; a finite group permuting divisors acts on it, and the quotient
is computed on the barycentric subdivision, where chains of strata have
pairwise distinct sizes so no cell is flipped onto itself.

A monomial path chart records the vanishing order of each divisor
equation along a one-parameter path.  Its hybrid limit is a barycentric
point on the cell of the path's support, and the coordinates depend on
the chosen gluing function: plain log gives mass proportional to the
exponents, iterated log washes the exponents out entirely.
"""

import enum
import math
import sys
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import PreconditionError, SchemaError
from .rationals import (
    as_integers, as_list, coerce_integer, coerce_number, coerce_vector, format_rational,
    matrix_rows, parse_integer, parse_object, parse_rows,
)


def downward_closure(sets: Iterable[Iterable[int]]) -> FrozenSet[FrozenSet[int]]:
    """All nonempty subsets of the given index sets."""
    out = set()
    for s in sets:
        s = frozenset(s)
        stack = [s]
        while stack:
            cur = stack.pop()
            if cur and cur not in out:
                out.add(cur)
                for x in cur:
                    stack.append(cur - {x})
    return frozenset(out)


class IncidenceComplex:
    """Divisors 1..n together with the subsets that actually intersect."""

    __slots__ = ("n", "strata")

    def __init__(self, n: int, strata: Iterable[Iterable[int]]):
        coerce_integer(n, "divisor-count", "n must be a positive integer", low=1)
        packed = set()
        for s in as_list(strata, "divisor-range", "strata must be an array of divisor id sets"):
            try:
                fs = frozenset(s)
            except TypeError:
                raise PreconditionError(
                    "divisor-range", f"stratum {s!r} is not a set of divisor ids in 1..{n}"
                )
            if not fs:
                raise PreconditionError("nonempty-stratum", "strata must be nonempty")
            for i in fs:
                coerce_integer(i, "divisor-range", f"divisor id {i!r} outside 1..{n}", 1, n)
            packed.add(fs)
        for s in packed:
            for x in s:
                if len(s) > 1 and (s - {x}) not in packed:
                    raise PreconditionError(
                        "downward-closure",
                        f"stratum {sorted(s)} present but {sorted(s - {x})} missing",
                    )
        self.n = n
        self.strata = frozenset(packed)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "strata": sorted(sorted(s) for s in self.strata),
        }

    @classmethod
    def from_json_dict(cls, obj, pointer: str = "") -> "IncidenceComplex":
        parse_object(obj, ("n", "strata"), pointer)
        n = parse_integer(obj["n"], pointer + "/n")
        return cls(n, parse_rows(obj["strata"], parse_integer, pointer + "/strata"))


class DualComplex:
    """Generalized cell complex: labeled cells by dimension with facet lists.

    A d-cell lists its d+1 facets (labels of (d-1)-cells); facets may
    repeat when the complex arises from a quotient.
    """

    __slots__ = ("cells", "facets")

    def __init__(self, cells: Dict[int, Sequence], facets: Dict[object, Sequence]):
        norm_cells = {}
        for d, labels in cells.items():
            if labels:
                norm_cells[d] = tuple(labels)
        level = {}
        for d, labels in norm_cells.items():
            for lab in labels:
                if lab in level:
                    raise PreconditionError("unique-cells", f"duplicate cell {lab!r}")
                level[lab] = d
        norm_facets = {}
        for d, labels in norm_cells.items():
            for lab in labels:
                fs = tuple(facets.get(lab, ()))
                if d == 0:
                    if fs:
                        raise PreconditionError(
                            "facet-count", "a vertex has no facets"
                        )
                else:
                    if len(fs) != d + 1:
                        raise PreconditionError(
                            "facet-count", f"{d}-cell {lab!r} needs {d + 1} facets"
                        )
                    for f in fs:
                        if level.get(f) != d - 1:
                            raise PreconditionError(
                                "facet-dimension",
                                f"facet {f!r} of {lab!r} is not a {d - 1}-cell",
                            )
                norm_facets[lab] = fs
        self.cells = norm_cells
        self.facets = norm_facets

    def dimension(self) -> int:
        return max(self.cells) if self.cells else -1

    def counts(self) -> Dict[int, int]:
        return {d: len(v) for d, v in sorted(self.cells.items())}

    def to_json_dict(self) -> dict:
        return {
            "counts": {str(d): c for d, c in self.counts().items()},
            "cells": {
                str(d): [
                    {
                        "label": _label_json(lab),
                        "facets": [_label_json(f) for f in self.facets[lab]],
                    }
                    for lab in labels
                ]
                for d, labels in sorted(self.cells.items())
            },
        }


def _label_json(label):
    if isinstance(label, tuple):
        return [_label_json(x) for x in label]
    return label


def dual_complex(inc: IncidenceComplex) -> DualComplex:
    """One (|S|-1)-cell per stratum S, facets by dropping one divisor."""
    cells: Dict[int, list] = {}
    facets = {}
    for s in sorted(inc.strata, key=lambda s: (len(s), sorted(s))):
        lab = tuple(sorted(s))
        d = len(s) - 1
        cells.setdefault(d, []).append(lab)
        if d > 0:
            facets[lab] = tuple(
                tuple(x for x in lab if x != drop) for drop in lab
            )
    return DualComplex(cells, facets)


class GroupAction:
    """Finite group of divisor permutations preserving the strata.

    Permutations are stored one-indexed: perm[i-1] is the image of
    divisor i.  The element list must contain the identity and be closed
    under composition and inverse; from_generators builds that closure.

    `generators` is a generating set picked greedily from the element
    list, in its order: each element not in the subgroup of those before
    it is kept.  Each kept one at least doubles that subgroup, so there
    are at most log2 |G| of them.  from_generators lists the caller's
    generators first, so those are the ones kept, less any redundant ones
    and the identity.  quotient_complex closes orbits under them.
    """

    __slots__ = ("complex", "elements", "generators")

    def __init__(self, inc: IncidenceComplex, elements: Iterable[Sequence[int]]):
        n = inc.n
        elems = []
        seen = set()
        for p in as_list(elements, "permutation", "elements must be an array of permutations"):
            t = _permutation(p, n)
            if t not in seen:
                seen.add(t)
                elems.append(t)
        ident = _identity(n)
        if ident not in seen:
            raise PreconditionError("group-identity", "identity permutation missing")
        # Grow the subgroup of generators picked greedily from the list;
        # each new one at least doubles it.  Its products all lie in the
        # list exactly when the list is closed under composition, and it
        # then holds every element.  A finite set of permutations closed
        # under composition holds the inverses too (p^-1 is a power of p).
        gens: List[Tuple[int, ...]] = []
        sub = {ident}
        for p in elems:
            if p in sub:
                continue
            gens.append(p)
            for nxt in _grow(sub, gens):
                if nxt not in seen:
                    raise PreconditionError(
                        "group-closure", "element set not closed under composition"
                    )
        # generators preserving the strata make every product do so
        for p in gens:
            for s in inc.strata:
                if frozenset(p[i - 1] for i in s) not in inc.strata:
                    raise PreconditionError(
                        "strata-preserving",
                        f"permutation {p!r} does not map stratum {sorted(s)} to a stratum",
                    )
        self.complex = inc
        self.elements = tuple(elems)
        self.generators = tuple(gens)

    @classmethod
    def trivial(cls, inc: IncidenceComplex) -> "GroupAction":
        return cls(inc, [_identity(inc.n)])

    @classmethod
    def from_generators(cls, inc: IncidenceComplex, generators: Iterable[Sequence[int]]) -> "GroupAction":
        """The group the generators generate: the generators first, in
        their order, then the rest of the closure sorted."""
        n = inc.n
        given = as_list(generators, "permutation", "generators must be an array of permutations")
        gens = [_permutation(g, n) for g in given]
        closure = {_identity(n)}
        for _ in _grow(closure, gens):
            if len(closure) >= 40320:  # 8! guard against huge groups
                raise PreconditionError(
                    "group-size", "group closure exceeds the supported size"
                )
        return cls(inc, gens + sorted(closure))


def _permutation(p, n: int) -> Tuple[int, ...]:
    """p as a tuple, if it is a permutation of 1..n by integer entries."""
    try:
        t = tuple(p)
        # the length first, so a huge n builds no list; True and 1.0 sort
        # and compare like 1, so the entries' type is checked too
        if len(t) == n and sorted(t) == list(range(1, n + 1)) and all(type(x) is int for x in t):
            return t
    except TypeError:  # p is not iterable, or an entry does not compare with integers
        pass
    raise PreconditionError("permutation", f"{p!r} is not a permutation of 1..{n}")


def _identity(n: int) -> Tuple[int, ...]:
    """The identity of 1..n, listed entry by entry as every element of an
    action is; an n longer than any sequence fails before one is built."""
    if n > sys.maxsize:
        raise PreconditionError(
            "permutation-degree",
            f"an action lists its elements as permutations of 1..n, so n must be <= {sys.maxsize}",
        )
    return tuple(range(1, n + 1))


def _grow(group: set, gens: Sequence[Tuple[int, ...]]) -> Iterator[Tuple[int, ...]]:
    """Grow the permutation group `group` in place into the group it
    generates together with gens, yielding each new element before it is
    added."""
    frontier = list(group)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = _perm_compose(g, cur)
            if nxt not in group:
                yield nxt
                group.add(nxt)
                frontier.append(nxt)


def _perm_compose(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """(p after q): i -> p[q[i]]."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def quotient_complex(c: DualComplex, a: GroupAction) -> DualComplex:
    """Barycentric subdivision of c with chain cells identified along orbits.

    Cells of c must be stratum labels (as produced by dual_complex) so
    the divisor permutations act on them.  Chains of strata have strictly
    increasing sizes, hence a group element fixing a chain fixes it
    pointwise and the orbit complex is again a well-formed cell complex.

    Chains compare by the sorted keys of their strata, and each orbit is
    labelled by its least member, the representative.  The least chain of
    an orbit has the least prefix of its orbit (a smaller image of the
    prefix would extend to a smaller image of the chain), so the
    representatives of one dimension are among the extensions of those of
    the dimension below, and only those are built.  Walked in sorted
    order, they meet each orbit first at its least member.  Its label
    goes to the whole orbit at once, found by closing the representative
    under the action's generators, and a cell's facets are then the
    labels of its representative's subchains, looked up.  The cost is
    |chains| x |generators| image tuples, not |orbits| x |G|.
    """
    what = "quotients apply to stratum-labeled complexes from dual_complex"
    strata = []
    for d, labels in c.cells.items():
        for lab in labels:
            if not isinstance(lab, tuple):
                raise PreconditionError("stratum-cells", what)
            for x in lab:
                coerce_integer(x, "stratum-cells", what)
            if len(lab) != d + 1:
                raise PreconditionError("stratum-cells", "label size must match dimension")
            strata.append(lab)
    own = {frozenset(lab) for lab in strata}
    if own != a.complex.strata:
        raise PreconditionError(
            "matching-strata", "the action was built on a different incidence complex"
        )

    # strata as ranks in the order of (size, sorted ids): chains then
    # compare as rank tuples exactly as they do by the keys of their strata
    ordered = sorted(own, key=lambda s: (len(s), sorted(s)))
    names = [tuple(sorted(s)) for s in ordered]
    rank = {s: r for r, s in enumerate(ordered)}
    above = [[rank[t] for t in ordered if s < t] for s in ordered]
    # the image of every stratum under each generator, as ranks
    moves = [
        [rank[frozenset(p[i - 1] for i in s)] for s in ordered] for p in a.generators
    ]
    cells: Dict[int, list] = {}
    facets: Dict[object, tuple] = {}
    label = {}
    # chains of strictly nested strata, one (len-1)-cell each.  Extending
    # sorted representatives by the ranks above their tops, in increasing
    # order, lists the next dimension's candidates sorted too.
    level = [(r,) for r in range(len(ordered))]
    d = 0
    while level:
        labels = []
        reps = []
        for ch in level:
            if ch in label:
                continue
            # the first chain met of an orbit is its least member: it
            # labels the orbit, which grows as it is walked
            lab = tuple([names[r] for r in ch])
            label[ch] = lab
            orbit = [ch]
            for cur in orbit:
                for m in moves:
                    img = tuple([m[r] for r in cur])
                    if img not in label:
                        label[img] = lab
                        orbit.append(img)
            reps.append(ch)
            labels.append(lab)
            if d > 0:
                facets[lab] = tuple(label[ch[:i] + ch[i + 1 :]] for i in range(len(ch)))
        cells[d] = labels
        level = [ch + (t,) for ch in reps for t in above[ch[-1]]]
        d += 1
    return DualComplex(cells, facets)


class GluingFunction(enum.Enum):
    """Scale used to read off boundary coordinates from a shrinking path."""

    LOG = "log"
    LOGLOG = "loglog"

    @classmethod
    def from_string(cls, text: str) -> "GluingFunction":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise SchemaError(
                f"unknown gluing function {text!r}; expected 'log' or 'loglog'",
                "/gluing",
            )

    def evaluate(self, z: float) -> float:
        """Divergence scale at |z| = z, for 0 < z < 1."""
        if not 0.0 < coerce_number(z, "unit-disc", "z must be a real number") < 1.0:
            raise PreconditionError("unit-disc", "gluing functions read 0 < |z| < 1")
        if self is GluingFunction.LOG:
            return -math.log(z)
        return math.log(-math.log(z))

    def weights(self, orders: Sequence) -> Tuple[Fraction, ...]:
        """Projective weights, summing to 1, of divergence orders m_i > 0.

        Log weighs each order by its share m_i / sum m; LogLog sees every
        scale log(m_i L) ~ log L and weighs them uniformly.
        """
        # the orders over one denominator, so each test and share is on ints
        nums, _ = as_integers(coerce_vector(orders, "exact", "orders")[0])
        for i, m in enumerate(nums):
            if m <= 0:
                raise PreconditionError("positive-order", f"orders[{i}] must be > 0")
        if self is GluingFunction.LOG:
            total = sum(nums)
            return tuple(Fraction(m, total) for m in nums)
        return tuple(Fraction(1, len(nums)) for _ in nums)


class _MonomialPathChartFields(NamedTuple):
    complex: IncidenceComplex
    exponents: Tuple[Fraction, ...]


class MonomialPathChart(_MonomialPathChartFields):
    """Vanishing orders m_i >= 0 of each divisor equation along a path.

    The support {i : m_i > 0} must be a stratum: the path lands on the
    corresponding cell.  All-zero exponents describe a path staying in
    the interior; hybrid_limit rejects it.
    """

    __slots__ = ()

    def __new__(cls, complex: IncidenceComplex, exponents: Sequence):
        given = as_list(exponents, "exact-exponents", "exponents must be an array")
        exps, _ = coerce_vector(given, "exact", "exponents")
        for i, m in enumerate(exps):
            if m < 0:
                raise PreconditionError("nonnegative-exponents", f"exponent {i + 1} is negative")
        if len(exps) != complex.n:
            raise PreconditionError(
                "exponent-count", f"expected {complex.n} exponents, got {len(exps)}"
            )
        support = frozenset(i + 1 for i, m in enumerate(exps) if m > 0)
        if support and support not in complex.strata:
            raise PreconditionError(
                "support-stratum",
                f"support {sorted(support)} is not a stratum of the complex",
            )
        return tuple.__new__(cls, (complex, tuple(exps)))

    def support(self) -> Tuple[int, ...]:
        return tuple(i + 1 for i, m in enumerate(self.exponents) if m > 0)


class HybridLimit(NamedTuple):
    """Barycentric point on the cell of the support divisors."""

    support: Tuple[int, ...]
    coordinates: Tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "support": list(self.support),
            "coords": [format_rational(c) for c in self.coordinates],
        }


def hybrid_limit(path: MonomialPathChart, f: GluingFunction) -> HybridLimit:
    """Limit coordinates of the path on its support cell.

    The coordinates are the gluing function's weights of the exponents
    on the support (GluingFunction.weights).
    """
    support = path.support()
    if not support:
        raise PreconditionError(
            "boundary-approach", "path does not approach the boundary"
        )
    return HybridLimit(support, f.weights([path.exponents[i - 1] for i in support]))


class Tropicalization(NamedTuple):
    """Componentwise -log|z| images and, when stable, their ray direction."""

    vectors: Tuple[Tuple[float, ...], ...]
    direction: Optional[Tuple[float, ...]]

    def to_json_dict(self) -> dict:
        return {
            "vectors": [list(v) for v in self.vectors],
            "direction": None if self.direction is None else list(self.direction),
        }


def tropicalize(points: Sequence[Sequence[complex]], tol: float = 1e-6) -> Tropicalization:
    """Map torus points by -log|coordinate| and detect a limit direction.

    The direction (a point of the sphere of rays) is reported when the
    vectors blow up, the last three norms strictly increase with the
    final norm at least twice the first sample's, and the normalized
    tail has settled to within tol in the max norm, which must be finite
    and > 0.  Each coordinate must be nonzero with -log|z| finite.
    """
    if not 0 < coerce_number(tol, "positive-tolerance", "tol must be a real number") < math.inf:
        raise PreconditionError(
            "positive-tolerance", f"tol must be finite and > 0, not {tol!r}"
        )
    points = as_list(points, "sample-count", "points must be an array of points")
    if not points:
        raise PreconditionError("sample-count", "need at least one point")
    vectors = []
    width = None
    for k, p in enumerate(points):
        coords = as_list(p, "coordinate-count", "each point must be an array of coordinates")
        if width is None:
            width = len(coords)
        if len(coords) != width or width == 0:
            raise PreconditionError(
                "coordinate-count", "points must share a positive dimension"
            )
        v = []
        for i, z in enumerate(coords):
            try:
                az = abs(coerce_number(z, "numeric-entries", "coordinates must be numbers", True))
            except OverflowError:  # a complex z whose modulus has no double
                az = math.inf
            if az == 0:
                raise PreconditionError(
                    "nonzero-coordinates", f"point {k} has a zero coordinate {i}"
                )
            x = -math.log(az)
            if not math.isfinite(x):
                raise PreconditionError("finite", f"point {k} has |z| = {az!r} at coordinate {i}")
            v.append(x)
        vectors.append(tuple(v))

    direction = None
    if len(vectors) >= 3:
        norms = [math.sqrt(sum(x * x for x in v)) for v in vectors]
        tail = norms[-3:]
        if (
            tail[0] < tail[1] < tail[2]
            and norms[0] > 0
            and tail[2] >= 2 * norms[0]
        ):
            units = [
                tuple(x / n for x in v)
                for v, n in zip(vectors[-3:], tail)
            ]
            # the largest |u_a[i] - u_b[i]| over pairs is max - min of column i
            spread = max(max(col) - min(col) for col in zip(*units))
            if spread <= tol:
                direction = units[-1]
    return Tropicalization(tuple(vectors), direction)


def pushforward_map(m: Sequence[Sequence[int]], x: Sequence) -> Tuple[Fraction, ...]:
    """Barycentric image of x under the monomial exponent matrix m.

    Rows index target divisors, columns source divisors.  Coordinates
    mapping to nothing are dropped and the rest renormalized; if the
    whole support is killed the image path never reaches the boundary
    and the map is undefined there.
    """
    coords, _ = coerce_vector(x, "exact", "coordinates")
    for i, c in enumerate(coords):
        if c < 0:
            raise PreconditionError("barycentric-coordinates", f"coordinate {i} is negative")
    if sum(coords) != 1:
        raise PreconditionError("barycentric-coordinates", "coordinates must sum to 1")
    what = "the matrix must be a nonempty array of rows, one entry per coordinate"
    rows = matrix_rows(m, "matrix-shape", what, cols=len(coords))
    if not rows:
        raise PreconditionError("matrix-shape", what)
    for r in rows:
        for v in r:
            coerce_integer(v, "nonnegative-integer-matrix", "entries must be integers >= 0", low=0)
    y = [sum(Fraction(r[j]) * coords[j] for j in range(len(coords))) for r in rows]
    total = sum(y)
    if total == 0:
        raise PreconditionError(
            "positive-column",
            "zero columns over the whole support: the image stays off the boundary",
        )
    return tuple(v / total for v in y)
