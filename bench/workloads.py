"""The four workloads: inputs drawn from the seed, calls, and their checks.

Each workload is a fixed call list, one "pass".  `generate(workload, seed,
k)` draws the plain data of pass k (lists of Fractions and JSON documents)
without touching troplab; calls.build turns it into calls through the
program's constructors and JSON codecs.

What a call costs is fixed by the workload, not by the seed: the lattices,
the conjugating matrices, graph shapes and path exponents come from one
`structure` stream that is the same in every run.  The seed and the pass
index draw what changes every input but not the work: sign changes of
basis vectors, scale factors (distinct in every pass), vertex labels and
edge order, coefficients.  So no two calls of a run see the same input,
and two seeds give figures that compare.  The two calls that fail today
(see README.md) take their inputs from the pass index alone.
"""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracles as O

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact-lattice", "degenerations", "sampled-float", "cli-cold")


def jnum(x):
    """Fraction to its JSON encoding: int, or a "p/q" string; floats stay."""
    if isinstance(x, float):
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def jmat(m):
    return [[jnum(x) for x in row] for row in m]


def form_doc(m, mode="exact"):
    return {"n": len(m), "mode": mode, "entries": jmat(m)}


def lattice(kind, n):
    return O.LATTICES[kind](n)


def conj(rng, m, steps=None, spread=1):
    u = O.random_unimodular(rng, len(m), steps if steps is not None else len(m), spread)
    return O.conjugate(m, u)


def flip(rng, m):
    """D m D for a random diagonal D of signs: a new basis, the same work."""
    s = [rng.choice((-1, 1)) for _ in m]
    return [[s[i] * s[j] * x for j, x in enumerate(row)] for i, row in enumerate(m)]


def pass_scale(rng, k):
    """A scale factor that differs between any two passes of a run."""
    return 10 * k + rng.randint(1, 9)


def relabel(rng, m):
    p = list(range(len(m)))
    rng.shuffle(p)
    return O.conjugate(m, O.permutation_matrix(p))


def to_float(m):
    return [[float(x) for x in row] for row in m]


# -- exact-lattice -----------------------------------------------------------------

LLL_SET = ([("A", n) for n in (2, 3, 4, 5, 6, 8, 12)] + [("D", n) for n in (4, 5, 6, 8)]
           + [("E", 6), ("E", 7), ("E", 8)] + [("Z", n) for n in (2, 3, 4, 6, 8)])
EQUIV_SET = ([("A", n) for n in (2, 3, 4, 5, 6)] + [("D", n) for n in (4, 5, 6)]
             + [("E", 6), ("E", 7)] + [("Z", n) for n in (2, 4, 6)])
# certainly inequivalent: A3 and Z^2 + [4] share det 4 but not the minimum;
# the other pairs differ in det.  Same-det pairs in higher dimensions send
# the witness search into minutes of backtracking, so they are left out.
INEQUIV_SET = [(("A", 3), None), (("A", 5), ("D", 5)), (("E", 6), ("A", 6)),
               (("E", 8), ("D", 8))]
COVER_DIMS = (2, 3, 4, 5, 6, 8, 10, 12)
SIEGEL_GENERA = (1, 1, 2, 2, 3, 3, 4, 4)


def _lattice_pair_z(kind, n):
    """Z^(n-1) + [det L]: same determinant as L, minimum 1."""
    d = O.det(lattice(kind, n))
    return O.block_diag([O.z_n(n - 1), [[d]]])


def _siegel_point(rng, g):
    """A point of the fundamental set moved by GL(g, Z) and a translation."""
    b = [[Fraction(int(i == j)) if j <= i else Fraction(rng.randint(-2, 2), 4)
          for j in range(g)] for i in range(g)]  # unit upper triangular
    d = [Fraction(rng.randint(4, 12), 4) for _ in range(g)]
    dm = [[d[i] if i == j else 0 for j in range(g)] for i in range(g)]
    y0 = O.mat_mul(O.transpose(b), O.mat_mul(dm, b))
    x0 = [[Fraction(0)] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            x0[i][j] = x0[j][i] = Fraction(rng.randint(-4, 4), 8)
    if g == 1 and rng.random() < 0.5:
        # z -> -1/z takes the point far below the fundamental domain
        x, y = x0[0][0], y0[0][0]
        nrm = x * x + y * y
        x0, y0 = [[-x / nrm]], [[y / nrm]]
    u = O.random_unimodular(rng, g, g + 1)
    y = O.conjugate(y0, u)
    x = O.conjugate(x0, u)
    for i in range(g):
        for j in range(i, g):
            s = rng.randint(-3, 3)
            x[i][j] += s
            if i != j:
                x[j][i] += s
    return x, y


def gen_exact_lattice(base, rng, k):
    specs = []
    for kind, n in LLL_SET:
        c = pass_scale(rng, k)
        f = O.scaled(flip(rng, conj(base, lattice(kind, n))), c)
        specs.append(("lll", {"f": f, "mode": "exact"}))
        g = O.scaled(flip(rng, conj(base, lattice(kind, n))), c)
        specs.append(("sv", {"f": g, "min": c * O.minimum(kind)}))
    for kind, n in EQUIV_SET:
        lat = lattice(kind, n)
        c = pass_scale(rng, k)
        specs.append(("equiv", {"f1": O.scaled(flip(rng, conj(base, lat)), c),
                                "f2": O.scaled(flip(rng, conj(base, lat)), c), "same": True}))
        specs.append(("homothetic", {"f1": flip(rng, conj(base, lat)),
                                     "f2": O.scaled(flip(rng, conj(base, lat)), c), "c": c}))
    for (kind, n), other in INEQUIV_SET:
        f2 = _lattice_pair_z(kind, n) if other is None else lattice(*other)
        c = pass_scale(rng, k)
        specs.append(("equiv", {"f1": O.scaled(flip(rng, conj(base, lattice(kind, n))), c),
                                "f2": O.scaled(flip(rng, conj(base, f2)), c), "same": False}))
    # det ratio 5/4 is no 4th power: never homothetic
    specs.append(("homothetic", {"f1": flip(rng, conj(base, O.d_n(4))),
                                 "f2": O.scaled(flip(rng, conj(base, O.a_n(4))), pass_scale(rng, k)),
                                 "c": None}))
    for n in COVER_DIMS:
        blocks, musq = [], Fraction(0)
        left = n
        while left:
            size = 1 if left == 1 else base.choice((1, 2, 2))
            c = Fraction(pass_scale(rng, k), rng.randint(1, 3))
            if size == 1:
                blocks.append([[c]])
                musq += c / 4
            else:
                kind = base.choice(("A", "Z"))
                blocks.append(O.scaled(flip(rng, conj(base, lattice(kind, 2), 3, 2)), c))
                musq += c * O.covering_radius_sq(kind, 2)
            left -= size
        specs.append(("cover", {"f": relabel(base, O.block_diag(blocks)), "musq": musq}))
    for g in SIEGEL_GENERA:
        x, y = _siegel_point(rng, g)
        specs.append(("siegel", {"x": x, "y": y}))
    # known fault: the det ratio 1 + 10^-9 is no rational square, so the
    # forms are certainly not homothetic; today a float tolerance says they are
    s = k + 1
    f2 = [[s, 0], [0, s * Fraction(10**9 + 1, 10**9)]]
    assert not O.is_rational_power(O.det(f2) / (s * s), 2)
    specs.append(("homothetic", {"f1": [[s, 0], [0, s]], "f2": f2, "c": None, "fault": True}))
    return specs


# -- degenerations -----------------------------------------------------------------

GRAPHS = {
    "loop": O.loop_graph, "C3": lambda: O.cycle_graph(3), "theta": O.theta_graph,
    "dumbbell": O.dumbbell_graph, "banana4": lambda: ([0, 1], [(0, 1)] * 4),
    "K4": lambda: O.complete_graph(4), "K5": lambda: O.complete_graph(5),
    "K6": lambda: O.complete_graph(6), "petersen": O.petersen_graph, "cube": O.cube_graph,
    "K33": lambda: O.complete_bipartite_graph(3, 3), "prism": lambda: O.prism_graph(3),
    "W5": lambda: O.wheel_graph(5), "W6": lambda: O.wheel_graph(6),
}
# graphs of the metric and hybrid limits: the diameter search is the work.
# Eight of them, so that the tail percentile falls among several calls of
# like cost rather than on one
LIMIT_GRAPHS = ("K5", "K6", "petersen", "cube", "K33", "prism", "W5", "W6")
# the unit-length K4 Jacobian in troplab's cycle basis
K4_JACOBIAN = [[3, 1, -1], [1, 3, 1], [-1, 1, 3]]
# mu^2 of the unit-length Jacobian, by the lattice it is isometric to
JACOBIAN_MU_SQ = {"theta": O.covering_radius_sq("A", 2), "dumbbell": O.covering_radius_sq("Z", 2),
                  "banana4": O.covering_radius_sq("A", 3), "K4": O.K4_JACOBIAN_MU_SQ}


def graph_doc(rng, name, multiplicities=None):
    """Curve-family JSON; with an rng, relabeled vertices and shuffled edges.

    Labels and edge order pick the spanning tree, hence the cycle basis, so
    they are kept fixed (rng None) where a covering radius follows.
    """
    verts, edges = GRAPHS[name]()
    ids = list(range(len(verts)))
    order = list(range(len(edges)))
    if rng is not None:
        rng.shuffle(ids)
        rng.shuffle(order)
    label = {v: f"v{ids[i]}" for i, v in enumerate(verts)}
    es = []
    for e in order:
        u, v = edges[e]
        if rng is not None and rng.random() < 0.5:
            u, v = v, u
        es.append((label[u], label[v]))
    if multiplicities is None:
        multiplicities = [rng.randint(1, 9) for _ in es]
    else:
        multiplicities = [multiplicities[e] for e in order]
    return {"graph": {"vertices": [{"id": label[v], "w": 0} for v in verts],
                      "edges": [{"u": u, "v": v} for u, v in es]},
            "multiplicities": multiplicities}


def _torelli_spec(base, name, scale, labels, equal=False, mult=None, fault=False):
    """A curve family, the expected `continuous`, and det of the GH side.

    The multiplicity pattern is `mult` or drawn from `base`, then scaled;
    `labels` (an rng, or None to keep them) relabels the graph.
    """
    verts, edges = GRAPHS[name]()
    g = O.betti(verts, edges)
    det1 = O.jacobian_det(verts, edges, [1] * len(edges))
    while True:
        if mult is not None:
            m = mult
        else:
            m = [1] * len(edges) if equal else [base.randint(1, 9) for _ in edges]
        ratio = O.jacobian_det(verts, edges, m) / det1
        if g == 1 or len(set(m)) == 1:
            continuous = True
        elif not O.is_rational_power(ratio, g):
            continuous = False
        else:
            assert mult is None
            continue  # undecided by the determinant: draw again
        break
    doc = graph_doc(labels, name, [scale * v for v in m])
    # GH side: unit-length Jacobian over its mu^2; det by Kirchhoff
    gh_det = Fraction(4) if g == 1 else det1 / JACOBIAN_MU_SQ[name] ** g
    return ("torelli", {"doc": doc, "continuous": continuous, "gh_det": gh_det, "fault": fault})


def _monomial(c, e=0):
    return {"c": jnum(c), "e": jnum(e)}


def _symbolic_path(base, g, r, scale):
    """Diagonal growth with r lagging directions; frame bounded, X bounded.

    The path comes from `base`; `scale` multiplies D.  Rows of B below r
    decay, so the limit block is diag(a_r, ..., a_g).
    """
    top = base.randint(1, 3)
    exps = sorted(base.randint(0, top - 1) for _ in range(r)) + [top] * (g - r)
    cs = [scale * Fraction(base.randint(1, 8), base.randint(1, 4)) for _ in range(g)]
    x = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            x[i][j] = x[j][i] = _monomial(Fraction(base.randint(-3, 3), 4), -base.randint(0, 2))
    b = [[_monomial(1) if i == j else _monomial(0) for j in range(g)] for i in range(g)]
    for i in range(g):
        for j in range(i + 1, g):
            c = Fraction(base.randint(-2, 2), 3)
            b[i][j] = _monomial(c, 0 if i < r else -base.randint(1, 2))
    d = [_monomial(c, e) for c, e in zip(cs, exps)]
    return {"g": g, "X": x, "B": b, "D": d}, cs, exps


def _limit_of(m):
    """Value at s -> infinity of a bounded monomial document."""
    c, e = Fraction(m["c"]), Fraction(m["e"])
    return c if e == 0 or c == 0 else Fraction(0)


def _metric_matrix(x, y):
    yi = O.inverse(y)
    tr = O.mat_mul(yi, x)
    bl = O.mat_mul(x, yi)
    br = [[p + q for p, q in zip(r1, r2)] for r1, r2 in zip(O.mat_mul(x, tr), y)]
    return [a + b for a, b in zip(yi, tr)] + [a + b for a, b in zip(bl, br)]


def _diag_limit_gram(a):
    """diag(a) rescaled to diameter one: mu^2 of an orthogonal sum is sum a/4."""
    musq = sum(a) / 4
    return [[a[i] / musq if i == j else 0 * a[i] for j in range(len(a))] for i in range(len(a))]


SIMPLEX_ACTIONS = (("C", 5), ("S", 5), ("C", 6))


def gen_degenerations(base, rng, k):
    specs = []
    c = pass_scale(rng, k)
    for name in ("loop", "C3"):
        specs.append(_torelli_spec(base, name, c, rng))
    for name in ("theta", "dumbbell"):
        specs.append(_torelli_spec(base, name, c, rng, equal=True))
        specs.append(_torelli_spec(base, name, c, rng))
    # genus 3 keeps its labels: they pick the cycle basis, and with it the
    # work of the covering-radius search
    specs.append(_torelli_spec(base, "banana4", c, None, mult=[1, 2, 3, 5]))
    specs.append(_torelli_spec(base, "K4", c, None, equal=True))
    # known fault: the det ratio of the two exact Jacobians is no rational
    # cube, so the limits differ; today a float tolerance calls them equal
    specs.append(_torelli_spec(base, "K4", k + 1, None, mult=[10**7] * 5 + [10**7 + 1],
                               fault=True))
    # D4 (2.5 s here) is left out: one call that long leaves too few passes
    # in a run
    for kind, n in (("Z", 1), ("A", 2), ("Z", 2), ("A", 3), ("K4", 3), ("A", 4)):
        c = pass_scale(rng, k)
        if kind == "K4":
            lat, musq = K4_JACOBIAN, O.K4_JACOBIAN_MU_SQ
        else:
            lat, musq = lattice(kind, n), O.covering_radius_sq(kind, n)
        # the covering-radius search of n >= 3 is scale-invariant work
        m = O.scaled(flip(rng, conj(base, lat)) if n <= 2 else lat, c)
        specs.append(("av_limit", {"m": m, "gram": O.scaled(m, 1 / (c * musq))}))
    for name in LIMIT_GRAPHS:
        doc = graph_doc(rng, name)
        verts, edges = GRAPHS[name]()
        specs.append(("gh_limit", {"doc": doc, "len": 1 / O.metric_diameter_unit(verts, edges)}))
        for gluing in ("log", "loglog"):
            doc = graph_doc(rng, name)
            m = doc["multiplicities"]
            lens = ([Fraction(v, sum(m)) for v in m] if gluing == "log"
                    else [Fraction(1, len(m))] * len(m))
            specs.append(("hybrid_graph", {"doc": doc, "gluing": gluing, "len": lens}))
    # two distinct paths per (g, r), so that the median falls among many
    # symbolic collapses
    for g in (2, 3, 4):
        for r in (0, 1, g - 1) * 2:
            doc, cs, exps = _symbolic_path(base, g, r, pass_scale(rng, k))
            a = [cs[j] / cs[-1] if exps[j] == exps[-1] else Fraction(0) for j in range(g)]
            specs.append(("collapse_sym", {"doc": doc, "r": r, "profile": a[r:],
                                           "gram": _diag_limit_gram(a[r:])}))
        r = base.randint(1, g - 1)
        doc, cs, exps = _symbolic_path(base, g, g, pass_scale(rng, k))
        for j in range(r, g):
            doc["D"][j]["e"] = jnum(base.randint(1, 2) + j)
        for i in range(r):
            for j in range(r, g):
                doc["B"][i][j]["e"] = -1
        doc["D"][:r] = [_monomial(cs[j], 0) for j in range(r)]
        xb = [[_limit_of(doc["X"][i][j]) for j in range(r)] for i in range(r)]
        bb = [[_limit_of(doc["B"][i][j]) for j in range(r)] for i in range(r)]
        dm = [[cs[i] if i == j else 0 for j in range(r)] for i in range(r)]
        yb = O.mat_mul(O.transpose(bb), O.mat_mul(dm, bb))
        specs.append(("volume", {"doc": doc, "rank": g - r, "gram": _metric_matrix(xb, yb)}))
        a = [Fraction(pass_scale(rng, k))]
        for _ in range(g - 1):
            a.append(a[-1] * Fraction(base.randint(2, 5), base.randint(1, 4)))
        r = base.randint(0, g - 1)
        specs.append(("injrad", {"a": a, "r": r, "u0": 8,
                                 "circles": [a[-1] / a[j] for j in range(r, g)]}))
    for kind, n in SIMPLEX_ACTIONS:
        p = list(range(1, n + 1))
        rng.shuffle(p)
        inv = {v: i + 1 for i, v in enumerate(p)}

        def conj_perm(q):
            # p o q o p^-1 on 1..n
            return [p[q[inv[i] - 1] - 1] for i in range(1, n + 1)]

        rot = list(range(2, n + 1)) + [1]
        gens = [rot] if kind == "C" else [rot, [2, 1] + list(range(3, n + 1))]
        strata = [list(s) for d in range(1, n + 1)
                  for s in itertools.combinations(range(1, n + 1), d)]
        rng.shuffle(strata)
        specs.append(("quotient", {
            "inc": {"n": n, "strata": strata},
            "gens": [conj_perm(q) for q in gens],
            "order": n if kind == "C" else math.factorial(n),
            "cells": O.simplex_cells(n),
            "quotient": O.cyclic_quotient_cells(n) if kind == "C" else O.simplex_cells(n),
        }))
    return specs


# -- sampled-float -------------------------------------------------------------------

FLOAT_LLL_SET = ([("A", n) for n in (3, 5, 8, 12)] + [("D", n) for n in (4, 6, 10)]
                 + [("E", 7), ("E", 8)] + [("Z", n) for n in (4, 8)])
FLOAT_EQUIV_SET = [("A", 3), ("A", 5), ("D", 4), ("D", 6), ("E", 6), ("Z", 4)]


def _numeric_samples(base, rng, g):
    """Ten float points of a diagonal path from base, at parameters from rng."""
    r = base.randint(0, g - 1)
    top = base.randint(1, 2)
    exps = [base.randint(0, top - 1) for _ in range(r)] + [top] * (g - r)
    exps[:r] = sorted(exps[:r])
    cs = [1 + base.randint(0, 8) / 8 for _ in range(g)]
    x = [[0.0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            x[i][j] = x[j][i] = base.randint(-3, 3) / 8
    s0 = 1 + rng.random()
    samples = []
    for t in range(10):
        s = s0 * 4.0**t
        y = [[cs[i] * s ** exps[i] if i == j else 0.0 for j in range(g)] for i in range(g)]
        samples.append({"g": g, "mode": "float", "X": x, "Y": y})
    a = [cs[j] / cs[-1] if exps[j] == top else 0.0 for j in range(g)]
    musq = sum(a[r:]) / 4
    gram = [[a[r + i] / musq if i == j else 0.0 for j in range(g - r)] for i in range(g - r)]
    return samples, r, a[r:], gram


def gen_sampled_float(base, rng, k):
    per_pass = random.Random(f"sampled-float:pass:{k}")
    specs = []
    for kind, n, ts in (("A", 2, 3), ("Z", 2, 3), ("A", 3, 3), ("K4", 3, 2), ("A2A2", 4, 3),
                        ("Z", 4, 3)):
        if kind == "K4":
            lat, musq = K4_JACOBIAN, O.K4_JACOBIAN_MU_SQ
        elif kind == "A2A2":
            lat = O.block_diag([conj(base, O.a_n(2)), conj(base, O.a_n(2))])
            musq = 2 * O.covering_radius_sq("A", 2)
        else:
            lat, musq = lattice(kind, n), O.covering_radius_sq(kind, n)
        # the float covering-radius search does not do the same work at
        # every scale, so scale and t follow the pass, not the seed
        c = k + 1
        m = O.scaled(flip(rng, conj(base, lat)) if n <= 2 else lat, c)
        t = [10.0 ** -per_pass.uniform(2, 12) for _ in range(ts)]
        specs.append(("av_oracle", {"m": m, "t": t, "gram": to_float(O.scaled(m, 1 / (c * musq)))}))
    for g in (2, 2, 3, 3, 4, 4):
        samples, r, profile, gram = _numeric_samples(base, rng, g)
        specs.append(("collapse_num", {"samples": samples, "r": r, "profile": profile,
                                       "gram": gram}))
    for kind, n in FLOAT_LLL_SET:
        c = float(pass_scale(rng, k))
        f = to_float(O.scaled(flip(rng, conj(base, lattice(kind, n))), c))
        specs.append(("lll", {"f": f, "mode": "float"}))
    for kind, n in FLOAT_EQUIV_SET:
        lat = lattice(kind, n)
        specs.append(("equiv_tol", {"f1": to_float(flip(rng, conj(base, lat))),
                                    "f2": to_float(flip(rng, conj(base, lat))), "tol": 1e-6}))
    c_star = 0.5
    for _ in range(24):
        # |t| sets the quadrature's work; the phase changes only the input
        t = 10.0 ** -base.uniform(1.3, 14)
        phase = rng.uniform(0, 2 * math.pi)
        t = complex(t * math.cos(phase), t * math.sin(phase))
        specs.append(("collar", {"t": t, "c_star": c_star,
                                 "length": O.collar_length(t, c_star)}))
    for _ in range(6):
        dim = base.randint(2, 4)
        diverge = base.random() < 0.7
        m = [base.randint(1, 4) for _ in range(dim)]
        phases = [rng.uniform(0, 2 * math.pi) for _ in range(dim)]
        pts = []
        for step in range(6):
            t = 2.0 ** -(step + 1) if diverge else 0.5 + 0.01 * step
            pts.append([complex(math.cos(ph), math.sin(ph)) * t ** mi for ph, mi in zip(phases, m)])
        norm = math.sqrt(sum(v * v for v in m))
        specs.append(("tropicalize", {
            "points": pts, "vectors": [[-math.log(abs(z)) for z in p] for p in pts],
            "direction": [v / norm for v in m] if diverge else None}))
    return specs


# -- cli-cold ----------------------------------------------------------------------

CLI_EXAMPLES = HERE / "cli_examples.json"


def _shuffled(rng, doc):
    """The same JSON value with object keys in a random order."""
    if isinstance(doc, dict):
        keys = list(doc)
        rng.shuffle(keys)
        return {k: _shuffled(rng, doc[k]) for k in keys}
    if isinstance(doc, list):
        return [_shuffled(rng, v) for v in doc]
    return doc


def gen_cli_cold(base, rng, k):
    examples = json.loads(CLI_EXAMPLES.read_text())
    specs = []
    for i, ex in enumerate(examples):
        text = json.dumps(_shuffled(rng, ex["input"]), indent=rng.choice((None, 1, 2, 4)))
        specs.append(("cli", {"command": ex["command"], "stdin": text,
                              "seed": rng.randrange(10**9), "expected": ex["output"],
                              "tol": 1e-6}))
    return specs


GENERATORS = {
    "exact-lattice": gen_exact_lattice,
    "degenerations": gen_degenerations,
    "sampled-float": gen_sampled_float,
    "cli-cold": gen_cli_cold,
}


def generate(workload, seed, k):
    base = random.Random(f"{workload}:structure")
    rng = random.Random(f"{workload}:{seed}:{k}")
    return GENERATORS[workload](base, rng, k)
