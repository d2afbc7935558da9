"""Turn generated specs into timed calls and check their results.

`build(specs, tl)` is the set-up step: it constructs the program's input
objects through its constructors and JSON codecs.  Each Call's `run`
looks its function up on the module at call time, so the tracer's
wrappers are seen.  `check(result)` compares against the oracles in
oracles.py; an exception or a False check counts the call as failed.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import oracles as O
from spans import TRACE_MARK
from workloads import form_doc, jmat


class Call:
    __slots__ = ("op", "run", "check", "fault")

    def __init__(self, op, run, check, fault=False):
        self.op = op
        self.run = run
        self.check = check
        self.fault = fault


def _rows(form):
    return [list(r) for r in form.entries]


def _u0(g):
    # the fundamental-set slack troplab documents: 2 in genus 1, 2^g above
    return 2 if g == 1 else 2**g


def make_lll(tl, d):
    form = tl.forms.QuadraticForm.from_json_dict(form_doc(d["f"], d["mode"]))
    f = d["f"]

    def check(res):
        red, u = res
        if not O.is_integral_unimodular(u):
            return False
        if d["mode"] == "exact":
            return O.conjugate(f, u) == _rows(red) and O.lll_conditions(_rows(red))
        scale = max(abs(x) for row in f for x in row)
        r = _rows(red)
        return (O.matrices_close([[x / scale for x in row] for row in O.conjugate(f, u)],
                                 [[x / scale for x in row] for row in r], 1e-9)
                and O.lll_conditions([[Fraction(x) for x in row] for row in r], slack=1e-9))

    return Call("lll_reduce", lambda: tl.forms.lll_reduce(form), check)


def make_sv(tl, d):
    form = tl.forms.QuadraticForm.from_json_dict(form_doc(d["f"]))
    f = d["f"]

    def check(res):
        v, val = res
        v = list(v)
        return (any(v) and all(isinstance(x, int) for x in v) and val == d["min"]
                and O.mat_mul([v], O.mat_mul(f, [[x] for x in v]))[0][0] == val)

    return Call("shortest_vector", lambda: tl.forms.shortest_vector(form), check)


def make_equiv(tl, d):
    qf = tl.forms.QuadraticForm.from_json_dict
    f1, f2 = qf(form_doc(d["f1"])), qf(form_doc(d["f2"]))

    def check(u):
        if not d["same"]:
            return u is None
        return (u is not None and O.is_integral_unimodular(u)
                and O.conjugate(d["f1"], u) == d["f2"])

    return Call("is_equivalent", lambda: tl.forms.is_equivalent(f1, f2), check)


def make_equiv_tol(tl, d):
    qf = tl.forms.QuadraticForm.from_json_dict
    f1, f2 = qf(form_doc(d["f1"], "float")), qf(form_doc(d["f2"], "float"))
    tol = d["tol"]

    def check(u):
        if u is None or not O.is_integral_unimodular(u):
            return False
        scale = max(abs(x) for row in d["f2"] for x in row)
        return all(abs(a - b) <= 10 * tol * scale
                   for ra, rb in zip(O.conjugate(d["f1"], u), d["f2"]) for a, b in zip(ra, rb))

    return Call("is_equivalent_tol", lambda: tl.forms.is_equivalent(f1, f2, tol=tol), check)


def make_homothetic(tl, d):
    qf = tl.forms.QuadraticForm.from_json_dict
    f1, f2 = qf(form_doc(d["f1"])), qf(form_doc(d["f2"]))

    def check(res):
        if d["c"] is None:
            return res is None
        if res is None:
            return False
        c, u = res
        return (c == d["c"] and O.is_integral_unimodular(u)
                and O.conjugate(O.scaled(d["f1"], c), u) == d["f2"])

    return Call("is_homothetic", lambda: tl.forms.is_homothetic(f1, f2), check,
                d.get("fault", False))


def make_cover(tl, d):
    form = tl.forms.QuadraticForm.from_json_dict(form_doc(d["f"]))
    return Call("covering_radius_sq", lambda: tl.forms.covering_radius_sq(form),
                lambda res: isinstance(res, Fraction) and res == d["musq"])


def make_siegel(tl, d):
    g = len(d["x"])
    z = tl.siegel.SiegelPoint.from_json_dict({"g": g, "X": jmat(d["x"]), "Y": jmat(d["y"])})

    def check(res):
        point, gamma, ok = res
        mat = [list(r) for r in gamma.mat]
        x, y = [list(r) for r in point.x], _rows(point.y)
        return (ok and point.mode == "exact" and O.is_symplectic(mat)
                and O.act(mat, d["x"], d["y"]) == (x, y)
                and O.in_fundamental_set(x, y, _u0(g)))

    return Call("siegel_reduce", lambda: tl.siegel.siegel_reduce(z), check)


def make_torelli(tl, d):
    fam = tl.degen.CurveFamily.from_json_dict(d["doc"])

    def check(res):
        gh = _rows(res.gh_side.gram)
        got = O.det(gh) if res.gh_side.gram.mode == "exact" else None
        det_ok = (got == d["gh_det"] if got is not None
                  else O.close(O.det([[Fraction(x) for x in r] for r in gh]), d["gh_det"], 1e-5))
        return res.continuous is d["continuous"] and det_ok

    return Call("torelli_family_compare", lambda: tl.degen.torelli_family_compare(fam), check,
                d["fault"])


def _gram_matches(gram, expected, tol=1e-5):
    rows = _rows(gram)
    if gram.mode == "exact":
        return rows == [[Fraction(x) for x in r] for r in expected]
    return O.matrices_close(rows, expected, tol)


def make_av_limit(tl, d):
    fam = tl.degen.AVFamily.from_json_dict({"M": jmat(d["m"])})
    return Call("av_family_limit", lambda: tl.degen.av_family_limit(fam),
                lambda torus: _gram_matches(torus.gram, d["gram"]))


def make_gh_limit(tl, d):
    fam = tl.degen.CurveFamily.from_json_dict(d["doc"])
    return Call("curve_family_gh_limit", lambda: tl.degen.curve_family_gh_limit(fam),
                lambda graph: all(l == d["len"] for _, _, l in graph.edges))


def make_hybrid_graph(tl, d):
    fam = tl.degen.CurveFamily.from_json_dict(d["doc"])
    gluing = tl.hybrid.GluingFunction.from_string(d["gluing"])
    return Call("curve_family_hybrid_limit",
                lambda: tl.degen.curve_family_hybrid_limit(fam, gluing),
                lambda graph: [l for _, _, l in graph.edges] == d["len"])


def make_collapse_sym(tl, d):
    path = tl.limits.SymbolicSiegelPath.from_json_dict(d["doc"])

    def check(res):
        return (res.r == d["r"] and res.collapsed and list(res.profile) == d["profile"]
                and _gram_matches(res.limit.gram, d["gram"]))

    return Call("classify_collapse_symbolic",
                lambda: tl.limits.classify_collapse_symbolic(path), check)


def make_volume(tl, d):
    path = tl.limits.SymbolicSiegelPath.from_json_dict(d["doc"])

    def check(space):
        return (space.euclidean_rank == d["rank"] and space.circle_circumferences == ()
                and _rows(space.torus_part.gram) == d["gram"])

    return Call("fixed_volume_limit", lambda: tl.limits.fixed_volume_limit(path), check)


def make_injrad(tl, d):
    a, r = d["a"], d["r"]
    return Call("fixed_injrad_limit", lambda: tl.limits.fixed_injrad_limit(a, r, u0=d["u0"]),
                lambda space: (list(space.circle_circumferences) == d["circles"]
                               and space.euclidean_rank == len(a) + r
                               and space.torus_part is None))


def make_quotient(tl, d):
    """Three calls sharing their results: dual complex, group, quotient."""
    inc = tl.hybrid.IncidenceComplex.from_json_dict(d["inc"])
    box = {}

    def dual():
        box["dc"] = tl.hybrid.dual_complex(inc)
        return box["dc"]

    def group():
        box["ga"] = tl.hybrid.GroupAction.from_generators(inc, d["gens"])
        return box["ga"]

    return [
        Call("dual_complex", dual, lambda dc: dc.counts() == d["cells"]),
        Call("GroupAction.from_generators", group, lambda ga: len(ga.elements) == d["order"]),
        Call("quotient_complex", lambda: tl.hybrid.quotient_complex(box["dc"], box["ga"]),
             lambda q: q.counts() == d["quotient"]),
    ]


def make_av_oracle(tl, d):
    fam = tl.degen.AVFamily.from_json_dict({"M": jmat(d["m"])})
    return Call("av_family_numeric_oracle",
                lambda: tl.degen.av_family_numeric_oracle(fam, d["t"]),
                lambda tori: len(tori) == len(d["t"])
                and all(_gram_matches(t.gram, d["gram"]) for t in tori))


def make_collapse_num(tl, d):
    pts = [tl.siegel.SiegelPoint.from_json_dict(p) for p in d["samples"]]

    def check(res):
        return (res.r == d["r"] and res.collapsed
                and all(O.close(a, b, 1e-9) for a, b in zip(res.profile, d["profile"]))
                and len(res.profile) == len(d["profile"])
                and _gram_matches(res.limit.gram, d["gram"], 1e-9))

    return Call("classify_collapse_numeric",
                lambda: tl.limits.classify_collapse_numeric(pts), check)


def make_collar(tl, d):
    return Call("collar_length", lambda: tl.degen.collar_length(d["t"], d["c_star"]),
                lambda v: O.close(v, d["length"], 1e-7))


def make_tropicalize(tl, d):
    pts = d["points"]

    def check(res):
        if not O.matrices_close([list(v) for v in res.vectors], d["vectors"], 1e-9):
            return False
        if d["direction"] is None:
            return res.direction is None
        return res.direction is not None and all(
            O.close(a, b, 1e-9) for a, b in zip(res.direction, d["direction"]))

    return Call("tropicalize", lambda: tl.hybrid.tropicalize(pts), check)


def make_cli(d, traced, env, reports):
    """A fresh CLI process fed the example on stdin, run by cli_child.py.

    The child's report (loop times, spans) is appended to `reports`.
    """
    argv = ([sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                          "cli_child.py")]
            + (["--trace"] if traced else []) + [d["command"], "-", "--seed", str(d["seed"])])

    def run():
        proc = subprocess.run(argv, input=d["stdin"].encode(), capture_output=True, env=env,
                              check=False, timeout=120)
        lines = [line for line in proc.stderr.decode().splitlines()
                 if line.startswith(TRACE_MARK)]
        reports.append(json.loads(lines[-1][len(TRACE_MARK):]) if lines else {})
        return proc

    def check(proc):
        return (proc.returncode == 0
                and O.same_value(json.loads(proc.stdout), d["expected"], d["tol"]))

    return Call("cli." + d["command"], run, check)


MAKERS = {
    "lll": make_lll, "sv": make_sv, "equiv": make_equiv, "equiv_tol": make_equiv_tol,
    "homothetic": make_homothetic, "cover": make_cover, "siegel": make_siegel,
    "torelli": make_torelli, "av_limit": make_av_limit, "gh_limit": make_gh_limit,
    "hybrid_graph": make_hybrid_graph, "collapse_sym": make_collapse_sym,
    "volume": make_volume, "injrad": make_injrad, "quotient": make_quotient,
    "av_oracle": make_av_oracle, "collapse_num": make_collapse_num,
    "collar": make_collar, "tropicalize": make_tropicalize,
}


def build(specs, tl):
    calls = []
    for op, data in specs:
        made = MAKERS[op](tl, data)
        calls.extend(made if isinstance(made, list) else [made])
    return calls


def build_cli(specs, traced, env, reports):
    return [make_cli(d, traced, env, reports) for _, d in specs]


def parse_cli_inputs(tl, specs):
    """Set-up for cli-cold: decode each example input with its JSON codec."""
    codecs = {
        "reduce": tl.siegel.SiegelPoint, "collapse": tl.limits.SymbolicSiegelPath,
        "volume-limit": tl.limits.SymbolicSiegelPath, "av-limit": tl.degen.AVFamily,
        "curve-limit": tl.degen.CurveFamily, "torelli-check": tl.degen.CurveFamily,
        "trop-jac": tl.tropical.WeightedMetricGraph, "dual-complex": tl.hybrid.IncidenceComplex,
    }
    out = []
    for _, d in specs:
        doc = json.loads(d["stdin"])
        cls = codecs.get(d["command"])
        out.append(cls.from_json_dict(doc) if cls is not None else doc)
    return out

