"""Command-line front end: JSON documents in, canonical JSON out.

Every core operation is exposed as a subcommand reading one JSON
document from a file (or stdin with "-") and printing a deterministic,
sorted-keys JSON result.  Exact rationals travel as integers or "p/q"
strings.  Exit codes: 0 success, 2 malformed input (message carries a
JSON pointer), 3 violated mathematical precondition (message names the
invariant).  Set TROPLAB_LOG=info or =debug for progress on stderr.
"""

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from .errors import PreconditionError, SchemaError

_LOG_LEVELS = {"debug": 10, "info": 20, "error": 40}


def _log_level_name() -> str:
    return os.environ.get("TROPLAB_LOG", "error").strip().lower()


def _log(level: str, message: str):
    """Write `troplab LEVEL: message` to stderr if TROPLAB_LOG admits it.

    An unknown TROPLAB_LOG level reads as 'error'.
    """
    if _LOG_LEVELS[level] >= _LOG_LEVELS.get(_log_level_name(), 40):
        print(f"troplab {level.upper()}: {message}", file=sys.stderr)


def _check_flags(args):
    """A flag value out of range exits 2 at the flag, before any input is
    read; a command that does not take a flag has no attribute for it."""
    if not 0 < getattr(args, "tol", 1) < math.inf:
        raise SchemaError("tolerance must be positive and finite", "/--tol")
    if getattr(args, "max_iter", 1) < 1:
        raise SchemaError("max iterations must be >= 1", "/--max-iter")
    u = getattr(args, "u", None)
    if u is not None and not math.isfinite(u):
        raise SchemaError("slack must be finite", "/--u")


def _load_doc(source: str):
    if source == "-":
        text = sys.stdin.read()
        where = "stdin"
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read input: {exc}", "/")
        where = source
    _log("info", f"reading JSON from {where}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", f"/line/{exc.lineno}")


def _require_object(doc, keys, pointer: str = ""):
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object", pointer or "/")
    for k in keys:
        if k not in doc:
            raise SchemaError(f"missing required key {k!r}", f"{pointer}/{k}")


def _write_csv(path: str, header, rows):
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _log("info", f"wrote {len(rows)} CSV rows to {path}")


# -- subcommand handlers -----------------------------------------------------
# each returns (result dict, optional (csv header, csv rows)); each imports
# the library modules it runs, so one call loads only those


def _cmd_reduce(doc, args):
    from . import siegel

    z = siegel.SiegelPoint.from_json_dict(doc)
    point, gamma, ok = siegel.siegel_reduce(z, u=args.u, max_iterations=args.max_iter)
    used_u = args.u if args.u is not None else siegel.default_u0(z.g)
    return (
        {
            "point": point.to_json_dict(),
            "transform": [[int(v) for v in row] for row in gamma.mat],
            "in_siegel_set": ok,
            "u": used_u,
        },
        None,
    )


def _cmd_collapse(doc, args):
    from . import limits, siegel

    if args.mode == "symbolic":
        path = limits.SymbolicSiegelPath.from_json_dict(doc)
        result = limits.classify_collapse_symbolic(path)
        return result.to_json_dict(), None
    _require_object(doc, ["samples"])
    raw = doc["samples"]
    if not isinstance(raw, list):
        raise SchemaError("samples must be a list of points", "/samples")
    points = [
        siegel.SiegelPoint.from_json_dict(p, f"/samples/{i}") for i, p in enumerate(raw)
    ]
    u = doc.get("u")
    if u is not None and (isinstance(u, bool) or not isinstance(u, (int, float))):
        raise SchemaError("'u' must be a number", "/u")
    result = limits.classify_collapse_numeric(points, tol=args.tol, u=u)
    series = None
    if result.report is not None:
        rep = result.report
        g = len(rep.ratios)
        header = ["sample", "d_top"] + [f"ratio_{j}" for j in range(1, g + 1)]
        rows = [
            [k, rep.d_top[k]] + [rep.ratios[j][k] for j in range(1, g + 1)]
            for k in range(len(rep.d_top))
        ]
        series = (header, rows)
    return result.to_json_dict(), series


def _cmd_volume_limit(doc, args):
    from . import limits

    path = limits.SymbolicSiegelPath.from_json_dict(doc)
    return limits.fixed_volume_limit(path).to_json_dict(), None


def _cmd_injrad_limit(doc, args):
    from . import limits
    from .rationals import parse_rational

    _require_object(doc, ["a", "r"])
    if not isinstance(doc["a"], list) or not doc["a"]:
        raise SchemaError("'a' must be a nonempty list of rationals", "/a")
    a = [parse_rational(v, f"/a/{j}") for j, v in enumerate(doc["a"])]
    r = doc["r"]
    if not isinstance(r, int) or isinstance(r, bool):
        raise SchemaError("'r' must be an integer", "/r")
    u0 = None
    if doc.get("u0") is not None:
        u0 = parse_rational(doc["u0"], "/u0")
    space = limits.fixed_injrad_limit(a, r, u0=u0)
    return space.to_json_dict(), None


_MONOMIAL = re.compile(
    r"(?:(?P<coef>[+-]?\d+(?:/\d+)?)\s*\*\s*)?t(?:\^\(?(?P<exp>[+-]?\d+(?:/\d+)?)\)?)?"
)
_CONSTANT = re.compile(r"[+-]?\d+(?:/\d+)?")


def _monomial_order(text, pointer: str) -> Fraction:
    """Vanishing order of a leading monomial written like '3*t^2' or 't'."""
    if isinstance(text, (int, str)) and not isinstance(text, bool):
        s = str(text).strip()
        if _CONSTANT.fullmatch(s):
            return Fraction(0)
        m = _MONOMIAL.fullmatch(s)
        if m:
            return Fraction(m.group("exp") or 1)
    raise SchemaError(f"cannot parse monomial {text!r}", pointer)


def _cmd_av_limit(doc, args):
    from . import degen
    from .rationals import format_scalar

    _require_object(doc, [])
    if "periods" in doc:
        raw = doc["periods"]
        if not isinstance(raw, list) or any(not isinstance(r, list) for r in raw):
            raise SchemaError("periods must be a matrix of monomials", "/periods")
        m = [
            [_monomial_order(v, f"/periods/{i}/{j}") for j, v in enumerate(row)]
            for i, row in enumerate(raw)
        ]
        if any(len(row) != len(m) for row in m):
            raise SchemaError("periods must be square", "/periods")
        doc = {**doc, "M": [[format_scalar(v) for v in row] for row in m]}
    fam = degen.AVFamily.from_json_dict(doc)
    result = {"limit": degen.av_family_limit(fam).to_json_dict()}
    series = None
    if doc.get("t_samples") is not None:
        raw_ts = doc["t_samples"]
        if not isinstance(raw_ts, list):
            raise SchemaError("t_samples must be a list", "/t_samples")
        ts = []
        for j, t in enumerate(raw_ts):
            if isinstance(t, bool) or not isinstance(t, (int, float)):
                raise SchemaError("t_samples entries must be numbers", f"/t_samples/{j}")
            ts.append(float(t))
        tori = degen.av_family_numeric_oracle(fam, ts)
        result["samples"] = [torus.to_json_dict() for torus in tori]
        g = fam.torus_rank
        header = ["t"] + [f"gram_{i}_{j}" for i in range(g) for j in range(g)]
        rows = [
            [t] + [torus.gram.entries[i][j] for i in range(g) for j in range(g)]
            for t, torus in zip(ts, tori)
        ]
        series = (header, rows)
    return result, series


def _cmd_curve_limit(doc, args):
    from . import degen

    fam = degen.CurveFamily.from_json_dict(doc)
    graph = degen.curve_family_gh_limit(fam)
    return {"graph": graph.to_json_dict()}, None


def _cmd_trop_jac(doc, args):
    from . import tropical

    graph = tropical.WeightedMetricGraph.from_json_dict(doc)
    tav = tropical.tropical_jacobian(graph)
    out = tav.to_json_dict()
    out["basis"] = tropical.cycle_basis(graph)
    return out, None


def _cmd_torelli_check(doc, args):
    from . import degen

    fam = degen.CurveFamily.from_json_dict(doc)
    return degen.torelli_family_compare(fam).to_json_dict(), None


def _cmd_dual_complex(doc, args):
    from . import hybrid

    inc = hybrid.IncidenceComplex.from_json_dict(doc)
    complex_ = hybrid.dual_complex(inc)
    if doc.get("action") is not None:
        raw = doc["action"]
        if not isinstance(raw, list) or any(not isinstance(p, list) for p in raw):
            raise SchemaError("action must be a list of permutations", "/action")
        for i, p in enumerate(raw):
            for j, x in enumerate(p):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise SchemaError("permutation entry must be an integer", f"/action/{i}/{j}")
        action = hybrid.GroupAction.from_generators(inc, [tuple(p) for p in raw])
        _log("info", f"quotienting by a group of order {len(action.elements)}")
        complex_ = hybrid.quotient_complex(complex_, action)
    return complex_.to_json_dict(), None


def _cmd_hybrid_limit(doc, args):
    from . import hybrid
    from .rationals import parse_rational

    _require_object(doc, ["m"])
    if not isinstance(doc["m"], list) or not doc["m"]:
        raise SchemaError("'m' must be a nonempty list of rationals", "/m")
    m = [parse_rational(v, f"/m/{j}") for j, v in enumerate(doc["m"])]
    n = doc.get("n", len(m))
    if not isinstance(n, int) or isinstance(n, bool):
        raise SchemaError("'n' must be an integer", "/n")
    if doc.get("strata") is not None:
        inc = hybrid.IncidenceComplex.from_json_dict({"n": n, "strata": doc["strata"]})
    else:
        support = [i + 1 for i, v in enumerate(m) if v > 0]
        strata = hybrid.downward_closure([support]) if support else []
        inc = hybrid.IncidenceComplex(n, strata)
    chart = hybrid.MonomialPathChart(inc, m)
    gluing = hybrid.GluingFunction.from_string(args.gluing)
    return hybrid.hybrid_limit(chart, gluing).to_json_dict(), None


def _cmd_tropicalize(doc, args):
    from . import hybrid

    _require_object(doc, ["points"])
    raw = doc["points"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("'points' must be a nonempty list", "/points")
    points = []
    for k, p in enumerate(raw):
        if not isinstance(p, list):
            raise SchemaError("each point is a list of coordinates", f"/points/{k}")
        coords = []
        for i, z in enumerate(p):
            here = f"/points/{k}/{i}"
            if isinstance(z, bool):
                raise SchemaError("coordinates are numbers or [re, im]", here)
            if isinstance(z, (int, float)):
                coords.append(complex(float(z), 0.0))
            elif (
                isinstance(z, list)
                and len(z) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in z)
            ):
                coords.append(complex(float(z[0]), float(z[1])))
            else:
                raise SchemaError("coordinates are numbers or [re, im]", here)
        points.append(coords)
    return hybrid.tropicalize(points, tol=args.tol).to_json_dict(), None


def _cmd_collar(doc, args):
    from . import degen

    _require_object(doc, ["t", "c_star"])
    c_star = doc["c_star"]
    if isinstance(c_star, bool) or not isinstance(c_star, (int, float)):
        raise SchemaError("'c_star' must be a number", "/c_star")
    raw_t = doc["t"]
    ts = raw_t if isinstance(raw_t, list) else [raw_t]
    if not ts:
        raise SchemaError("'t' must be a number or nonempty list", "/t")
    series_rows = []
    out = []
    for j, t in enumerate(ts):
        if isinstance(t, bool) or not isinstance(t, (int, float)):
            raise SchemaError("'t' entries must be numbers", f"/t/{j}")
        value = degen.collar_length(float(t), float(c_star))
        out.append({"t": float(t), "length": value})
        series_rows.append([float(t), value])
    result = {"c_star": float(c_star), "series": out}
    return result, (["t", "length"], series_rows)


# every flag a command may take, as argparse reads it; the default is the
# command's own, in _COMMANDS
_FLAGS = {
    "--tol": dict(type=float, metavar="X", help="numeric tolerance (default %(default)s)"),
    "--max-iter": dict(type=int, metavar="N", help="most reduction rounds (default %(default)s)"),
    "--u": dict(type=float, metavar="X", help="fundamental-set slack (default 2, 2^g if g > 1)"),
    "--mode": dict(choices=("symbolic", "numeric"), help="input kind (default %(default)s)"),
    "--gluing": dict(choices=("log", "loglog"), help="gluing function (default %(default)s)"),
    "--emit-csv": dict(metavar="PATH", help="also write the tabular series as CSV"),
    "--seed": dict(type=int, metavar="N", help="accepted and ignored: nothing draws randomness"),
}

# name -> (handler, help, {flag: default} for the flags the handler reads);
# every command also takes --seed
_COMMANDS = {
    "reduce": (_cmd_reduce, "move a point into the fundamental set, with witness",
               {"--max-iter": 64, "--u": None}),
    "collapse": (_cmd_collapse, "classify the collapse of a path of tori",
                 {"--tol": 1e-3, "--mode": "symbolic", "--emit-csv": None}),
    "volume-limit": (_cmd_volume_limit, "volume-normalized limit space of a symbolic path", {}),
    "injrad-limit": (_cmd_injrad_limit, "injectivity-radius-normalized limit space", {}),
    "av-limit": (_cmd_av_limit, "limit torus of a degenerating abelian family",
                 {"--emit-csv": None}),
    "curve-limit": (_cmd_curve_limit, "metric limit graph of a nodal curve family", {}),
    "trop-jac": (_cmd_trop_jac, "tropical Jacobian of a weighted metric graph", {}),
    "torelli-check": (_cmd_torelli_check,
                      "compare metric and abelian limits of a curve family", {}),
    "dual-complex": (_cmd_dual_complex,
                     "dual complex of incidence data, optionally quotiented", {}),
    "hybrid-limit": (_cmd_hybrid_limit, "boundary coordinates of a monomial path",
                     {"--gluing": "log"}),
    "tropicalize": (_cmd_tropicalize, "coordinatewise -log|z| with limit direction",
                    {"--tol": 1e-6}),
    "collar": (_cmd_collar, "hyperbolic collar length across a plumbing annulus",
               {"--emit-csv": None}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troplab",
        description="Degeneration limits of abelian varieties and curves: "
        "reduction, collapse classification, tropical Jacobians, hybrid limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", nargs="?", default="-", help="JSON document path, or - for stdin")
        for flag, default in {**flags, "--seed": None}.items():
            p.add_argument(flag, default=default, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    level_name = _log_level_name()
    if level_name not in _LOG_LEVELS:
        _log("error", f"unknown TROPLAB_LOG level {level_name!r}; using 'error'")
    try:
        _check_flags(args)
        doc = _load_doc(args.input)
        _log("debug", f"arguments: {vars(args)}")
        result, series = _COMMANDS[args.command][0](doc, args)
        emit_csv = getattr(args, "emit_csv", None)
        if emit_csv:
            if series is None:
                raise SchemaError("this invocation produced no tabular series", "/--emit-csv")
            _write_csv(emit_csv, *series)
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    except SchemaError as exc:
        print(f"troplab: schema error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"troplab: precondition failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
