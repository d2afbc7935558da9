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
from typing import NamedTuple, Optional

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


class RunConfig(NamedTuple):
    """Per-invocation knobs shared by the subcommands.

    rng_seed is accepted for reproducibility bookkeeping but none of the
    bundled commands draw randomness; it is recorded for forward
    compatibility with property-style commands.
    """

    tolerance: float = 1e-6
    max_iterations: int = 64
    rng_seed: Optional[int] = None


def _config(args) -> RunConfig:
    """The run config from the common flags, which are checked here; a
    value that fails its check exits 2 before any input is read."""
    tol = args.tol if getattr(args, "tol", None) is not None else 1e-6
    if not 0 < tol < math.inf:
        raise SchemaError("tolerance must be positive and finite", "/--tol")
    max_iter = args.max_iter if getattr(args, "max_iter", None) is not None else 64
    if max_iter < 1:
        raise SchemaError("max iterations must be >= 1", "/--max-iter")
    u = getattr(args, "u", None)
    if u is not None and not math.isfinite(u):
        raise SchemaError("slack must be finite", "/--u")
    return RunConfig(tol, max_iter, getattr(args, "seed", None))


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


def _cmd_reduce(doc, args, cfg: RunConfig):
    from . import siegel

    z = siegel.SiegelPoint.from_json_dict(doc)
    point, gamma, ok = siegel.siegel_reduce(
        z, u=args.u, max_iterations=cfg.max_iterations
    )
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


def _cmd_collapse(doc, args, cfg: RunConfig):
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
    tol = args.tol if args.tol is not None else 1e-3
    result = limits.classify_collapse_numeric(points, tol=tol, u=u)
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


def _cmd_volume_limit(doc, args, cfg: RunConfig):
    from . import limits

    path = limits.SymbolicSiegelPath.from_json_dict(doc)
    return limits.fixed_volume_limit(path).to_json_dict(), None


def _cmd_injrad_limit(doc, args, cfg: RunConfig):
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


def _cmd_av_limit(doc, args, cfg: RunConfig):
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


def _cmd_curve_limit(doc, args, cfg: RunConfig):
    from . import degen

    fam = degen.CurveFamily.from_json_dict(doc)
    graph = degen.curve_family_gh_limit(fam)
    return {"graph": graph.to_json_dict()}, None


def _cmd_trop_jac(doc, args, cfg: RunConfig):
    from . import tropical

    graph = tropical.WeightedMetricGraph.from_json_dict(doc)
    tav = tropical.tropical_jacobian(graph)
    out = tav.to_json_dict()
    out["basis"] = tropical.cycle_basis(graph)
    return out, None


def _cmd_torelli_check(doc, args, cfg: RunConfig):
    from . import degen

    fam = degen.CurveFamily.from_json_dict(doc)
    return degen.torelli_family_compare(fam).to_json_dict(), None


def _cmd_dual_complex(doc, args, cfg: RunConfig):
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


def _cmd_hybrid_limit(doc, args, cfg: RunConfig):
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


def _cmd_tropicalize(doc, args, cfg: RunConfig):
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
    return hybrid.tropicalize(points, tol=cfg.tolerance).to_json_dict(), None


def _cmd_collar(doc, args, cfg: RunConfig):
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


_HANDLERS = {
    "reduce": _cmd_reduce,
    "collapse": _cmd_collapse,
    "volume-limit": _cmd_volume_limit,
    "injrad-limit": _cmd_injrad_limit,
    "av-limit": _cmd_av_limit,
    "curve-limit": _cmd_curve_limit,
    "trop-jac": _cmd_trop_jac,
    "torelli-check": _cmd_torelli_check,
    "dual-complex": _cmd_dual_complex,
    "hybrid-limit": _cmd_hybrid_limit,
    "tropicalize": _cmd_tropicalize,
    "collar": _cmd_collar,
}

_CSV_COMMANDS = {"collapse", "av-limit", "collar"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troplab",
        description="Degeneration limits of abelian varieties and curves: "
        "reduction, collapse classification, tropical Jacobians, hybrid limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    helps = {
        "reduce": "move a point into the fundamental set, with witness",
        "collapse": "classify the collapse of a path of tori",
        "volume-limit": "volume-normalized limit space of a symbolic path",
        "injrad-limit": "injectivity-radius-normalized limit space",
        "av-limit": "limit torus of a degenerating abelian family",
        "curve-limit": "metric limit graph of a nodal curve family",
        "trop-jac": "tropical Jacobian of a weighted metric graph",
        "torelli-check": "compare metric and abelian limits of a curve family",
        "dual-complex": "dual complex of incidence data, optionally quotiented",
        "hybrid-limit": "boundary coordinates of a monomial path",
        "tropicalize": "coordinatewise -log|z| with limit direction",
        "collar": "hyperbolic collar length across a plumbing annulus",
    }
    for name in _HANDLERS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument(
            "input",
            nargs="?",
            default="-",
            help="path to a JSON document, or - for stdin (default)",
        )
        p.add_argument(
            "--tol",
            type=float,
            default=None,
            help="tolerance of collapse --mode numeric (default 1e-3) and "
            "tropicalize (default 1e-6); the other commands ignore it",
        )
        p.add_argument(
            "--max-iter",
            type=int,
            default=None,
            help="rounds of Siegel reduction in reduce (default 64); "
            "the other commands ignore it",
        )
        p.add_argument(
            "--seed", type=int, default=None, help="seed recorded in the run config"
        )
        if name in _CSV_COMMANDS:
            p.add_argument(
                "--emit-csv",
                metavar="PATH",
                default=None,
                help="also write the tabular series as CSV",
            )
        if name == "reduce":
            p.add_argument(
                "--u", type=float, default=None, help="fundamental-set slack parameter"
            )
        if name == "collapse":
            p.add_argument(
                "--mode",
                choices=("symbolic", "numeric"),
                default="symbolic",
                help="symbolic path document or numeric sample list",
            )
        if name == "hybrid-limit":
            p.add_argument(
                "--gluing",
                choices=("log", "loglog"),
                default="log",
                help="gluing function used to read off coordinates",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    level_name = _log_level_name()
    if level_name not in _LOG_LEVELS:
        _log("error", f"unknown TROPLAB_LOG level {level_name!r}; using 'error'")
    try:
        cfg = _config(args)
        doc = _load_doc(args.input)
        _log("debug", f"run config: {cfg}")
        result, series = _HANDLERS[args.command](doc, args, cfg)
        emit_csv = getattr(args, "emit_csv", None)
        if emit_csv:
            if series is None:
                raise SchemaError(
                    "this invocation produced no tabular series", "/--emit-csv"
                )
            _write_csv(emit_csv, series[0], series[1])
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
