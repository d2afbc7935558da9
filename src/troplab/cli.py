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
    except ValueError as exc:  # an integer of more digits than Python reads
        raise SchemaError(f"unreadable JSON number: {exc}", "/")


# -- subcommand handlers -----------------------------------------------------
# each returns its result dict and imports the library modules it runs, so
# one call loads only those


def _cmd_reduce(doc, args):
    from . import siegel

    z = siegel.SiegelPoint.from_json_dict(doc)
    point, gamma, ok = siegel.siegel_reduce(z, u=args.u, max_iterations=args.max_iter)
    used_u = args.u if args.u is not None else siegel.default_u0(z.g)
    return {
        "point": point.to_json_dict(),
        "transform": gamma.mat,
        "in_siegel_set": ok,
        "u": used_u,
    }


def _cmd_collapse(doc, args):
    """A document with `samples` is sampled; any other is a symbolic path."""
    from . import limits, siegel
    from .rationals import parse_array, parse_object, parse_scalar

    if "samples" not in parse_object(doc):
        path = limits.SymbolicSiegelPath.from_json_dict(doc)
        return limits.classify_collapse_symbolic(path).to_json_dict()
    points = parse_array(
        doc["samples"], siegel.SiegelPoint.from_json_dict, "/samples",
        "samples must be a list of points",
    )
    u = None if doc.get("u") is None else parse_scalar(doc["u"], "float", "/u")
    return limits.classify_collapse_numeric(points, tol=args.tol, u=u).to_json_dict()


def _cmd_volume_limit(doc, args):
    from . import limits

    path = limits.SymbolicSiegelPath.from_json_dict(doc)
    return limits.fixed_volume_limit(path).to_json_dict()


def _cmd_injrad_limit(doc, args):
    from . import limits
    from .rationals import parse_integer, parse_object, parse_rational, parse_vector

    parse_object(doc, ["a", "r"])
    a = parse_vector(doc["a"], "exact", "/a", nonempty=True)
    r = parse_integer(doc["r"], "/r")
    u0 = None if doc.get("u0") is None else parse_rational(doc["u0"], "/u0")
    return limits.fixed_injrad_limit(a, r, u0=u0).to_json_dict()


_MONOMIAL = re.compile(
    r"(?:(?P<coef>[+-]?\d+(?:/\d+)?)\s*\*\s*)?t(?:\^\(?(?P<exp>[+-]?\d+(?:/\d+)?)\)?)?"
)
_CONSTANT = re.compile(r"[+-]?\d+(?:/\d+)?")


def _monomial_order(text, pointer: str) -> Fraction:
    """Vanishing order of a leading monomial written like '3*t^2' or 't'."""
    from .rationals import parse_integer

    what = f"cannot parse monomial {text!r}"
    s = text.strip() if isinstance(text, str) else str(parse_integer(text, pointer, what))
    if _CONSTANT.fullmatch(s):
        return Fraction(0)
    m = _MONOMIAL.fullmatch(s)
    if not m:
        raise SchemaError(what, pointer)
    return Fraction(m.group("exp") or 1)


def _cmd_av_limit(doc, args):
    from . import degen
    from .rationals import format_scalar, parse_object, parse_rows, parse_vector

    if "periods" in parse_object(doc):
        what = "periods must be a matrix of monomials"
        m = parse_rows(doc["periods"], _monomial_order, "/periods", what, what)
        if any(len(row) != len(m) for row in m):
            raise SchemaError("periods must be square", "/periods")
        doc = {**doc, "M": [[format_scalar(v) for v in row] for row in m]}
    fam = degen.AVFamily.from_json_dict(doc)
    result = {"limit": degen.av_family_limit(fam).to_json_dict()}
    if doc.get("t_samples") is not None:
        ts = parse_vector(doc["t_samples"], "float", "/t_samples")
        tori = degen.av_family_numeric_oracle(fam, ts)
        result["samples"] = [torus.to_json_dict() for torus in tori]
    return result


def _cmd_curve_limit(doc, args):
    from . import degen

    fam = degen.CurveFamily.from_json_dict(doc)
    return {"graph": degen.curve_family_gh_limit(fam).to_json_dict()}


def _cmd_trop_jac(doc, args):
    from . import tropical

    graph = tropical.WeightedMetricGraph.from_json_dict(doc)
    out = tropical.tropical_jacobian(graph).to_json_dict()
    out["basis"] = tropical.cycle_basis(graph)
    return out


def _cmd_torelli_check(doc, args):
    from . import degen

    fam = degen.CurveFamily.from_json_dict(doc)
    return degen.torelli_family_compare(fam).to_json_dict()


def _cmd_dual_complex(doc, args):
    from . import hybrid
    from .rationals import parse_integer, parse_rows

    inc = hybrid.IncidenceComplex.from_json_dict(doc)
    complex_ = hybrid.dual_complex(inc)
    if doc.get("action") is not None:
        what = "action must be a list of permutations"
        gens = parse_rows(doc["action"], parse_integer, "/action", what, what)
        action = hybrid.GroupAction.from_generators(inc, [tuple(p) for p in gens])
        _log("info", f"quotienting by a group of order {len(action.elements)}")
        complex_ = hybrid.quotient_complex(complex_, action)
    return complex_.to_json_dict()


def _cmd_hybrid_limit(doc, args):
    from . import hybrid
    from .rationals import parse_integer, parse_object, parse_vector

    parse_object(doc, ["m"])
    m = parse_vector(doc["m"], "exact", "/m", nonempty=True)
    n = parse_integer(doc.get("n", len(m)), "/n")
    if doc.get("strata") is not None:
        inc = hybrid.IncidenceComplex.from_json_dict({"n": n, "strata": doc["strata"]})
    else:
        support = [i + 1 for i, v in enumerate(m) if v > 0]
        strata = hybrid.downward_closure([support]) if support else []
        inc = hybrid.IncidenceComplex(n, strata)
    chart = hybrid.MonomialPathChart(inc, m)
    gluing = hybrid.GluingFunction.from_string(args.gluing)
    return hybrid.hybrid_limit(chart, gluing).to_json_dict()


def _cmd_tropicalize(doc, args):
    """Each coordinate is a number or [re, im]."""
    from . import hybrid
    from .rationals import parse_array, parse_object, parse_scalar, parse_vector

    def coordinate(z, pointer):
        if not isinstance(z, list):
            return complex(parse_scalar(z, "float", pointer))
        parts = parse_vector(z, "float", pointer)
        if len(parts) != 2:
            raise SchemaError("a coordinate is a number or [re, im]", pointer)
        return complex(*parts)

    def point(p, pointer):
        return parse_array(p, coordinate, pointer, "each point is a list of coordinates")

    parse_object(doc, ["points"])
    points = parse_array(doc["points"], point, "/points", nonempty=True)
    return hybrid.tropicalize(points, tol=args.tol).to_json_dict()


def _cmd_collar(doc, args):
    from . import degen
    from .rationals import parse_object, parse_scalar, parse_vector

    parse_object(doc, ["t", "c_star"])
    c_star = parse_scalar(doc["c_star"], "float", "/c_star")
    raw_t = doc["t"] if isinstance(doc["t"], list) else [doc["t"]]
    ts = parse_vector(raw_t, "float", "/t", nonempty=True)
    series = [{"t": t, "length": degen.collar_length(t, c_star)} for t in ts]
    return {"c_star": c_star, "series": series}


# every flag a command may take, as argparse reads it; the default is the
# command's own, in _COMMANDS
_FLAGS = {
    "--tol": dict(type=float, metavar="X", help="numeric tolerance (default %(default)s)"),
    "--max-iter": dict(type=int, metavar="N", help="most reduction rounds (default %(default)s)"),
    "--u": dict(type=float, metavar="X", help="fundamental-set slack (default 2, 2^g if g > 1)"),
    "--gluing": dict(choices=("log", "loglog"), help="gluing function (default %(default)s)"),
    "--seed": dict(type=int, metavar="N", help="accepted and ignored: nothing draws randomness"),
}

# name -> (handler, help, {flag: default} for the flags the handler reads);
# every command also takes --seed
_COMMANDS = {
    "reduce": (_cmd_reduce, "move a point into the fundamental set, with witness",
               {"--max-iter": 64, "--u": None}),
    "collapse": (_cmd_collapse, "classify the collapse of a path of tori",
                 {"--tol": 1e-3}),
    "volume-limit": (_cmd_volume_limit, "volume-normalized limit space of a symbolic path", {}),
    "injrad-limit": (_cmd_injrad_limit, "injectivity-radius-normalized limit space", {}),
    "av-limit": (_cmd_av_limit, "limit torus of a degenerating abelian family", {}),
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
    "collar": (_cmd_collar, "hyperbolic collar length across a plumbing annulus", {}),
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
        result = _COMMANDS[args.command][0](doc, args)
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
