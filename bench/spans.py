"""Spans around troplab's layer functions, installed from outside.

`Tracer.install()` replaces each listed function with a wrapper in every
troplab module namespace that bound it (degen binds is_homothetic, limits
binds jacobi_decompose, and so on), and on the class for methods and
constructors.  A span records name, start, end and parent; `take()`
folds the spans of one call into per-layer call counts and self time
(span minus child spans).  `uninstall()` puts the originals back, so
untraced passes run the program unmodified.
"""

import sys
import time
from fractions import Fraction

# layer -> functions; "Class.method" wraps a method, "Class" the constructor
LAYERS = {
    "forms": ("lll_reduce", "shortest_vector", "is_equivalent", "is_homothetic",
              "jacobi_decompose", "QuadraticForm", "covering_radius_sq",
              "rescale_to_diameter_one"),
    "siegel": ("siegel_reduce", "in_siegel_set", "metric_matrix", "SymplecticElement.act"),
    "limits": ("classify_collapse_symbolic", "fixed_volume_limit", "classify_collapse_numeric"),
    "tropical": ("graph_diameter", "cycle_basis", "tropical_jacobian", "torelli"),
    "degen": ("torelli_family_compare", "av_family_limit", "curve_family_gh_limit",
              "av_family_numeric_oracle", "collar_length"),
    "hybrid": ("tropicalize", "GroupAction.from_generators", "dual_complex", "quotient_complex"),
    "cli": ("main",),
}
SPAN_NAMES = [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


# prefix of the stderr line on which a traced CLI process reports its spans
TRACE_MARK = "bench-trace "


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "troplab" or name.startswith("troplab."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        # covering_radius_sq: exact inputs seen, answered exactly;
        # siegel_reduce: calls that reached the fundamental set
        self.counts = {"cover_exact_in": 0, "cover_exact_out": 0, "siegel_reached": 0}
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if name == "forms.covering_radius_sq" and args[0].mode == "exact":
                counts["cover_exact_in"] += 1
                counts["cover_exact_out"] += isinstance(result, Fraction)
            elif name == "siegel.siegel_reduce":
                counts["siegel_reached"] += bool(result[2])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = _modules()
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"troplab.{layer}")
            if home is None:  # troplab.cli is loaded only by CLI processes
                continue
            for name in names:
                span = f"{layer}.{name}"
                if name[0].isupper():
                    cls_name, _, meth = name.partition(".")
                    cls = getattr(home, cls_name)
                    meth = meth or "__init__"
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(span, raw.__func__))
                    else:
                        new = self._wrap(span, raw)
                    setattr(cls, meth, new)
                    self._undo.append((cls, meth, raw))
                    continue
                orig = getattr(home, name)
                wrapper = self._wrap(span, orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def take(self):
        """Per-span-name (calls, self seconds) of the spans since the last take."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _), c in zip(spans, child):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (t1 - t0) - c)
        spans.clear()
        return out
