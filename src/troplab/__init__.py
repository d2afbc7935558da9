"""Exact flat-torus limits of degenerating polarized tori and curves.

Core objects: positive-definite quadratic forms over exact rationals,
flat tori with exact squared diameters, Siegel-set reduction, collapse
classification for one-parameter families, tropical Jacobians of metric
graphs, and hybrid boundary limits of monomial path charts.

Importing the package loads none of its submodules.  Each public name,
and each submodule named in the table below, is imported on first
access, so a CLI command or a script pays only for the modules it uses.
The submodules read one another the same way where a path should not
pay for a module it may never run: degen reads forms and tropical, and
forms and tropical read the lattice search, as attributes of the package.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names read from it; __all__ keeps this order.
# forms resolves shortest_vector, is_equivalent and is_homothetic from the
# lattice search, which loads only then
_EXPORTS = {
    "errors": (
        "TroplabError",
        "SchemaError",
        "PreconditionError",
        "NotPositiveDefiniteError",
        "ModeMixError",
    ),
    "forms": (
        "QuadraticForm",
        "FlatTorus",
        "LimitSpace",
        "JacobiDecomposition",
        "jacobi_decompose",
        "lll_reduce",
        "shortest_vector",
        "covering_radius",
        "covering_radius_sq",
        "is_equivalent",
        "is_homothetic",
        "rescale_to_diameter_one",
        "product",
        "join_path",
    ),
    "siegel": (
        "SiegelPoint",
        "SymplecticElement",
        "default_u0",
        "in_siegel_set",
        "metric_matrix",
        "torus_model",
        "siegel_reduce",
    ),
    "limits": (
        "MonomialEntry",
        "SymbolicSiegelPath",
        "NumericReport",
        "CollapseResult",
        "classify_collapse_symbolic",
        "classify_collapse_numeric",
        "fixed_volume_limit",
        "fixed_injrad_limit",
        "product_collapse_reduce",
    ),
    "tropical": (
        "WeightedMetricGraph",
        "TropicalAV",
        "first_betti",
        "is_stable_type",
        "graph_diameter",
        "rescale_graph_to_diameter_one",
        "cycle_basis",
        "tropical_jacobian",
        "torelli",
    ),
    "degen": (
        "AVFamily",
        "CurveFamily",
        "TorelliComparison",
        "av_family_limit",
        "av_family_numeric_oracle",
        "curve_family_gh_limit",
        "curve_family_hybrid_limit",
        "collar_length",
        "torelli_family_compare",
    ),
    "hybrid": (
        "IncidenceComplex",
        "DualComplex",
        "GroupAction",
        "GluingFunction",
        "MonomialPathChart",
        "HybridLimit",
        "Tropicalization",
        "downward_closure",
        "dual_complex",
        "quotient_complex",
        "hybrid_limit",
        "tropicalize",
        "pushforward_map",
    ),
    "lattice": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
