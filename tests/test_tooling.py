import ast
import os

import pytest

from helpers import COMMAND_PAGES, SRC, loaded_submodules, run_probe, worked_example

SUBMODULES = ("forms", "lattice", "siegel", "limits", "tropical", "degen", "hybrid")

# modules no import path of the library may load: each costs milliseconds
# on every CLI start
SLOW_STDLIB = {"dataclasses", "inspect", "logging"}

TOUCH_EVERY_NAME = """
import sys
before = set(sys.modules)
import troplab
for name in troplab.__all__ + %r:
    getattr(troplab, name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"troplab"})))
print(" ".join(sorted(loaded & %r)))
""" % (list(SUBMODULES), SLOW_STDLIB)

BUILD_OBJECTS = """
import sys
from troplab import AVFamily, FlatTorus, QuadraticForm, SiegelPoint
QuadraticForm([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
FlatTorus([[1, 0], [0, 1]])
SiegelPoint([[0, 0], [0, 0]], [[2, 1], [1, 2]])
AVFamily([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
import troplab.forms
try:
    troplab.forms.no_such_name
except AttributeError:
    pass
print(" ".join(sorted(m for m in sys.modules if m.startswith("troplab."))))
"""

IMPORT_CLI = """
import sys
before = set(sys.modules)
import troplab.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_stdlib_and_troplab():
    # every public name and submodule touched, in a fresh interpreter
    foreign, slow = run_probe(TOUCH_EVERY_NAME)[:2]
    assert foreign.split() == []
    assert slow.split() == []


def test_import_of_the_cli_loads_no_library_module():
    # each command imports the modules it runs; see test_cli for those
    loaded = set(run_probe(IMPORT_CLI)[0].split())
    assert {m for m in loaded if m.startswith("troplab")} == {
        "troplab",
        "troplab.cli",
        "troplab.errors",
    }
    assert loaded & SLOW_STDLIB == set()


def test_building_objects_loads_neither_the_search_nor_tropical():
    # forms, Siegel points, tori and abelian families, built in a fresh
    # interpreter, compile no lattice search and no graph code
    loaded = set(run_probe(BUILD_OBJECTS)[0].split())
    assert loaded == {
        f"troplab.{name}" for name in ("_linalg", "errors", "rationals", "forms", "siegel", "degen")
    }


# every troplab submodule that each documented command loads, each one
# paid for on every CLI start
_BARE = {"cli", "errors"}
_FORMS = _BARE | {"_linalg", "forms", "rationals"}
_SIEGEL = _FORMS | {"siegel"}
_LIMITS = _SIEGEL | {"limits"}
_CURVE = _FORMS | {"tropical", "degen"}
COMMAND_SUBMODULES = {
    "reduce": _SIEGEL,
    "collapse": _LIMITS,
    "volume-limit": _LIMITS,
    "injrad-limit": _LIMITS,
    "av-limit": _FORMS | {"degen"},
    "curve-limit": _CURVE,
    "torelli-check": _CURVE | {"lattice"},
    "collar": _BARE | {"rationals", "degen"},
    "trop-jac": _FORMS | {"tropical"},
    "dual-complex": _BARE | {"hybrid", "rationals"},
    "hybrid-limit": _BARE | {"hybrid", "rationals"},
    "tropicalize": _BARE | {"hybrid", "rationals"},
}


@pytest.mark.parametrize("page", COMMAND_PAGES, ids=lambda p: p.stem)
def test_each_command_loads_exactly_its_submodules(tmp_path, page):
    # a fresh interpreter per worked example, so an import that creeps
    # into a command's path shows here as a slower cold start
    command, path, _ = worked_example(page, tmp_path)
    assert loaded_submodules(command, path) == (0, COMMAND_SUBMODULES[command])


def test_every_public_name_resolves_and_is_listed():
    import troplab

    listed = dir(troplab)
    assert len(set(troplab.__all__)) == len(troplab.__all__)
    for name in troplab.__all__:
        value = getattr(troplab, name)
        assert name in listed
        assert getattr(value, "__name__", name) == name
    for name in SUBMODULES:
        assert getattr(troplab, name).__name__ == f"troplab.{name}"
        assert name in listed


def test_unknown_name_raises_attribute_error():
    import troplab

    with pytest.raises(AttributeError, match="no_such_name"):
        troplab.no_such_name
    with pytest.raises(ImportError):
        from troplab import no_such_name  # noqa: F401


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so no check may rest on one
    package = os.path.join(SRC, "troplab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
            assert found == [], f"{name} asserts on lines {found}"


def library_trees():
    package = os.path.join(SRC, "troplab")
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), name)
    return trees


def test_no_module_imports_a_private_name_of_another():
    # a private name is free to change with its own module; the _linalg
    # module itself may be imported, as a module
    found = []
    for module, tree in library_trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = node.module or ""
            if not (node.level or source.partition(".")[0] == "troplab"):
                continue
            package = source in ("", "troplab")
            found += [
                f"{module}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not (package and alias.name == "_linalg")
            ]
    assert found == [], found


def test_only_rationals_reads_scalars_as_integer_ratios():
    # one integer reading of exact and float scalars: rationals.as_integers
    found = [
        f"{module}:{node.lineno}"
        for module, tree in library_trees().items()
        if module != "rationals.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "as_integer_ratio"
    ]
    assert found == [], found


def test_the_lattice_search_takes_no_float_square_root():
    # one walk for both modes: each level's range is read from integers
    # (rationals.square_range), so the search converts nothing to float
    # and takes no float square root
    found = [
        f"lattice.py:{node.lineno}"
        for node in ast.walk(library_trees()["lattice.py"])
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "float"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "sqrt"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "math"
        )
    ]
    assert found == [], found


def test_the_lattice_walk_sums_no_centre_at_a_node():
    # each level's centre is kept as the walk descends, so the recursive
    # function of _enumerate_up_to reads it and calls no sum; the walk
    # starts each vector at a positive last nonzero coordinate, so it
    # never reaches the zero vector and calls no any either
    walk = next(
        node for node in ast.walk(library_trees()["lattice.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "_enumerate_up_to"
    )
    nested = [node for node in ast.walk(walk) if isinstance(node, ast.FunctionDef) and node is not walk]
    assert nested, "the walk has no recursive function"
    found = [
        f"lattice.py:{node.lineno}"
        for fn in nested
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("sum", "any")
    ]
    assert found == [], found


def test_only_rationals_calls_round():
    # one reading of integral arguments: rationals.integral_matrix decides
    # an entry by its exact value; round(True) == True would count a bool
    found = [
        f"{module}:{node.lineno}"
        for module, tree in library_trees().items()
        if module != "rationals.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "round"
    ]
    assert found == [], found


def test_only_rationals_checks_for_bool():
    # one reading of integer arguments: rationals.coerce_integer, which
    # refuses a bool where an integer is required
    found = [
        f"{module}:{node.lineno}"
        for module, tree in library_trees().items()
        if module != "rationals.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(
            isinstance(t, ast.Name) and t.id == "bool"
            for t in ast.walk(node.args[1])
        )
    ]
    assert found == [], found


def test_only_rationals_reads_the_mode_of_a_document():
    # one reading of a document's arithmetic mode: rationals.parse_mode
    def reads_mode(node):
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            key = node.args[0] if node.func.attr == "get" and node.args else None
        else:
            return False
        return isinstance(key, ast.Constant) and key.value == "mode"

    found = [
        f"{module}:{node.lineno}"
        for module, tree in library_trees().items()
        if module != "rationals.py"
        for node in ast.walk(tree)
        if reads_mode(node)
    ]
    assert found == [], found


def test_every_module_level_import_is_used():
    # an import that nothing in its module names is dead; __init__.py
    # imports to re-export
    unused = []
    for module, tree in library_trees().items():
        if module == "__init__.py":
            continue
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in named:
                        unused.append(f"{module}:{node.lineno} {bound}")
    assert unused == [], unused


def test_every_private_definition_is_used():
    # a private function, class or method that nothing names outside its
    # own body is dead code
    trees = library_trees()

    def is_private(name):
        return name.startswith("_") and not name.endswith("__")

    uses = []  # (module, node) for every name, attribute and import alias
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node, node.attr))
            elif isinstance(node, ast.alias):
                uses.append((module, node, node.name))

    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for module, tree in trees.items():
        scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        for body in scopes:
            for node in body:
                if not isinstance(node, kinds) or not is_private(node.name):
                    continue
                inside = {id(n) for n in ast.walk(node)}
                if not any(
                    name == node.name and not (mod == module and id(use) in inside)
                    for mod, use, name in uses
                ):
                    unused.append(f"{module}:{node.lineno} {node.name}")
    assert unused == [], unused



def test_every_module_level_name_is_used():
    # a module-level assignment that its own module never reads, and no
    # other module imports or reads as an attribute, is dead; dunders such
    # as __all__ are read by the import system
    trees = library_trees()
    used = set()  # (module, name)
    attributes = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used.update((f"{node.module}.py", alias.name) for alias in node.names)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            else:
                targets = [getattr(node, "target", None)]
            for target in targets:
                if not isinstance(target, ast.Name) or target.id.startswith("__"):
                    continue
                if (module, target.id) not in used and target.id not in attributes:
                    unused.append(f"{module}:{node.lineno} {target.id}")
    assert unused == [], unused


def test_length_variants_go_through_with_lengths():
    # a graph rebuilt from another graph's vertices re-checks combinatorics
    # that graph already checked; WeightedMetricGraph.with_lengths shares it
    def is_graph_constructor(func):
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == "WeightedMetricGraph"

    found = [
        f"{module}:{node.lineno}"
        for module, tree in library_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and is_graph_constructor(node.func)
        and any(
            isinstance(arg, ast.Attribute) and arg.attr == "vertices"
            for arg in node.args[:1] + [k.value for k in node.keywords if k.arg == "vertices"]
        )
    ]
    assert found == [], found


def test_derived_forms_go_through_the_builder():
    # rows built with rationals.quotient come from integers the caller
    # already holds; QuadraticForm._from_gram takes those integers, where the
    # constructor would read the Fractions back and eliminate them again
    def is_form_constructor(func):
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == "QuadraticForm"

    def calls_quotient(node):
        return any(
            isinstance(n, ast.Call) and getattr(n.func, "id", None) == "quotient"
            for n in ast.walk(node)
        )

    found = set()
    for module, tree in library_trees().items():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            built = {
                target.id
                for node in ast.walk(func)
                if isinstance(node, (ast.Assign, ast.AugAssign)) and calls_quotient(node.value)
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name)
            }
            found.update(
                f"{module}:{node.lineno}"
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and is_form_constructor(node.func)
                and node.args
                and (
                    calls_quotient(node.args[0])
                    or isinstance(node.args[0], ast.Name) and node.args[0].id in built
                )
            )
    assert sorted(found) == [], sorted(found)
