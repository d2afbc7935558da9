import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import sys
before = set(sys.modules)
import troplab
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"troplab"})))
"""


def test_import_loads_only_stdlib_and_troplab():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split() == []


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so no check may rest on one
    package = os.path.join(SRC, "troplab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
            assert found == [], f"{name} asserts on lines {found}"


def test_every_private_definition_is_used():
    # a private function, class or method that nothing names outside its
    # own body is dead code
    package = os.path.join(SRC, "troplab")
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), name)

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
