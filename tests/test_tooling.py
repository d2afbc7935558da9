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
