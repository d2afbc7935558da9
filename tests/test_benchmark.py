"""What bench/ needs of troplab, checked in-process on one pass.

The benchmark builds its inputs through troplab's constructors and JSON
codecs, wraps named layer functions with its tracer and compares each
result with its own oracles.  These tests read bench/ and change nothing
there: a name the tracer wraps, a codec a workload builds through, or a
result its oracle rejects fails here before it fails a benchmark run.
"""

import importlib
import io
import json
import sys

import pytest

import troplab
from troplab.cli import main

from helpers import ROOT, run_probe

SUBMODULES = ("forms", "lattice", "siegel", "limits", "tropical", "degen", "hybrid", "cli")
SEED = 1


@pytest.fixture
def bench(monkeypatch):
    """The bench modules calls, oracles, spans and workloads, as run.py
    imports them: by bare name, from bench/, writing no bytecode there;
    they leave sys.modules afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    before = set(sys.modules)
    yield {name: importlib.import_module(name)
           for name in ("calls", "oracles", "spans", "workloads")}
    for name in set(sys.modules) - before:
        if not name.startswith("troplab"):
            del sys.modules[name]


def _traced(span):
    """The object that the span wraps: a function, a method or, for a
    bare class name, the class's __init__."""
    layer, name = span.split(".", 1)
    home = importlib.import_module(f"troplab.{layer}")
    if not name[0].isupper():
        return getattr(home, name)
    cls, _, meth = name.partition(".")
    return getattr(getattr(home, cls), meth or "__init__")


def test_tracer_wraps_every_layer_and_puts_it_back(bench):
    modules = [importlib.import_module(f"troplab.{name}") for name in SUBMODULES]
    names = bench["spans"].SPAN_NAMES
    # forms keeps each name of the lattice search once it is first read,
    # so every traced name is read before the namespaces are compared
    for span in names:
        _traced(span)
    before = [dict(vars(m)) for m in modules]
    tracer = bench["spans"].Tracer()
    tracer.install()
    try:
        assert [s for s in names if not hasattr(_traced(s), "__wrapped__")] == []
    finally:
        tracer.uninstall()
    assert [s for s in names if hasattr(_traced(s), "__wrapped__")] == []
    assert [dict(vars(m)) for m in modules] == before


@pytest.mark.parametrize("workload", ["exact-lattice", "degenerations", "sampled-float"])
def test_first_pass_passes_its_checks(bench, workload):
    specs = bench["workloads"].generate(workload, SEED, 0)
    failed = []
    for call in bench["calls"].build(specs, troplab):
        if call.fault:
            continue
        try:
            ok = bool(call.check(call.run()))
        except Exception as exc:  # a failing call is what this looks for
            ok = repr(exc)
        if ok is not True:
            failed.append((call.op, ok))
    assert failed == []


def test_cli_examples_match_their_stored_output(bench, capsys, monkeypatch):
    specs = bench["workloads"].generate("cli-cold", SEED, 0)
    bench["calls"].parse_cli_inputs(troplab, specs)
    assert len(specs) == 12
    wrong = []
    for _, d in specs:
        monkeypatch.setattr("sys.stdin", io.StringIO(d["stdin"]))
        code = main([d["command"], "-", "--seed", str(d["seed"])])
        out = capsys.readouterr().out
        if code != 0 or not bench["oracles"].same_value(json.loads(out), d["expected"], d["tol"]):
            wrong.append((d["command"], code))
    assert wrong == []


SETUP_LOADS = """
import sys
sys.dont_write_bytecode = True
sys.path.insert(0, %r)
import calls, troplab, workloads
calls.build(workloads.generate(sys.argv[1], %d, 0), troplab)
print(" ".join(sorted(m for m in sys.modules if m.startswith("troplab."))))
"""


@pytest.mark.parametrize("workload", ["exact-lattice", "sampled-float"])
def test_setup_loads_no_search_module(workload):
    # building a workload's inputs, as a fresh benchmark set-up process
    # does, compiles no lattice search
    loaded = run_probe(SETUP_LOADS % (str(ROOT / "bench"), SEED), workload)[0].split()
    assert "troplab.lattice" not in loaded
    assert "troplab.forms" in loaded

