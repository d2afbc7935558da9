import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import troplab
from troplab import (
    AVFamily,
    CurveFamily,
    FlatTorus,
    IncidenceComplex,
    MonomialEntry,
    QuadraticForm,
    SiegelPoint,
    SymbolicSiegelPath,
    WeightedMetricGraph,
)
from troplab.cli import main
from troplab.tropical import TropicalAV

from helpers import COMMAND_PAGES, loaded_submodules, worked_example

F = Fraction


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_proc(args, stdin_text=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "troplab.cli"] + args,
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
    )


HANDCUFF = {
    "vertices": [{"id": "p", "w": 0}, {"id": "q", "w": 0}],
    "edges": [
        {"u": "p", "v": "p", "len": 1},
        {"u": "q", "v": "q", "len": 1},
        {"u": "p", "v": "q", "len": 1},
    ],
}

CURVE_FAMILY = {"graph": HANDCUFF, "multiplicities": [1, 2, 3]}

# genus-1 samples whose one direction grows without bound
DIVERGING_SAMPLES = [
    {"g": 1, "X": [[0]], "Y": [[k]]} for k in (2, 4, 8, 16, 32, 64, 128, 256)
]


class TestReduce:
    def test_translation_with_integer_witness(self, capsys, tmp_path):
        doc = {"g": 1, "X": [["9/2"]], "Y": [["3"]]}
        code, out, _ = run_main(capsys, "reduce", write_doc(tmp_path, "z.json", doc))
        assert code == 0
        result = json.loads(out)
        assert result["in_siegel_set"] is True
        assert result["u"] == 2
        for row in result["transform"]:
            for v in row:
                assert isinstance(v, int)
        point = SiegelPoint.from_json_dict(result["point"])
        assert abs(point.x[0][0]) <= F(1, 2)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_float_entry_is_precondition_failure(
        self, capsys, tmp_path, literal
    ):
        # json.loads accepts these literals and hands over non-finite floats
        path = tmp_path / "z.json"
        path.write_text(
            '{"g": 1, "mode": "float", "X": [[0.0]], "Y": [[%s]]}' % literal
        )
        code, out, err = run_main(capsys, "reduce", str(path))
        assert code == 3
        assert out == ""
        assert "finite: entries[0][0]" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_x_entry_is_precondition_failure(self, capsys, tmp_path, literal):
        path = tmp_path / "z.json"
        path.write_text('{"mode": "float", "X": [[%s]], "Y": [[1.0]]}' % literal)
        code, out, err = run_main(capsys, "reduce", str(path))
        assert code == 3
        assert out == ""
        assert "finite: X[0][0]" in err

    @pytest.mark.parametrize(
        "doc, pointer",
        [({"X": [0], "Y": [[1]]}, "/X/0"), ({"X": [[0]], "Y": [1]}, "/Y/0")],
        ids=["X", "Y"],
    )
    def test_matrix_row_not_an_array_is_schema_error(
        self, capsys, tmp_path, doc, pointer
    ):
        code, out, err = run_main(capsys, "reduce", write_doc(tmp_path, "z.json", doc))
        assert code == 2
        assert out == ""
        assert "matrix rows must be arrays" in err
        assert pointer in err

    def test_unknown_mode_is_schema_error(self, capsys, tmp_path):
        doc = {"g": 1, "mode": "fuzzy", "X": [[0]], "Y": [[1]]}
        code, out, err = run_main(capsys, "reduce", write_doc(tmp_path, "z.json", doc))
        assert code == 2
        assert out == ""
        assert "mode must be 'exact' or 'float', not 'fuzzy' (at /mode)" in err

    @pytest.mark.parametrize("g", [3, "two"], ids=["wrong-size", "not-an-integer"])
    def test_bad_genus_is_schema_error(self, capsys, tmp_path, g):
        doc = {"g": g, "X": [["9/2"]], "Y": [["3"]]}
        code, out, err = run_main(capsys, "reduce", write_doc(tmp_path, "z.json", doc))
        assert code == 2
        assert out == ""
        assert f"equal to the size of Y, not {g!r} (at /g)" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"X": [[0]]}, "expected an array of arrays (at /Y)"),
            ([1], "point must be an object (at /)"),
        ],
        ids=["missing-Y", "not-an-object"],
    )
    def test_schema_pointer_is_rooted_once(self, capsys, tmp_path, doc, message):
        # a key of the top-level document is "/Y"; "//Y" would name the key
        # "Y" inside a key ""
        code, out, err = run_main(capsys, "reduce", write_doc(tmp_path, "z.json", doc))
        assert code == 2
        assert out == ""
        assert message in err
        assert "//" not in err


@pytest.mark.parametrize("r", [True, 1.0], ids=["bool", "float"])
def test_av_limit_rank_must_be_an_integer(capsys, tmp_path, r):
    doc = write_doc(tmp_path, "a.json", {"M": [[1]], "r": r})
    code, out, err = run_main(capsys, "av-limit", doc)
    assert code == 2
    assert out == ""
    assert "(at /r)" in err


@pytest.mark.parametrize("m", ["x", 1.5, True], ids=["str", "float", "bool"])
@pytest.mark.parametrize("command", ["curve-limit", "torelli-check"])
def test_mistyped_multiplicity_is_schema_error(capsys, tmp_path, command, m):
    doc = {**CURVE_FAMILY, "multiplicities": [1, m, 3]}
    code, out, err = run_main(capsys, command, write_doc(tmp_path, "f.json", doc))
    assert code == 2
    assert out == ""
    assert "(at /multiplicities/1)" in err


@pytest.mark.parametrize("g", ["x", 5, True, 2.0], ids=["str", "wrong-size", "bool", "float"])
@pytest.mark.parametrize("command", ["collapse", "volume-limit"])
def test_path_genus_must_equal_the_size_of_d(capsys, tmp_path, command, g):
    doc = {
        "g": g,
        "X": [[{"c": 0}, {"c": 0}], [{"c": 0}, {"c": 0}]],
        "B": [[{"c": 1}, {"c": 0}], [{"c": 0}, {"c": 1}]],
        "D": [{"c": 2, "e": 0}, {"c": 1, "e": 1}],
    }
    code, out, err = run_main(capsys, command, write_doc(tmp_path, "p.json", doc))
    assert code == 2
    assert out == ""
    assert f"equal to the size of D, not {g!r} (at /g)" in err


@pytest.mark.parametrize("mode", ["fuzzy", []], ids=["str", "list"])
@pytest.mark.parametrize(
    "command, doc",
    [
        ("reduce", {"X": [[0]], "Y": [[1]]}),
        ("trop-jac", {"vertices": [{"id": 0, "w": 0}], "edges": [{"u": 0, "v": 0, "len": 1}]}),
    ],
    ids=["reduce", "trop-jac"],
)
def test_unknown_mode_is_schema_error_at_mode(capsys, tmp_path, command, doc, mode):
    code, out, err = run_main(capsys, command, write_doc(tmp_path, "m.json", {**doc, "mode": mode}))
    assert code == 2
    assert out == ""
    assert f"mode must be 'exact' or 'float', not {mode!r} (at /mode)" in err


def monomial_path(d, x=(), b=()):
    """A symbolic path document: diagonal d = [(c, e), ...], X zero and B
    the identity but for the entries {(i, j): (c, e)} in x and b."""
    g = len(d)
    xs = [[{"c": 0}] * g for _ in range(g)]
    bs = [[{"c": int(i == j)} for j in range(g)] for i in range(g)]
    for (i, j), (c, e) in dict(x).items():
        xs[i][j] = xs[j][i] = {"c": c, "e": e}
    for (i, j), (c, e) in dict(b).items():
        bs[i][j] = {"c": c, "e": e}
    return {"X": xs, "B": bs, "D": [{"c": c, "e": e} for c, e in d]}


class TestCollapse:
    @pytest.mark.parametrize(
        "doc, r, entries",
        [
            # X11 = s, D = (s, 2s)
            (monomial_path([(1, 1), (2, 1)], x={(0, 0): (1, 1)}), 0, [["4/3", 0], [0, "8/3"]]),
            # B12 = s, D = (s, s^3)
            (monomial_path([(1, 1), (1, 3)], b={(0, 1): (1, 1)}), 1, [[4]]),
        ],
        ids=["diverging-X", "diverging-B-outside-the-tail"],
    )
    def test_entry_the_limit_does_not_read_may_diverge(self, capsys, tmp_path, doc, r, entries):
        code, out, _ = run_main(capsys, "collapse", write_doc(tmp_path, "p.json", doc))
        assert code == 0
        result = json.loads(out)
        assert result["r"] == r
        assert result["limit"]["gram"]["entries"] == entries

    @pytest.mark.parametrize(
        "doc, message",
        [
            # D = (s^2, s) with B12 = 1/3: the limit exists, but the path
            # is not in a fundamental set
            (monomial_path([(1, 2), (1, 1)], b={(0, 1): ("1/3", 0)}), "d-ordering: d[0] outgrows d[1]"),
            (
                monomial_path([(1, 1), (1, 1)], b={(0, 1): ("1/7", 1)}),
                "bounded-entry: B[0][1] diverges; no limit exists",
            ),
        ],
        ids=["d-ordering", "diverging-B-in-the-tail"],
    )
    def test_refused_path_is_precondition_failure(self, capsys, tmp_path, doc, message):
        code, out, err = run_main(capsys, "collapse", write_doc(tmp_path, "p.json", doc))
        assert code == 3
        assert out == ""
        assert message in err

    def test_symbolic(self, capsys, tmp_path):
        doc = {
            "g": 2,
            "X": [[{"c": 0}, {"c": 0}], [{"c": 0}, {"c": 0}]],
            "B": [[{"c": 1}, {"c": 0}], [{"c": 0}, {"c": 1}]],
            "D": [{"c": 2, "e": 0}, {"c": 1, "e": 1}],
        }
        code, out, _ = run_main(
            capsys, "collapse", write_doc(tmp_path, "p.json", doc)
        )
        assert code == 0
        result = json.loads(out)
        assert result["r"] == 1
        assert result["collapsed"] is True
        torus = FlatTorus.from_json_dict(result["limit"])
        assert torus.gram.entries[0][0] == 4

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"X": [5], "B": [[{"c": 1}]], "D": [{"c": 1}]},
                "matrix rows must be arrays (at /X/0)",
            ),
            (
                {"X": [{"c": 0}], "B": [[{"c": 1}]], "D": [{"c": 1}]},
                "matrix rows must be arrays (at /X/0)",
            ),
            (
                {"X": [[{"c": 0}]], "B": [7], "D": [{"c": 1}]},
                "matrix rows must be arrays (at /B/0)",
            ),
            (
                {"X": [[5]], "B": [[{"c": 1}]], "D": [{"c": 1}]},
                "monomial must be an object with 'c' (at /X/0/0)",
            ),
        ],
        ids=["int-row", "monomial-row", "B-row", "int-entry"],
    )
    def test_malformed_path_is_schema_error(self, capsys, tmp_path, doc, message):
        code, out, err = run_main(
            capsys, "collapse", write_doc(tmp_path, "p.json", doc)
        )
        assert code == 2
        assert out == ""
        assert message in err

    def test_numeric_with_csv(self, capsys, tmp_path):
        # a document with samples is read as sampled, and its report
        # carries each cell of the per-sample table
        code, out, _ = run_main(
            capsys,
            "collapse",
            write_doc(tmp_path, "s.json", {"samples": DIVERGING_SAMPLES}),
        )
        assert code == 0
        result = json.loads(out)
        assert result["r"] == 0
        assert result["report"]["diverging"] is True
        assert len(result["report"]["d_top"]) == 8
        assert list(result["report"]["ratios"]) == ["1"]
        assert len(result["report"]["ratios"]["1"]) == 8

    @pytest.mark.parametrize("doc", [{}, {"g": 1}, [], "x"], ids=["empty", "no-X", "list", "str"])
    def test_document_of_neither_kind_is_schema_error(self, capsys, tmp_path, doc):
        # without samples a document is read as a symbolic path
        code, out, err = run_main(capsys, "collapse", write_doc(tmp_path, "p.json", doc))
        assert code == 2
        assert out == ""
        pointer = "/X" if isinstance(doc, dict) else "/"
        assert f"(at {pointer})" in err

    @pytest.mark.parametrize(
        "u", ["x", [2], {"a": 1}, True], ids=["str", "list", "object", "bool"]
    )
    def test_numeric_slack_must_be_a_number(self, capsys, tmp_path, u):
        doc = write_doc(tmp_path, "s.json", {"samples": DIVERGING_SAMPLES, "u": u})
        code, out, err = run_main(capsys, "collapse", doc)
        assert code == 2
        assert out == ""
        assert "expected a number in float mode (at /u)" in err

    @pytest.mark.parametrize("u", [4, 2.5, None])
    def test_numeric_slack_number_is_read(self, capsys, tmp_path, u):
        doc = write_doc(tmp_path, "s.json", {"samples": DIVERGING_SAMPLES, "u": u})
        code, out, _ = run_main(capsys, "collapse", doc)
        assert code == 0
        assert json.loads(out)["r"] == 0


class TestVolumeAndInjrad:
    def test_volume_limit(self, capsys, tmp_path):
        doc = {
            "g": 2,
            "X": [[{"c": 0}, {"c": 0}], [{"c": 0}, {"c": 0}]],
            "B": [[{"c": 1}, {"c": 0}], [{"c": 0}, {"c": 1}]],
            "D": [{"c": 2, "e": 0}, {"c": 1, "e": 1}],
        }
        code, out, _ = run_main(
            capsys, "volume-limit", write_doc(tmp_path, "p.json", doc)
        )
        assert code == 0
        result = json.loads(out)
        assert result["euclidean_rank"] == 1
        assert result["torus_part"]["gram"]["entries"] == [["1/2", 0], [0, 2]]

    def test_volume_limit_with_diverging_x_outside_the_torus(self, capsys, tmp_path):
        doc = monomial_path([(1, 0), (1, 1)], x={(0, 0): ("1/3", 0), (0, 1): ("1/7", 1)})
        code, out, _ = run_main(capsys, "volume-limit", write_doc(tmp_path, "p.json", doc))
        assert code == 0
        result = json.loads(out)
        assert result["euclidean_rank"] == 1
        assert result["torus_part"]["gram"]["entries"] == [[1, "1/3"], ["1/3", "10/9"]]

    def test_injrad_limit(self, capsys, tmp_path):
        doc = {"a": [1], "r": 0}
        code, out, _ = run_main(
            capsys, "injrad-limit", write_doc(tmp_path, "a.json", doc)
        )
        assert code == 0
        result = json.loads(out)
        assert result["circle_circumferences"] == [1]
        assert result["euclidean_rank"] == 1


class TestAVLimit:
    def test_valuation_matrix(self, capsys, tmp_path):
        code, out, _ = run_main(
            capsys, "av-limit", write_doc(tmp_path, "m.json", {"M": [[1, 0], [0, 2]]})
        )
        assert code == 0
        result = json.loads(out)
        torus = FlatTorus.from_json_dict(result["limit"])
        assert torus.gram.entries[0][0] == F(4, 3)

    def test_period_monomials(self, capsys, tmp_path):
        doc = {"periods": [["t", "1"], ["1", "t^2"]]}
        code, out, _ = run_main(
            capsys, "av-limit", write_doc(tmp_path, "p.json", doc)
        )
        assert code == 0
        result = json.loads(out)
        torus = FlatTorus.from_json_dict(result["limit"])
        assert torus.gram.entries[1][1] == F(8, 3)

    def test_samples_and_csv(self, capsys, tmp_path):
        # each sample carries the Gram entries of one row of the table
        doc = {"M": [[1, 0], [0, 2]], "t_samples": [1e-6, 1e-8]}
        code, out, _ = run_main(capsys, "av-limit", write_doc(tmp_path, "m.json", doc))
        assert code == 0
        result = json.loads(out)
        assert len(result["samples"]) == 2
        for sample in result["samples"]:
            assert len(FlatTorus.from_json_dict(sample).gram.entries) == 2


class TestCurveCommands:
    def test_curve_limit(self, capsys, tmp_path):
        code, out, _ = run_main(
            capsys, "curve-limit", write_doc(tmp_path, "f.json", CURVE_FAMILY)
        )
        assert code == 0
        graph = WeightedMetricGraph.from_json_dict(json.loads(out)["graph"])
        lengths = {l for _, _, l in graph.edges}
        assert len(lengths) == 1

    def test_trop_jac(self, capsys, tmp_path):
        code, out, _ = run_main(
            capsys, "trop-jac", write_doc(tmp_path, "g.json", HANDCUFF)
        )
        assert code == 0
        result = json.loads(out)
        assert result["gram"] == [[1, 0], [0, 1]]
        assert result["b1"] == 2
        assert len(result["basis"]) == 2
        tav = TropicalAV.from_json_dict(result)
        assert tav.b1 == 2

    def test_torelli_check(self, capsys, tmp_path):
        code, out, _ = run_main(
            capsys, "torelli-check", write_doc(tmp_path, "f.json", CURVE_FAMILY)
        )
        assert code == 0
        result = json.loads(out)
        assert result["continuous"] is False
        gh = FlatTorus.from_json_dict(result["gh_side"])
        assert gh.gram.entries[0][0] == 2


class TestComplexCommands:
    def test_dual_complex_with_quotient(self, capsys, tmp_path):
        doc = {"n": 2, "strata": [[1], [2], [1, 2]], "action": [[2, 1]]}
        code, out, _ = run_main(
            capsys, "dual-complex", write_doc(tmp_path, "c.json", doc)
        )
        assert code == 0
        result = json.loads(out)
        assert result["counts"] == {"0": 2, "1": 1}

    def test_dual_complex_plain(self, capsys, tmp_path):
        doc = {"n": 2, "strata": [[1], [2], [1, 2]]}
        code, out, _ = run_main(
            capsys, "dual-complex", write_doc(tmp_path, "c.json", doc)
        )
        assert code == 0
        assert json.loads(out)["counts"] == {"0": 2, "1": 1}

    def test_hybrid_limit_both_gluings(self, capsys, tmp_path):
        path = write_doc(tmp_path, "m.json", {"m": [1, 2, 3]})
        code, out, _ = run_main(capsys, "hybrid-limit", path)
        assert code == 0
        assert json.loads(out)["coords"] == ["1/6", "1/3", "1/2"]
        code, out, _ = run_main(capsys, "hybrid-limit", path, "--gluing", "loglog")
        assert code == 0
        assert json.loads(out)["coords"] == ["1/3", "1/3", "1/3"]

    def test_hybrid_limit_explicit_strata(self, capsys, tmp_path):
        doc = {"m": [1, 0], "n": 2, "strata": [[1], [2]]}
        code, out, _ = run_main(
            capsys, "hybrid-limit", write_doc(tmp_path, "m.json", doc)
        )
        assert code == 0
        assert json.loads(out)["support"] == [1]

    def test_dual_complex_huge_n_with_an_action(self, capsys, tmp_path):
        # each generator's length is checked before 1..n is built
        doc = {"n": 10**400, "strata": [[1]], "action": [[1]]}
        code, out, err = run_main(capsys, "dual-complex", write_doc(tmp_path, "c.json", doc))
        assert code == 3
        assert out == ""
        assert "precondition failed: permutation:" in err

    def test_dual_complex_huge_n_with_an_empty_action(self, capsys, tmp_path):
        # the trivial group's identity would list n entries: refused
        # before one is built (it escaped as an OverflowError)
        doc = {"n": 10**400, "strata": [[1]], "action": []}
        code, out, err = run_main(capsys, "dual-complex", write_doc(tmp_path, "c.json", doc))
        assert code == 3
        assert out == ""
        assert "precondition failed: permutation-degree:" in err

    @pytest.mark.parametrize(
        "coordinate, code",
        [("NaN", 3), ("Infinity", 3), ("-Infinity", 3), ("1" * 400, 3), ("[1, NaN]", 3),
         ("[1, %s]" % ("1" * 400), 3), ("true", 2), ("[1]", 2), ("[1, 2, 3]", 2)],
        ids=["nan", "inf", "-inf", "huge", "im-nan", "im-huge", "bool", "one-part", "three-parts"],
    )
    def test_tropicalize_bad_coordinate(self, capsys, tmp_path, coordinate, code):
        path = tmp_path / "z.json"
        path.write_text('{"points": [[0.5, 0.5], [0.5, %s]]}' % coordinate)
        got, out, err = run_main(capsys, "tropicalize", str(path))
        assert got == code
        assert out == ""
        assert ("finite:" if code == 3 else "(at /points/1/1)") in err

    def test_tropicalize(self, capsys, tmp_path):
        doc = {
            "points": [
                [[0.36787944117144233, 0.0], 0.1353352832366127],
                [0.1353352832366127, 0.018315638888734179],
                [0.018315638888734179, 0.00033546262790251185],
                [0.00033546262790251185, 1.1253517471925912e-07],
                [1.1253517471925912e-07, 1.2664165549094176e-14],
            ]
        }
        code, out, _ = run_main(
            capsys, "tropicalize", write_doc(tmp_path, "z.json", doc)
        )
        assert code == 0
        result = json.loads(out)
        assert result["direction"] is not None
        assert result["direction"][1] == pytest.approx(2 / 5**0.5, abs=1e-6)


class TestCollarCommand:
    def test_series_and_csv(self, capsys, tmp_path):
        # the series holds each (t, length) row of the table
        doc = {"t": [1e-4, 1e-5, 1e-6], "c_star": 0.5}
        code, out, _ = run_main(capsys, "collar", write_doc(tmp_path, "c.json", doc))
        assert code == 0
        result = json.loads(out)
        assert [row["t"] for row in result["series"]] == doc["t"]
        lengths = [row["length"] for row in result["series"]]
        assert lengths == sorted(lengths)

    def test_scalar_t(self, capsys, tmp_path):
        doc = {"t": 1e-6, "c_star": 0.5}
        code, out, _ = run_main(
            capsys, "collar", write_doc(tmp_path, "c.json", doc)
        )
        assert code == 0
        assert len(json.loads(out)["series"]) == 1


class TestExitCodes:
    def test_malformed_json_is_schema_error(self):
        proc = run_proc(["trop-jac"], stdin_text="{nope")
        assert proc.returncode == 2
        assert "schema error" in proc.stderr

    def test_integer_past_the_digit_limit_is_schema_error(self, capsys, tmp_path):
        # json.loads refuses an integer of more than 4300 digits with a
        # plain ValueError, not a JSONDecodeError
        path = tmp_path / "c.json"
        path.write_text('{"n": %s, "strata": [[1]]}' % ("1" * 5000))
        code, out, err = run_main(capsys, "dual-complex", str(path))
        assert code == 2
        assert out == ""
        assert "(at /)" in err

    def test_missing_key_is_schema_error(self):
        proc = run_proc(["trop-jac"], stdin_text='{"edges": []}')
        assert proc.returncode == 2

    def test_unreadable_file_is_schema_error(self, tmp_path):
        proc = run_proc(["trop-jac", str(tmp_path / "missing.json")])
        assert proc.returncode == 2

    def test_tree_graph_is_precondition_failure(self):
        doc = {
            "vertices": [{"id": "a", "w": 0}, {"id": "b", "w": 0}],
            "edges": [{"u": "a", "v": "b", "len": 1}],
        }
        proc = run_proc(["trop-jac"], stdin_text=json.dumps(doc))
        assert proc.returncode == 3
        assert "positive-genus" in proc.stderr

    def test_indefinite_valuations_are_precondition_failure(self):
        proc = run_proc(["av-limit"], stdin_text='{"M": [[0]]}')
        assert proc.returncode == 3
        assert "positive-definite" in proc.stderr

    def test_unstable_family_is_precondition_failure(self):
        doc = {
            "graph": {
                "vertices": [{"id": "a", "w": 0}, {"id": "b", "w": 0}],
                "edges": [
                    {"u": "a", "v": "a", "len": 1},
                    {"u": "a", "v": "a", "len": 1},
                    {"u": "a", "v": "b", "len": 1},
                ],
            },
            "multiplicities": [1, 1, 1],
        }
        proc = run_proc(["curve-limit"], stdin_text=json.dumps(doc))
        assert proc.returncode == 3
        assert "stable-dual-graph" in proc.stderr

    def test_bad_tolerance_is_schema_error(self):
        proc = run_proc(["collapse", "--tol", "0"], stdin_text="{}")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "(at /--tol)" in proc.stderr

    def test_flag_the_command_does_not_take_is_usage_error(self):
        # av-limit computes exactly and takes no --tol
        proc = run_proc(["av-limit", "--tol", "0"], stdin_text='{"M": [[1]]}')
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: --tol" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command, flags, pointer",
        [
            ("reduce", ["--max-iter", "0"], "/--max-iter"),
            ("reduce", ["--u", "nan"], "/--u"),
            ("reduce", ["--u", "inf"], "/--u"),
            ("collapse", ["--tol", "nan"], "/--tol"),
            ("tropicalize", ["--tol", "nan"], "/--tol"),
            ("tropicalize", ["--tol", "inf"], "/--tol"),
        ],
        ids=["max-iter-0", "u-nan", "u-inf", "collapse-tol-nan", "tol-nan", "tol-inf"],
    )
    def test_flag_out_of_range_is_schema_error(
        self, capsys, tmp_path, command, flags, pointer
    ):
        doc = {"X": [["9/2"]], "Y": [["3"]], "points": [[0.5]]}
        code, out, err = run_main(
            capsys, command, write_doc(tmp_path, "d.json", doc), *flags
        )
        assert code == 2
        assert out == ""
        assert f"(at {pointer})" in err

    @pytest.mark.parametrize("end, bad", [("u", ["a"]), ("v", {"x": 1}), ("u", True)])
    @pytest.mark.parametrize(
        "command, where", [("trop-jac", ""), ("curve-limit", "/graph"), ("torelli-check", "/graph")]
    )
    def test_bad_edge_endpoint_is_schema_error(self, capsys, tmp_path, command, where, end, bad):
        graph = json.loads(json.dumps(HANDCUFF))
        graph["edges"][1][end] = bad
        doc = graph if not where else {"graph": graph, "multiplicities": [1, 2, 3]}
        code, out, err = run_main(capsys, command, write_doc(tmp_path, "g.json", doc))
        assert code == 2
        assert out == ""
        assert f"(at {where}/edges/1/{end})" in err

    @pytest.mark.parametrize(
        "doc, pointer",
        [
            ({"n": 2, "strata": [[[1]], [2], [1, 2]]}, "/strata/0/0"),
            ({"n": 2, "strata": [[1], [2], [1, {"x": 1}]]}, "/strata/2/1"),
            ({"n": 2, "strata": [[1], [2], [1, True]]}, "/strata/2/1"),
            ({"n": 2, "strata": [[1], [2], [1, 2]], "action": [["x", 1]]}, "/action/0/0"),
            ({"n": 2, "strata": [[1], [2], [1, 2]], "action": [[2, [1]]]}, "/action/0/1"),
            ({"n": 2, "strata": [[1], [2], [1, 2]], "action": [[2, 1.0]]}, "/action/0/1"),
        ],
        ids=["stratum-list", "stratum-object", "stratum-bool", "action-string",
             "action-list", "action-float"],
    )
    def test_bad_divisor_id_is_schema_error(self, capsys, tmp_path, doc, pointer):
        code, out, err = run_main(capsys, "dual-complex", write_doc(tmp_path, "c.json", doc))
        assert code == 2
        assert out == ""
        assert f"(at {pointer})" in err

    @pytest.mark.parametrize(
        "command, doc, reason",
        [
            # the exact Jacobian entry 2e308 has no double
            ("trop-jac", {"mode": "float", "vertices": [{"id": 0, "w": 0}, {"id": 1, "w": 0}],
                          "edges": [{"u": 0, "v": 1, "len": 1e308}] * 3}, "finite"),
            # the reduced Y is about 6e318
            ("reduce", {"g": 1, "mode": "float", "X": [[0.25]], "Y": [[1e-320]]}, "finite"),
            ("collar", {"t": 0.001, "c_star": 1e308}, "collar-range"),
            ("collar", {"t": 0.001, "c_star": -0.5}, "collar-range"),
            # integers with no double where a float is read; the worked
            # examples are all exact, so the sweep never reads a float-mode
            # matrix
            ("reduce", {"g": 1, "mode": "float", "X": [[0.0]], "Y": [[10**400]]}, "finite"),
            ("av-limit", {"M": [[1]], "t_samples": [-(10**400)]}, "finite"),
            ("collar", {"t": [0.001, 10**400], "c_star": 0.5}, "finite"),
        ],
        ids=["trop-jac", "reduce", "collar-huge", "collar-negative", "reduce-huge-int",
             "av-limit-huge-int", "collar-huge-int"],
    )
    def test_float_past_the_double_range_is_precondition_failure(
        self, capsys, tmp_path, command, doc, reason
    ):
        code, out, err = run_main(capsys, command, write_doc(tmp_path, "d.json", doc))
        assert code == 3
        assert out == ""
        assert f"precondition failed: {reason}:" in err



def _found_samples():
    """g = 2 float points whose top diagonal 2 s^2, at s = 10^k for
    k = 1, 3, 2, 5, 4, 7, 6, 8, neither grows nor settles at the end."""
    out = []
    for k in (1, 3, 2, 5, 4, 7, 6, 8):
        s = 10.0**k
        out.append({"g": 2, "mode": "float", "X": [[-0.5, -1 / s], [-1 / s, -0.25]],
                    "Y": [[1.5 * s, 0.0], [0.0, 2 * s * s]]})
    return out


@pytest.mark.parametrize(
    "command, doc, reason",
    [
        ("collapse", {"X": [], "B": [], "D": []}, "positive-genus"),
        ("volume-limit", {"X": [], "B": [], "D": []}, "positive-genus"),
        ("collapse", {"samples": _found_samples()}, "oscillating-ratios"),
    ],
    ids=["collapse-empty-path", "volume-limit-empty-path", "collapse-unsettled-samples"],
)
def test_path_with_no_limit_is_precondition_failure(capsys, tmp_path, command, doc, reason):
    code, out, err = run_main(capsys, command, write_doc(tmp_path, "p.json", doc))
    assert code == 3
    assert out == ""
    assert f"precondition failed: {reason}:" in err


class TestDeterminismAndLogging:
    def test_byte_identical_output(self):
        doc = json.dumps(CURVE_FAMILY)
        a = run_proc(["torelli-check"], stdin_text=doc)
        b = run_proc(["torelli-check"], stdin_text=doc)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_info_logging_stays_on_stderr(self):
        doc = json.dumps(HANDCUFF)
        quiet = run_proc(["trop-jac"], stdin_text=doc)
        loud = run_proc(
            ["trop-jac"], stdin_text=doc, env_extra={"TROPLAB_LOG": "info"}
        )
        assert loud.returncode == 0
        assert loud.stdout == quiet.stdout
        assert "troplab" in loud.stderr

    def test_unknown_log_level_falls_back(self):
        proc = run_proc(
            ["trop-jac"],
            stdin_text=json.dumps(HANDCUFF),
            env_extra={"TROPLAB_LOG": "chatty"},
        )
        assert proc.returncode == 0
        assert "unknown TROPLAB_LOG" in proc.stderr

    def test_debug_lines_keep_their_format(self):
        proc = run_proc(
            ["trop-jac"],
            stdin_text=json.dumps(HANDCUFF),
            env_extra={"TROPLAB_LOG": " Debug "},
        )
        assert proc.returncode == 0
        assert proc.stderr == (
            "troplab INFO: reading JSON from stdin\n"
            "troplab DEBUG: arguments: "
            "{'command': 'trop-jac', 'input': '-', 'seed': None}\n"
        )

    def test_debug_line_reports_the_tolerance_the_command_runs_at(self, tmp_path):
        path = write_doc(tmp_path, "s.json", {"samples": DIVERGING_SAMPLES})
        proc = run_proc(
            ["collapse", path], env_extra={"TROPLAB_LOG": "debug"}
        )
        assert proc.returncode == 0
        assert "'tol': 0.001," in proc.stderr

    def test_stdin_default(self):
        proc = run_proc(["av-limit"], stdin_text='{"M": [[1]]}')
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["limit"]["gram"]["entries"] == [[4]]


class TestRoundTrips:
    def test_curve_limit_output_reparses(self, capsys, tmp_path):
        code, out, _ = run_main(
            capsys, "curve-limit", write_doc(tmp_path, "f.json", CURVE_FAMILY)
        )
        graph = WeightedMetricGraph.from_json_dict(json.loads(out)["graph"])
        CurveFamily(graph, [1] * len(graph.edges))

    def test_dual_complex_input_reparses(self, capsys, tmp_path):
        doc = {"n": 3, "strata": [[1], [2], [3], [1, 2], [2, 3]]}
        code, out, _ = run_main(
            capsys, "dual-complex", write_doc(tmp_path, "c.json", doc)
        )
        assert code == 0
        IncidenceComplex.from_json_dict(doc)


# (codec, worked example, its "input" or "output", keys down to the document)
CODEC_DOCUMENTS = [
    (MonomialEntry, "collapse", "input", ("D", 1)),
    (SymbolicSiegelPath, "collapse", "input", ()),
    (SymbolicSiegelPath, "volume-limit", "input", ()),
    (QuadraticForm, "volume-limit", "output", ("torus_part", "gram")),
    (QuadraticForm, "av-limit", "output", ("samples", 0, "gram")),
    (FlatTorus, "collapse", "output", ("limit",)),
    (FlatTorus, "torelli-check", "output", ("av_side",)),
    (SiegelPoint, "reduce", "input", ()),
    (SiegelPoint, "reduce", "output", ("point",)),
    (WeightedMetricGraph, "trop-jac", "input", ()),
    (WeightedMetricGraph, "curve-limit", "output", ("graph",)),
    (TropicalAV, "trop-jac", "output", ()),
    (AVFamily, "av-limit", "input", ()),
    (CurveFamily, "curve-limit", "input", ()),
    (CurveFamily, "torelli-check", "input", ()),
    (IncidenceComplex, "dual-complex", "input", ()),
]


def worked_example_documents(stem, tmp_path):
    """{"input": ..., "output": ...}: the JSON documents of a worked example."""
    page = next(p for p in COMMAND_PAGES if p.stem == stem)
    _, path, stdout = worked_example(page, tmp_path)
    with open(path, encoding="utf-8") as f:
        return {"input": json.load(f), "output": json.loads(stdout)}


def assert_round_trips(codec, doc):
    # reading what a value prints gives a value that prints the same JSON
    printed = json.dumps(codec.from_json_dict(doc).to_json_dict(), sort_keys=True)
    again = codec.from_json_dict(json.loads(printed)).to_json_dict()
    assert json.dumps(again, sort_keys=True) == printed


@pytest.mark.parametrize(
    "codec, stem, side, keys",
    CODEC_DOCUMENTS,
    ids=[f"{codec.__name__}-{stem}-{side}" for codec, stem, side, _ in CODEC_DOCUMENTS],
)
def test_codec_round_trips_the_worked_examples(tmp_path, codec, stem, side, keys):
    doc = worked_example_documents(stem, tmp_path)[side]
    for key in keys:
        doc = doc[key]
    assert_round_trips(codec, doc)


def test_every_codec_has_a_round_trip_case():
    exported = (getattr(troplab, name) for name in troplab.__all__)
    codecs = {v for v in exported if isinstance(v, type) and hasattr(v, "from_json_dict")}
    assert codecs == {codec for codec, *_ in CODEC_DOCUMENTS}


def test_t_convention_path_is_printed_in_s(tmp_path):
    # every exponent of a "t" document is negated on input
    s_doc = worked_example_documents("collapse", tmp_path)["input"]

    def flip(m):
        return {**m, "e": format(-Fraction(m.get("e", 0)))}

    t_doc = {
        "convention": "t",
        "X": [[flip(m) for m in row] for row in s_doc["X"]],
        "B": [[flip(m) for m in row] for row in s_doc["B"]],
        "D": [flip(m) for m in s_doc["D"]],
    }
    read = SymbolicSiegelPath.from_json_dict(t_doc).to_json_dict()
    assert read == SymbolicSiegelPath.from_json_dict(s_doc).to_json_dict()
    assert "convention" not in read
    assert_round_trips(SymbolicSiegelPath, t_doc)


@pytest.mark.parametrize("page", COMMAND_PAGES, ids=lambda p: p.stem)
def test_worked_example_output_is_byte_identical(capsys, tmp_path, page):
    command, path, expected = worked_example(page, tmp_path)
    code, out, _ = run_main(capsys, command, path)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("page", COMMAND_PAGES, ids=lambda p: p.stem)
def test_worked_example_ignores_the_seed(capsys, tmp_path, page):
    # the cli-cold benchmark (make_cli in bench/calls.py) passes --seed N
    # on every call, so every command must take it and print the same bytes
    command, path, expected = worked_example(page, tmp_path)
    code, out, _ = run_main(capsys, command, path, "--seed", "1")
    assert code == 0
    assert out == expected


def help_flags(capsys, command):
    """The --options that `troplab command --help` lists, but --help."""
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = re.findall(r"^  (?:-\w, )?(--[\w-]+)", capsys.readouterr().out, re.M)
    return set(listed) - {"--help"}


# the flags each command reads, besides --seed, which every command takes
COMMAND_FLAGS = {
    "reduce": {"--max-iter", "--u"},
    "collapse": {"--tol"},
    "volume-limit": set(),
    "injrad-limit": set(),
    "av-limit": set(),
    "curve-limit": set(),
    "trop-jac": set(),
    "torelli-check": set(),
    "dual-complex": set(),
    "hybrid-limit": {"--gluing"},
    "tropicalize": {"--tol"},
    "collar": set(),
}

# --mode and --emit-csv are no command's flags: each command must refuse them
FLAG_VALUES = {
    "--tol": "0.5",
    "--max-iter": "8",
    "--u": "4",
    "--mode": "numeric",
    "--gluing": "loglog",
    "--emit-csv": "out.csv",
    "--seed": "1",
}


@pytest.mark.parametrize("page", COMMAND_PAGES, ids=lambda p: p.stem)
def test_each_command_takes_only_its_flags(capsys, tmp_path, page):
    command, path, _ = worked_example(page, tmp_path)
    assert help_flags(capsys, command) == COMMAND_FLAGS[command] | {"--seed"}
    for flag in sorted(set(FLAG_VALUES) - COMMAND_FLAGS[command] - {"--seed"}):
        with pytest.raises(SystemExit) as info:
            main([command, path, flag, FLAG_VALUES[flag]])
        captured = capsys.readouterr()
        assert info.value.code == 2, flag
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("page", COMMAND_PAGES, ids=lambda p: p.stem)
def test_flags_section_lists_the_flags_the_parser_takes(capsys, page):
    text = page.read_text(encoding="utf-8")
    section = text.split("## Flags", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^- `(--[\w-]+)", section, re.M)
    assert len(documented) == len(set(documented))
    command = page.stem
    assert set(documented) == help_flags(capsys, command)


# what replaces each node of a worked example's input in the mutation sweep
MUTANTS = [None, "x", [], {}, [[1]], {"x": 1}, math.nan, math.inf, 1e308, 10**400, -(10**400)]


def _refuse(constant):
    raise ValueError(f"non-JSON constant {constant}")


def _mutations(node):
    """(description, document) for every way to replace one node of the
    JSON document node by a MUTANTS value or to delete one key.

    Lists hold entries of one kind, so only the first entry of each list
    is descended into: it stands for the rest and keeps the sweep short.
    """
    yield from ((f"/ -> {m!r}", m) for m in MUTANTS)
    if isinstance(node, dict):
        for k, child in node.items():
            rest = {j: v for j, v in node.items() if j != k}
            yield f"del /{k}", rest
            for where, sub in _mutations(child):
                yield f"/{k}{where}", {**node, k: sub}
    elif isinstance(node, list) and node:
        for where, sub in _mutations(node[0]):
            yield f"/0{where}", [sub] + node[1:]


@pytest.mark.parametrize("page", COMMAND_PAGES, ids=lambda p: p.stem)
def test_mutated_worked_example_never_crashes(capsys, tmp_path, page):
    # a malformed input exits 2 (schema) or 3 (precondition), never with
    # a traceback; an input that exits 0 prints strict JSON, with no NaN
    # or Infinity
    command, path, _ = worked_example(page, tmp_path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    crashed = []
    for where, mutant in _mutations(doc):
        case = write_doc(tmp_path, "case.json", mutant)
        try:
            code = main([command, case])
        except Exception as exc:  # a traceback: what the sweep looks for
            code = repr(exc)
        out = capsys.readouterr().out
        if code == 0:
            try:
                json.loads(out, parse_constant=_refuse)
            except ValueError as exc:
                code = f"exit 0 with {exc}"
        if code not in (0, 2, 3):
            crashed.append((where, code))
    assert crashed == []


# a value of each JSON type but null, to stand in for a leaf of another type
TYPED = ["x", [], {}, True, 1.5]


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def _mistyped(node):
    """(pointer, document) for every way to replace one leaf of the JSON
    document node by a TYPED value of another JSON type; as in _mutations,
    only the first entry of each list is descended into."""
    if isinstance(node, dict):
        for k, child in node.items():
            for where, sub in _mistyped(child):
                yield f"/{k}{where}", {**node, k: sub}
    elif isinstance(node, list):
        if node:
            for where, sub in _mistyped(node[0]):
                yield f"/0{where}", [sub] + node[1:]
    else:
        yield from (("", m) for m in TYPED if _json_type(m) != _json_type(node))


@pytest.mark.parametrize("page", COMMAND_PAGES, ids=lambda p: p.stem)
def test_mistyped_leaf_is_schema_error_at_the_leaf(capsys, tmp_path, page):
    # a leaf of the wrong JSON type exits 2, and the error points at the
    # leaf or at a key or entry below it
    command, path, _ = worked_example(page, tmp_path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    missed = []
    for where, mutant in _mistyped(doc):
        code, _, err = run_main(capsys, command, write_doc(tmp_path, "case.json", mutant))
        pointer = re.search(r"\(at (\S*)\)$", err.strip())
        if code != 2 or not pointer or not (pointer[1] + "/").startswith(where + "/"):
            missed.append((where, code, err.strip()))
    assert missed == []


# the library modules each command runs, with what they import; only the
# Torelli comparison runs the lattice search
_SIEGEL = {"forms", "siegel"}
_LIMITS = {"forms", "siegel", "limits"}
_CURVE = {"forms", "tropical", "degen"}
COMMAND_MODULES = {
    "reduce": _SIEGEL,
    "collapse": _LIMITS,
    "volume-limit": _LIMITS,
    "injrad-limit": _LIMITS,
    "av-limit": {"forms", "degen"},
    "curve-limit": _CURVE,
    "torelli-check": _CURVE | {"lattice"},
    "collar": {"degen"},
    "trop-jac": {"forms", "tropical"},
    "dual-complex": {"hybrid"},
    "hybrid-limit": {"hybrid"},
    "tropicalize": {"hybrid"},
}


@pytest.mark.parametrize("page", COMMAND_PAGES, ids=lambda p: p.stem)
def test_worked_example_loads_only_the_modules_it_runs(tmp_path, page):
    command, path, _ = worked_example(page, tmp_path)
    code, loaded = loaded_submodules(command, path)
    assert code == 0
    library = {"forms", "lattice", "siegel", "limits", "tropical", "degen", "hybrid"}
    assert loaded & library == COMMAND_MODULES[command]
