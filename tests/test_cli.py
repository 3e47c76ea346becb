"""Tests for the JSON-problem-file command-line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import module_cli
import resnf
from resnf.cli import (
    EXIT_HYPOTHESIS,
    EXIT_INPUT,
    EXIT_MODEL,
    EXIT_OK,
    build_parser,
    load_problem,
    run,
)
from resnf.errors import ProblemFileError
from resnf.fields import VectorField
from resnf.indexing import TruncationContext

DIAGONAL_LINES = [
    "1+ | 1+^1 | 2/1 0/1",
    "2+ | 2+^1 | 1/1 0/1",
    "3+ | 3+^1 | 1393/985 0/1",
    "4+ | 4+^1 | -1393/985 0/1",
    "5+ | 5+^1 | 1351/780 0/1",
    "6+ | 6+^1 | -1351/780 0/1",
]


def dim6_doc(field=None, **extra):
    doc = {
        "schema_version": 1,
        "name": "test problem",
        "model": {"builder": "dim6"},
        "truncation": {
            "mode_cutoff": 6,
            "degree_cutoff": 8,
            "arithmetic": "exact",
        },
    }
    if field is not None:
        doc["field"] = field
    doc.update(extra)
    return doc


def nls_doc(field=None, **extra):
    doc = {
        "schema_version": 1,
        "name": "lattice problem",
        "model": {"builder": "nls"},
        "truncation": {
            "mode_cutoff": 1,
            "degree_cutoff": 3,
            "arithmetic": "exact",
        },
        "field": {"p": 1} if field is None else field,
    }
    doc.update(extra)
    return doc


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A seeded six-mode problem normalized once, artifacts on disk."""
    root = tmp_path_factory.mktemp("cli")
    problem = root / "dim6.json"
    problem.write_text(
        json.dumps(dim6_doc(field={"seed": 3})), encoding="utf-8"
    )
    out = root / "out"
    assert run(["normalize", str(problem), "--out", str(out)]) == EXIT_OK
    return root, str(problem), str(out)


def edited_artifacts(workspace, tmp_path, name, edit):
    """A copy of the workspace artifacts with the bytes of ``name`` edited."""
    _, problem, out = workspace
    copy = tmp_path / "out"
    copy.mkdir()
    for entry in os.listdir(out):
        data = Path(out, entry).read_bytes()
        if entry == name:
            data = edit(data)
        (copy / entry).write_bytes(data)
    return problem, str(copy)


class TestProblemFiles:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        path = write(tmp_path, dim6_doc(surprise=1))
        assert run(["analyze", path]) == EXIT_INPUT
        assert "problem: unknown key(s): surprise" in capsys.readouterr().err

    def test_unknown_nested_key_is_path_labeled(self, tmp_path, capsys):
        doc = dim6_doc()
        doc["truncation"]["slack"] = 2
        path = write(tmp_path, doc)
        assert run(["analyze", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "problem.truncation: unknown key(s): slack" in err

    def test_schema_version_mismatch(self, tmp_path, capsys):
        doc = dim6_doc()
        doc["schema_version"] = 2
        path = write(tmp_path, doc)
        assert run(["analyze", path]) == EXIT_INPUT
        assert "schema_version" in capsys.readouterr().err

    def test_float_rejected_where_rational_expected(self, tmp_path, capsys):
        doc = dim6_doc()
        doc["model"]["zeta1"] = 1.41421356
        path = write(tmp_path, doc)
        assert run(["analyze", path]) == EXIT_INPUT
        assert "p/q" in capsys.readouterr().err

    def test_momentum_flag_must_match_builder(self, tmp_path, capsys):
        doc = dim6_doc()
        doc["truncation"]["momentum"] = True
        assert run(["analyze", write(tmp_path, doc, "a.json")]) == EXIT_INPUT
        doc = nls_doc()
        doc["truncation"]["momentum"] = False
        assert run(["analyze", write(tmp_path, doc, "b.json")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "momentum" in err

    def test_field_sources_are_exclusive(self, tmp_path, capsys):
        doc = dim6_doc(field={"seed": 1, "terms": DIAGONAL_LINES})
        assert run(["analyze", write(tmp_path, doc)]) == EXIT_INPUT
        assert "exactly one" in capsys.readouterr().err

    def test_nonlinearity_degree_is_lattice_only(self, tmp_path, capsys):
        doc = dim6_doc(field={"p": 2})
        assert run(["analyze", write(tmp_path, doc)]) == EXIT_INPUT
        assert "nls" in capsys.readouterr().err

    def test_lattice_problem_needs_a_degree(self, tmp_path, capsys):
        doc = nls_doc()
        del doc["field"]
        assert run(["analyze", write(tmp_path, doc)]) == EXIT_INPUT
        assert "no default field" in capsys.readouterr().err

    def test_seed_override_requires_seeded_field(self, tmp_path, capsys):
        doc = dim6_doc(field={"terms": DIAGONAL_LINES})
        path = write(tmp_path, doc)
        assert run(["analyze", path, "--seed", "4"]) == EXIT_INPUT
        assert "--seed" in capsys.readouterr().err

    def test_mode_cutoff_is_pinned_for_dim6(self, tmp_path, capsys):
        doc = dim6_doc()
        doc["truncation"]["mode_cutoff"] = 4
        assert run(["analyze", write(tmp_path, doc)]) == EXIT_INPUT
        assert "6 modes" in capsys.readouterr().err

    def test_malformed_json_leaves_no_partial_report(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,', encoding="utf-8")
        report = tmp_path / "report.json"
        code = run(["analyze", str(path), "--json", str(report)])
        assert code == EXIT_INPUT
        assert not report.exists()
        err = capsys.readouterr().err
        assert "line" in err  # parse errors carry a position

    def test_missing_file(self, tmp_path, capsys):
        code = run(["analyze", str(tmp_path / "nope.json")])
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_bad_arithmetic_value(self, tmp_path, capsys):
        doc = dim6_doc()
        doc["truncation"]["arithmetic"] = "interval"
        assert run(["analyze", write(tmp_path, doc)]) == EXIT_INPUT
        assert "'exact' or 'float'" in capsys.readouterr().err

    def test_thread_count_validated(self, tmp_path, capsys):
        path = write(tmp_path, dim6_doc())
        assert run(["analyze", path, "--threads", "0"]) == EXIT_INPUT
        capsys.readouterr()

    def test_flow_parameters_validated(self, tmp_path, capsys):
        doc = dim6_doc(flow={"steps": 0})
        assert run(["analyze", write(tmp_path, doc, "a.json")]) == EXIT_INPUT
        doc = dim6_doc(flow={"rho": [0.05, -0.1]})
        assert run(["analyze", write(tmp_path, doc, "b.json")]) == EXIT_INPUT
        capsys.readouterr()

    def test_custom_model_rejects_undeclared_symbol(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "model": {
                "name": "tiny",
                "symbols": {"a": 1},
                "modes": {"1+": {"a": 1}, "2+": {"b": 1}},
            },
            "truncation": {"mode_cutoff": 2, "degree_cutoff": 4},
            "field": {"terms": ["1+ | 1+^1 | 1/1 0/1"]},
        }
        assert run(["analyze", write(tmp_path, doc)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "problem.model.modes.2+.b: undeclared symbol" in err

    def test_terms_file_resolves_next_to_problem(self, tmp_path):
        (tmp_path / "field.txt").write_text(
            "\n".join(DIAGONAL_LINES) + "\n", encoding="utf-8"
        )
        doc = dim6_doc(field={"terms_file": "field.txt"})
        problem = load_problem(write(tmp_path, doc))
        assert problem.field.term_count() == 6
        assert problem.seed is None

    def test_rational_literals_accepted_in_flow(self, tmp_path):
        doc = dim6_doc(field={"seed": 1}, flow={"rho": ["1/20", "1/40"]})
        problem = load_problem(write(tmp_path, doc))
        assert problem.flow["rho"] == [0.05, 0.025]

    def test_arithmetic_override(self, tmp_path):
        path = write(tmp_path, dim6_doc(field={"seed": 1}))
        problem = load_problem(path, arithmetic="float")
        assert problem.ctx.arithmetic == "float"
        assert all(
            isinstance(c, complex) for _, _, c in problem.field.terms()
        )


class TestAnalyze:
    def test_six_mode_resonance_summary(self, tmp_path, capsys):
        path = write(tmp_path, dim6_doc())
        report_path = tmp_path / "report.json"
        assert run(["analyze", path, "--json", str(report_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "generators: 3+^1 4+^1, 5+^1 6+^1" in out
        assert "minimal order 4 (crude bound 6)" in out
        report = json.loads(report_path.read_text())
        res = report["resonance"]
        assert res["m_star_minimal"] == 4
        assert res["module_count"] == 14
        assert res["resonant_pair_count"] == 70
        assert res["delta_equals_m"] is False
        assert report["problem"]["field_terms"] >= 6

    def test_lattice_translates_match_module(self, tmp_path, capsys):
        path = write(tmp_path, nls_doc())
        report_path = tmp_path / "report.json"
        assert run(["analyze", path, "--json", str(report_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "translates: none (the translate set equals the module)" in out
        res = json.loads(report_path.read_text())["resonance"]
        assert res["delta_equals_m"] is True
        assert "0-^1 0+^1" in res["q_generators"]

    @pytest.mark.parametrize(
        "model",
        [
            {"builder": "nls"},
            {"builder": "hyperbolic"},
            {"builder": "nls", "potential": {"5": "1/7", "-5": "1/9"}},
        ],
        ids=["nls", "hyperbolic", "explicit-potential"],
    )
    def test_lattice_beyond_four_sites(self, tmp_path, capsys, model):
        doc = nls_doc(model=model)
        doc["truncation"]["mode_cutoff"] = 5
        if model["builder"] == "hyperbolic":
            del doc["field"]
        report_path = tmp_path / "report.json"
        assert run(["analyze", write(tmp_path, doc), "--json", str(report_path)]) == EXIT_OK
        capsys.readouterr()
        res = json.loads(report_path.read_text())["resonance"]
        assert sorted(res["q_generators"]) == sorted(
            "%d-^1 %d+^1" % (j, j) for j in range(-5, 6)
        )
        assert res["resonant_pair_count"] == 264

    def test_exact_model_beyond_the_float_range(self, tmp_path, capsys):
        """At 65 sites the default potential's common denominator passes
        the float range; the exact walk never converts it to a float."""
        doc = hyperbolic_doc()
        doc["truncation"].update(mode_cutoff=65, degree_cutoff=1)
        assert run(["analyze", write(tmp_path, doc)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_divisor_scan_in_analyze(self, tmp_path, capsys):
        doc = dim6_doc(diophantine={"tau": 2.0, "degree_bound": 5})
        report_path = tmp_path / "report.json"
        path = write(tmp_path, doc)
        assert run(["analyze", path, "--json", str(report_path)]) == EXIT_OK
        assert "gamma_max" in capsys.readouterr().out
        dio = json.loads(report_path.read_text())["diophantine"]
        assert dio["gamma_max"] == pytest.approx(8.0)
        assert dio["fast_path_hits"] == 6


class TestNormalize:
    def test_artifacts_written(self, workspace):
        _, _, out = workspace
        names = sorted(os.listdir(out))
        assert names == [
            "kam_trace.json",
            "normal_form.txt",
            "report.json",
            "transform_log.txt",
        ]
        ctx = TruncationContext(6, 8, momentum_enabled=False, arithmetic="exact")
        lines = open(os.path.join(out, "normal_form.txt")).read().splitlines()
        assert VectorField.from_lines(ctx, lines).term_count() == len(lines)
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["residual_zero"] is True
        assert report["mstar"] == 4

    def test_progress_lines(self, tmp_path, capsys):
        path = write(tmp_path, dim6_doc(field={"seed": 3}))
        assert run(["normalize", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "completed 1 step;" in out
        assert "free-part order ladder: 4 -> eliminated" in out

    def test_normal_form_is_a_fixed_point(self, workspace, capsys):
        root, _, out = workspace
        doc = dim6_doc(field={"terms_file": "out/normal_form.txt"})
        path = write(root, doc, "refeed.json")
        assert run(["normalize", path]) == EXIT_OK
        assert "completed 0 steps" in capsys.readouterr().out

    def test_planted_resonant_term_stops_with_exit_3(self, tmp_path, capsys):
        doc = dim6_doc(
            field={"terms": DIAGONAL_LINES + ["1+ | 2+^2 | 1/1 0/1"]}
        )
        path = write(tmp_path, doc)
        report = tmp_path / "report.json"
        code = run(["normalize", path, "--json", str(report)])
        assert code == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert "2+^2" in err and "1+" in err
        assert not report.exists()


class TestVerify:
    def test_tangency_and_scaling_report(self, workspace, tmp_path, capsys):
        _, problem, out = workspace
        report_path = tmp_path / "verify.json"
        csv_path = tmp_path / "table.csv"
        code = run(
            [
                "verify",
                problem,
                "--transform",
                out,
                "--json",
                str(report_path),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == EXIT_OK
        assert "tangency: ok" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["tangency"]["ok"] is True
        assert report["tangency"]["offender_count"] == 0
        rows = report["conjugacy"]["rows"]
        assert [row["rho"] for row in rows] == [0.05, 0.025, 0.0125]
        assert all(row["off_sigma_error"] > 0 for row in rows)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "rho,on_sigma_error,off_sigma_error"
        assert len(lines) == 4

    def test_zero_horizon_gives_zero_error_rows(self, workspace, capsys):
        root, _, out = workspace
        doc = dim6_doc(field={"seed": 3}, flow={"horizon": 0.0, "steps": 16})
        path = write(root, doc, "zero_horizon.json")
        assert run(["verify", path, "--transform", out]) == EXIT_OK
        assert "on-sigma 0.000000e+00" in capsys.readouterr().out

    def test_equal_rho_values_give_no_slopes(self, workspace, tmp_path, capsys):
        root, _, out = workspace
        doc = dim6_doc(field={"seed": 3}, flow={"rho": ["1/20", "1/20"]})
        path = write(root, doc, "equal_rho.json")
        report_path = tmp_path / "equal_rho.json"
        code = run(["verify", path, "--transform", out, "--json", str(report_path)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "scaling slopes" not in captured.out
        assert captured.err == ""
        conjugacy = json.loads(report_path.read_text())["conjugacy"]
        assert conjugacy["on_sigma_slope"] is None
        assert conjugacy["off_sigma_slope"] is None

    def test_missing_artifacts(self, workspace, tmp_path, capsys):
        _, problem, _ = workspace
        code = run(["verify", problem, "--transform", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "normalize --out" in capsys.readouterr().err

    def test_artifacts_of_another_model_name_the_direction(self, workspace, tmp_path, capsys):
        _, problem, _ = workspace
        out = str(tmp_path / "nls-out")
        assert run(["normalize", write(tmp_path, nls_doc()), "--out", out]) == EXIT_OK
        capsys.readouterr()
        assert run(["verify", problem, "--transform", out]) == EXIT_INPUT
        assert "direction 0- not admitted by the context" in capsys.readouterr().err


class TestDiophantine:
    def test_flags_override_problem_section(self, tmp_path, capsys):
        doc = dim6_doc(diophantine={"tau": 3.0, "degree_bound": 3})
        path = write(tmp_path, doc)
        report_path = tmp_path / "report.json"
        code = run(
            [
                "diophantine",
                path,
                "--tau",
                "2",
                "--degree",
                "5",
                "--json",
                str(report_path),
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        dio = json.loads(report_path.read_text())["diophantine"]
        assert dio["tau"] == 2.0
        assert dio["degree_bound"] == 5
        assert dio["gamma_max"] == pytest.approx(8.0)

    def test_degree_flag_must_be_positive(self, tmp_path, capsys):
        path = write(tmp_path, dim6_doc())
        code = run(["diophantine", path, "--tau", "2", "--degree", "0"])
        assert code == EXIT_INPUT
        assert capsys.readouterr() == ("", "input error: --degree: must be >= 1\n")

    @pytest.mark.parametrize("tau", ["nan", "inf", "1e400", "-3"])
    def test_tau_flag_must_be_finite_and_nonnegative(self, tmp_path, capsys, tau):
        path = write(tmp_path, dim6_doc())
        code = run(["diophantine", path, "--tau", tau, "--degree", "2"])
        assert code == EXIT_INPUT
        assert capsys.readouterr() == (
            "",
            "input error: --tau: must be a finite number >= 0\n",
        )

    def test_large_tau_keeps_a_finite_minimum(self, tmp_path, capsys):
        path = write(tmp_path, dim6_doc())
        report_path = tmp_path / "report.json"
        code = run(
            ["diophantine", path, "--tau", "150", "--degree", "2", "--json", str(report_path)]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        dio = json.loads(report_path.read_text())["diophantine"]
        assert dio["worst_p"] == "1+^-1"
        assert dio["gamma_max"] == pytest.approx(2.8545e45, rel=1e-4)

    @pytest.mark.parametrize("where", ["flag", "problem"])
    def test_tau_overflowing_every_weight(self, tmp_path, capsys, where):
        message = (
            "input error: diophantine: tau = 2000 overflows every weight up to "
            "degree 2; lower tau or the degree bound\n"
        )
        if where == "flag":
            argv = ["diophantine", write(tmp_path, dim6_doc()), "--tau", "2000", "--degree", "2"]
        else:
            doc = dim6_doc(diophantine={"tau": 2000, "degree_bound": 2})
            argv = ["analyze", write(tmp_path, doc)]
        assert run(argv) == EXIT_INPUT
        assert capsys.readouterr().err == message

    def test_parameters_required_somewhere(self, tmp_path, capsys):
        path = write(tmp_path, dim6_doc())
        assert run(["diophantine", path]) == EXIT_INPUT
        assert "--tau and --degree" in capsys.readouterr().err


class TestDeterminism:
    def test_reports_byte_identical_across_thread_counts(
        self, workspace, tmp_path, capsys
    ):
        _, problem, out = workspace
        blobs = []
        for threads in ("1", "4"):
            report_path = tmp_path / ("verify_%s.json" % threads)
            code = run(
                [
                    "verify",
                    problem,
                    "--transform",
                    out,
                    "--threads",
                    threads,
                    "--json",
                    str(report_path),
                ]
            )
            assert code == EXIT_OK
            blobs.append(report_path.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]
        assert b"threads" not in blobs[0]

    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        doc = dim6_doc(diophantine={"tau": 2.0, "degree_bound": 4})
        path = write(tmp_path, doc)
        blobs = []
        for attempt in range(2):
            report_path = tmp_path / ("analyze_%d.json" % attempt)
            assert run(["analyze", path, "--json", str(report_path)]) == EXIT_OK
            blobs.append(report_path.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]


_DROP = object()


def hyperbolic_doc():
    return {
        "schema_version": 1,
        "model": {"builder": "hyperbolic"},
        "truncation": {"mode_cutoff": 1, "degree_cutoff": 3},
    }


def custom_doc():
    return {
        "schema_version": 1,
        "model": {"symbols": {"a": 1}, "modes": {"1+": {"a": 1}, "2+": {"a": 3}}},
        "truncation": {"mode_cutoff": 2, "degree_cutoff": 4},
        "field": {"terms": ["1+ | 1+^1 | 1/1 0/1", "2+ | 2+^1 | 3/1 0/1"]},
    }


LOADER_BASES = {
    "dim6": dim6_doc,
    "nls": nls_doc,
    "hyperbolic": hyperbolic_doc,
    "custom": custom_doc,
}


def edited_doc(base, edits):
    """The ``base`` problem document with each dotted key path set to its
    value, or removed where the value is ``_DROP``."""
    doc = LOADER_BASES[base]()
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        node = doc
        for part in parents:
            node = node[part]
        if value is _DROP:
            del node[key]
        else:
            node[key] = value
    return doc


WINDOW_MESSAGE = (
    "problem.truncation: mode_cutoff and degree_cutoff give a resonance "
    "window of more than 1000000000 indices"
)

# (id, base problem, edits by dotted key path, extra argv, stderr message).
# One case per reachable rejection in the loader, then cases with two
# faults in one file that pin which check fires first.
LOADER_REJECTIONS = [
    ("section-not-object", "dim6", {"truncation": 5}, [],
     "problem.truncation: expected an object"),
    ("missing-key", "dim6", {"schema_version": _DROP}, [],
     "problem.schema_version: missing required key"),
    ("missing-section", "dim6", {"model": _DROP}, [],
     "problem.model: missing required key"),
    ("unknown-key", "dim6", {"surprise": 1}, [],
     "problem: unknown key(s): surprise"),
    ("int-type", "dim6", {"truncation.degree_cutoff": "8"}, [],
     "problem.truncation.degree_cutoff: expected an integer"),
    ("bool-type", "dim6", {"truncation.momentum": "no"}, [],
     "problem.truncation.momentum: expected true or false"),
    ("str-type", "dim6", {"name": 5}, [],
     "problem.name: expected a string"),
    ("rational-bool", "dim6", {"model.zeta1": True}, [],
     "problem.model.zeta1: expected a rational, got a boolean"),
    ("rational-parse", "dim6", {"model.zeta2": "1/0"}, [],
     "problem.model.zeta2: cannot parse rational '1/0'"),
    ("rational-float", "dim6", {"model.zeta1": 1.5}, [],
     "problem.model.zeta1: rationals must be integers or 'p/q' strings"),
    ("number-bool", "dim6", {"truncation.theta": True}, [],
     "problem.truncation.theta: expected a number, got a boolean"),
    ("number-type", "dim6", {"flow": {"horizon": [1]}}, [],
     "problem.flow.horizon: expected a number"),
    ("potential-type", "nls", {"model.potential": [1]}, [],
     "problem.model.potential: expected an object keyed by site"),
    ("potential-site-key", "nls", {"model.potential": {"x": 1}}, [],
     "problem.model.potential: bad site key 'x'"),
    ("potential-site-range", "hyperbolic", {"model.potential": {"-2": "1/3"}}, [],
     "problem.model.potential.-2: site outside the mode cutoff 1"),
    ("symbols-empty", "custom", {"model.symbols": {}}, [],
     "problem.model.symbols: expected a non-empty object"),
    ("modes-type", "custom", {"model.modes": ["1+"]}, [],
     "problem.model.modes: expected a non-empty object"),
    ("mode-token", "custom", {"model.modes": {"x": {"a": 1}}}, [],
     "problem.model.modes: bad mode token 'x' (use e.g. '1+' or '-2-')"),
    ("mode-coordinates", "custom", {"model.modes.2+": 2}, [],
     "problem.model.modes.2+: expected an object mapping symbols to integer "
     "coefficients"),
    ("mode-symbol", "custom", {"model.modes.2+": {"b": 1}}, [],
     "problem.model.modes.2+.b: undeclared symbol"),
    ("mode-complex", "custom", {"model.modes.2+": {"a": [1, 2, 3]}}, [],
     "problem.model.modes.2+.a: complex coefficients are [re, im] pairs"),
    ("unreadable-file", None, None, [],
     "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    ("json-syntax", None, "nope", [],
     "{path}: Expecting value: line 1 column 1 (char 0)"),
    ("schema-version", "dim6", {"schema_version": 2}, [],
     "problem.schema_version: expected 1, got 2"),
    ("arithmetic", "dim6", {"truncation.arithmetic": "interval"}, [],
     "problem.truncation.arithmetic: must be 'exact' or 'float'"),
    ("dim6-momentum", "dim6", {"truncation.momentum": True}, [],
     "problem.truncation.momentum: the dim6 model is a finite problem "
     "without momentum bookkeeping"),
    ("dim6-modes", "dim6", {"truncation.mode_cutoff": 4}, [],
     "problem.truncation.mode_cutoff: the dim6 model has exactly 6 modes"),
    ("nls-momentum", "nls", {"truncation.momentum": False}, [],
     "problem.truncation.momentum: the nls model requires momentum bookkeeping"),
    ("elliptic-sites", "hyperbolic", {"model.elliptic_sites": 0}, [],
     "problem.model.elliptic_sites: expected an array"),
    ("elliptic-site-range", "hyperbolic", {"model.elliptic_sites": [5, 5, -9]}, [],
     "problem.model.elliptic_sites: site 5 outside the mode cutoff 1"),
    ("hyperbolic-momentum", "hyperbolic", {"truncation.momentum": False}, [],
     "problem.truncation.momentum: the hyperbolic model requires momentum "
     "bookkeeping"),
    ("unknown-builder", "dim6", {"model.builder": "custom"}, [],
     "problem.model.builder: unknown builder 'custom' (expected dim6, nls or "
     "hyperbolic)"),
    ("truncation-window", "dim6", {"truncation.theta": 1}, [],
     "problem.truncation: theta must lie strictly between 0 and 1"),
    ("field-missing", "nls", {"field": _DROP}, [],
     "problem.field: missing section (the nls model has no default field)"),
    ("field-sources", "dim6", {"field": {"seed": 1, "p": 1}}, [],
     "problem.field: give exactly one of terms, terms_file, seed or p"),
    ("terms-type", "dim6", {"field": {"terms": "1+ | 1+^1 | 1/1 0/1"}}, [],
     "problem.field.terms: expected an array of term lines"),
    ("terms-file", "dim6", {"field": {"terms_file": "absent.txt"}}, [],
     "problem.field.terms_file: cannot read absent.txt: [Errno 2] No such "
     "file or directory: '{dir}/absent.txt'"),
    ("p-builder", "hyperbolic", {"field": {"p": 1}}, [],
     "problem.field.p: only the nls builder takes the nonlinearity degree"),
    ("seed-builder", "nls", {"field": {"seed": 1}}, [],
     "problem.field.seed: only the dim6 and hyperbolic builders generate "
     "seeded fields"),
    ("field-empty", "custom", {"field": {}}, [],
     "problem.field: the custom model needs terms or builder parameters"),
    ("seed-override", "custom", {}, ["--seed", "1"],
     "--seed: this problem does not build its field from a seed"),
    ("terms-line", "dim6", {"field": {"terms": ["1+ | 1+^1"]}}, [],
     "problem.field.terms: term line must have three '|' fields: '1+ | 1+^1'"),
    ("terms-constant", "dim6", {"field": {"terms": ["1+ | - | 1/1 0/1"]}}, [],
     "problem.field.terms: field exponent - must be nonnegative, nonzero"),
    ("nls-window", "nls", {"field": {"p": 0}}, [],
     "problem.field.p: p must be >= 1"),
    ("rho-type", "dim6", {"flow": {"rho": []}}, [],
     "problem.flow.rho: expected a non-empty array"),
    ("steps-range", "dim6", {"flow": {"steps": 0}}, [],
     "problem.flow.steps: must be >= 1"),
    ("steps-overflow", "dim6", {"flow": {"steps": 10 ** 400}}, [],
     "problem.flow.steps: beyond the float range"),
    ("horizon-range", "dim6", {"flow": {"horizon": -1}}, [],
     "problem.flow.horizon: must be >= 0"),
    ("blowup-range", "dim6", {"flow": {"blowup": 0}}, [],
     "problem.flow: blowup and every rho must be positive"),
    ("degree-bound-negative", "dim6", {"diophantine": {"tau": 2, "degree_bound": -3}}, [],
     "problem.diophantine.degree_bound: must be >= 1"),
    ("degree-bound-zero", "dim6", {"diophantine": {"tau": 2, "degree_bound": 0}}, [],
     "problem.diophantine.degree_bound: must be >= 1"),
    ("tau-negative", "dim6", {"diophantine": {"tau": -3, "degree_bound": 2}}, [],
     "problem.diophantine.tau: must be >= 0"),
    ("tau-overflow", "dim6", {"diophantine": {"tau": "1e400", "degree_bound": 2}}, [],
     "problem.diophantine.tau: expected a finite number"),
    ("theta-overflow", "dim6", {"truncation.theta": "1e400"}, [],
     "problem.truncation.theta: expected a finite number"),
    ("horizon-overflow", "dim6", {"flow": {"horizon": "1e400"}}, [],
     "problem.flow.horizon: expected a finite number"),
    ("horizon-integer-overflow", "dim6", {"flow": {"horizon": 10 ** 400}}, [],
     "problem.flow.horizon: expected a finite number"),
    ("horizon-nan", "dim6", {"flow": {"horizon": math.nan}}, [],
     "problem.flow.horizon: expected a finite number"),
    ("blowup-infinite", "dim6", {"flow": {"blowup": math.inf}}, [],
     "problem.flow.blowup: expected a finite number"),
    ("rho-overflow", "dim6", {"flow": {"rho": [0.05, "1e400"]}}, [],
     "problem.flow.rho[1]: expected a finite number"),
    ("rational-overflow", "custom", {"model.symbols.a": 10 ** 400}, [],
     "problem.model.symbols.a: expected a finite number"),
    ("rational-exponent-overflow", "dim6", {"model.zeta1": "1e400"}, [],
     "problem.model.zeta1: expected a finite number"),
    ("first-sources-then-seed", "dim6",
     {"field": {"terms": DIAGONAL_LINES, "seed": "x"}}, [],
     "problem.field: give exactly one of terms, terms_file, seed or p"),
    ("first-momentum-then-modes", "dim6",
     {"truncation.momentum": True, "truncation.mode_cutoff": 4}, [],
     "problem.truncation.momentum: the dim6 model is a finite problem "
     "without momentum bookkeeping"),
    ("first-zeta-then-unknown", "dim6", {"model.extra": 1, "model.zeta1": 1.5}, [],
     "problem.model.zeta1: rationals must be integers or 'p/q' strings"),
    ("diophantine-fast-path", "dim6",
     {"diophantine": {"tau": 2, "degree_bound": 2, "fast_path": False}}, [],
     "problem.diophantine: unknown key(s): fast_path"),
    ("mode-beyond-cutoff", "custom", {"model.modes.3+": {"a": 5}}, [],
     "problem.model.modes.3+: mode outside the truncation context"),
    ("mode-minus-sign-finite", "custom", {"model.modes.-1-": {"a": 5}}, [],
     "problem.model.modes.-1-: mode outside the truncation context"),
    ("mode-beyond-cutoff-momentum", "custom",
     {"truncation.momentum": True, "truncation.mode_cutoff": 1,
      "model.symbols.b": "1393/985",
      "model.modes": {"0+": {"a": 1}, "0-": {"a": -1}, "1+": {"b": 1},
                      "1-": {"b": -1}, "-1+": {"b": 1}, "-1-": {"b": -1},
                      "-3-": {"a": 5}},
      "field.terms": ["0+ | 0+^1 | 1/1 0/1"]}, [],
     "problem.model.modes.-3-: mode outside the truncation context"),
    ("first-steps-then-seed", "dim6",
     {"flow": {"steps": "x", "seed": "y", "extra": 1}}, [],
     "problem.flow.steps: expected an integer"),
    ("window-degree-cutoff", "dim6", {"truncation.degree_cutoff": 10 ** 400}, [],
     WINDOW_MESSAGE),
    ("window-mode-cutoff", "nls", {"truncation.mode_cutoff": 10 ** 400}, [],
     WINDOW_MESSAGE),
    ("window-nls-degree-cutoff", "nls", {"truncation.degree_cutoff": 10 ** 400}, [],
     WINDOW_MESSAGE),
    ("window-custom-mode-cutoff", "custom", {"truncation.mode_cutoff": 10 ** 400}, [],
     WINDOW_MESSAGE),
    # 26 modes: degree cutoff 10 walks 854,992,152 indices, 11 walks 2,707,475,148
    ("window-past-limit", "nls",
     {"truncation.mode_cutoff": 6, "truncation.degree_cutoff": 11}, [],
     WINDOW_MESSAGE),
    ("window-degree-bound", "dim6",
     {"diophantine": {"tau": 2, "degree_bound": 10 ** 400}}, [],
     "problem.diophantine.degree_bound: the divisor audit over 6 modes walks "
     "more than 1000000000 indices"),
]

# Rows whose input, were it accepted, would walk without end: they run in a
# child process under a timeout, so such a run fails instead of hanging.
UNBOUNDED_IF_ACCEPTED = {case[0] for case in LOADER_REJECTIONS if case[0].startswith("window-")}


@pytest.mark.parametrize(
    "name, base, edits, argv, message",
    [pytest.param(*case, id=case[0]) for case in LOADER_REJECTIONS],
)
def test_loader_rejection(tmp_path, capsys, name, base, edits, argv, message):
    path = tmp_path / "problem.json"
    if base is not None:
        path.write_text(json.dumps(edited_doc(base, edits)), encoding="utf-8")
    elif edits is not None:
        path.write_text(edits, encoding="utf-8")
    if name in UNBOUNDED_IF_ACCEPTED:
        done = module_cli("analyze", str(path), *argv)
        code, err = done.returncode, done.stderr
    else:
        code, err = run(["analyze", str(path), *argv]), capsys.readouterr().err
    assert code == EXIT_INPUT
    expected = message.format(path=path, dir=tmp_path)
    assert err == "input error: %s\n" % expected


class TestMalformedTokens:
    """A bad exponent, coefficient or generator header is an input error
    (exit 1) that names the token, on every path that reads term lines."""

    BAD_LINES = {
        "letter-exponent": ("1+ | 1+^x | 1/1 0/1", "1+^x"),
        "fractional-exponent": ("1+ | 1+^2.5 | 1/1 0/1", "1+^2.5"),
        "word-coefficient": ("1+ | 1+^2 | abc 0/1", "abc 0/1"),
        "zero-denominator": ("1+ | 1+^2 | 1/0 0/1", "1/0 0/1"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_terms(self, tmp_path, capsys, case):
        line, token = self.BAD_LINES[case]
        path = write(tmp_path, dim6_doc(field={"terms": DIAGONAL_LINES + [line]}))
        assert run(["analyze", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "problem.field.terms" in err and repr(token) in err

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_terms_file(self, tmp_path, capsys, case):
        line, token = self.BAD_LINES[case]
        (tmp_path / "field.txt").write_text(
            "\n".join(DIAGONAL_LINES + [line]) + "\n", encoding="utf-8"
        )
        path = write(tmp_path, dim6_doc(field={"terms_file": "field.txt"}))
        assert run(["normalize", path]) == EXIT_INPUT
        assert repr(token) in capsys.readouterr().err

    def test_float_coefficient(self, tmp_path, capsys):
        path = write(tmp_path, dim6_doc(field={"terms": DIAGONAL_LINES}))
        assert run(["analyze", path, "--float"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        line = "1+ | 1+^2 | abc 0/1"
        path = write(tmp_path, dim6_doc(field={"terms": DIAGONAL_LINES + [line]}))
        assert run(["analyze", path, "--float"]) == EXIT_INPUT
        assert "cannot parse coefficient 'abc 0/1'" in capsys.readouterr().err

    def test_float_verify_reads_exact_artifacts(self, workspace, capsys):
        _, problem, out = workspace
        assert run(["verify", problem, "--float", "--transform", out]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "tangency: ok" in captured.out

    def test_verify_generator_header(self, workspace, tmp_path, capsys):
        problem, out = edited_artifacts(
            workspace,
            tmp_path,
            "transform_log.txt",
            lambda data: data.replace(b"| stage kam", b"| stage", 1),
        )
        assert run(["verify", problem, "--transform", out]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "malformed generator header '# generator 0 | stage'" in err

    def test_verify_normal_form_exponent(self, workspace, tmp_path, capsys):
        problem, out = edited_artifacts(
            workspace,
            tmp_path,
            "normal_form.txt",
            lambda data: data.replace(b"^1", b"^x", 1),
        )
        assert run(["verify", problem, "--transform", out]) == EXIT_INPUT
        assert "cannot parse exponent token" in capsys.readouterr().err


class TestUndecodableBytes:
    """Bytes that are not UTF-8 make a file unreadable: exit 1 with the
    decode error, on each of the three paths that read text files."""

    DECODE = "'utf-8' codec can't decode byte 0xff in position %d: invalid start byte"

    def test_problem_file(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run(["analyze", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == "input error: cannot read %s: %s\n" % (
            path, self.DECODE % 0)

    def test_terms_file(self, tmp_path, capsys):
        (tmp_path / "field.txt").write_bytes(b"1+ | 1+^1 | 2/1 0/1\n\xff\n")
        path = write(tmp_path, dim6_doc(field={"terms_file": "field.txt"}))
        assert run(["analyze", path]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "input error: problem.field.terms_file: cannot read field.txt: %s\n"
            % (self.DECODE % 20))

    def test_verify_artifact(self, workspace, tmp_path, capsys):
        problem, out = edited_artifacts(
            workspace, tmp_path, "normal_form.txt", lambda data: b"\xff" + data
        )
        assert run(["verify", problem, "--transform", out]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "input error: cannot load artifacts from %s: %s\n" % (out, self.DECODE % 0))


class TestExitCodes:
    def test_model_error_for_dependent_symbol_values(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "model": {
                "name": "degenerate",
                "symbols": {"a": 1, "b": 2},
                "modes": {"1+": {"a": 1}, "2+": {"b": 1}, "3+": {"a": -1}},
            },
            "truncation": {"mode_cutoff": 3, "degree_cutoff": 6},
            "field": {
                "terms": [
                    "1+ | 1+^1 | 1/1 0/1",
                    "2+ | 2+^1 | 2/1 0/1",
                    "3+ | 3+^1 | -1/1 0/1",
                ]
            },
        }
        path = write(tmp_path, doc)
        assert run(["analyze", path]) == EXIT_MODEL
        assert "model error:" in capsys.readouterr().err

    def test_model_error_for_zero_eigenvalue(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "model": {
                "name": "flat",
                "symbols": {"a": 1},
                "modes": {"1+": {"a": 1}, "2+": {"a": 0}},
            },
            "truncation": {"mode_cutoff": 2, "degree_cutoff": 4},
            "field": {"terms": ["1+ | 1+^1 | 1/1 0/1"]},
        }
        path = write(tmp_path, doc)
        assert run(["analyze", path]) == EXIT_MODEL
        assert "nondegenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "normalize"])
    def test_model_error_for_eigenvalue_that_cancels_to_zero(self, tmp_path, capsys, command):
        doc = {
            "schema_version": 1,
            "model": {
                "name": "cancel",
                "symbols": {"a": 1, "b": 1},
                "modes": {"1+": {"a": 1, "b": -1}, "2+": {"a": 1}},
            },
            "truncation": {"mode_cutoff": 2, "degree_cutoff": 4},
            "field": {"terms": ["2+ | 2+^1 | 1/1 0/1"]},
        }
        path = write(tmp_path, doc)
        assert run([command, path]) == EXIT_MODEL
        assert capsys.readouterr().err == (
            "model error: eigenvalue of mode 1+ is zero; the linear part must be nondegenerate\n"
        )

    def test_resonant_term_at_window_edge_is_cutoff_error(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "model": {
                "name": "edge",
                "symbols": {"one": 1},
                "modes": {"1+": {"one": 1}, "2+": {"one": 9}},
            },
            "truncation": {"mode_cutoff": 2, "degree_cutoff": 8},
            "field": {
                "terms": [
                    "1+ | 1+^1 | 1/1 0/1",
                    "2+ | 2+^1 | 9/1 0/1",
                    "2+ | 1+^9 | 1/1 0/1",
                ]
            },
        }
        path = write(tmp_path, doc)
        assert run(["normalize", path]) == EXIT_MODEL
        err = capsys.readouterr().err
        assert "x^1+^9 d/dx_2+ at degree 9" in err
        assert "raise the degree cutoff" in err
        assert "disagree" not in err

    @pytest.mark.parametrize("argv", [[], ["--seed", "2"]])
    def test_seeded_dim6_field_needs_degree_four(self, tmp_path, capsys, argv):
        doc = dim6_doc(field={"seed": 1} if not argv else None)
        doc["truncation"]["degree_cutoff"] = 3
        assert run(["analyze", write(tmp_path, doc), *argv]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "input error: problem.truncation.degree_cutoff: a seeded dim6 "
            "field needs degree >= 4, got 3\n"
        )

    def test_unseeded_dim6_field_at_low_degree(self, tmp_path, capsys):
        doc = dim6_doc()
        doc["truncation"]["degree_cutoff"] = 1
        assert run(["analyze", write(tmp_path, doc)]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flow",
        [{"horizon": 1e150}, {"horizon": 1e200}, {"rho": [1e150]}],
        ids=["horizon-1e150", "horizon-1e200", "rho-1e150"],
    )
    def test_overflowing_flow_is_divergence(self, workspace, tmp_path, capsys, flow):
        _, _, out = workspace
        path = write(tmp_path, dim6_doc(field={"seed": 3}, flow=flow))
        assert run(["verify", path, "--transform", out]) == EXIT_MODEL
        assert capsys.readouterr().err == (
            "model error: flow diverged before reaching the horizon\n"
        )

    def test_problem_file_error_is_input_error(self, tmp_path):
        with pytest.raises(ProblemFileError):
            load_problem(str(tmp_path / "absent.json"))


def test_thousand_mode_model_finishes(tmp_path):
    """1,000 modes at degree cutoff 1 walk 501,500 indices; each one's
    resonant directions are looked up, not found by a scan of all 1,000."""
    doc = {
        "schema_version": 1,
        "model": {
            "name": "ladder",
            "symbols": {"a": 1},
            "modes": {"%d+" % j: {"a": j} for j in range(1, 1001)},
        },
        "truncation": {"mode_cutoff": 1000, "degree_cutoff": 1},
        "field": {"terms": ["1+ | 1+^1 | 1/1 0/1"]},
    }
    done = module_cli("analyze", write(tmp_path, doc))
    assert done.returncode == EXIT_OK
    assert done.stdout.endswith("0 module elements, 1000 resonant pairs\n")


def test_degree_flag_past_the_walk_limit(tmp_path):
    done = module_cli(
        "diophantine", write(tmp_path, dim6_doc()), "--tau", "2", "--degree", "1" + "0" * 400
    )
    assert done.returncode == EXIT_INPUT
    assert done.stderr == (
        "input error: --degree: the divisor audit over 6 modes walks more than "
        "1000000000 indices\n"
    )


@pytest.mark.parametrize("degree", (8, 10))
def test_n6_lattice_windows_load(tmp_path, degree):
    """The 26-mode lattice (N=6) stays inside the limit up to degree cutoff
    10 (854,992,152 indices); ``window-past-limit`` is the next one."""
    doc = nls_doc()
    doc["truncation"].update(mode_cutoff=6, degree_cutoff=degree)
    assert load_problem(write(tmp_path, doc)).ctx.degree_cutoff == degree


def test_console_entry_point(tmp_path):
    done = module_cli("analyze", write(tmp_path, dim6_doc(), "good.json"))
    assert done.returncode == EXIT_OK
    assert done.stdout.startswith("model dim6 | 6 modes")
    done = module_cli("analyze", write(tmp_path, dim6_doc(surprise=1), "bad.json"))
    assert done.returncode == EXIT_INPUT
    assert done.stderr == "input error: problem: unknown key(s): surprise\n"


def test_cli_import_does_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(resnf.__file__).parents[1]))
    code = "import sys, resnf.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestParser:
    def test_runs_share_one_parser(self, tmp_path, capsys):
        path = write(tmp_path, nls_doc())
        resnf.cli._parser.cache_clear()
        assert run(["analyze", path]) == EXIT_OK
        assert run(["analyze", path]) == EXIT_OK
        info = resnf.cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_help_and_usage_errors_repeat(self, capsys):
        """The shared parser keeps no state between calls."""
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run(["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == build_parser().format_help()
            with pytest.raises(SystemExit) as exc:
                run(["analyze"])
            assert exc.value.code == 2
            assert "the following arguments are required: problem" in capsys.readouterr().err
