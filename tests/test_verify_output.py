"""``verify --json --csv`` writes full-precision errors; they are pinned
byte for byte to reports recorded before the flows were compiled to
Python source (the README transcript only sees ``%.6e``).  ``verify``
compiles each field it flows once."""

import json
from pathlib import Path

import pytest

from resnf import cli, normalform, verify
from resnf.cli import EXIT_OK, run

RECORDED = Path(__file__).resolve().parent / "verify_output"

PROBLEMS = {
    # the README's problem
    "readme": {
        "schema_version": 1,
        "model": {"builder": "dim6"},
        "truncation": {"mode_cutoff": 6, "degree_cutoff": 8},
        "field": {"seed": 3},
        "flow": {"rho": ["1/20", "1/40", "1/80"], "horizon": 1.0},
    },
    # the first field of the benchmark's dim6-verify workload, flow seed 911
    "dim6-11": {
        "schema_version": 1,
        "name": "dim6-verify",
        "model": {"builder": "dim6"},
        "truncation": {"mode_cutoff": 6, "degree_cutoff": 5},
        "field": {"seed": 11},
        "flow": {"steps": 2048, "rho": ["1/20", "1/40", "1/80"], "seed": 911},
    },
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_verify_reports_match_recorded(tmp_path, capsys, name):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(PROBLEMS[name]), encoding="utf-8")
    out = tmp_path / "out"
    assert run(["normalize", str(problem), "--out", str(out)]) == EXIT_OK
    report, table = tmp_path / "verify.json", tmp_path / "verify.csv"
    argv = ["verify", str(problem), "--transform", str(out)]
    assert run(argv + ["--json", str(report), "--csv", str(table)]) == EXIT_OK
    capsys.readouterr()
    assert report.read_bytes() == (RECORDED / (name + ".json")).read_bytes()
    assert table.read_bytes() == (RECORDED / (name + ".csv")).read_bytes()


def test_verify_compiles_each_field_once(tmp_path, capsys, monkeypatch):
    """``verify`` compiles the problem's field and each generator of the
    transform log once, however many points it flows them from."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(PROBLEMS["readme"]), encoding="utf-8")
    out = tmp_path / "out"
    assert run(["normalize", str(problem), "--out", str(out)]) == EXIT_OK
    compile_field = normalform.compile_field
    calls = []

    def counted(w):
        calls.append(w)
        return compile_field(w)

    for module in (normalform, cli, verify):
        monkeypatch.setattr(module, "compile_field", counted)
    assert run(["verify", str(problem), "--transform", str(out)]) == EXIT_OK
    capsys.readouterr()
    log = (out / "transform_log.txt").read_text(encoding="utf-8").splitlines()
    generators = sum(line.startswith("# generator") for line in log)
    assert generators >= 1
    assert len(calls) == 1 + generators
