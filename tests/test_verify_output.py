"""``verify --json --csv`` writes full-precision errors; they are pinned
byte for byte to reports recorded before the flows were compiled to
Python source (the README transcript only sees ``%.6e``; the reports of
seeds 143 and 115 were recorded with the guarded compiled loop).
``verify`` compiles each field it flows once, and on these problems, the
README's and the benchmark's, no flow takes the replay."""

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
}
# the three fields of the benchmark's dim6-verify workload, flow seed 911
for _seed in (11, 143, 115):
    PROBLEMS["dim6-%d" % _seed] = {
        "schema_version": 1,
        "name": "dim6-verify",
        "model": {"builder": "dim6"},
        "truncation": {"mode_cutoff": 6, "degree_cutoff": 5},
        "field": {"seed": _seed},
        "flow": {"steps": 2048, "rho": ["1/20", "1/40", "1/80"], "seed": 911},
    }


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_verify_reports_match_recorded(tmp_path, capsys, monkeypatch, name):
    """Also: no flow of ``verify`` ends non-finite or overflows, so none
    takes ``normalform._replay``; the benchmark's gain rests on that."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(PROBLEMS[name]), encoding="utf-8")
    out = tmp_path / "out"
    assert run(["normalize", str(problem), "--out", str(out)]) == EXIT_OK
    report, table = tmp_path / "verify.json", tmp_path / "verify.csv"
    argv = ["verify", str(problem), "--transform", str(out)]
    replays = []
    replay = normalform._replay
    monkeypatch.setattr(normalform, "_replay", lambda *args: replays.append(args) or replay(*args))
    assert run(argv + ["--json", str(report), "--csv", str(table)]) == EXIT_OK
    capsys.readouterr()
    assert replays == []
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
