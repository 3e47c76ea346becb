"""``normalize --out`` writes four artifacts; all of them are pinned byte
for byte, exact and ``--float``, to outputs recorded before the exact Lie
series moved to packed Gaussian-integer numerators.  ``kam_trace.json``'s
``eps`` and ``theta`` are float sums taken in the fields' dict order, so
they pin that order as well as the values."""

import json
from pathlib import Path

import pytest

from resnf.cli import EXIT_OK, NORMAL_FORM_FILE, REPORT_FILE, TRACE_FILE, TRANSFORM_FILE, run

RECORDED = Path(__file__).resolve().parent / "normalize_output"

ARTIFACTS = (NORMAL_FORM_FILE, TRANSFORM_FILE, TRACE_FILE, REPORT_FILE)

PROBLEMS = {
    # the README's problem
    "readme": {
        "schema_version": 1,
        "model": {"builder": "dim6"},
        "truncation": {"mode_cutoff": 6, "degree_cutoff": 8},
        "field": {"seed": 3},
    },
    # the benchmark's nls-normalize problem
    "nls-2-5": {
        "schema_version": 1,
        "model": {"builder": "nls"},
        "truncation": {"mode_cutoff": 2, "degree_cutoff": 5},
        "field": {"p": 1},
    },
    # the first field of the benchmark's dim6-verify workload
    "dim6-11": {
        "schema_version": 1,
        "model": {"builder": "dim6"},
        "truncation": {"mode_cutoff": 6, "degree_cutoff": 5},
        "field": {"seed": 11},
    },
}


@pytest.mark.parametrize("lane", ["exact", "float"])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_normalize_artifacts_match_recorded(tmp_path, capsys, name, lane):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(PROBLEMS[name]), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["normalize", str(problem), "--out", str(out)]
    assert run(argv + (["--float"] if lane == "float" else [])) == EXIT_OK
    capsys.readouterr()
    recorded = RECORDED / ("%s-%s" % (name, lane))
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    for artifact in ARTIFACTS:
        assert (out / artifact).read_bytes() == (recorded / artifact).read_bytes(), artifact
