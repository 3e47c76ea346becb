"""``normalize --out`` writes four artifacts; all of them are pinned byte
for byte, exact and ``--float``, to outputs recorded before the exact Lie
series moved to packed Gaussian-integer numerators.  ``kam_trace.json``'s
``eps`` and ``theta`` are float sums taken in the dict order of
``decompose``'s parts, which it builds in ``terms()`` order, sorted; so
they pin that sorted order as well as the values.

The exact artifacts read no dict order of a bracket's output, which lets
a bracket of two self-mirrored exact fields compute its sigma=+ components
and fill the sigma=- ones from them: with every bracket's directions and
keys reversed they stay byte-identical.  Neither the float lane nor a
dim6 context, which has no sigma=- modes, takes that half path.

The two lanes must also agree with each other on whole runs: the same
report, the same terms in the same order, and coefficients and trace
floats within a relative ``LANE_RTOL``."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from resnf import fields
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


def normalize_out(tmp_path, name, lane):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(PROBLEMS[name]), encoding="utf-8")
    out = tmp_path / lane
    argv = ["normalize", str(problem), "--out", str(out)]
    assert run(argv + (["--float"] if lane == "float" else [])) == EXIT_OK
    return out


@pytest.mark.parametrize("lane", ["exact", "float"])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_normalize_artifacts_match_recorded(tmp_path, capsys, name, lane):
    out = normalize_out(tmp_path, name, lane)
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    assert_recorded(out, name, lane)


def assert_recorded(out, name, lane):
    recorded = RECORDED / ("%s-%s" % (name, lane))
    for artifact in ARTIFACTS:
        assert (out / artifact).read_bytes() == (recorded / artifact).read_bytes(), artifact


@pytest.mark.parametrize("name", ["nls-2-5", "readme"])
def test_exact_artifacts_read_no_bracket_order(tmp_path, capsys, monkeypatch, name):
    bracket = fields._Packing.bracket
    calls = []

    def reversed_bracket(self, xs, ys, cutoff, *args):
        calls.append(cutoff)
        store = bracket(self, xs, ys, cutoff, *args)
        return {j: dict(reversed(comp.items())) for j, comp in reversed(store.items())}

    monkeypatch.setattr(fields._Packing, "bracket", reversed_bracket)
    out = normalize_out(tmp_path, name, "exact")
    capsys.readouterr()
    assert calls
    assert_recorded(out, name, "exact")


@pytest.mark.parametrize(
    "name, lane, half",
    [
        ("nls-2-5", "exact", True),
        ("nls-2-5", "float", False),
        ("readme", "exact", False),
        ("readme", "float", False),
        ("dim6-11", "exact", False),
        ("dim6-11", "float", False),
    ],
)
def test_only_exact_mirrored_contexts_halve_the_bracket(
    tmp_path, capsys, monkeypatch, name, lane, half
):
    check = fields._Packing._self_mirrored
    results = []

    def recorded(self, terms):
        results.append(check(self, terms))
        return results[-1]

    monkeypatch.setattr(fields._Packing, "_self_mirrored", recorded)
    out = normalize_out(tmp_path, name, lane)
    capsys.readouterr()
    # the exact nls run halves every bracket; the others never test for it
    if half:
        assert results and all(results)
    else:
        assert not results
    assert_recorded(out, name, lane)


# The pinned artifacts agree to 1.5e-14 relative.
LANE_RTOL = 1e-12


def term_lines(path):
    """Header lines and ``(direction, exponent, coefficient)`` term lines;
    an exact ``p/q`` part and a float part both parse as ``Fraction``."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            lines.append(line)
            continue
        k, q, c = (part.strip() for part in line.split("|"))
        lines.append((k, q, complex(*(float(Fraction(t)) for t in c.split()))))
    return lines


def assert_floats_close(exact, fl, where="kam_trace"):
    if isinstance(exact, dict):
        assert sorted(exact) == sorted(fl), where
        for key in exact:
            assert_floats_close(exact[key], fl[key], "%s.%s" % (where, key))
    elif isinstance(exact, list):
        assert len(exact) == len(fl), where
        for i, (a, b) in enumerate(zip(exact, fl)):
            assert_floats_close(a, b, "%s[%d]" % (where, i))
    elif isinstance(exact, float):
        assert isinstance(fl, float), where
        assert math.isclose(exact, fl, rel_tol=LANE_RTOL, abs_tol=0.0), (where, exact, fl)
    else:
        assert exact == fl, where


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_exact_and_float_lanes_agree(tmp_path, capsys, name):
    exact = normalize_out(tmp_path, name, "exact")
    fl = normalize_out(tmp_path, name, "float")
    capsys.readouterr()

    reports = [json.loads((out / REPORT_FILE).read_text(encoding="utf-8")) for out in (exact, fl)]
    assert [r["problem"].pop("arithmetic") for r in reports] == ["exact", "float"]
    assert reports[0] == reports[1]

    for artifact in (NORMAL_FORM_FILE, TRANSFORM_FILE):
        a, b = term_lines(exact / artifact), term_lines(fl / artifact)
        assert len(a) == len(b), artifact
        for x, y in zip(a, b):
            if isinstance(x, str):
                assert x == y, artifact
            else:
                assert x[:2] == y[:2], (artifact, x, y)
                assert abs(x[2] - y[2]) <= LANE_RTOL * abs(x[2]), (artifact, x, y)

    assert_floats_close(
        json.loads((exact / TRACE_FILE).read_text(encoding="utf-8")),
        json.loads((fl / TRACE_FILE).read_text(encoding="utf-8")),
    )
