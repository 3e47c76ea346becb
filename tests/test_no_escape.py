"""Guard: nothing raises out of ``cli.run``.

Every case below must return one of the documented exit codes.  The
cases are drawn once from a fixed seed, so the set is the same on every
run:

- problem mutations: one key of a tiny problem replaced by a value from
  a fixed pool, or dropped, then ``analyze``;
- ``verify`` against artifacts normalized once, with a flow horizon and
  a radius far outside the convergence region;
- corrupted bytes in a problem file, a ``terms_file`` and an artifact;
- every window size (mode or degree cutoff, degree bound, step count) of
  every base replaced by ``10**400``, which the loader must reject with
  exit 1 instead of starting a walk without end;
- ``--out``, ``--json`` and ``--csv`` paths that the write at the end
  would fail on, which every command must reject with exit 1, naming the
  path, before its work starts.

The seeded draw leaves the window sizes at ``10**400`` out, since the
window cases cover them; the draw and the ids it gives stay fixed.
"""

import json
import random
from unittest import mock

import pytest

from helpers import module_cli
from resnf.cli import EXIT_HYPOTHESIS, EXIT_INPUT, EXIT_OK, run

SEED = 20261018
_DROP = object()

BASES = {
    "dim6": {
        "schema_version": 1,
        "name": "guard dim6",
        "model": {"builder": "dim6", "zeta1": "1393/985"},
        "truncation": {"mode_cutoff": 6, "degree_cutoff": 4},
        "field": {"seed": 2},
        "flow": {"steps": 8, "horizon": 0.5, "rho": ["1/20", "1/40"]},
        "diophantine": {"tau": 2, "degree_bound": 2},
    },
    "nls": {
        "schema_version": 1,
        "model": {"builder": "nls", "potential": {"0": "1/3"}},
        "truncation": {"mode_cutoff": 1, "degree_cutoff": 3},
        "field": {"p": 1},
    },
    "custom": {
        "schema_version": 1,
        "model": {
            "name": "three",
            "symbols": {"a": 1, "b": "3/2"},
            "modes": {"1+": {"a": 1}, "2+": {"b": 1}, "3+": {"a": [1, 1]}},
        },
        "truncation": {"mode_cutoff": 3, "degree_cutoff": 3},
        "field": {
            "terms": [
                "1+ | 1+^1 | 1/1 0/1",
                "2+ | 2+^1 | 3/2 0/1",
                "3+ | 3+^1 | 1/1 1/1",
            ]
        },
    },
}

POOL = (
    _DROP,
    None,
    True,
    False,
    10 ** 400,
    "1e400",
    "1/0",
    [],
    {},
    ["1+ | 1+^x | 1/1 0/1"],
    ["1+ | - | 1/1 0/1"],
    "1+ | 1+^1 | 1/1",
)

WORK_SIZES = {"mode_cutoff", "degree_cutoff", "degree_bound", "steps"}

HUGE = (1e150, 1e200, 1e3)

#: (command, option, path under the test directory, where ``file`` is a
#: regular file and ``absent`` does not exist; None is the empty path)
OUTPUTS = {
    "normalize-out-empty": ("normalize", "--out", None),
    "normalize-out-file": ("normalize", "--out", "file"),
    "normalize-out-under-file": ("normalize", "--out", "file/sub"),
    "normalize-json-absent-dir": ("normalize", "--json", "absent/report.json"),
    "analyze-json-absent-dir": ("analyze", "--json", "absent/report.json"),
    "analyze-json-empty": ("analyze", "--json", None),
    "diophantine-json-directory": ("diophantine", "--json", "."),
    "verify-json-absent-dir": ("verify", "--json", "absent/report.json"),
    "verify-csv-absent-dir": ("verify", "--csv", "absent/table.csv"),
}


def _paths(node, prefix=()):
    """Every key path of a document: object keys and array positions."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutated(base, path, value):
    doc = json.loads(json.dumps(BASES[base]))
    node = doc
    for part in path[:-1]:
        node = node[part]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _mutation_cases(rng, count):
    cases = [
        (base, path, value)
        for base in sorted(BASES)
        for path in _paths(BASES[base])
        for value in POOL
        if not (path[-1] in WORK_SIZES and value == 10 ** 400)
    ]
    return rng.sample(cases, count)


def _corrupt(data: bytes, rng) -> bytes:
    """Overwrite one to three bytes with bytes that are often not UTF-8."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        data[rng.randrange(len(data))] = rng.choice((0xFF, 0xC3, 0x80, 0x00, 0x7B, 0x7C))
    return bytes(data)


def _cases():
    rng = random.Random(SEED)
    cases = [
        pytest.param("mutation", m, id="mutate-%s-%s-%d" % (m[0], ".".join(map(str, m[1])), i))
        for i, m in enumerate(_mutation_cases(rng, 45))
    ]
    cases += [
        pytest.param("window", (base, path), id="window-%s-%s" % (base, ".".join(path)))
        for base in sorted(BASES)
        for path in _paths(BASES[base])
        if path[-1] in WORK_SIZES
    ]
    cases += [
        pytest.param("flow", (h, r), id="flow-h%g-rho%g" % (h, r))
        for h in HUGE
        for r in HUGE
    ]
    for target in ("problem", "terms_file", "normal_form.txt", "transform_log.txt"):
        cases += [
            pytest.param("bytes", (target, rng.randrange(2 ** 32)), id="bytes-%s-%d" % (target, i))
            for i in range(4)
        ]
    cases += [
        pytest.param("output", row, id="output-%s" % name) for name, row in OUTPUTS.items()
    ]
    return cases


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The dim6 base problem normalized once."""
    root = tmp_path_factory.mktemp("guard")
    problem = root / "dim6.json"
    problem.write_text(json.dumps(BASES["dim6"]), encoding="utf-8")
    out = root / "out"
    assert run(["normalize", str(problem), "--out", str(out)]) == EXIT_OK
    return out


@pytest.mark.parametrize("kind, case", _cases())
def test_nothing_escapes(kind, case, artifacts, tmp_path, capsys):
    problem = tmp_path / "problem.json"
    transform = artifacts
    if kind == "mutation":
        problem.write_text(json.dumps(_mutated(*case)), encoding="utf-8")
        argv = ["analyze", str(problem)]
    elif kind == "window":
        # in a child process: a window the loader let through would not end
        problem.write_text(json.dumps(_mutated(*case, 10 ** 400)), encoding="utf-8")
        done = module_cli("analyze", str(problem))
        assert done.returncode == EXIT_INPUT
        assert done.stderr.startswith("input error: ")
        return
    elif kind == "output":
        command, option, target = case
        (tmp_path / "file").write_text("", encoding="utf-8")
        problem.write_text(json.dumps(BASES["dim6"]), encoding="utf-8")
        path = "" if target is None else str(tmp_path / target)
        argv = [command, str(problem), option, path]
        if command == "verify":
            argv += ["--transform", str(transform)]
        started = AssertionError("the work started")
        with mock.patch("resnf.cli.enumerate_resonance", side_effect=started), \
                mock.patch("resnf.cli.diophantine_audit", side_effect=started):
            code = run(argv)
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("input error: %s: " % option) and path in err, err
        return
    elif kind == "flow":
        horizon, rho = case
        doc = _mutated("dim6", ("flow",), {"horizon": horizon, "rho": [rho]})
        problem.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["verify", str(problem), "--transform", str(transform)]
    else:
        target, seed = case
        rng = random.Random(seed)
        doc = BASES["dim6"]
        if target == "terms_file":
            lines = (artifacts / "normal_form.txt").read_bytes()
            (tmp_path / "field.txt").write_bytes(_corrupt(lines, rng))
            doc = _mutated("dim6", ("field",), {"terms_file": "field.txt"})
        text = json.dumps(doc).encode("utf-8")
        problem.write_bytes(_corrupt(text, rng) if target == "problem" else text)
        argv = ["analyze", str(problem)]
        if target.endswith(".txt"):
            transform = tmp_path / "out"
            transform.mkdir()
            for entry in artifacts.iterdir():
                data = entry.read_bytes()
                if entry.name == target:
                    data = _corrupt(data, rng)
                (transform / entry.name).write_bytes(data)
            argv = ["verify", str(problem), "--transform", str(transform)]
    code = run(argv)
    capsys.readouterr()
    assert EXIT_OK <= code <= EXIT_HYPOTHESIS
