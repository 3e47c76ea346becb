"""Self-tests of the benchmark (about a minute):

    python3 -m pytest perfbench

They run one untraced and one traced pass of every workload.
"""

import importlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Operation, write_problems  # noqa: E402

from resnf import cli  # noqa: E402

# The two layers that should hold most of the traced self time.
DOMINANT_LAYERS = {
    "nls-normalize": ("fields", "indexing"),
    "lattice-analyze": ("resonance", "indexing"),
    "dim6-verify": ("verify", "normalform"),
}


def _snapshot(ops):
    files = {}
    for op in ops:
        for out in op.outputs:
            for path in sorted(out.iterdir()) if out.is_dir() else [out]:
                files[path] = path.read_bytes()
    return files


def _bindings():
    """Every attribute the tracer may replace, as currently bound."""
    bound = {}
    for layer, attr, _, _, _ in layertrace.TARGETS:
        owner_name, _, member = attr.rpartition(".")
        module = importlib.import_module("resnf." + layer)
        owner = getattr(module, owner_name) if owner_name else module
        bound[(layer, attr)] = owner.__dict__[member]
    for module in layertrace._resnf_modules():
        for key, value in vars(module).items():
            if callable(value):
                bound[(module.__name__, key)] = value
    return bound


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request, tmp_path_factory):
    workload = WORKLOADS[request.param]
    work = tmp_path_factory.mktemp(workload.name)
    write_problems(workload, 1, work)
    ops = workload.operations(work)
    plain = run.run_pass(cli, ops)
    plain_files = _snapshot(ops)
    before = _bindings()
    tracer = layertrace.Tracer()
    with layertrace.traced(tracer):
        traced = run.run_pass(cli, ops, tracer)
    after = _bindings()
    return workload.name, plain, plain_files, traced, _snapshot(ops), tracer, before, after


def test_traced_and_untraced_passes_write_identical_artifacts(passes):
    _, plain, plain_files, traced, traced_files, _, _, _ = passes
    assert plain.failures == [] and traced.failures == []
    assert plain_files and plain_files == traced_files


def test_layer_self_times_sum_to_traced_wall(passes):
    _, _, _, traced, _, tracer, _, _ = passes
    total = sum(tracer.self_s[layer] for layer in layertrace.LAYERS)
    assert abs(total - traced.wall_s) <= run.SELF_TIME_TOLERANCE * traced.wall_s


def test_named_layers_hold_most_self_time(passes):
    name, _, _, _, _, tracer, _, _ = passes
    total = sum(tracer.self_s[layer] for layer in layertrace.LAYERS)
    assert sum(tracer.self_s[layer] for layer in DOMINANT_LAYERS[name]) > 0.5 * total


def test_wrappers_are_restored(passes):
    _, _, _, _, _, tracer, before, after = passes
    assert tracer.calls["cli.run"] > 0
    assert before == after


def test_escaped_exception_fails_one_command_and_the_pass_goes_on(tmp_path):
    # potential_shift has nine primes, enough for |j| <= 4 only, so mode
    # cutoff 5 raises IndexError inside load_problem and it escapes cli.run.
    bad = tmp_path / "nls5.json"
    bad.write_text(json.dumps({
        "schema_version": 1,
        "model": {"builder": "nls"},
        "truncation": {"mode_cutoff": 5, "degree_cutoff": 3},
        "field": {"p": 1},
    }))
    good = tmp_path / "dim6.json"
    good.write_text(json.dumps({
        "schema_version": 1,
        "model": {"builder": "dim6"},
        "truncation": {"mode_cutoff": 6, "degree_cutoff": 8},
        "field": {"seed": 3},
    }))
    report = tmp_path / "dim6-report.json"
    ops = [
        Operation(("analyze", str(bad)), (), lambda: []),
        Operation(("analyze", str(good), "--json", str(report)), (report,), lambda: []),
    ]
    result = run.run_pass(cli, ops)
    assert result.attempted == 2
    assert len(result.failures) == 1
    assert "IndexError" in result.failures[0]
    assert json.loads(report.read_text())["command"] == "analyze"


def test_speed_probe_samples_during_the_pass_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        time.sleep(10 * run.PROBE_INTERVAL_S)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    # The stretches between the probes add up to the sleep, less the probes.
    (first_start, first_s), (last_start, _) = probe.samples[0], probe.samples[-1]
    between = sum(seconds for _, seconds in probe.samples[1:-1])
    assert last_start - first_start - first_s - between == pytest.approx(10 * run.PROBE_INTERVAL_S, rel=0.2)
    assert probe.reference_units() > 0


def test_manifest_matches_the_benchmark():
    manifest = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    rows = lambda key: [(m["name"], m["unit"], m["better"]) for m in manifest[key]]  # noqa: E731
    assert rows("end_to_end") == list(run.END_TO_END)
    assert rows("per_layer") == list(layertrace.PER_LAYER)
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nls-normalize",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
