"""The resnf benchmark: one workload, closed loop, in process.

    python3 perfbench/run.py --workload nls-normalize --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

A pass runs the workload's CLI commands through ``resnf.cli.run`` one
after another (each starts when the previous returns), then checks every
command's output.  Passes repeat while another one fits in ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``wall_ref`` is the median
over passes of a pass's time in units of a short fixed pure-Python probe
that a timer signal runs every ``PROBE_INTERVAL_S`` during the pass, so
that the machine's speed drift cancels.  ``setup_s`` is the median time
for a fresh process to import ``resnf.cli`` and write the problem files,
each scaled by the bare interpreter starts run just before and after it to
the nominal start time ``BARE_START_NOMINAL_S``, and ``peak_rss_mb`` the
peak resident memory of this process.  The median seconds per pass, probes
left out (``wall_s``), and ``fail_ratio`` are printed beside them, not
gated.  ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics of ``layertrace.py``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count CLI commands; a command fails on a
nonzero exit, an uncaught exception or an output check that does not
match.  A record of the run, with the trace's spans, is written to
``perfbench/out/``.  ``--workload all`` runs each workload in its own
process, one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# One thread: OpenBLAS, which numpy loads, would otherwise start a second
# thread at import.  The set-up processes inherit this.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import layertrace  # noqa: E402
from workloads import WORKLOADS, Operation, clear_outputs, output_bytes, write_problems  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 13
# Seconds of a bare interpreter start (``python3 -c pass``) on the 2-core VM
# the baseline was measured on.  ``setup_s`` reads as set-up seconds on a
# machine that starts the interpreter this fast.
BARE_START_NOMINAL_S = 0.072
# The speed probe: PROBE_ITERATIONS iterations of the reference work (about
# 3 ms on a 2-core VM) every PROBE_INTERVAL_S of wall time during an untraced
# pass.
PROBE_ITERATIONS = 400
PROBE_KEYS = 249
PROBE_INTERVAL_S = 0.05
# The six layers' self times must add up to the traced wall within this
# share; the rest is the runner's own time between commands.
SELF_TIME_TOLERANCE = 0.02

# (name, unit, better); ``BENCHMARK.json``'s ``end_to_end`` lists the same.
END_TO_END = (
    ("wall_ref", "ratio", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failures: list[str] = field(default_factory=list)
    artifact_bytes: int = 0


def run_operation(cli, op: Operation) -> str | None:
    """Run one CLI command; return why it failed, or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(op.argv))
    except Exception:  # an escaped exception is a failed command, not a stop
        return "%s raised:\n%s" % (op.argv[0], traceback.format_exc())
    if code != 0:
        return "%s exited %r: %s" % (op.argv[0], code, err.getvalue().strip())
    return None


def run_pass(cli, ops: list[Operation], tracer=None, probe=None) -> PassResult:
    """Run the commands closed loop, then check their outputs.  The pass's
    time leaves out the probe's own time."""
    clear_outputs(ops)
    errors: list[str | None] = []
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.operation = i
            errors.append(run_operation(cli, op))
    wall = time.perf_counter() - start - (probe.seconds() if probe else 0.0)
    result = PassResult(wall, len(ops))
    for op, error in zip(ops, errors):
        if error is None:
            problems = op.check()
            if problems:
                error = "%s output check failed: %s" % (op.argv[0], "; ".join(problems))
        if error is not None:
            result.failures.append(error)
        result.artifact_bytes += output_bytes(op)
    return result


def reference_work() -> None:
    """A fixed piece of pure-Python work of the kind the exact lane does
    (tuples, sorting, dict lookups, Fractions), without resnf."""
    acc: dict[tuple, Fraction] = {}
    for i in range(PROBE_ITERATIONS):
        key = tuple(sorted(((i * 7) % 13, (i * 3) % 5, i % 11)))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7, 3)
    if len(acc) != PROBE_KEYS:
        raise RuntimeError("reference work produced %d keys" % len(acc))


class SpeedProbe:
    """Samples the machine's speed in this process while a pass runs.

    On entry, on exit and on a SIGALRM every ``PROBE_INTERVAL_S`` of wall
    time in between, it runs ``reference_work`` and records when that
    started and how long it took.  The machine's speed drifts by tens of
    percent within seconds; a probe every 50 ms follows it, where a
    reference run before and after a pass of several seconds does not.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous_handler = None

    def _probe(self, *_) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self._probe()
        self._previous_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._probe()

    def seconds(self) -> float:
        return sum(seconds for _, seconds in self.samples)

    def reference_units(self) -> float:
        """The time between the probes, each stretch divided by the mean
        time of the two probes around it."""
        return sum(
            (start1 - start0 - seconds0) * 2 / (seconds0 + seconds1)
            for (start0, seconds0), (start1, seconds1) in zip(self.samples, self.samples[1:])
        )


def time_process(cmd: list[str]) -> float:
    start = time.perf_counter()
    # No timeout: with one, subprocess polls for the child's exit in
    # sleeps of up to 50 ms, which would round the times to 50 ms.
    subprocess.run(cmd, check=True)
    return time.perf_counter() - start


def measure_setup(
    workload: str, seed: int, work: Path, reference: Path
) -> tuple[list[float], list[float]]:
    """Seconds for each of several fresh processes to import ``resnf.cli``
    and write the problem files, each of which must write the same files;
    and seconds of the bare interpreter starts run before, between and
    after them, one more than there are set-up processes."""
    bare_start = [sys.executable, "-c", "pass"]
    times, bare = [], [time_process(bare_start)]
    for i in range(SETUP_REPEATS):
        target = work / ("setup-%d" % i)
        times.append(time_process(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload, str(seed), str(target)]
        ))
        bare.append(time_process(bare_start))
        for path in reference.iterdir():
            if (target / path.name).read_bytes() != path.read_bytes():
                raise RuntimeError("set-up process wrote a different %s" % path.name)
        shutil.rmtree(target)
    return times, bare


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` (absent outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in sorted((SRC / "resnf").rglob("*.py"))
    )


def measure(args) -> int:
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="%s-" % workload.name, dir=OUT_DIR))
    try:
        return _measure(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, workload, work: Path) -> int:
    problems_dir = work / "problems"
    write_problems(workload, args.seed, problems_dir)
    setup, bare = ([], []) if args.trace else measure_setup(workload.name, args.seed, work, problems_dir)

    from resnf import cli

    ops = workload.operations(problems_dir)
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    layer_passes: list[dict[str, float]] = []
    spans: list[dict] = []
    # Start a pass only if one as long as the longest so far still ends in
    # time, once each kind of pass has run at least once.
    start = time.perf_counter()
    longest = 0.0
    # Each untraced pass of a --trace 0 run in reference units; the probe
    # stays off in --trace 1 runs, so traced and untraced passes compare.
    references: list[float] = []
    probe_seconds: list[float] = []
    while True:
        began = time.perf_counter()
        if args.trace and len(untraced) > len(traced):
            tracer = layertrace.Tracer()
            with layertrace.traced(tracer):
                result = run_pass(cli, ops, tracer)
            traced.append(result)
            layer_passes.append(layertrace.pass_metrics(tracer, result.artifact_bytes))
            for span in tracer.spans:
                span["pass"] = len(traced) - 1
            spans.extend(tracer.spans)
        elif args.trace:
            untraced.append(run_pass(cli, ops))
        else:
            probe = SpeedProbe()
            untraced.append(run_pass(cli, ops, probe=probe))
            references.append(probe.reference_units())
            probe_seconds.append(statistics.median(seconds for _, seconds in probe.samples))
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now - start + longest > args.seconds and (traced or not args.trace):
            break

    every = untraced + traced
    attempted = sum(p.attempted for p in every)
    failures = [f for p in every for f in p.failures]
    wall_s = statistics.median(p.wall_s for p in untraced)
    if args.trace:
        metrics = layertrace.median_metrics(layer_passes)
        traced_wall = statistics.median(p.wall_s for p in traced)
        metrics["trace_overhead_s"] = traced_wall - wall_s
        units = {name: unit for name, unit, _ in layertrace.PER_LAYER}
        self_sum = sum(metrics[layer + ".self_s"] for layer in layertrace.LAYERS)
        notes = {
            "traced_wall_s": traced_wall,
            "self_s_sum": self_sum,
            "self_s_share_of_traced_wall": self_sum / traced_wall,
        }
    else:
        metrics = {
            "wall_ref": statistics.median(references),
            # The machine's speed drifts by tens of percent over minutes;
            # a bare interpreter start on either side of each set-up
            # process slows with it, so the drift cancels in the quotient.
            "setup_s": BARE_START_NOMINAL_S * statistics.median(
                t * 2 / (before + after) for t, before, after in zip(setup, bare, bare[1:])
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        notes = {
            "wall_s_per_pass": [p.wall_s for p in untraced],
            "wall_ref_per_pass": references,
            "probe_median_s_per_pass": probe_seconds,
            "setup_s_per_process": setup,
            "bare_start_s": bare,
        }

    metadata = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_used": workload.seeded,
        "seconds": args.seconds,
        "trace": args.trace,
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "setup_processes": len(setup),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }
    for failure in failures:
        print("FAILED: %s" % failure, file=sys.stderr)
    print("workload %s  seed %d  trace %d" % (workload.name, args.seed, args.trace))
    for name, value in metrics.items():
        print("  %-28s %14.6f %s" % (name, value, units[name]))
    print("  %-28s %14.6f s (median of %d passes; not gated)" % ("wall_s", wall_s, len(untraced)))
    print("  %-28s %14.6f ratio (%d of %d commands failed; not gated)" % (
        "fail_ratio", len(failures) / attempted, len(failures), attempted))
    print("metadata %s" % json.dumps(metadata, sort_keys=True))
    print("notes %s" % json.dumps(notes, sort_keys=True))

    record = {"metadata": metadata, "notes": notes, "metrics": metrics, "failures": failures}
    if args.trace:
        record["spans"] = spans
    record_path = OUT_DIR / ("%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace))
    record_path.write_text(json.dumps(record, sort_keys=True) + "\n")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    failed = False
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        failed |= subprocess.run(cmd).returncode != 0
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "resnf" / "cli.py").is_file():
        print("no resnf sources at %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
