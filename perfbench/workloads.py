"""The benchmark's workloads: problem files made from a seed, the CLI
command sequence of one pass, and the checks on every command's output.

Nothing here imports resnf, so a fresh process can time the package
import on its own (see ``setup_probe.py``).
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Operation:
    """One CLI invocation, the files it writes, and the check on them.

    ``check`` returns a list of problems; an empty list means the
    output is correct.
    """

    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    check: Callable[[], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool
    problems: Callable[[int], dict[str, dict]]
    operations: Callable[[Path], list[Operation]]


def write_problems(workload: Workload, seed: int, directory: Path) -> None:
    """Write the workload's problem files for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for filename, problem in workload.problems(seed).items():
        (directory / filename).write_text(json.dumps(problem, sort_keys=True, indent=2) + "\n")


def output_bytes(op: Operation) -> int:
    """Bytes of every file the operation wrote."""
    total = 0
    for out in op.outputs:
        if out.is_dir():
            total += sum(f.stat().st_size for f in out.iterdir() if f.is_file())
        elif out.is_file():
            total += out.stat().st_size
    return total


def _load_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append("cannot read %s: %s" % (path.name, exc))
        return None


def _same_bytes(produced: Path, reference: Path, problems: list[str]) -> None:
    try:
        same = produced.read_bytes() == reference.read_bytes()
    except OSError as exc:
        problems.append("cannot compare %s: %s" % (produced.name, exc))
        return
    if not same:
        problems.append(
            "%s differs from reference %s"
            % (produced, reference.relative_to(REFERENCE_DIR))
        )


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append("%s: got %r, expected %r" % (label, got, want))


def _check_artifacts(out_dir: Path, ref_dir: Path, problems: list[str]) -> None:
    for name in ("normal_form.txt", "transform_log.txt"):
        _same_bytes(out_dir / name, ref_dir / name, problems)


# ---------------------------------------------------------------------------
# nls-normalize: bracket-bound exact normalization (no seed in this family)
# ---------------------------------------------------------------------------


def _nls_problems(seed: int) -> dict[str, dict]:
    return {
        "nls.json": {
            "schema_version": 1,
            "name": "nls-normalize",
            "model": {"builder": "nls"},
            "truncation": {"mode_cutoff": 2, "degree_cutoff": 5},
            "field": {"p": 1},
        }
    }


def _nls_operations(work: Path) -> list[Operation]:
    out = work / "nls-out"

    def check() -> list[str]:
        problems: list[str] = []
        report = _load_json(out / "report.json", problems)
        if report is not None:
            _expect(problems, "residual_zero", report.get("residual_zero"), True)
            nf = report.get("normal_form", {})
            _expect(
                problems,
                "Z/X/N term counts",
                (nf.get("z_terms"), nf.get("x_terms"), nf.get("n_terms")),
                (50, 0, 92),
            )
        _check_artifacts(out, REFERENCE_DIR / "nls-normalize", problems)
        return problems

    argv = ("normalize", str(work / "nls.json"), "--out", str(out))
    return [Operation(argv, (out,), check)]


# ---------------------------------------------------------------------------
# lattice-analyze: the resonance window walk on the 18-mode lattice
# ---------------------------------------------------------------------------

LATTICE_CUTOFF = 4


def _lattice_problems(seed: int) -> dict[str, dict]:
    return {
        "lattice.json": {
            "schema_version": 1,
            "name": "lattice-analyze",
            "model": {"builder": "nls"},
            "truncation": {"mode_cutoff": LATTICE_CUTOFF, "degree_cutoff": 6},
            "field": {"p": 1},
            "diophantine": {"tau": 2, "degree_bound": 4},
        }
    }


def _lattice_operations(work: Path) -> list[Operation]:
    report_path = work / "lattice-report.json"
    # Criterion 2's closed form: one gauge pair x_{j+} x_{j-} per site.
    gauge_pairs = sorted(
        "%d-^1 %d+^1" % (j, j) for j in range(-LATTICE_CUTOFF, LATTICE_CUTOFF + 1)
    )

    def check() -> list[str]:
        problems: list[str] = []
        report = _load_json(report_path, problems)
        if report is None:
            return problems
        res = report.get("resonance", {})
        _expect(problems, "generators", sorted(res.get("q_generators", [])), gauge_pairs)
        _expect(problems, "translates", res.get("p_generators"), {})
        _expect(problems, "M", res.get("M"), 2)
        _expect(problems, "module elements", res.get("module_count"), 219)
        _expect(problems, "resonant pairs", res.get("resonant_pair_count"), 990)
        dio = report.get("diophantine", {})
        _expect(problems, "gamma_max", dio.get("gamma_max"), 3.0)
        _expect(problems, "worst combination", dio.get("worst_p"), "0-^-1")
        _expect(problems, "combinations", dio.get("enumerated_count"), 1844)
        return problems

    argv = ("analyze", str(work / "lattice.json"), "--json", str(report_path))
    return [Operation(argv, (report_path,), check)]


# ---------------------------------------------------------------------------
# dim6-verify: the float lane (RK4 flows and the transform) on three fields
# ---------------------------------------------------------------------------

# Criterion 5's fields: their normal forms keep a beyond-window tail on the
# invariant set, so the on-set error scales with the window degree.
DIM6_FIELD_SEEDS = (11, 143, 115)
DIM6_DEGREE = 5
DIM6_MSTAR = 4


def _dim6_problems(seed: int) -> dict[str, dict]:
    return {
        "dim6-%d.json" % field_seed: {
            "schema_version": 1,
            "name": "dim6-verify",
            "model": {"builder": "dim6"},
            "truncation": {"mode_cutoff": 6, "degree_cutoff": DIM6_DEGREE},
            "field": {"seed": field_seed},
            "flow": {"steps": 2048, "rho": ["1/20", "1/40", "1/80"], "seed": seed},
        }
        for field_seed in DIM6_FIELD_SEEDS
    }


def _dim6_operations(work: Path) -> list[Operation]:
    ops = []
    for field_seed in DIM6_FIELD_SEEDS:
        problem = str(work / ("dim6-%d.json" % field_seed))
        out = work / ("dim6-%d-out" % field_seed)
        verify_report = work / ("dim6-%d-verify.json" % field_seed)

        def check_normalize(out=out, field_seed=field_seed) -> list[str]:
            problems: list[str] = []
            report = _load_json(out / "report.json", problems)
            if report is not None:
                _expect(problems, "residual_zero", report.get("residual_zero"), True)
                _expect(problems, "cutoff order", report.get("mstar"), DIM6_MSTAR)
            _check_artifacts(out, REFERENCE_DIR / ("dim6-%d" % field_seed), problems)
            return problems

        def check_verify(verify_report=verify_report) -> list[str]:
            problems: list[str] = []
            report = _load_json(verify_report, problems)
            if report is None:
                return problems
            _expect(problems, "tangency ok", report.get("tangency", {}).get("ok"), True)
            conj = report.get("conjugacy", {})
            on, off = conj.get("on_sigma_slope"), conj.get("off_sigma_slope")
            # Criterion 5's bounds: on-set slope >= D + 1/2, off-set <= m* + 3/2.
            if on is None or on < DIM6_DEGREE + 0.5:
                problems.append("on-set slope %r < %.1f" % (on, DIM6_DEGREE + 0.5))
            if off is None or off > DIM6_MSTAR + 1.5:
                problems.append("off-set slope %r > %.1f" % (off, DIM6_MSTAR + 1.5))
            return problems

        ops.append(Operation(("normalize", problem, "--out", str(out)), (out,), check_normalize))
        ops.append(
            Operation(
                ("verify", problem, "--transform", str(out), "--json", str(verify_report)),
                (verify_report,),
                check_verify,
            )
        )
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nls-normalize",
            "exact normalize of the N=2, D=5 nls field: Lie brackets and MultiIndex sums dominate",
            False,
            _nls_problems,
            _nls_operations,
        ),
        Workload(
            "lattice-analyze",
            "analyze of the 18-mode N=4, D=6 lattice with a divisor audit: the resonance window walk dominates",
            False,
            _lattice_problems,
            _lattice_operations,
        ),
        Workload(
            "dim6-verify",
            "normalize then verify on three dim6 fields with 2048 RK4 steps: float flows and the transform dominate",
            True,
            _dim6_problems,
            _dim6_operations,
        ),
    )
}


def clear_outputs(ops: list[Operation]) -> None:
    """Remove what a previous pass wrote, so no stale file passes a check."""
    for op in ops:
        for out in op.outputs:
            if out.is_dir():
                shutil.rmtree(out)
            elif out.exists():
                out.unlink()
