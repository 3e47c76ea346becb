"""Command-line front end over JSON problem files.

A problem file (schema version 1) declares a frequency model (a named
builder or an explicit symbol table with per-mode coordinates), a
truncation window, a field (a builder seed, the nls degree ``p``, an
explicit term list in canonical text form, or a reference to a previously
emitted field file), and optional task parameters.  ``load_problem`` reads
each key once through ``_Section.get``, which labels and converts it;
``_BUILDERS`` gives each builder's momentum rule, default field and ``p``
parameter, and ``_FLOW`` the flow defaults.  Four commands drive the library:

- ``analyze``     resonance enumeration plus the optional Diophantine
                  lower-bound scan;
- ``normalize``   prenormalization and the quadratic iteration, with
                  artifacts written to ``--out``;
- ``verify``      invariant-set tangency and the conjugacy scaling
                  sweep against recorded artifacts;
- ``diophantine`` the small-divisor lower-bound scan alone.

Exit codes: 0 success, 1 input error, 2 model-assumption violation,
3 theorem-hypothesis violation.  Machine reports (``--json``) are
canonical JSON — sorted keys, no timestamps — so repeated runs are
byte-identical; all randomness flows from seeds recorded in the report.
Output files are written atomically (temp file plus rename).  The
``--threads`` flag is accepted for interface stability but execution is
sequential; results never depend on it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    HypothesisViolation,
    NormalFormError,
    ProblemFileError,
)
from .fields import VectorField
from .indexing import TruncationContext, parse_mode
from .normalform import TransformLog, compile_field, normalize
from .resonance import (
    FrequencyModel,
    diophantine_audit,
    enumerate_resonance,
)
from .verify import (
    DEFAULT_ZETA1,
    DEFAULT_ZETA2,
    FlowConfig,
    SigmaSpec,
    build_example_dim6,
    build_example_hyperbolic,
    build_example_nls,
    check_tangent_sigma,
    conjugacy_error,
    default_potential,
    dim6_frequency_model,
    hyperbolic_frequency_model,
    loglog_slope,
    nls_frequency_model,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MODEL = 2
EXIT_HYPOTHESIS = 3

NORMAL_FORM_FILE = "normal_form.txt"
TRANSFORM_FILE = "transform_log.txt"
TRACE_FILE = "kam_trace.json"
REPORT_FILE = "report.json"

#: The most indices one window may hold.  ``analyze`` and ``normalize``
#: certify a window of C(modes + degree_cutoff + 1, degree_cutoff + 1)
#: indices, the divisor audit walks C(modes + degree_bound, degree_bound).
#: A fixed constant, far above every shipped problem: the 18-mode lattice
#: at degree cutoff 6 has a window of 480,700 indices (the resonance
#: enumeration walks 170,544 over its first 15 modes and looks up the last
#: 3), a 26-mode lattice (N=6) at 8 about 7.1e7.
WALK_LIMIT = 10**9

_MISSING = object()


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


class _Section:
    """A JSON object with path-labeled access and unknown-key rejection."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ProblemFileError("%s: expected an object" % path)
        self._data = data
        self._path = path
        self._taken: set[str] = set()

    def label(self, key: str) -> str:
        return "%s.%s" % (self._path, key)

    def take(self, key: str, default=_MISSING):
        self._taken.add(key)
        if key in self._data:
            return self._data[key]
        if default is _MISSING:
            raise ProblemFileError("%s: missing required key" % self.label(key))
        return default

    def get(self, key: str, convert, default=_MISSING):
        """``take`` the value and ``convert`` it under the key's label; a
        key whose default is None reads null as absent."""
        value = self.take(key, default)
        if value is None and default is None:
            return None
        return convert(value, self.label(key))

    def child(self, key: str, required: bool = False) -> "_Section | None":
        if key not in self._data:
            if required:
                raise ProblemFileError("%s: missing required key" % self.label(key))
            self._taken.add(key)
            return None
        return _Section(self.take(key), self.label(key))

    def finish(self) -> None:
        unknown = sorted(set(self._data) - self._taken)
        if unknown:
            raise ProblemFileError(
                "%s: unknown key(s): %s" % (self._path, ", ".join(unknown))
            )


def _as_int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError("%s: expected an integer" % label)
    return value


def _as_bool(value, label: str) -> bool:
    if not isinstance(value, bool):
        raise ProblemFileError("%s: expected true or false" % label)
    return value


def _as_str(value, label: str) -> str:
    if not isinstance(value, str):
        raise ProblemFileError("%s: expected a string" % label)
    return value


def _as_rational(value, label: str) -> Fraction:
    """Exact numbers are integers or ``"p/q"`` strings; floats are
    rejected rather than silently approximated, and so are rationals
    beyond the float range, which the float lane could not hold."""
    if isinstance(value, bool):
        raise ProblemFileError("%s: expected a rational, got a boolean" % label)
    if not isinstance(value, (int, str)):
        raise ProblemFileError(
            "%s: rationals must be integers or 'p/q' strings" % label
        )
    try:
        number = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ProblemFileError(
            "%s: cannot parse rational %r" % (label, value)
        ) from None
    try:
        float(number)
    except OverflowError:
        raise ProblemFileError("%s: expected a finite number" % label) from None
    return number


def _as_number(value, label: str) -> float:
    if isinstance(value, bool):
        raise ProblemFileError("%s: expected a number, got a boolean" % label)
    if isinstance(value, str):
        value = _as_rational(value, label)
    elif not isinstance(value, (int, float)):
        raise ProblemFileError("%s: expected a number" % label)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ProblemFileError("%s: expected a finite number" % label)
    return number


def _as_numbers(value, label: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ProblemFileError("%s: expected a non-empty array" % label)
    return [_as_number(v, "%s[%d]" % (label, i)) for i, v in enumerate(value)]


class _Builder(NamedTuple):
    """What a model builder fixes about its problem file."""

    momentum: bool | None  # the required momentum flag (None: off unless set)
    seeded: bool  # builds a seeded field, seed 0 (the linear part) by default
    takes_p: bool  # builds its field from the nonlinearity degree p


#: The model builders; the None key is a custom model (no ``builder`` key).
_BUILDERS = {
    "dim6": _Builder(momentum=False, seeded=True, takes_p=False),
    "nls": _Builder(momentum=True, seeded=False, takes_p=True),
    "hyperbolic": _Builder(momentum=True, seeded=True, takes_p=False),
    None: _Builder(momentum=None, seeded=False, takes_p=False),
}

#: The flow section in reading order: (key, converter, default).  An absent
#: or null ``rho`` reads as ``[0.05, 0.025, 0.0125]``.
_FLOW = (
    ("steps", _as_int, FlowConfig.steps),
    ("horizon", _as_number, 1.0),
    ("blowup", _as_number, FlowConfig.blowup),
    ("rho", _as_numbers, None),
    ("seed", _as_int, 0),
)


@dataclass(frozen=True)
class Problem:
    """A parsed problem file plus any command-line overrides."""

    name: str
    builder: str
    model: FrequencyModel
    ctx: TruncationContext
    field: VectorField
    seed: int | None
    diophantine: dict | None
    flow: dict


def _walk_exceeds_limit(n_modes: int, degree: int) -> bool:
    """Whether a walk over ``n_modes`` modes up to ``degree`` visits more
    than ``WALK_LIMIT`` indices."""
    k = min(n_modes, degree)
    # C(n + d, k) >= C(2k, k) >= 2**k: from k = 30 on it passes the limit
    return k >= 30 or math.comb(n_modes + degree, k) > WALK_LIMIT


def _check_audit_walk(label: str, n_modes: int, degree_bound: int) -> None:
    if _walk_exceeds_limit(n_modes, degree_bound):
        raise ProblemFileError(
            "%s: the divisor audit over %d modes walks more than %d indices"
            % (label, n_modes, WALK_LIMIT)
        )


def _parse_potential(modelsec: _Section, cutoff: int):
    value = modelsec.take("potential", None)
    if value is None:
        return None
    label = modelsec.label("potential")
    if not isinstance(value, dict):
        raise ProblemFileError("%s: expected an object keyed by site" % label)
    potential = default_potential(cutoff)
    for key, raw in value.items():
        try:
            site = int(key)
        except ValueError:
            raise ProblemFileError("%s: bad site key %r" % (label, key)) from None
        if abs(site) > cutoff:
            raise ProblemFileError(
                "%s.%s: site outside the mode cutoff %d" % (label, key, cutoff)
            )
        potential[site] = _as_rational(raw, "%s.%s" % (label, key))
    return potential


def _parse_custom_model(modelsec: _Section) -> tuple[FrequencyModel, dict]:
    name = modelsec.get("name", _as_str, "custom")
    symtable = modelsec.take("symbols")
    symlabel = modelsec.label("symbols")
    if not isinstance(symtable, dict) or not symtable:
        raise ProblemFileError("%s: expected a non-empty object" % symlabel)
    symbols = [
        (key, _as_rational(raw, "%s.%s" % (symlabel, key)))
        for key, raw in symtable.items()
    ]
    known = {key for key, _ in symbols}
    modemaps = modelsec.take("modes")
    modelabel = modelsec.label("modes")
    if not isinstance(modemaps, dict) or not modemaps:
        raise ProblemFileError("%s: expected a non-empty object" % modelabel)
    coords = {}
    labels = {}
    for token, coordmap in modemaps.items():
        try:
            k = parse_mode(token)
        except NormalFormError:
            raise ProblemFileError(
                "%s: bad mode token %r (use e.g. '1+' or '-2-')"
                % (modelabel, token)
            ) from None
        if not isinstance(coordmap, dict):
            raise ProblemFileError(
                "%s.%s: expected an object mapping symbols to integer "
                "coefficients" % (modelabel, token)
            )
        vec = {}
        for sym, raw in coordmap.items():
            entry = "%s.%s.%s" % (modelabel, token, sym)
            if sym not in known:
                raise ProblemFileError("%s: undeclared symbol" % entry)
            if isinstance(raw, list):
                if len(raw) != 2:
                    raise ProblemFileError(
                        "%s: complex coefficients are [re, im] pairs" % entry
                    )
                vec[sym] = (_as_int(raw[0], entry), _as_int(raw[1], entry))
            else:
                vec[sym] = _as_int(raw, entry)
        coords[k] = vec
        labels[k] = "%s.%s" % (modelabel, token)
    return FrequencyModel(name, symbols, coords), labels


def load_problem(
    path: str,
    *,
    arithmetic: str | None = None,
    seed: int | None = None,
) -> Problem:
    """Parse and validate a problem file, applying CLI overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError("cannot read %s: %s" % (path, exc)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError("%s: %s" % (path, exc)) from exc

    root = _Section(data, "problem")
    version = root.get("schema_version", _as_int)
    if version != SCHEMA_VERSION:
        raise ProblemFileError(
            "problem.schema_version: expected %d, got %d"
            % (SCHEMA_VERSION, version)
        )
    name = root.get("name", _as_str, "")

    trunc = root.child("truncation", required=True)
    mode_cutoff = trunc.get("mode_cutoff", _as_int)
    degree_cutoff = trunc.get("degree_cutoff", _as_int)
    theta = trunc.get("theta", _as_number, 0.5)
    momentum = trunc.get("momentum", _as_bool, None)
    arith = trunc.get("arithmetic", _as_str, "exact")
    if arith not in ("exact", "float"):
        raise ProblemFileError(
            "%s: must be 'exact' or 'float'" % trunc.label("arithmetic")
        )
    trunc.finish()
    arith = arithmetic or arith

    modelsec = root.child("model", required=True)
    builder = modelsec.get("builder", _as_str, None)
    if builder not in _BUILDERS:
        raise ProblemFileError(
            "problem.model.builder: unknown builder %r (expected dim6, nls "
            "or hyperbolic)" % builder
        )
    rules = _BUILDERS[builder]
    builder = builder or "custom"
    if mode_cutoff >= 1 and degree_cutoff >= 1:  # else the context says why
        on = momentum if rules.momentum is None else rules.momentum
        if _walk_exceeds_limit(4 * mode_cutoff + 2 if on else mode_cutoff, degree_cutoff + 1):
            raise ProblemFileError(
                "problem.truncation: mode_cutoff and degree_cutoff give a "
                "resonance window of more than %d indices" % WALK_LIMIT
            )
    zeta: tuple[Fraction, ...] = ()
    potential = None
    elliptic: tuple[int, ...] = ()
    if builder == "dim6":
        zeta = (
            modelsec.get("zeta1", _as_rational, str(DEFAULT_ZETA1)),
            modelsec.get("zeta2", _as_rational, str(DEFAULT_ZETA2)),
        )
    elif builder == "custom":
        model, labels = _parse_custom_model(modelsec)
    else:
        potential = _parse_potential(modelsec, mode_cutoff)
    if builder == "hyperbolic":
        sites = modelsec.take("elliptic_sites", [])
        siteslabel = modelsec.label("elliptic_sites")
        if not isinstance(sites, list):
            raise ProblemFileError("%s: expected an array" % siteslabel)
        elliptic = tuple(_as_int(v, siteslabel) for v in sites)
        for site in elliptic:
            if abs(site) > mode_cutoff:
                raise ProblemFileError(
                    "%s: site %d outside the mode cutoff %d"
                    % (siteslabel, site, mode_cutoff)
                )
    modelsec.finish()
    if momentum is not None and rules.momentum not in (None, momentum):
        raise ProblemFileError(
            "problem.truncation.momentum: the %s model %s" % (
                builder,
                "requires momentum bookkeeping" if rules.momentum
                else "is a finite problem without momentum bookkeeping",
            )
        )
    momentum = bool(momentum) if rules.momentum is None else rules.momentum
    if builder == "dim6":
        if mode_cutoff != 6:
            raise ProblemFileError(
                "problem.truncation.mode_cutoff: the dim6 model has exactly "
                "6 modes"
            )
        model = dim6_frequency_model(*zeta)
    elif builder == "nls":
        model = nls_frequency_model(mode_cutoff, potential)
    elif builder == "hyperbolic":
        model = hyperbolic_frequency_model(mode_cutoff, potential, elliptic)

    try:
        ctx = TruncationContext(
            mode_cutoff,
            degree_cutoff,
            momentum_enabled=momentum,
            theta=theta,
            arithmetic=arith,
        )
    except NormalFormError as exc:
        raise ProblemFileError("problem.truncation: %s" % exc) from exc
    if builder == "custom":
        for k, entry in labels.items():
            if not ctx.admits_mode(k):
                raise ProblemFileError("%s: mode outside the truncation context" % entry)

    fieldsec = root.child("field")
    if fieldsec is None and not rules.seeded:
        raise ProblemFileError(
            "problem.field: missing section (the %s model has no default "
            "field)" % builder
        )
    fieldsec = fieldsec or _Section({}, "problem.field")
    terms_lines = None
    field_seed: int | None = None
    p_param: int | None = None
    terms_raw, file_raw, seed_raw, p_raw = (
        fieldsec.take(key, None) for key in ("terms", "terms_file", "seed", "p")
    )
    fieldsec.finish()
    if sum(v is not None for v in (terms_raw, file_raw, seed_raw, p_raw)) > 1:
        raise ProblemFileError(
            "problem.field: give exactly one of terms, terms_file, seed or p"
        )
    if terms_raw is not None:
        label = fieldsec.label("terms")
        if not isinstance(terms_raw, list):
            raise ProblemFileError("%s: expected an array of term lines" % label)
        terms_lines = [_as_str(line, label) for line in terms_raw]
    elif file_raw is not None:
        ref = fieldsec.get("terms_file", _as_str)
        full = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        try:
            with open(full, "r", encoding="utf-8") as fh:
                terms_lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ProblemFileError(
                "%s: cannot read %s: %s" % (fieldsec.label("terms_file"), ref, exc)
            ) from exc
    elif p_raw is not None:
        if not rules.takes_p:
            raise ProblemFileError(
                "problem.field.p: only the nls builder takes the "
                "nonlinearity degree"
            )
        p_param = fieldsec.get("p", _as_int)
    elif seed_raw is not None:
        if not rules.seeded:
            raise ProblemFileError(
                "problem.field.seed: only the dim6 and hyperbolic "
                "builders generate seeded fields"
            )
        field_seed = fieldsec.get("seed", _as_int)
    elif rules.seeded:
        field_seed = 0
    else:
        raise ProblemFileError(
            "problem.field: the %s model needs terms or builder "
            "parameters" % builder
        )

    if seed is not None:
        if field_seed is None:
            raise ProblemFileError(
                "--seed: this problem does not build its field from a seed"
            )
        field_seed = seed

    if terms_lines is not None:
        try:
            w = VectorField.from_lines(ctx, terms_lines)
        except NormalFormError as exc:
            raise ProblemFileError("problem.field.terms: %s" % exc) from exc
    else:
        try:
            if builder == "dim6":
                w, _ = build_example_dim6(
                    *zeta, seed=field_seed, degree=degree_cutoff
                )
            elif builder == "nls":
                w, _ = build_example_nls(
                    p_param, potential, cutoff=mode_cutoff, degree=degree_cutoff
                )
            else:
                w, _ = build_example_hyperbolic(
                    mode_cutoff,
                    potential,
                    seed=field_seed,
                    degree=degree_cutoff,
                    elliptic_sites=elliptic,
                )
        except ValueError as exc:
            window = "field.p" if rules.takes_p else "truncation.degree_cutoff"
            raise ProblemFileError("problem.%s: %s" % (window, exc)) from exc
        if w.ctx != ctx:  # theta or the arithmetic lane differs
            w = VectorField(ctx, w.terms())

    dio = None
    diosec = root.child("diophantine")
    if diosec is not None:
        dio = {
            "tau": diosec.get("tau", _as_number),
            "degree_bound": diosec.get("degree_bound", _as_int),
        }
        diosec.finish()
        if dio["tau"] < 0:
            raise ProblemFileError("problem.diophantine.tau: must be >= 0")
        if dio["degree_bound"] < 1:
            raise ProblemFileError("problem.diophantine.degree_bound: must be >= 1")
        _check_audit_walk(
            "problem.diophantine.degree_bound", len(ctx.modes()), dio["degree_bound"]
        )

    flowsec = root.child("flow") or _Section({}, "problem.flow")
    flow = {key: flowsec.get(key, convert, default) for key, convert, default in _FLOW}
    flow["rho"] = flow["rho"] or [0.05, 0.025, 0.0125]
    flowsec.finish()
    if flow["steps"] < 1:
        raise ProblemFileError("problem.flow.steps: must be >= 1")
    try:
        float(flow["steps"])  # the step size is horizon / steps
    except OverflowError:
        raise ProblemFileError("problem.flow.steps: beyond the float range") from None
    if flow["horizon"] < 0:
        raise ProblemFileError("problem.flow.horizon: must be >= 0")
    if flow["blowup"] <= 0 or any(r <= 0 for r in flow["rho"]):
        raise ProblemFileError(
            "problem.flow: blowup and every rho must be positive"
        )

    root.finish()
    return Problem(
        name=name,
        builder=builder,
        model=model,
        ctx=ctx,
        field=w,
        seed=field_seed,
        diophantine=dio,
        flow=flow,
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _check_output(option: str, path: str | None, directory: bool = False) -> None:
    """Reject, before any work, an output path that the write at the end
    would fail on: an empty path, a report whose directory does not exist
    or that is a directory, or an ``--out`` directory that is an existing
    file or lies under one.  ``--out`` creates missing parent directories."""
    if path is None:
        return
    if not path:
        raise ProblemFileError("%s: the path is empty" % option)
    if os.path.isdir(path):
        if directory:
            return
        raise ProblemFileError("%s: %s is a directory" % (option, path))
    if directory and os.path.lexists(path):
        raise ProblemFileError("%s: %s exists and is not a directory" % (option, path))
    parent = os.path.dirname(os.path.abspath(path))
    while directory and not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        why = "is not a directory" if os.path.lexists(parent) else "does not exist"
        raise ProblemFileError(
            "%s: cannot write %s: %s %s" % (option, path, parent, why)
        )


def _json_text(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _emit_json(report: dict, path: str | None) -> None:
    if path is not None:
        _write_atomic(path, _json_text(report))


def _problem_block(problem: Problem) -> dict:
    ctx = problem.ctx
    return {
        "name": problem.name,
        "builder": problem.builder,
        "model": problem.model.name,
        "seed": problem.seed,
        "mode_cutoff": ctx.mode_cutoff,
        "degree_cutoff": ctx.degree_cutoff,
        "theta": ctx.theta,
        "momentum": ctx.momentum_enabled,
        "arithmetic": ctx.arithmetic,
        "field_terms": problem.field.term_count(),
    }


def _resonance_block(module) -> dict:
    summary = module.summary()
    summary["delta_equals_m"] = not summary["p_generators"]
    return summary


def _print_resonance(res: dict) -> None:
    print(
        "generators: %s" % (", ".join(res["q_generators"]) or "(none)")
    )
    if res["p_generators"]:
        for direction, gens in sorted(res["p_generators"].items()):
            print("translates d/dx_%s: %s" % (direction, ", ".join(gens)))
    else:
        print("translates: none (the translate set equals the module)")
    print(
        "M = %d, M1 = %d; minimal order %d (crude bound %d); "
        "%d module elements, %d resonant pairs"
        % (
            res["M"],
            res["M1"],
            res["m_star_minimal"],
            res["m_star_bound"],
            res["module_count"],
            res["resonant_pair_count"],
        )
    )


def _print_diophantine(rep: dict) -> None:
    gamma = rep["gamma_max"]
    print(
        "diophantine: tau = %g, degree <= %d: %s over %d combinations "
        "(fast path %s, %d hits)"
        % (
            rep["tau"],
            rep["degree_bound"],
            "unconstrained" if rep["unconstrained"] else "gamma_max = %.6g at %s" % (gamma, rep["worst_p"]),
            rep["enumerated_count"],
            "on" if rep["fast_path_enabled"] else "off",
            rep["fast_path_hits"],
        )
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_analyze(problem: Problem, json_path: str | None) -> int:
    module = enumerate_resonance(problem.ctx, problem.model)
    report = {
        "command": "analyze",
        "schema_version": SCHEMA_VERSION,
        "problem": _problem_block(problem),
        "resonance": _resonance_block(module),
    }
    dio = problem.diophantine
    if dio is not None:
        report["diophantine"] = diophantine_audit(
            problem.model, problem.ctx, dio["tau"], dio["degree_bound"]
        ).as_dict()
    print(
        "model %s | %d modes, window degree %d | %s arithmetic"
        % (
            problem.model.name,
            len(problem.ctx.modes()),
            problem.ctx.degree_cutoff,
            problem.ctx.arithmetic,
        )
    )
    _print_resonance(report["resonance"])
    if "diophantine" in report:
        _print_diophantine(report["diophantine"])
    _emit_json(report, json_path)
    return EXIT_OK


def cmd_normalize(
    problem: Problem, out_dir: str | None, json_path: str | None
) -> int:
    module = enumerate_resonance(problem.ctx, problem.model)
    dec, log, trace = normalize(problem.field, module)
    stages = [stage for stage, _ in log]
    result = dec.assemble()
    report = {
        "command": "normalize",
        "schema_version": SCHEMA_VERSION,
        "problem": _problem_block(problem),
        "resonance": _resonance_block(module),
        "mstar": dec.mstar,
        "generators": {
            "prenormalize": stages.count("prenormalize"),
            "kam": stages.count("kam"),
        },
        "kam_steps": len(trace.records),
        "orders": [[r.ord_x, r.ord_x_next] for r in trace.records],
        "residual_zero": dec.is_normal,
        "convergence_ok": trace.convergence_ok,
        "normal_form": {
            "terms": result.term_count(),
            "z_terms": dec.z.term_count(),
            "n_terms": dec.n.term_count(),
            "x_terms": dec.x.term_count(),
        },
    }
    print(
        "cutoff order %d; generators: %d prenormalize + %d kam"
        % (
            dec.mstar,
            report["generators"]["prenormalize"],
            report["generators"]["kam"],
        )
    )
    noun = "step" if report["kam_steps"] == 1 else "steps"
    print(
        "completed %d %s; residual zero: %s"
        % (report["kam_steps"], noun, report["residual_zero"])
    )
    if report["orders"]:
        ladder = [report["orders"][0][0]] + [o[1] for o in report["orders"]]
        print(
            "free-part order ladder: %s"
            % " -> ".join("eliminated" if o is None else str(o) for o in ladder)
        )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in (
            (NORMAL_FORM_FILE, "\n".join(result.to_lines()) + "\n"),
            (TRANSFORM_FILE, "\n".join(log.to_lines()) + "\n"),
            (TRACE_FILE, _json_text(trace.as_dict())),
            (REPORT_FILE, _json_text(report)),
        ):
            _write_atomic(os.path.join(out_dir, name), text)
        print("wrote %s" % out_dir)
    _emit_json(report, json_path)
    return EXIT_OK


def cmd_verify(
    problem: Problem,
    transform_dir: str,
    json_path: str | None,
    csv_path: str | None,
) -> int:
    ctx = problem.ctx
    nf_path = os.path.join(transform_dir, NORMAL_FORM_FILE)
    log_path = os.path.join(transform_dir, TRANSFORM_FILE)
    for artifact in (nf_path, log_path):
        if not os.path.exists(artifact):
            raise ProblemFileError(
                "missing normalization artifact %s (run normalize --out "
                "first)" % artifact
            )
    try:
        with open(nf_path, "r", encoding="utf-8") as fh:
            normal_form = VectorField.from_lines(ctx, fh.read().splitlines())
        with open(log_path, "r", encoding="utf-8") as fh:
            log = TransformLog.from_lines(ctx, fh.read().splitlines())
    except (OSError, UnicodeDecodeError, NormalFormError) as exc:
        raise ProblemFileError(
            "cannot load artifacts from %s: %s" % (transform_dir, exc)
        ) from exc

    module = enumerate_resonance(ctx, problem.model)
    tangency = check_tangent_sigma(normal_form, module)

    flow = problem.flow
    config = FlowConfig(steps=flow["steps"], blowup=flow["blowup"])
    spec = SigmaSpec.from_module(module)
    rng = random.Random(flow["seed"])
    unit = [
        rng.uniform(0.5, 1.0) + 1j * rng.uniform(0.5, 1.0)
        for _ in range(len(ctx.modes()))
    ]
    w0 = compile_field(problem.field)
    rows = []
    for rho in flow["rho"]:
        raw = [rho * u for u in unit]
        on = spec.restrict(raw, ctx)
        rows.append(
            {
                "rho": rho,
                "on_sigma_error": conjugacy_error(
                    w0, log, problem.model, on, flow["horizon"], config
                ),
                "off_sigma_error": conjugacy_error(
                    w0, log, problem.model, raw, flow["horizon"], config
                ),
            }
        )

    def slope(key: str) -> float | None:
        try:
            return loglog_slope([r["rho"] for r in rows], [r[key] for r in rows])
        except ValueError:
            return None

    report = {
        "command": "verify",
        "schema_version": SCHEMA_VERSION,
        "problem": _problem_block(problem),
        "tangency": {
            "ok": tangency.ok,
            "offender_count": tangency.offenders.term_count(),
            "offenders": tangency.offenders.to_lines()[:10],
        },
        "conjugacy": {
            "horizon": flow["horizon"],
            "steps": flow["steps"],
            "seed": flow["seed"],
            "rows": rows,
            "on_sigma_slope": slope("on_sigma_error"),
            "off_sigma_slope": slope("off_sigma_error"),
        },
    }
    print(
        "tangency: %s (%d offending terms)"
        % ("ok" if tangency.ok else "VIOLATED", report["tangency"]["offender_count"])
    )
    for row in rows:
        print(
            "rho %-10.6g on-sigma %.6e   off-sigma %.6e"
            % (row["rho"], row["on_sigma_error"], row["off_sigma_error"])
        )
    on_slope = report["conjugacy"]["on_sigma_slope"]
    off_slope = report["conjugacy"]["off_sigma_slope"]
    if on_slope is not None and off_slope is not None:
        print(
            "scaling slopes: on-sigma %.3f, off-sigma %.3f (window degree %d)"
            % (on_slope, off_slope, ctx.degree_cutoff)
        )
    if csv_path is not None:
        lines = ["rho,on_sigma_error,off_sigma_error"]
        lines.extend(
            "%r,%r,%r"
            % (row["rho"], row["on_sigma_error"], row["off_sigma_error"])
            for row in rows
        )
        _write_atomic(csv_path, "\n".join(lines) + "\n")
    _emit_json(report, json_path)
    return EXIT_OK


def cmd_diophantine(
    problem: Problem,
    tau: float | None,
    degree: int | None,
    json_path: str | None,
) -> int:
    if tau is not None and not (math.isfinite(tau) and tau >= 0):
        raise ProblemFileError("--tau: must be a finite number >= 0")
    if degree is not None:
        if degree < 1:
            raise ProblemFileError("--degree: must be >= 1")
        _check_audit_walk("--degree", len(problem.ctx.modes()), degree)
    dio = problem.diophantine or {}
    if tau is None:
        tau = dio.get("tau")
    if degree is None:
        degree = dio.get("degree_bound")
    if tau is None or degree is None:
        raise ProblemFileError(
            "diophantine parameters missing: give --tau and --degree or a "
            "diophantine section in the problem file"
        )
    rep = diophantine_audit(problem.model, problem.ctx, tau, degree)
    report = {
        "command": "diophantine",
        "schema_version": SCHEMA_VERSION,
        "problem": _problem_block(problem),
        "diophantine": rep.as_dict(),
    }
    _print_diophantine(report["diophantine"])
    _emit_json(report, json_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resnf",
        description="Resonant normal forms: analyze, normalize and verify "
        "truncated polynomial vector fields described by JSON problem files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("problem", help="path to a JSON problem file")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument(
            "--exact",
            action="store_const",
            const="exact",
            dest="arithmetic",
            help="force exact rational arithmetic",
        )
        mode.add_argument(
            "--float",
            action="store_const",
            const="float",
            dest="arithmetic",
            help="force floating-point arithmetic",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="override the field builder seed",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for interface stability; execution is sequential "
            "and results never depend on it",
        )
        p.add_argument(
            "--json",
            metavar="PATH",
            default=None,
            help="write the machine-readable report to PATH",
        )

    analyze = sub.add_parser(
        "analyze", help="enumerate the resonance module and audit divisors"
    )
    common(analyze)

    norm = sub.add_parser(
        "normalize", help="run prenormalization and the quadratic iteration"
    )
    common(norm)
    norm.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write normal_form.txt, transform_log.txt, kam_trace.json and "
        "report.json to DIR",
    )

    verify = sub.add_parser(
        "verify",
        help="check invariant-set tangency and conjugacy scaling against "
        "recorded artifacts",
    )
    common(verify)
    verify.add_argument(
        "--transform",
        metavar="DIR",
        required=True,
        help="directory produced by normalize --out",
    )
    verify.add_argument(
        "--csv",
        metavar="PATH",
        default=None,
        help="write the conjugacy scaling table as CSV",
    )

    dio = sub.add_parser(
        "diophantine", help="run the small-divisor lower-bound scan"
    )
    common(dio)
    dio.add_argument("--tau", type=float, default=None, help="Diophantine exponent")
    dio.add_argument(
        "--degree", type=int, default=None, help="combination degree bound"
    )
    return parser


# Built once, on first use: each build leaves argparse objects in reference cycles.
_parser = functools.cache(build_parser)


def run(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ProblemFileError("--threads: must be >= 1")
        _check_output("--json", args.json)
        _check_output("--csv", getattr(args, "csv", None))
        _check_output("--out", getattr(args, "out", None), directory=True)
        problem = load_problem(
            args.problem, arithmetic=args.arithmetic, seed=args.seed
        )
        if args.command == "analyze":
            return cmd_analyze(problem, args.json)
        if args.command == "normalize":
            return cmd_normalize(problem, args.out, args.json)
        if args.command == "verify":
            return cmd_verify(problem, args.transform, args.json, args.csv)
        return cmd_diophantine(problem, args.tau, args.degree, args.json)
    except ProblemFileError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except HypothesisViolation as exc:
        print("hypothesis violation: %s" % exc, file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NormalFormError as exc:
        print("model error: %s" % exc, file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
