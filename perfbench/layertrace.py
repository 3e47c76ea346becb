"""Per-layer tracing of resnf from outside the package.

For the length of a traced pass, ``traced(tracer)`` replaces the
package's entry points with timing wrappers: module functions in every
``resnf`` namespace that bound them by name (so ``cli.normalize`` and
``normalform.bracket`` are wrapped too), and selected methods on their
classes.  The originals are put back when the block exits.

Each wrapped call switches the running layer to the layer of the module
that defines it, so a layer's self time is the time its own wrapped
calls ran, less the wrapped calls they made into any layer.  The self
times of the six layers therefore add up to the time spent inside
``cli.run``.  Code that is not wrapped (the per-monomial helpers listed
in ``TARGETS``' comment) counts toward the layer that called it.

Coarse calls each record a span.  High-frequency calls (``hot``: the
MultiIndex operations, ``evaluate``, ``classify``, the RK4 step) and the
steps of ``iter_indices`` (``walk``) are aggregated into per-name counts
and times instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time

LAYERS = ("indexing", "fields", "resonance", "normalform", "verify", "cli")

SPAN, HOT, WALK = "span", "hot", "walk"


def _bracket_sizes(tracer, args, result) -> None:
    x, y = args[0], args[1]
    tracer.counts["bracket_pairs"] += x.term_count() * y.term_count()
    tracer.counts["bracket_terms_out"] += result.term_count()


def _module_sizes(tracer, args, result) -> None:
    tracer.counts["module_elements"] += len(result.module_elements)
    tracer.counts["resonant_pairs"] += result.resonant_pair_count


def _fast_path(tracer, args, result) -> None:
    tracer.counts["fast_path_hits"] += result.fast_path_hits
    tracer.counts["divisor_combinations"] += result.enumerated_count


def _series_length(tracer, args, result) -> None:
    tracer.counts["lie_series_terms"] += len(result) - 1


# (layer, attribute in resnf.<layer>, kind, time group, observer)
#
# A time group sums the time of its members, counting nested members of the
# same group once.  Left unwrapped on purpose, because they run once per
# monomial or per term and wrapping them would dominate the traced time:
# MultiIndex accessors and properties, the mode helpers (mode_key, ...),
# coefficient helpers and GaussianRational arithmetic.
TARGETS = (
    ("indexing", "MultiIndex.__init__", HOT, None, None),
    ("indexing", "MultiIndex.__add__", HOT, None, None),
    ("indexing", "MultiIndex.__sub__", HOT, None, None),
    ("indexing", "MultiIndex.contains", HOT, None, None),
    ("indexing", "iter_indices", WALK, None, None),
    ("fields", "VectorField.__init__", SPAN, None, None),
    ("fields", "VectorField.__add__", SPAN, None, None),
    ("fields", "VectorField.__sub__", SPAN, None, None),
    ("fields", "VectorField.scale", SPAN, None, None),
    ("fields", "VectorField.map_coefficients", SPAN, None, None),
    ("fields", "VectorField.terms", SPAN, None, None),
    ("fields", "VectorField.as_float", SPAN, None, None),
    ("fields", "VectorField.bracket", SPAN, "bracket", _bracket_sizes),
    ("fields", "VectorField.project", SPAN, "project", None),
    ("fields", "VectorField.project_degree", SPAN, "project", None),
    ("fields", "VectorField.split_diagonal", SPAN, "project", None),
    ("fields", "VectorField.majorant_norm", SPAN, "norm", None),
    ("fields", "VectorField.to_lines", SPAN, "text_io", None),
    ("fields", "VectorField.from_lines", SPAN, "text_io", None),
    ("fields", "VectorField.evaluate", HOT, None, None),
    ("fields", "bracket", SPAN, "bracket", None),
    ("fields", "lie_derivative", SPAN, None, None),
    ("fields", "project_degree", SPAN, "project", None),
    ("fields", "split_diagonal", SPAN, "project", None),
    ("fields", "majorant_norm", SPAN, "norm", None),
    ("resonance", "FrequencyModel.validate", SPAN, None, None),
    ("resonance", "FrequencyModel.linear_field", SPAN, None, None),
    ("resonance", "FrequencyModel.is_resonant_pair", HOT, None, None),
    ("resonance", "FrequencyModel.divisor_value", HOT, None, None),
    ("resonance", "ResonanceModule.classify", HOT, None, None),
    ("resonance", "ResonanceModule.summary", SPAN, None, None),
    ("resonance", "classify_exponent", SPAN, None, None),
    ("resonance", "split_ideals", SPAN, None, None),
    ("resonance", "enumerate_resonance", SPAN, None, _module_sizes),
    ("resonance", "diophantine_audit", SPAN, None, _fast_path),
    ("resonance", "small_divisor_audit", SPAN, None, None),
    ("normalform", "DecomposedField.assemble", SPAN, None, None),
    ("normalform", "TransformLog.to_lines", SPAN, None, None),
    ("normalform", "TransformLog.from_lines", SPAN, None, None),
    ("normalform", "resolve_mstar", SPAN, None, None),
    ("normalform", "decompose", SPAN, None, None),
    ("normalform", "solve_linear_homological", SPAN, "homological", None),
    ("normalform", "solve_extended_homological", SPAN, "homological", None),
    ("normalform", "lie_series_terms", SPAN, "lie_series", _series_length),
    ("normalform", "pushforward_exp", SPAN, "lie_series", None),
    ("normalform", "pushforward_exp_reversed", SPAN, "lie_series", None),
    ("normalform", "prenormalize", SPAN, None, None),
    ("normalform", "poincare_dulac", SPAN, None, None),
    ("normalform", "kam_step", SPAN, None, None),
    ("normalform", "normalize", SPAN, None, None),
    ("normalform", "apply_transform", SPAN, None, None),
    ("verify", "SigmaSpec.from_module", SPAN, None, None),
    ("verify", "SigmaSpec.restrict", SPAN, None, None),
    ("verify", "potential_shift", SPAN, None, None),
    ("verify", "default_potential", SPAN, None, None),
    ("verify", "dim6_frequency_model", SPAN, None, None),
    ("verify", "nls_frequency_model", SPAN, None, None),
    ("verify", "hyperbolic_frequency_model", SPAN, None, None),
    ("verify", "build_example_dim6", SPAN, None, None),
    ("verify", "build_example_nls", SPAN, None, None),
    ("verify", "build_example_hyperbolic", SPAN, None, None),
    ("verify", "check_tangent_sigma", SPAN, None, None),
    ("verify", "compile_field", SPAN, None, None),
    ("verify", "integrate_flow", SPAN, None, None),
    ("verify", "_rk4", HOT, None, None),
    ("verify", "linear_flow", SPAN, None, None),
    ("verify", "conjugacy_error", SPAN, None, None),
    ("verify", "loglog_slope", SPAN, None, None),
    ("cli", "load_problem", SPAN, None, None),
    ("cli", "cmd_analyze", SPAN, None, None),
    ("cli", "cmd_normalize", SPAN, None, None),
    ("cli", "cmd_verify", SPAN, None, None),
    ("cli", "cmd_diophantine", SPAN, None, None),
    ("cli", "build_parser", SPAN, None, None),
    ("cli", "run", SPAN, None, None),
)


class Tracer:
    """Counts, times and spans of one traced pass."""

    def __init__(self):
        names = ["%s.%s" % (layer, attr) for layer, attr, _, _, _ in TARGETS]
        groups = {group or name for name, (_, _, _, group, _) in zip(names, TARGETS)}
        self.layer: str | None = None
        self.mark = time.perf_counter()
        self.outer: list[str | None] = []
        self.self_s = dict.fromkeys((None,) + LAYERS, 0.0)
        self.calls = dict.fromkeys(names, 0)
        self.time_s = dict.fromkeys(groups | set(names), 0.0)
        self.open_groups = dict.fromkeys(groups, 0)
        self.counts = dict.fromkeys(
            (
                "walked",
                "bracket_pairs",
                "bracket_terms_out",
                "module_elements",
                "resonant_pairs",
                "fast_path_hits",
                "divisor_combinations",
                "lie_series_terms",
            ),
            0,
        )
        self.spans: list[dict] = []
        self.open_spans: list[int] = []
        self.operation = 0

    def enter(self, layer: str) -> float:
        now = time.perf_counter()
        self.self_s[self.layer] += now - self.mark
        self.outer.append(self.layer)
        self.layer = layer
        self.mark = now
        return now

    def leave(self) -> float:
        now = time.perf_counter()
        self.self_s[self.layer] += now - self.mark
        self.layer = self.outer.pop()
        self.mark = now
        return now


def _span(tracer: Tracer, fn, layer: str, name: str, group: str, observe):
    spans, open_spans = tracer.spans, tracer.open_spans

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = tracer.enter(layer)
        outermost = tracer.open_groups[group] == 0
        tracer.open_groups[group] += 1
        span_id = len(spans)
        spans.append(
            {
                "id": span_id,
                "parent": open_spans[-1] if open_spans else None,
                "operation": tracer.operation,
                "name": name,
                "start": start,
                "end": None,
            }
        )
        open_spans.append(span_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = tracer.leave()
            open_spans.pop()
            spans[span_id]["end"] = end
            tracer.open_groups[group] -= 1
            tracer.calls[name] += 1
            if outermost:
                tracer.time_s[group] += end - start
            if group != name:
                tracer.time_s[name] += end - start
        if observe is not None:
            observe(tracer, args, result)
        return result

    return wrapper


def _hot(tracer: Tracer, fn, layer: str, name: str):
    clock = time.perf_counter
    self_s, outer, calls, time_s = (
        tracer.self_s,
        tracer.outer,
        tracer.calls,
        tracer.time_s,
    )

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        self_s[tracer.layer] += start - tracer.mark
        outer.append(tracer.layer)
        tracer.layer = layer
        tracer.mark = start
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            self_s[layer] += end - tracer.mark
            tracer.layer = outer.pop()
            tracer.mark = end
            calls[name] += 1
            time_s[name] += end - start

    return wrapper


def _walk(tracer: Tracer, fn, layer: str, name: str):
    counts, time_s = tracer.counts, tracer.time_s

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        steps = fn(*args, **kwargs)
        try:
            while True:
                start = tracer.enter(layer)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    time_s[name] += tracer.leave() - start
                counts["walked"] += 1
                yield item
        finally:
            steps.close()

    return wrapper


def _resnf_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "resnf" or name.startswith("resnf."))
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for ``tracer``; restore the originals on exit."""
    patches: list[tuple[object, str, object]] = []
    by_function: dict[int, tuple[object, object]] = {}
    try:
        for layer, attr, kind, group, observe in TARGETS:
            module = importlib.import_module("resnf." + layer)
            name = "%s.%s" % (layer, attr)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[member]
            fn = original.__func__ if isinstance(original, classmethod) else original
            if kind == HOT:
                wrapper = _hot(tracer, fn, layer, name)
            elif kind == WALK:
                wrapper = _walk(tracer, fn, layer, name)
            else:
                wrapper = _span(tracer, fn, layer, name, group or name, observe)
            if owner_name:
                if isinstance(original, classmethod):
                    wrapper = classmethod(wrapper)
                patches.append((owner, member, original))
                setattr(owner, member, wrapper)
            else:
                by_function[id(fn)] = (fn, wrapper)
        # Module functions: replace every binding of the same object, in the
        # defining module and in each resnf module that imported it by name.
        for module in _resnf_modules():
            for key, value in list(vars(module).items()):
                hit = by_function.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, key, value))
                    setattr(module, key, hit[1])
        yield tracer
    finally:
        for owner, member, original in reversed(patches):
            setattr(owner, member, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit, better); ``BENCHMARK.json``'s ``per_layer`` lists the same.
PER_LAYER = (
    ("indexing.sorted_builds", "count", "lower"),
    ("indexing.sums", "count", "lower"),
    ("indexing.differences", "count", "lower"),
    ("indexing.contains_calls", "count", "lower"),
    ("indexing.walked", "count", "lower"),
    ("indexing.self_s", "s", "lower"),
    ("fields.bracket_calls", "count", "lower"),
    ("fields.bracket_s", "s", "lower"),
    ("fields.bracket_pairs", "count", "lower"),
    ("fields.bracket_terms_out", "count", "lower"),
    ("fields.bracket_yield", "ratio", "higher"),
    ("fields.project_s", "s", "lower"),
    ("fields.norm_s", "s", "lower"),
    ("fields.evaluate_calls", "count", "lower"),
    ("fields.text_io_s", "s", "lower"),
    ("fields.self_s", "s", "lower"),
    ("resonance.enumerate_s", "s", "lower"),
    ("resonance.module_elements", "count", "lower"),
    ("resonance.resonant_pairs", "count", "lower"),
    ("resonance.classify_calls", "count", "lower"),
    ("resonance.classify_s", "s", "lower"),
    ("resonance.diophantine_s", "s", "lower"),
    ("resonance.fast_path_ratio", "ratio", "higher"),
    ("resonance.self_s", "s", "lower"),
    ("normalform.prenormalize_s", "s", "lower"),
    ("normalform.decompose_s", "s", "lower"),
    ("normalform.kam_step_s", "s", "lower"),
    ("normalform.kam_steps", "count", "lower"),
    ("normalform.homological_s", "s", "lower"),
    ("normalform.lie_series_s", "s", "lower"),
    ("normalform.lie_series_terms", "count", "lower"),
    ("normalform.apply_transform_s", "s", "lower"),
    ("normalform.self_s", "s", "lower"),
    ("verify.conjugacy_error_s", "s", "lower"),
    ("verify.integrate_flow_s", "s", "lower"),
    ("verify.rk4_steps", "count", "lower"),
    ("verify.tangency_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("cli.load_problem_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(t: Tracer, artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but ``trace_overhead_s``)."""
    calls, time_s, counts, self_s = t.calls, t.time_s, t.counts, t.self_s
    out = {
        "indexing.sorted_builds": calls["indexing.MultiIndex.__init__"],
        "indexing.sums": calls["indexing.MultiIndex.__add__"],
        "indexing.differences": calls["indexing.MultiIndex.__sub__"],
        "indexing.contains_calls": calls["indexing.MultiIndex.contains"],
        "indexing.walked": counts["walked"],
        "fields.bracket_calls": calls["fields.VectorField.bracket"],
        "fields.bracket_s": time_s["bracket"],
        "fields.bracket_pairs": counts["bracket_pairs"],
        "fields.bracket_terms_out": counts["bracket_terms_out"],
        "fields.bracket_yield": _ratio(
            counts["bracket_terms_out"], counts["bracket_pairs"]
        ),
        "fields.project_s": time_s["project"],
        "fields.norm_s": time_s["norm"],
        "fields.evaluate_calls": calls["fields.VectorField.evaluate"],
        "fields.text_io_s": time_s["text_io"],
        "resonance.enumerate_s": time_s["resonance.enumerate_resonance"],
        "resonance.module_elements": counts["module_elements"],
        "resonance.resonant_pairs": counts["resonant_pairs"],
        "resonance.classify_calls": calls["resonance.ResonanceModule.classify"],
        "resonance.classify_s": time_s["resonance.ResonanceModule.classify"],
        "resonance.diophantine_s": time_s["resonance.diophantine_audit"],
        "resonance.fast_path_ratio": _ratio(
            counts["fast_path_hits"], counts["divisor_combinations"]
        ),
        "normalform.prenormalize_s": time_s["normalform.prenormalize"],
        "normalform.decompose_s": time_s["normalform.decompose"],
        "normalform.kam_step_s": time_s["normalform.kam_step"],
        "normalform.kam_steps": calls["normalform.kam_step"],
        "normalform.homological_s": time_s["homological"],
        "normalform.lie_series_s": time_s["lie_series"],
        "normalform.lie_series_terms": counts["lie_series_terms"],
        "normalform.apply_transform_s": time_s["normalform.apply_transform"],
        "verify.conjugacy_error_s": time_s["verify.conjugacy_error"],
        "verify.integrate_flow_s": time_s["verify.integrate_flow"],
        "verify.rk4_steps": calls["verify._rk4"],
        "verify.tangency_s": time_s["verify.check_tangent_sigma"],
        "cli.load_problem_s": time_s["cli.load_problem"],
        "cli.artifact_bytes": artifact_bytes,
    }
    for layer in LAYERS:
        out[layer + ".self_s"] = self_s[layer]
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
