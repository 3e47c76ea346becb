"""End-to-end acceptance checks: worked-example values, solver
identities, scaling laws, and determinism, one summary line each.

Each test gathers every sub-check of its criterion into a list of
problem strings and reports a single PASS/FAIL line through the
``criteria`` fixture; a FAIL line carries the collected details and
fails the test.  Randomized checks use fixed seeds so reruns are
reproducible.
"""

import json
import math
import random
import time

import pytest

from helpers import dim4_model, dim6_model
from resnf.cli import run as cli_run
from resnf.fields import GaussianRational, VectorField, bracket
from resnf.indexing import (
    Mode,
    MultiIndex,
    TruncationContext,
    iter_indices,
    mode_weight,
    norm_weight,
    rearranged_weights,
)
from resnf.normalform import (
    TransformLog,
    normalize,
    poincare_dulac,
    solve_linear_homological,
)
from resnf.resonance import (
    diophantine_audit,
    enumerate_resonance,
    split_ideals,
)
from resnf.verify import (
    FlowConfig,
    SigmaSpec,
    build_example_dim6,
    build_example_nls,
    conjugacy_error,
    dim6_frequency_model,
    loglog_slope,
)


def fin(label: int) -> Mode:
    return Mode(label, 1)


Q1 = MultiIndex({fin(3): 1, fin(4): 1})
Q2 = MultiIndex({fin(5): 1, fin(6): 1})
P1 = MultiIndex(((fin(1), -1), (fin(2), 2)))


@pytest.fixture(scope="module")
def six_setup():
    ctx = TruncationContext(6, 8, momentum_enabled=False, arithmetic="exact")
    model = dim6_model()
    module = enumerate_resonance(ctx, model)
    return ctx, model, module


def random_exponent(rng, modes, degree):
    entries = {}
    for _ in range(degree):
        m = rng.choice(modes)
        entries[m] = entries.get(m, 0) + 1
    return MultiIndex(entries)


def random_class_field(ctx, model, module, rng, klass, nterms, lo, hi):
    """Random non-resonant field supported on class-``klass`` exponents
    with total degree in ``[lo, hi]``."""
    modes = ctx.modes()
    terms = []
    while len(terms) < nterms:
        k = rng.choice(modes)
        q = random_exponent(rng, modes, rng.randint(lo, hi))
        if module.classify(q) != klass or model.is_resonant_pair(q, k):
            continue
        c = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        if c.is_zero:
            continue
        terms.append((k, q, c))
    return VectorField(ctx, terms)


def random_kernel_diagonal(ctx, rng):
    """A nonzero diagonal resonant field with one term per generator."""
    modes = ctx.modes()
    terms = []
    for gen in (Q1, Q2):
        k = rng.choice(modes)
        c = GaussianRational(rng.randint(1, 3) * rng.choice((1, -1)), 0)
        terms.append((k, gen + MultiIndex({k: 1}), c))
    return VectorField(ctx, terms)


def signed_candidates(modes, bound):
    """Signed vectors with at most one -1 entry and l1 norm <= bound:
    the translates ``q - e_k`` reachable from nonnegative exponents."""
    for base in iter_indices(modes, bound):
        if not base.is_zero:
            yield base
        if base.degree + 1 <= bound:
            for k in modes:
                if base.get(k) == 0:
                    yield base.add_unit(k, -1)


def test_criterion_1_finite_resonance_data(six_setup, criteria):
    started = time.monotonic()
    problems = []
    _, _, module = six_setup
    if set(module.q_generators) != {Q1, Q2}:
        problems.append(
            "six-mode generators %s" % [str(g) for g in module.q_generators]
        )
    translates = {
        k: tuple(v) for k, v in module.p_generators.items() if v
    }
    if translates != {fin(1): (P1,)}:
        problems.append("six-mode translates %r" % (translates,))
    if module.m_star_minimal != 4:
        problems.append(
            "six-mode minimal order: stated 4, computed %d"
            % module.m_star_minimal
        )
    ctx4 = TruncationContext(4, 8, momentum_enabled=False, arithmetic="exact")
    module4 = enumerate_resonance(ctx4, dim4_model())
    if set(module4.q_generators) != {Q1}:
        problems.append(
            "four-mode generators %s" % [str(g) for g in module4.q_generators]
        )
    if module4.m_star_minimal != 5:
        problems.append(
            "four-mode minimal order: stated 5, computed %d (the translate "
            "and generator ladder matches the six-mode case, where the "
            "same computation is stated to give 4)" % module4.m_star_minimal
        )
    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        problems.append("took %.2fs (budget 1s)" % elapsed)
    criteria.check(
        1,
        "six-mode and four-mode exact resonance data",
        not problems,
        "; ".join(problems),
    )


def test_criterion_2_lattice_pair_structure(criteria):
    started = time.monotonic()
    problems = []
    for p in (1, 2):
        for cutoff in (1, 2, 3, 4):
            w, model = build_example_nls(p, cutoff=cutoff, degree=2 * p + 1)
            bad = [
                (k, q)
                for k, q, _ in w.terms()
                if q.momentum_sum != k.sigma * k.j
            ]
            if bad:
                problems.append(
                    "p=%d N=%d: %d momentum-violating terms"
                    % (p, cutoff, len(bad))
                )
            ctx = TruncationContext(
                cutoff, 5, momentum_enabled=True, arithmetic="exact"
            )
            module = enumerate_resonance(ctx, model)
            pairs = {
                MultiIndex({Mode(j, 1): 1, Mode(j, -1): 1})
                for j in range(-cutoff, cutoff + 1)
            }
            if set(module.q_generators) != pairs:
                problems.append("p=%d N=%d: generators are not the gauge "
                                "pairs" % (p, cutoff))
            if any(module.p_generators.values()):
                problems.append(
                    "p=%d N=%d: translate set differs from the module"
                    % (p, cutoff)
                )
            if module.M != 2:
                problems.append(
                    "p=%d N=%d: M = %d" % (p, cutoff, module.M)
                )
            if module.m_star_minimal != 4:
                problems.append(
                    "p=%d N=%d: minimal order: stated 4, computed %d"
                    % (p, cutoff, module.m_star_minimal)
                )
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        problems.append("took %.2fs (budget 10s)" % elapsed)
    criteria.check(
        2,
        "lattice pair structure and momentum preservation",
        not problems,
        "; ".join(sorted(set(problems))),
    )


def test_criterion_3_homological_solver(six_setup, criteria):
    ctx8, model, module = six_setup
    problems = []
    ctx = TruncationContext(6, 6, momentum_enabled=False, arithmetic="exact")
    modes = ctx.modes()
    rng = random.Random(31)
    d = model.linear_field(ctx)
    for trial in range(100):
        terms = []
        while len(terms) < 5:
            k = rng.choice(modes)
            q = random_exponent(rng, modes, rng.randint(2, 7))
            if model.is_resonant_pair(q, k):
                continue
            c = GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))
            if c.is_zero:
                continue
            terms.append((k, q, c))
        y = VectorField(ctx, terms)
        f = solve_linear_homological(y, model)
        if not (bracket(d, f) - y).is_zero:
            problems.append("bracket identity failed at trial %d" % trial)
            break

    rng = random.Random(32)
    nontrivial = 0
    for trial in range(100):
        klass = trial % 2
        y = random_class_field(ctx8, model, module, rng, klass, 3, 5, 5)
        z = random_kernel_diagonal(ctx8, rng)
        first = solve_linear_homological(
            split_ideals(bracket(y, z), module)[klass], model
        )
        second = solve_linear_homological(
            split_ideals(bracket(first, z), module)[klass], model
        )
        if not first.is_zero:
            nontrivial += 1
        if not second.is_zero:
            problems.append(
                "second application nonzero at trial %d (%d terms)"
                % (trial, second.term_count())
            )
            break
    if nontrivial == 0:
        problems.append("every first application vanished; the nilpotency "
                        "check never exercised a nonzero composition")
    criteria.check(
        3,
        "homological-solver identity and extended-solve nilpotency",
        not problems,
        "; ".join(problems),
    )


def test_criterion_4_normalization_matches_oracle(six_setup, criteria):
    ctx, _, module = six_setup
    problems = []
    for seed in range(1, 21):
        w, model = build_example_dim6(seed=seed, degree=8)
        dec, _, trace = normalize(w, module)
        if len(trace.records) > 3:
            problems.append(
                "seed %d: %d steps (bound 3)" % (seed, len(trace.records))
            )
        if not dec.x.is_zero:
            problems.append("seed %d: free part nonzero" % seed)
        for r in trace.records:
            if r.ord_x_next is not None and r.ord_x_next < 2 * r.ord_x:
                problems.append(
                    "seed %d: order %s -> %s did not double"
                    % (seed, r.ord_x, r.ord_x_next)
                )
        result = dec.assemble()
        linear = model.linear_field(ctx)

        def free(k, q):
            return not (model.is_resonant_pair(q, k) and q.get(k) >= 1)

        k0, k1, _ = split_ideals((result - linear).project(free), module)
        if not (k0.is_zero and k1.is_zero):
            problems.append("seed %d: class-0/1 residue" % seed)
        oracle, _ = poincare_dulac(w, model)
        p0, p1, _ = split_ideals((oracle - linear).project(free), module)
        if not (p0.is_zero and p1.is_zero):
            problems.append("seed %d: oracle class-0/1 residue" % seed)
        for a in (3, 4):
            for b in (5, 6):
                survives = (
                    lambda k, q, a=a, b=b: q.get(fin(a)) == 0
                    and q.get(fin(b)) == 0
                )
                if not (result.project(survives) - oracle.project(survives)).is_zero:
                    problems.append(
                        "seed %d: restriction mismatch on x%d=x%d=0"
                        % (seed, a, b)
                    )
    criteria.check(
        4,
        "iterative normalization matches the order-by-order oracle",
        not problems,
        "; ".join(problems),
    )


def test_criterion_5_conjugacy_scaling(criteria):
    started = time.monotonic()
    problems = []
    rhos = [0.05, 0.025, 0.0125]
    config = FlowConfig(steps=2048)
    module = None
    # Seeds whose conjugated field keeps a genuine beyond-window tail on
    # the invariant set, so the truncation term dominates the measured
    # error (for most seeds the restriction is linear to all orders and
    # the error is pure integrator noise with slope ~1).
    for seed in (11, 143, 115):
        w, model = build_example_dim6(seed=seed, degree=5)
        if module is None:
            module = enumerate_resonance(w.ctx, model)
        dec, log, _ = normalize(w, module)
        spec = SigmaSpec.from_module(module)
        rng = random.Random(1)
        unit = [
            rng.uniform(0.5, 1.0) + 1j * rng.uniform(0.5, 1.0)
            for _ in range(6)
        ]
        on_errors, off_errors = [], []
        for rho in rhos:
            raw = [rho * u for u in unit]
            on_errors.append(
                conjugacy_error(
                    w, log, model, spec.restrict(raw, w.ctx), 1.0, config
                )
            )
            off_errors.append(conjugacy_error(w, log, model, raw, 1.0, config))
        on_slope = loglog_slope(rhos, on_errors)
        off_slope = loglog_slope(rhos, off_errors)
        required = w.ctx.degree_cutoff + 0.5
        allowed = dec.mstar + 1.5
        if on_slope < required:
            problems.append(
                "seed %d: on-set slope %.2f < %.1f"
                % (seed, on_slope, required)
            )
        if off_slope > allowed:
            problems.append(
                "seed %d: off-set slope %.2f > %.1f"
                % (seed, off_slope, allowed)
            )
    elapsed = time.monotonic() - started
    if elapsed >= 120.0:
        problems.append("took %.1fs (budget 120s)" % elapsed)
    criteria.check(
        5,
        "conjugacy error scaling on and off the invariant set",
        not problems,
        "; ".join(problems),
    )


def test_criterion_6_lie_algebra_laws(six_setup, criteria):
    ctx6, model, module = six_setup
    problems = []
    ctx3 = TruncationContext(3, 8, momentum_enabled=False, arithmetic="exact")
    modes3 = ctx3.modes()
    rng = random.Random(61)

    def small_field(nterms):
        terms = []
        for _ in range(nterms):
            k = rng.choice(modes3)
            q = random_exponent(rng, modes3, rng.randint(1, 3))
            terms.append(
                (k, q, GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)))
            )
        return VectorField(ctx3, terms)

    for trial in range(100):
        x, y, z = small_field(4), small_field(4), small_field(4)
        if not (bracket(x, y) + bracket(y, x)).is_zero:
            problems.append("antisymmetry failed at trial %d" % trial)
            break
        jacobi = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        if not jacobi.is_zero:
            problems.append("Jacobi failed at trial %d" % trial)
            break

    rng = random.Random(62)
    for trial in range(100):
        u0 = random_class_field(ctx6, model, module, rng, 0, 3, 1, 4)
        u1 = random_class_field(ctx6, model, module, rng, 1, 3, 3, 5)
        v1 = random_class_field(ctx6, model, module, rng, 1, 3, 3, 5)
        u2 = random_class_field(ctx6, model, module, rng, 2, 3, 5, 6)
        if not split_ideals(bracket(u1, v1), module)[0].is_zero:
            problems.append("[I1,I1] met class 0 at trial %d" % trial)
            break
        s0, s1, _ = split_ideals(bracket(u1, u2), module)
        if not (s0.is_zero and s1.is_zero):
            problems.append("[I1,I2] left class 2 at trial %d" % trial)
            break
        if not split_ideals(bracket(u0 + u1 + u2, u2), module)[0].is_zero:
            problems.append("[.,I2] met class 0 at trial %d" % trial)
            break
    criteria.check(
        6,
        "bracket laws and ideal closure",
        not problems,
        "; ".join(problems),
    )


def test_criterion_7_weight_inequality_suite(criteria):
    problems = []
    sample_ctx = TruncationContext(
        12, 8, momentum_enabled=True, arithmetic="exact"
    )
    modes = [m for m in sample_ctx.modes() if abs(m.j) <= 4]
    rng = random.Random(71)
    thetas = (0.25, 0.5, 0.75)
    slack = 1e-12
    accepted = 0
    rearrangement_bad = weight_sum_bad = ratio_bad = 0
    while accepted < 10_000:
        q = random_exponent(rng, modes, rng.randint(1, 5))
        total = q.momentum_sum
        if abs(total) > sample_ctx.mode_cutoff:
            continue
        k = rng.choice((Mode(total, 1), Mode(-total, -1)))
        accepted += 1
        weights = rearranged_weights(q + MultiIndex({k: 1}))
        if weights[0] > sum(weights[1:]):
            rearrangement_bad += 1
        for theta in thetas:
            lhs = (
                sum(mode_weight(m) ** theta * e for m, e in q.items())
                + mode_weight(k) ** theta
            )
            rhs = 2 * weights[0] ** theta + (2 - 2 ** theta) * sum(
                wt ** theta for wt in weights[2:]
            )
            if lhs < rhs - slack:
                weight_sum_bad += 1
            smoothed = norm_weight(q, k, 0.75, 0.55, theta)
            if smoothed > norm_weight(q, k, 0.75, 0.25, theta) * (1 + slack):
                ratio_bad += 1
    if rearrangement_bad:
        problems.append(
            "largest weight exceeded the rest on %d samples" % rearrangement_bad
        )
    if weight_sum_bad:
        problems.append(
            "weight-sum lower bound failed on %d (sample, theta) pairs"
            % weight_sum_bad
        )
    if ratio_bad:
        problems.append(
            "smoothing made a weight grow on %d (sample, theta) pairs"
            % ratio_bad
        )

    model = dim6_frequency_model(math.sqrt(2), math.sqrt(3))
    ctx = TruncationContext(6, 6, momentum_enabled=False, arithmetic="float")
    report = diophantine_audit(model, ctx, 2.0, 6, use_fast_path=True)
    if report.fast_path_hits < 1:
        problems.append("the asymptotic fast-path premise never fired")
    criteria.check(
        7,
        "rearrangement, weight-sum and smoothing inequalities",
        not problems,
        "; ".join(problems),
    )


def test_criterion_8_divisor_scan_fast_path(criteria):
    problems = []
    model = dim6_frequency_model(math.sqrt(2), math.sqrt(3))
    ctx = TruncationContext(6, 6, momentum_enabled=False, arithmetic="float")
    fast = diophantine_audit(model, ctx, 2.0, 6, use_fast_path=True)
    brute = diophantine_audit(model, ctx, 2.0, 6, use_fast_path=False)
    if fast.gamma_max != brute.gamma_max:
        problems.append(
            "gamma differs: %r (fast) vs %r (brute)"
            % (fast.gamma_max, brute.gamma_max)
        )
    if fast.worst_p != brute.worst_p:
        problems.append(
            "minimizer differs: %s vs %s" % (fast.worst_p, brute.worst_p)
        )
    if fast.enumerated_count != brute.enumerated_count:
        problems.append("enumeration counts differ")
    if fast.fast_path_hits < 1:
        problems.append("fast path never fired")

    modes = ctx.modes()
    position = {k.j: k for k in modes}
    excluded = enumerated = disagreements = 0
    for p in signed_candidates(modes, 6):
        exps = [p.get(position[i]) for i in range(1, 7)]
        resonant = (
            2 * exps[0] + exps[1] == 0
            and exps[2] == exps[3]
            and exps[4] == exps[5]
        )
        if resonant:
            excluded += 1
        else:
            enumerated += 1
        if resonant != model.is_resonant_combination(p):
            disagreements += 1
    if enumerated != fast.enumerated_count:
        problems.append(
            "scan enumerated %d combinations, the closed form expects %d"
            % (fast.enumerated_count, enumerated)
        )
    if excluded == 0:
        problems.append("no resonant vector was present to exclude")
    if disagreements:
        problems.append(
            "symbolic resonance classification disagreed with the closed "
            "form on %d vectors" % disagreements
        )
    criteria.check(
        8,
        "divisor-scan fast path is exact and excludes resonant vectors",
        not problems,
        "; ".join(problems),
    )


def test_criterion_9_determinism_and_round_trip(six_setup, criteria, tmp_path):
    ctx, _, module = six_setup
    problems = []
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "name": "determinism check",
                "model": {"builder": "dim6"},
                "truncation": {
                    "mode_cutoff": 6,
                    "degree_cutoff": 8,
                    "arithmetic": "exact",
                },
                "field": {"seed": 3},
            }
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    if cli_run(["normalize", str(problem_path), "--out", str(out_dir)]) != 0:
        problems.append("normalize run failed")
    blobs = []
    for threads in ("1", "4"):
        report = tmp_path / ("verify_%s.json" % threads)
        code = cli_run(
            [
                "verify",
                str(problem_path),
                "--transform",
                str(out_dir),
                "--threads",
                threads,
                "--json",
                str(report),
            ]
        )
        if code != 0:
            problems.append("verify run failed with --threads %s" % threads)
        else:
            blobs.append(report.read_bytes())
    if len(blobs) == 2 and blobs[0] != blobs[1]:
        problems.append("verify reports differ across thread counts")

    w, _ = build_example_dim6(seed=7)
    if VectorField.from_lines(ctx, w.to_lines()) != w:
        problems.append("field serialization did not round-trip")
    _, log, _ = normalize(w, module)
    again = TransformLog.from_lines(ctx, log.to_lines())
    if [stage for stage, _ in again] != [stage for stage, _ in log] or any(
        not (a - b).is_zero
        for (_, a), (_, b) in zip(again, log)
    ):
        problems.append("transform log did not round-trip")
    criteria.check(
        9,
        "reports are thread-count independent and exact data round-trips",
        not problems,
        "; ".join(problems),
    )
