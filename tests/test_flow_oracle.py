"""Differential oracle for the compiled RK4 flows.

``compile_field`` generates one Python function per field that runs the
whole fixed-step RK4 loop over local variables, without zero-base
guards; ``FieldFlow.run`` replays a run whose result is not finite with
``normalform._replay``.  The interpreted lane the compiled loop replaced
is kept here as the reference: a row-table evaluator, a four-stage step
over lists, and the ``integrate_flow`` and ``apply_transform`` loops
around them.  The two must agree bit for bit (signed zeros and NaN
included), stop at the same step with the same divergence flag, and raise
``OverflowError`` in the same cases.  Named cases check which runs take
the replay, and the interpreter facts the loop's exactness rests on.
"""

import cmath
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resnf import normalform
from resnf.fields import VectorField
from resnf.indexing import MultiIndex, TruncationContext, iter_indices
from resnf.normalform import (
    _SUM_CHUNK,
    _power_lines,
    TransformLog,
    apply_transform,
    compile_field,
    normalize,
)
from resnf.resonance import enumerate_resonance
from resnf.verify import (
    FlowConfig,
    SigmaSpec,
    Trajectory,
    build_example_dim6,
    build_example_hyperbolic,
    dim6_frequency_model,
    integrate_flow,
)

# ---------------------------------------------------------------------------
# the interpreted flow lane, as it was
# ---------------------------------------------------------------------------


def oracle_compile_field(w):
    f = w.as_float()
    positions = f.ctx.mode_positions()
    rows = [
        (positions[k], complex(c), tuple((positions[m], e) for m, e in q.items()))
        for k, q, c in f.terms()
    ]
    width = len(positions)

    def evaluate(x):
        out = [0j] * width
        for target, coeff, mono in rows:
            val = coeff
            for pos, e in mono:
                base = x[pos]
                if not base:
                    val = 0j
                    break
                val *= base ** e
            out[target] += val
        return out

    return evaluate


def oracle_rk4(evaluate, x, h):
    k1 = evaluate(x)
    k2 = evaluate([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = evaluate([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = evaluate([xi + h * ki for xi, ki in zip(x, k3)])
    return [
        xi + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]


def oracle_integrate_flow(w, x0, t, config):
    evaluate = oracle_compile_field(w)
    h = t / config.steps
    x = [complex(v) for v in x0]
    for _ in range(config.steps):
        try:
            x = oracle_rk4(evaluate, x, h)
            if not all(abs(v) <= config.blowup for v in x):
                return Trajectory(tuple(x), True)
        except OverflowError:  # in a step or in the bound test's ``abs``
            return Trajectory(tuple(x), True)
    return Trajectory(tuple(x), False)


def oracle_apply_transform(log, point, direction, steps):
    state = [complex(v) for v in point]
    fields = log.fields()
    if direction == "forward":
        fields = fields[::-1]
        time = 1.0
    else:
        time = -1.0
    h = time / steps
    for f in fields:
        evaluate = oracle_compile_field(f)
        for _ in range(steps):
            state = oracle_rk4(evaluate, state, h)
    return tuple(state)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def same_state(a, b) -> bool:
    return len(a) == len(b) and all(
        same_float(u.real, v.real) and same_float(u.imag, v.imag) for u, v in zip(a, b)
    )


def outcome(fn, *args):
    """``("ok", value)`` or ``("raised", exception type)``."""
    try:
        return "ok", fn(*args)
    except OverflowError as exc:
        return "raised", type(exc)


def assert_same_trajectory(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] is want[1]
        return
    assert got[1].diverged == want[1].diverged
    assert same_state(got[1].final, want[1].final), (got[1].final, want[1].final)


def assert_same_point(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] is want[1]
    else:
        assert same_state(got[1], want[1]), (got[1], want[1])


@pytest.fixture
def replays(monkeypatch):
    """The arguments of every ``normalform._replay`` call in the test."""
    calls = []
    replay = normalform._replay

    def counted(*args):
        calls.append(args)
        return replay(*args)

    monkeypatch.setattr(normalform, "_replay", counted)
    return calls


def replayed(replays, fn, *args) -> bool:
    """Whether ``fn(*args)`` takes the replay, whatever it returns or raises."""
    replays.clear()
    outcome(fn, *args)
    return bool(replays)


# ---------------------------------------------------------------------------
# random fields on the dim6 and hyperbolic windows
# ---------------------------------------------------------------------------

DIM6 = TruncationContext(6, 5, momentum_enabled=False, arithmetic="float")
HYPERBOLIC = TruncationContext(2, 5, momentum_enabled=True, arithmetic="float")


def _pool(ctx):
    """Every admissible ``(direction, exponent)`` pair of the window."""
    modes = ctx.modes()
    return [
        (k, q)
        for q in iter_indices(modes, ctx.degree_cutoff + 1, 1)
        for k in modes
        if not ctx.momentum_enabled or q.momentum_sum == k.sigma * k.j
    ]


POOLS = {"dim6": (DIM6, _pool(DIM6)), "hyperbolic": (HYPERBOLIC, _pool(HYPERBOLIC))}

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]

parts = st.one_of(
    st.sampled_from(SPECIAL),
    st.builds(
        lambda m, s: m * s,
        st.floats(-2.0, 2.0, allow_nan=False),
        st.sampled_from([1e-3, 0.05, 1.0, 3.0, 1e80, 1e160]),
    ),
)
coordinates = st.one_of(
    st.just(0j),
    st.builds(complex, parts, parts),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
# real coefficients (an exact field's float twin) and signed-zero parts
coefficients = st.one_of(
    st.builds(complex, st.floats(-3.0, 3.0)),
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    st.builds(
        complex,
        st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5]),
        st.sampled_from([0.0, -0.0, 2.5]),
    ),
)
steps = st.sampled_from([1, 3, 40])
times = st.sampled_from([1.0, -1.0, 0.3, -0.7, 2.0])


@st.composite
def random_field(draw, window):
    """A diagonal part, or none, plus up to ten terms of random support."""
    ctx, pool = POOLS[window]
    terms = []
    if draw(st.booleans()):
        terms = [(k, MultiIndex.unit(k), draw(coefficients)) for k in ctx.modes()]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=10))
    terms += [(*pool[i], draw(coefficients)) for i in picks]
    return VectorField(ctx, terms)


@st.composite
def field_and_state(draw):
    window = draw(st.sampled_from(sorted(POOLS)))
    field = draw(random_field(window))
    width = len(field.ctx.modes())
    state = draw(st.lists(coordinates, min_size=width, max_size=width))
    return field, state


@settings(max_examples=300, deadline=None)
@given(field_and_state(), times, steps, st.sampled_from([10.0, 0.5, 1e300]))
def test_integrate_flow_matches_oracle(case, t, n, blowup):
    field, state = case
    config = FlowConfig(steps=n, blowup=blowup)
    assert_same_trajectory(
        outcome(integrate_flow, compile_field(field), state, t, config),
        outcome(oracle_integrate_flow, field, state, t, config),
    )


@st.composite
def log_and_point(draw):
    window = draw(st.sampled_from(sorted(POOLS)))
    fields = draw(st.lists(random_field(window), min_size=1, max_size=3))
    log = TransformLog(tuple(("kam", f) for f in fields))
    width = len(fields[0].ctx.modes())
    point = draw(st.lists(coordinates, min_size=width, max_size=width))
    return log, point


@settings(max_examples=200, deadline=None)
@given(log_and_point(), st.sampled_from(["forward", "inverse"]), steps)
def test_apply_transform_matches_oracle(case, direction, n):
    log, point = case
    assert_same_point(
        outcome(apply_transform, log, point, direction, n),
        outcome(oracle_apply_transform, log, point, direction, n),
    )


def test_power_before_a_zero_base_still_overflows(replays):
    """A term stops at its first zero base, after the powers before it:
    ``x0**3`` or ``x1**3`` overflows below, so the step fails even though
    a later base is 0; with the zero base first, the huge power is never
    taken.  The loop takes every power: an infinite one makes its state
    non-finite, so exactly the overflowing runs take the replay, and the
    others (a zero times a finite base) are exact as they stand."""
    modes = DIM6.modes()
    cases = {
        MultiIndex({modes[0]: 3, modes[1]: 1}): (
            ([1e200, 0j, 0j, 0j, 0j, 0j], True),
            ([0j, 1e200, 0j, 0j, 0j, 0j], False),
        ),
        MultiIndex({modes[0]: 1, modes[1]: 3, modes[2]: 1}): (
            ([0.5, 1e200, 0j, 0.25, 0j, 0j], True),
            ([0.5, 0j, 1e200, 0.25, 0j, 0j], False),
        ),
    }
    config = FlowConfig(steps=3, blowup=1e300)
    for q, states in cases.items():
        field = VectorField(DIM6, [(modes[0], q, 1.0)])
        log = TransformLog((("kam", field),))
        flow = compile_field(field)
        for state, overflows in states:
            want = oracle_integrate_flow(field, state, 1.0, config)
            got = integrate_flow(flow, state, 1.0, config)
            assert got.diverged is want.diverged is overflows
            assert same_state(got.final, want.final)
            assert replayed(replays, integrate_flow, flow, state, 1.0, config) is overflows
            point = outcome(apply_transform, log, state, "forward", 3)
            assert_same_point(point, outcome(oracle_apply_transform, log, state, "forward", 3))
            assert point[0] == ("raised" if overflows else "ok")


def assert_flows_match(field, state, steps=3, times=(1.0, -1.0)):
    """Both modes of ``run`` against the oracle: the bounded
    ``integrate_flow`` (a loose and a tight bound) over ``times``, and the
    unbounded ``apply_transform``, forward and inverse (t = 1 and -1)."""
    flow = compile_field(field)
    log = TransformLog((("kam", field),))
    for blowup, t in itertools.product([1e300, 0.4], times):
        config = FlowConfig(steps=steps, blowup=blowup)
        assert_same_trajectory(
            outcome(integrate_flow, flow, state, t, config),
            outcome(oracle_integrate_flow, field, state, t, config),
        )
    for direction in ("forward", "inverse"):
        assert_same_point(
            outcome(apply_transform, log, state, direction, steps),
            outcome(oracle_apply_transform, log, state, direction, steps),
        )


SIGNED_ZERO_PARTS = [-0.0, 0.0, 0.5, -0.5]


def test_zero_field():
    """No terms: the loop only adds the constant update to each coordinate,
    which still turns a ``-0.0`` part into ``+0.0`` at t = 1."""
    field = VectorField(DIM6, [])
    for re, im in itertools.product(SIGNED_ZERO_PARTS, repeat=2):
        state = [complex(re, im), complex(im, re), 0j, complex(-0.0, -0.0), 0.3, complex(re, 1.0)]
        assert_flows_match(field, state)
    final = integrate_flow(compile_field(field), [complex(-0.0, -0.0)] * 6, 1.0).final
    assert all(same_state([v], [0j]) for v in final)


def test_modulus_beyond_the_float_range_leaves_the_bound(replays):
    """A finite coordinate whose ``abs`` overflows is outside every bound:
    the loop's bound test raises, the replay's returns the divergence flag
    after the first step, at the state that step reached."""
    state = [1.5e308 + 1.5e308j, 0j, 0j, 0j, 0j, 0j]
    field = VectorField(DIM6, [])
    flow = compile_field(field)
    config = FlowConfig(steps=2, blowup=10.0)
    got = integrate_flow(flow, state, 1.0, config)
    assert got.diverged
    assert same_state(got.final, [complex(v) + 0j for v in state])
    assert_same_trajectory(("ok", got), outcome(oracle_integrate_flow, field, state, 1.0, config))
    assert replayed(replays, integrate_flow, flow, state, 1.0, config)


def test_live_component_over_empty_coordinates(replays):
    """Component 0 reads only coordinates whose components have no terms:
    their stage inputs must still add ``hh * 0j`` and ``h * 0j``.  At a
    finite t these are signed zeros, and no sign of a zero part of a
    stage input reaches a slope, which starts at ``0j``; at t = ±inf they
    are NaN, so carrying ``x_i`` into the stage would differ."""
    modes = DIM6.modes()
    field = VectorField(
        DIM6,
        [
            (modes[0], MultiIndex({modes[1]: 1, modes[2]: 2}), complex(1.5, -0.5)),
            (modes[0], MultiIndex({modes[2]: 1}), -1.0),
        ],
    )
    for re, im in itertools.product(SIGNED_ZERO_PARTS, repeat=2):
        state = [complex(im, re), complex(re, im), complex(im, re), complex(re, -0.0), 0j, 0j]
        assert_flows_match(field, state, times=(1.0, -1.0, math.inf, -math.inf))
        assert replayed(replays, compiled_run, field, state, math.inf, 3)


def test_first_power_taken_later_by_another_term(replays):
    """``x1**3`` is a later power of one term and the first of another,
    and each stage takes it once for both.  With ``x0 = 0`` the evaluator
    takes it only in the second term; at ``x1 = 1e200`` it is infinite in
    the loop, the run takes the replay, and the step overflows exactly
    when the oracle's does."""
    modes = DIM6.modes()
    field = VectorField(
        DIM6,
        [
            (modes[2], MultiIndex({modes[0]: 1, modes[1]: 3}), 1.0),
            (modes[3], MultiIndex({modes[1]: 3}), 0.5),
        ],
    )
    for x1, overflows in ((1e200, True), (0.5, False)):
        state = [0j, complex(x1), 0.25, 0.25, 0j, 0j]
        assert_flows_match(field, state)
        point = outcome(apply_transform, TransformLog((("kam", field),)), state, "forward", 3)
        assert point[0] == ("raised" if overflows else "ok")
        assert replayed(replays, compiled_run, field, state, 1.0, 3) is overflows


def test_power_never_taken_first_stays_inline(replays):
    """``x2**3`` is shared by two terms but never their first power (a
    term's bases come in mode order): with ``x0 = x1 = 0`` the evaluator
    takes it in neither term, so no step may overflow.  The loop takes it
    once per stage; at 1e200 a zero base times that infinite power is
    NaN, and the replay returns the evaluator's state."""
    modes = DIM6.modes()
    field = VectorField(
        DIM6,
        [
            (modes[3], MultiIndex({modes[0]: 1, modes[2]: 3}), 1.0),
            (modes[4], MultiIndex({modes[1]: 1, modes[2]: 3}), -2.0),
        ],
    )
    state = [0j, 0j, complex(1e200), 0.25, 0.25, 0j]
    assert_flows_match(field, state)
    run = integrate_flow(compile_field(field), state, 1.0, FlowConfig(steps=3, blowup=1e300))
    assert not run.diverged
    point = outcome(apply_transform, TransformLog((("kam", field),)), state, "forward", 3)
    assert point[0] == "ok"
    assert replayed(replays, compiled_run, field, state, 1.0, 3)


# ---------------------------------------------------------------------------
# frozen coordinates: what reads only them runs in steps 1 and 2 alone
# ---------------------------------------------------------------------------


def oracle_run(field, x, h, n):
    """``n`` oracle steps of size ``h`` and no bound: the mode of ``run``
    that ``apply_transform`` uses, at any ``h``."""
    evaluate = oracle_compile_field(field)
    x = [complex(v) for v in x]
    for _ in range(n):
        x = oracle_rk4(evaluate, x, h)
    return tuple(x)


def compiled_run(field, x, h, n):
    return compile_field(field).run(tuple(complex(v) for v in x), h, n, None)[0]


def assert_runs_match(field, state, hs=(0.5, -0.5, math.inf, -math.inf)):
    """Steps 1, 2 and 3 against the oracle: unbounded at each step size in
    ``hs``, and both modes of ``assert_flows_match`` at t = ±1 and ±inf."""
    for n in (1, 2, 3):
        for h in hs:
            assert_same_point(
                outcome(compiled_run, field, state, h, n),
                outcome(oracle_run, field, state, h, n),
            )
        assert_flows_match(field, state, steps=n, times=(1.0, -1.0, math.inf, -math.inf))


def overflows_in_step_one(field, state):
    """Whether the bounded run stops in step 1 on an overflow, after
    checking that it then returns the initial state."""
    run = integrate_flow(compile_field(field), state, 1.0, FlowConfig(steps=3, blowup=1e300))
    if run.diverged:
        assert same_state(run.final, [complex(v) for v in state])
    return run.diverged


M = DIM6.modes()


def test_frozen_zero_turns_nan_at_infinite_time(replays):
    """``x1`` is frozen at 0, a zero base in step 1; at t = ±inf ``z6`` is
    NaN, so from step 2 on ``x1`` is NaN.  Component 0 reads only frozen
    coordinates, and component 3's term has the prefix ``x1`` before the
    live ``x3``."""
    field = VectorField(
        DIM6,
        [
            (M[0], MultiIndex({M[1]: 1}), 1.0),
            (M[0], MultiIndex({M[2]: 2}), complex(0.5, 0.25)),
            (M[3], MultiIndex({M[1]: 1, M[3]: 1}), -1.0),
        ],
    )
    for x1 in (0j, complex(-0.0, -0.0)):
        state = [0.5, x1, complex(1.0, 1.0), 0.25, 0j, 0j]
        assert_runs_match(field, state)
        assert cmath.isnan(compiled_run(field, state, math.inf, 1)[1])
        assert replayed(replays, compiled_run, field, state, math.inf, 1)


def test_hoisted_frozen_power_overflows_in_step_one(replays):
    """``x1**3`` is a frozen first power and ``x2**3`` a frozen power in a
    term's frozen prefix: at 1e200 either overflows the evaluator in step
    1, and ``x2**3`` only when the base before it, ``x1``, is nonzero.
    The loop takes both in every case, so every run takes the replay."""
    field = VectorField(
        DIM6,
        [
            (M[0], MultiIndex({M[1]: 3}), 1.0),
            (M[3], MultiIndex({M[1]: 1, M[2]: 3, M[3]: 1}), 0.5),
        ],
    )
    for x1, x2, overflows in ((1e200, 0.5, True), (0.5, 1e200, True), (0j, 1e200, False)):
        state = [0j, x1, x2, 0.25, 0j, 0j]
        assert_runs_match(field, state, hs=(0.5, -0.5))
        assert overflows_in_step_one(field, state) is overflows
        assert replayed(replays, compiled_run, field, state, 0.5, 1)


def test_zero_prefix_base_guards_the_live_rest(replays):
    """Term ``x1 * x3**3``: the prefix ``x1`` is frozen and ``x3`` is live
    at 1e200.  With ``x1 = 0`` the evaluator stops before ``x3**3``; the
    loop takes it, the zero prefix times that infinite power is NaN, and
    the replay keeps the step from overflowing."""
    field = VectorField(DIM6, [(M[3], MultiIndex({M[1]: 1, M[3]: 3}), 1.0)])
    for x1, overflows in ((0j, False), (0.5, True)):
        state = [0j, x1, 0j, 1e200, 0j, 0j]
        assert_runs_match(field, state, hs=(0.5, -0.5))
        assert overflows_in_step_one(field, state) is overflows
        assert replayed(replays, compiled_run, field, state, 0.5, 1)


def test_frozen_only_component_read_by_a_live_term():
    """Component 0 reads only the frozen ``x1`` and ``x2``, so its slopes
    and increments are computed once; component 3's term reads ``x0``,
    whose stage inputs add those increments (``h * K2`` in stage 4)."""
    field = VectorField(
        DIM6,
        [
            (M[0], MultiIndex({M[1]: 1, M[2]: 1}), complex(0.5, -1.0)),
            (M[0], MultiIndex({M[2]: 2}), 0.75),
            (M[3], MultiIndex({M[0]: 2, M[3]: 1}), -1.5),
        ],
    )
    for re, im in itertools.product(SIGNED_ZERO_PARTS, repeat=2):
        assert_runs_match(field, [complex(re, 0.3), complex(0.6, im), complex(im, re), 0.4, 0j, 0j])


def test_live_factor_before_a_frozen_one_gets_no_prefix(replays):
    """Term ``x0 * x4**2`` with ``x0`` live: no prefix, and the frozen
    ``x4**2`` is taken in steps 1 and 2 whatever ``x0`` is.  At 1e200 it
    is infinite, so both runs take the replay, and the evaluator takes it
    only when ``x0`` is nonzero."""
    field = VectorField(DIM6, [(M[0], MultiIndex({M[0]: 1, M[4]: 2}), 1.0)])
    for x0, overflows in ((0j, False), (0.5, True)):
        state = [x0, 0j, 0j, 0j, 1e200, 0j]
        assert_runs_match(field, state, hs=(0.5, -0.5))
        assert overflows_in_step_one(field, state) is overflows
        assert replayed(replays, compiled_run, field, state, 0.5, 1)


def test_frozen_power_above_100_sees_the_sign_z6_fixes():
    """``complex.__pow__`` takes an exponent above 100 in polar form, where
    the sign of a zero imaginary part moves the result.  ``z6`` turns
    ``x1``'s ``-0.0`` into ``+0.0`` in step 1, so step 2 must recompute
    what reads ``x1``; from step 2 on ``x1`` no longer changes."""
    ctx = TruncationContext(6, 101, momentum_enabled=False, arithmetic="float")
    modes = ctx.modes()
    field = VectorField(ctx, [(modes[0], MultiIndex({modes[1]: 101}), 1.0)])
    state = [0j, complex(-1.1, -0.0), 0j, 0j, 0j, 0j]
    assert_runs_match(field, state, hs=(0.25, -0.25))
    one, two = (compiled_run(field, state, 0.25, n)[0] for n in (1, 2))
    assert two != one + one


@pytest.mark.parametrize("h", [0.0, -0.0, 5e-324, -5e-324, 0.3, -2.0, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan])
def test_stage_four_frozen_input_is_stage_two_one(h):
    """Stages 2 to 4 read one frozen input: stage 4 adds ``h * 0j``, which
    is stage 2's ``0.5 * h * 0j`` bit for bit."""
    assert same_state([h * 0j], [0.5 * h * 0j])


# ---------------------------------------------------------------------------
# the interpreter facts that make the unguarded loop exact
# ---------------------------------------------------------------------------


def chain(x: complex, e: int) -> complex:
    """``x**e`` as the compiled loop takes it, from ``_power_lines``."""
    namespace = {"b": x}
    exec("\n".join(_power_lines("b", [e])), namespace)
    return namespace["b" if e == 1 else "b_%d" % e]


def flip_zero_signs(t: complex) -> complex:
    return complex(-t.real if t.real == 0 else t.real, -t.imag if t.imag == 0 else t.imag)


finite_parts = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    # magnitudes whose powers up to 100 cross the overflow and underflow edges
    st.builds(lambda m, k: m * 2.0**k, st.floats(-2.0, 2.0), st.integers(-80, 80)),
)


@settings(max_examples=500, deadline=None)
@given(st.builds(complex, finite_parts, finite_parts), st.integers(1, 100))
def test_power_chain_is_complex_pow_up_to_zero_signs(x, e):
    """For finite ``x`` and ``1 <= e <= 100``: if ``x**e`` or the chain is
    finite, both are, and they are equal up to the signs of zero parts; a
    finite chain means ``x**e`` does not raise.  A Python whose
    ``complex.__pow__`` no longer takes integer powers by ``c_powu``
    fails here."""
    got = chain(x, e)
    try:
        want = x**e
    except OverflowError:
        assert not cmath.isfinite(got)
        return
    if cmath.isfinite(got) or cmath.isfinite(want):
        assert got == want, (x, e, got, want)


@given(st.complex_numbers(allow_nan=True, allow_infinity=True), st.complex_numbers(allow_nan=True, allow_infinity=True))
def test_sum_head_erases_zero_signs(t, u):
    """``0j + t`` has the same bits for ``t`` and for ``t`` with its zero
    parts' signs flipped, and so has every later sum ``s + u``: a sum
    that starts at ``0j`` has no ``-0.0`` part."""
    assert same_state([0j + t], [0j + flip_zero_signs(t)])
    s = 0j + t
    assert same_state([s + u], [s + flip_zero_signs(u)])


@pytest.mark.parametrize("t", [1.0, -1.0])
def test_signed_zero_parts_on_the_diagonal(t):
    """A one-term component keeps the sign of a zero part of its term
    unless the sum starts at ``0j``, as the evaluator's sums do."""
    field = dim6_frequency_model().linear_field(DIM6.with_arithmetic("exact"))
    flow = compile_field(field)
    config = FlowConfig(steps=3)
    for re, im in itertools.product([-0.0, 0.0, 0.5, -0.5], repeat=2):
        state = [complex(re, im)] * len(DIM6.modes())
        assert_same_trajectory(
            outcome(integrate_flow, flow, state, t, config),
            outcome(oracle_integrate_flow, field, state, t, config),
        )


@pytest.mark.parametrize("window", sorted(POOLS))
def test_long_components_match_oracle(window):
    """Every admissible term of one direction: a component far longer
    than one generated sum statement, and a zero base at each position."""
    ctx, pool = POOLS[window]
    rng = random.Random(7)
    first = ctx.modes()[0]
    field = VectorField(
        ctx,
        [(k, q, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for k, q in pool if k == first],
    )
    assert field.term_count() > 20 * _SUM_CHUNK
    flow = compile_field(field)
    config = FlowConfig(steps=3)
    width = len(ctx.modes())
    for zero in range(width + 1):
        state = [
            0j if i == zero else complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            for i in range(width)
        ]
        assert_same_trajectory(
            outcome(integrate_flow, flow, state, 0.5, config),
            outcome(oracle_integrate_flow, field, state, 0.5, config),
        )


# ---------------------------------------------------------------------------
# the benchmark's fields and a hyperbolic one, on and off the invariant set
# ---------------------------------------------------------------------------


def _normalized(build):
    w, model = build()
    module = enumerate_resonance(w.ctx, model)
    _, log, _ = normalize(w, module)
    return w, log, SigmaSpec.from_module(module)


EXAMPLES = {
    "dim6-11": lambda: build_example_dim6(seed=11, degree=5),
    "dim6-143": lambda: build_example_dim6(seed=143, degree=5),
    "dim6-115": lambda: build_example_dim6(seed=115, degree=5),
    "hyperbolic-4": lambda: build_example_hyperbolic(seed=4, elliptic_sites=[0]),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_flows_match_oracle(name):
    w, log, spec = _normalized(EXAMPLES[name])
    flow = compile_field(w)
    width = len(w.ctx.modes())
    raw = [(0.5 + 0.1 * i) * 0.05 + 0.03j * (i - 2) for i in range(width)]
    config = FlowConfig(steps=64)
    for point in (raw, spec.restrict(raw, w.ctx)):
        for t in (1.0, -1.0):
            assert_same_trajectory(
                outcome(integrate_flow, flow, point, t, config),
                outcome(oracle_integrate_flow, w, point, t, config),
            )
        for direction in ("forward", "inverse"):
            assert_same_point(
                outcome(apply_transform, log, point, direction, 64),
                outcome(oracle_apply_transform, log, point, direction, 64),
            )
