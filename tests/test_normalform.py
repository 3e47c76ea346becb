"""Tests for the homological solvers and the normalization driver."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import dim6_model, nls_model
from resnf.errors import (
    AlreadyNormal,
    CutoffTooSmall,
    HypothesisViolation,
    NonterminatingSeries,
    NormalFormError,
    ProblemFileError,
    ResonantTermInRange,
)
from resnf.fields import GaussianRational, VectorField, bracket
from resnf.indexing import Mode, MultiIndex, TruncationContext
from resnf.normalform import (
    KAM,
    DecomposedField,
    KamConstants,
    TransformLog,
    apply_transform,
    decompose,
    kam_step,
    lie_series_terms,
    normalize,
    poincare_dulac,
    prenormalize,
    pushforward_exp,
    pushforward_exp_reversed,
    resolve_mstar,
    solve_extended_homological,
    solve_linear_homological,
)
from resnf.resonance import FrequencyModel, enumerate_resonance
from resnf.verify import build_example_dim6


def fin(label: int) -> Mode:
    return Mode(label, 1)


E1, E2, E3, E4, E5, E6 = (MultiIndex.unit(fin(i)) for i in range(1, 7))
Q1 = E3 + E4
Q2 = E5 + E6


@pytest.fixture(scope="module")
def six_setup():
    ctx = TruncationContext(6, 8, momentum_enabled=False, arithmetic="exact")
    model = dim6_model()
    module = enumerate_resonance(ctx, model)
    return ctx, model, module


def sample_field(ctx, model):
    """A hand-built field with one term in each block of the splitting."""
    d = model.linear_field(ctx)
    z = VectorField.monomial(ctx, fin(1), Q1 + E1, Fraction(1, 3))
    x0 = VectorField.monomial(ctx, fin(1), E1 + E1 + E1 + E1 + E1, 1)
    x1 = VectorField.monomial(ctx, fin(2), Q1 + E1 + E1 + E2, Fraction(1, 5))
    n = VectorField.monomial(ctx, fin(2), Q1 + Q2 + E2, Fraction(1, 2))
    return d, z, x0, x1, n


def random_class_field(ctx, model, module, rng, klass, nterms, min_order=None):
    """Random field supported on non-resonant class-``klass`` exponents
    of order >= mstar."""
    min_order = module.m_star_minimal if min_order is None else min_order
    modes = ctx.modes()
    terms = []
    while len(terms) < nterms:
        k = rng.choice(modes)
        degree = rng.randint(min_order + 1, ctx.degree_cutoff + 1)
        entries = {}
        for _ in range(degree):
            m = rng.choice(modes)
            entries[m] = entries.get(m, 0) + 1
        q = MultiIndex(entries)
        if module.classify(q) != klass or model.is_resonant_pair(q, k):
            continue
        c = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        if c.is_zero:
            continue
        terms.append((k, q, c))
    return VectorField(ctx, terms)


def rk4_flow(field, x, t, steps=400):
    f = field.as_float()
    h = t / steps
    x = [complex(v) for v in x]
    for _ in range(steps):
        k1 = f.evaluate(x)
        k2 = f.evaluate([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
        k3 = f.evaluate([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
        k4 = f.evaluate([xi + h * ki for xi, ki in zip(x, k3)])
        x = [
            xi + h / 6.0 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
        ]
    return x


class TestDecompose:
    def test_splits_named_parts(self, six_setup):
        ctx, model, module = six_setup
        d, z, x0, x1, n = sample_field(ctx, model)
        dec = decompose(d + z + x0 + x1 + n, module)
        assert dec.z == z
        assert dec.x == x0 + x1
        assert dec.n == n
        assert dec.mstar == module.m_star_minimal == 4
        assert not dec.is_normal

    def test_assemble_round_trip(self, six_setup):
        ctx, model, module = six_setup
        d, z, x0, x1, n = sample_field(ctx, model)
        w = d + z + x0 + x1 + n
        assert decompose(w, module).assemble() == w

    def test_linear_part_must_match(self, six_setup):
        ctx, model, module = six_setup
        d, z, _, _, _ = sample_field(ctx, model)
        with pytest.raises(HypothesisViolation, match="linear part"):
            decompose(d.scale(2) + z, module)
        with pytest.raises(HypothesisViolation, match="linear part"):
            decompose(z, module)

    def test_nonresonant_below_cutoff_rejected(self, six_setup):
        ctx, model, module = six_setup
        d = model.linear_field(ctx)
        w = d + VectorField.monomial(ctx, fin(2), E1 + E1, 1)
        with pytest.raises(HypothesisViolation, match="prenormalize"):
            decompose(w, module)

    def test_kernel_below_cutoff_must_be_diagonal(self, six_setup):
        # x2^2 x3 x4 d/dx1 has order 3 < mstar and zero divisor but no
        # x1 factor: it falls outside the diagonal-kernel hypothesis
        # even though its exponent sits in the first ideal class.
        ctx, model, module = six_setup
        assert module.classify(E2 + E2 + Q1) == 1
        d = model.linear_field(ctx)
        w = d + VectorField.monomial(ctx, fin(1), E2 + E2 + Q1, 1)
        with pytest.raises(HypothesisViolation, match="diagonal"):
            decompose(w, module)

    def test_translate_term_rejected(self, six_setup):
        ctx, model, module = six_setup
        d = model.linear_field(ctx)
        w = d + VectorField.monomial(ctx, fin(1), E2 + E2, 1)
        with pytest.raises(HypothesisViolation, match="diagonal"):
            decompose(w, module)

    def test_mstar_below_minimal_rejected(self, six_setup):
        _, _, module = six_setup
        with pytest.raises(HypothesisViolation, match="minimal"):
            resolve_mstar(module, 3)

    def test_class_two_kernel_goes_to_n(self, six_setup):
        ctx, model, module = six_setup
        d = model.linear_field(ctx)
        term = VectorField.monomial(ctx, fin(2), Q1 + Q2 + E2, 1)
        dec = decompose(d + term, module)
        assert dec.n == term
        assert dec.z.is_zero and dec.x.is_zero
        assert dec.is_normal


class TestLinearHomological:
    def test_divisor_example(self, six_setup):
        ctx, model, module = six_setup
        y = VectorField.monomial(ctx, fin(2), E1 + E2, 1)
        f = solve_linear_homological(y, model)
        assert f == VectorField.monomial(ctx, fin(2), E1 + E2, Fraction(1, 2))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_round_trip(self, six_setup, seed):
        ctx, model, module = six_setup
        rng = random.Random(seed)
        y = random_class_field(ctx, model, module, rng, 0, 6, min_order=1)
        f = solve_linear_homological(y, model)
        assert bracket(model.linear_field(ctx), f) == y

    def test_resonant_term_raises(self, six_setup):
        ctx, model, module = six_setup
        y = VectorField.monomial(ctx, fin(1), Q1 + E1, 1)
        with pytest.raises(ResonantTermInRange):
            solve_linear_homological(y, model)


class TestExtendedHomological:
    def test_class0_defining_identity(self, six_setup):
        ctx, model, module = six_setup
        d, z, x0, x1, n = sample_field(ctx, model)
        rng = random.Random(7)
        y0 = x0 + random_class_field(ctx, model, module, rng, 0, 5)
        f0 = solve_extended_homological(y0, 0, z, n, module)
        lhs = bracket(f0, d + z).project(lambda k, q: module.classify(q) == 0)
        assert lhs == -y0

    def test_class1_defining_identity(self, six_setup):
        ctx, model, module = six_setup
        d, z, x0, x1, n = sample_field(ctx, model)
        rng = random.Random(11)
        y0 = x0 + random_class_field(ctx, model, module, rng, 0, 4)
        y1 = x1 + random_class_field(ctx, model, module, rng, 1, 4)
        f0 = solve_extended_homological(y0, 0, z, n, module)
        f1 = solve_extended_homological(y1, 1, z, n, module, f0=f0)
        lhs = (bracket(f1, d + z) + bracket(f0, z + n)).project(
            lambda k, q: module.classify(q) == 1
        )
        assert lhs == -y1

    @pytest.mark.parametrize("klass,seed", [(1, 3), (1, 13)])
    def test_nilpotency_witness_random(self, six_setup, klass, seed):
        # The corrector B = Pi_i [., Z] applied twice through the
        # diagonal inverse annihilates every class-i field.
        ctx, model, module = six_setup
        _, z, _, _, _ = sample_field(ctx, model)
        rng = random.Random(seed)
        y = random_class_field(ctx, model, module, rng, klass, 6)

        def a_inv(v):
            return solve_linear_homological(v, model).scale(-1)

        def b(v):
            return bracket(v, z).project(lambda k, q: module.classify(q) == klass)

        first = b(a_inv(y))
        assert not first.is_zero  # seeds chosen so one application survives
        assert b(a_inv(first)).is_zero

    def test_nilpotency_witness_class0(self, six_setup):
        # Class-0 output of the corrector requires the direction
        # derivative to consume one generator unit; x1^5 d/dx3 against
        # Z = x^{Q1} x1 d/dx1 produces the class-0 term ~ x1^6 x4 d/dx1,
        # and a second application necessarily reinstates a full
        # generator, so it dies under the projection.
        ctx, model, module = six_setup
        _, z, _, _, _ = sample_field(ctx, model)
        y = VectorField.monomial(ctx, fin(3), E1 + E1 + E1 + E1 + E1, 1)
        assert module.classify(E1 + E1 + E1 + E1 + E1) == 0

        def a_inv(v):
            return solve_linear_homological(v, model).scale(-1)

        def b(v):
            return bracket(v, z).project(lambda k, q: module.classify(q) == 0)

        first = b(a_inv(y))
        assert not first.is_zero
        assert b(a_inv(first)).is_zero

    def test_z_must_be_diagonal_resonant(self, six_setup):
        ctx, model, module = six_setup
        _, _, x0, _, n = sample_field(ctx, model)
        bad_z = VectorField.monomial(ctx, fin(2), E1 + E2, 1)
        with pytest.raises(HypothesisViolation, match="diagonal"):
            solve_extended_homological(x0, 0, bad_z, n, module)


class TestWindowEdge:
    """Resonant pairs are enumerated up to degree D, while fields hold
    terms up to degree D + 1."""

    def test_resonant_term_at_window_edge_asks_for_larger_cutoff(self):
        ctx = TruncationContext(2, 8)
        one, nine = Mode(1, 1), Mode(2, 1)
        model = FrequencyModel(
            "edge", [("one", Fraction(1))], {one: {"one": 1}, nine: {"one": 9}}
        )
        module = enumerate_resonance(ctx, model)
        w = model.linear_field(ctx) + VectorField.monomial(
            ctx, nine, MultiIndex({one: 9}), 1
        )
        with pytest.raises(CutoffTooSmall, match="1\\+\\^9.*raise the degree cutoff"):
            normalize(w, module)

    def test_resonant_term_inside_window_keeps_range_error(self, six_setup):
        ctx, model, module = six_setup
        zero = VectorField.zero(ctx)
        y = VectorField.monomial(ctx, fin(1), Q1 + E1, 1)
        assert module.classify(Q1 + E1) == 1
        with pytest.raises(ResonantTermInRange, match="disagree"):
            solve_extended_homological(y, 1, zero, zero, module)


class TestLieSeries:
    def test_zero_generator_is_identity(self, six_setup):
        ctx, model, module = six_setup
        d, z, x0, _, _ = sample_field(ctx, model)
        w = d + z + x0
        assert pushforward_exp(VectorField.zero(ctx), w) == w

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_reversed_twin_agrees(self, six_setup, seed):
        ctx, model, module = six_setup
        rng = random.Random(seed)
        f = random_class_field(ctx, model, module, rng, 0, 4, min_order=1)
        d, z, x0, x1, n = sample_field(ctx, model)
        w = d + z + x0 + x1 + n
        assert pushforward_exp(f, w) == pushforward_exp_reversed(f, w)

    def test_series_length_bound(self, six_setup):
        ctx, model, module = six_setup
        rng = random.Random(6)
        f = random_class_field(ctx, model, module, rng, 0, 3, min_order=1)
        d, z, x0, _, _ = sample_field(ctx, model)
        terms = lie_series_terms(f, d + z + x0)
        assert len(terms) - 1 <= math.ceil((ctx.degree_cutoff + 1) / f.order())

    def test_order_zero_generator_raises(self, six_setup):
        ctx, model, module = six_setup
        f = VectorField.monomial(ctx, fin(1), E2, 1)
        with pytest.raises(NonterminatingSeries):
            pushforward_exp(f, model.linear_field(ctx))

    def test_flow_pullback_oracle(self, six_setup):
        # exp(ad_F) W evaluated at x must match DPhi(x)^-1 W(Phi(x))
        # where Phi is the time-1 flow of F.
        ctx, model, module = six_setup
        rng = random.Random(17)
        f = random_class_field(ctx, model, module, rng, 0, 3, min_order=2)
        d, z, x0, x1, n = sample_field(ctx, model)
        w = d + z + x0 + x1 + n
        pushed = pushforward_exp(f, w).as_float()
        nmodes = len(pushed.ctx.modes())
        for _ in range(10):
            x = [
                0.03 * rng.uniform(-1, 1) + 0.03j * rng.uniform(-1, 1)
                for _ in range(nmodes)
            ]
            phi_x = rk4_flow(f, x, 1.0)
            h = 1e-5
            jac = np.zeros((nmodes, nmodes), dtype=complex)
            for i in range(nmodes):
                xp = list(x)
                xm = list(x)
                xp[i] += h
                xm[i] -= h
                col_p = rk4_flow(f, xp, 1.0)
                col_m = rk4_flow(f, xm, 1.0)
                jac[:, i] = [(a - b) / (2 * h) for a, b in zip(col_p, col_m)]
            w_at = np.array(w.as_float().evaluate(phi_x))
            pulled = np.linalg.solve(jac, w_at)
            got = np.array(pushed.evaluate(x))
            assert np.max(np.abs(pulled - got)) < 1e-8


class TestKamStep:
    def test_step_doubles_and_preserves_z(self, six_setup):
        ctx, model, module = six_setup
        d, z, x0, x1, n = sample_field(ctx, model)
        dec = decompose(d + z + x0 + x1 + n, module)
        dec1, f, record = kam_step(dec)
        assert dec1.z == z
        assert record.ord_x == 4
        assert record.ord_x_next is None or record.ord_x_next >= 8
        assert f.order() >= dec.mstar
        assert f.project(lambda k, q: module.classify(q) == 2).is_zero
        assert record.series_terms >= 1
        assert record.eps > 0 and record.theta >= record.eps
        assert math.isfinite(record.smallness_lhs_log)
        assert math.isfinite(record.smallness_rhs_log)

    def test_already_normal_raises(self, six_setup):
        ctx, model, module = six_setup
        d, z, _, _, n = sample_field(ctx, model)
        dec = decompose(d + z + n, module)
        with pytest.raises(AlreadyNormal):
            kam_step(dec)


class TestPrenormalize:
    def test_removes_low_order_nonresonant(self, six_setup):
        ctx, model, module = six_setup
        d = model.linear_field(ctx)
        w = d + VectorField.monomial(ctx, fin(2), E1 + E1, Fraction(1, 2))
        out, log = prenormalize(w, module)
        low = out.project(
            lambda k, q: 1 <= q.degree - 1 < 4 and not model.is_resonant_pair(q, k)
        )
        assert low.is_zero
        assert all(stage == "prenormalize" for stage, _ in log)
        assert all(1 <= f.order() < 4 for f in log.fields())

    def test_noop_when_clean(self, six_setup):
        ctx, model, module = six_setup
        d, z, x0, _, _ = sample_field(ctx, model)
        out, log = prenormalize(d + z + x0, module)
        assert out == d + z + x0
        assert len(log) == 0


@pytest.fixture(scope="module")
def run(six_setup):
    """A full normalization of a field exercising every stage."""
    ctx, model, module = six_setup
    d, z, x0, x1, n = sample_field(ctx, model)
    low = VectorField.monomial(ctx, fin(2), E1 + E1, Fraction(1, 2))
    w = d + low + z + x0 + x1 + n
    dec, log, trace = normalize(w, module)
    return w, dec, log, trace


class TestNormalize:
    def test_eliminates_free_part(self, six_setup, run):
        ctx, model, module = six_setup
        w, dec, log, trace = run
        assert dec.x.is_zero
        residual = dec.assemble().project(
            lambda k, q: q.degree > 1
            and module.classify(q) != 2
            and not (model.is_resonant_pair(q, k) and q.get(k) >= 1)
        )
        assert residual.is_zero

    def test_step_guard(self, six_setup, run):
        ctx, model, module = six_setup
        _, _, _, trace = run
        bound = math.ceil(math.log2((ctx.degree_cutoff + 1) / 4)) + 1
        assert len(trace.records) <= bound == 3

    def test_orders_double(self, run):
        _, _, _, trace = run
        for rec in trace.records:
            assert rec.ord_x_next is None or rec.ord_x_next >= 2 * rec.ord_x

    def test_log_stages(self, run):
        _, dec, log, trace = run
        stages = [stage for stage, _ in log]
        assert stages == sorted(stages, key=("prenormalize", "kam").index)
        for stage, f in log:
            if stage == "kam":
                assert f.order() >= dec.mstar

    def test_convergence_reported(self, run):
        _, _, _, trace = run
        assert trace.convergence_ok is False
        assert trace.convergence_rhs_log < -1e30
        d = trace.as_dict()
        assert len(d["records"]) == len(trace.records)
        assert d["constants"]["chi"] == 1.5

    def test_no_steps_when_already_normal(self, six_setup):
        ctx, model, module = six_setup
        d, z, _, _, n = sample_field(ctx, model)
        dec, log, trace = normalize(d + z + n, module)
        assert dec.x.is_zero and len(log) == 0 and not trace.records
        assert trace.convergence_ok is None

    def test_agrees_with_full_elimination(self, six_setup, run):
        # An independent degree-by-degree elimination of every
        # non-resonant term must differ from the driver's result only
        # inside the squared ideal.
        ctx, model, module = six_setup
        w, dec, _, _ = run
        reference, _ = poincare_dulac(w, model)
        leftovers = reference.project(
            lambda k, q: q.degree > 1 and not model.is_resonant_pair(q, k)
        )
        assert leftovers.is_zero
        diff = (reference - dec.assemble()).project(
            lambda k, q: module.classify(q) != 2
        )
        assert diff.is_zero

    def test_momentum_preserving_run(self):
        ctx = TruncationContext(2, 5, momentum_enabled=True, arithmetic="exact")
        model = nls_model(2)
        module = enumerate_resonance(ctx, model)
        d = model.linear_field(ctx)
        q = (
            MultiIndex.unit(Mode(1, 1))
            + MultiIndex.unit(Mode(-1, 1))
            + MultiIndex.unit(Mode(0, -1))
        )
        w = d + VectorField.monomial(ctx, Mode(0, 1), q, GaussianRational(0, 1))
        dec, log, trace = normalize(w, module)
        assert dec.x.is_zero
        for k, qq, _ in dec.assemble().terms():
            assert qq.momentum_sum == k.sigma * k.j
        for f in log.fields():
            for k, qq, _ in f.terms():
                assert qq.momentum_sum == k.sigma * k.j


class TestTransformLog:
    def test_stage_validated(self, six_setup):
        ctx, model, module = six_setup
        with pytest.raises(NormalFormError, match="stage"):
            TransformLog((("mystery", VectorField.zero(ctx)),))

    def test_serialization_round_trip(self, six_setup):
        ctx, model, module = six_setup
        d, z, x0, x1, n = sample_field(ctx, model)
        _, log, _ = normalize(d + z + x0 + x1 + n, module)
        assert len(log) >= 1
        again = TransformLog.from_lines(ctx, log.to_lines())
        assert len(again) == len(log)
        for (s1, f1), (s2, f2) in zip(log, again):
            assert s1 == s2 and f1 == f2

    def test_malformed_header_rejected(self, six_setup):
        ctx, _, _ = six_setup
        with pytest.raises(ProblemFileError, match="header"):
            TransformLog.from_lines(ctx, ["# generator 0 nonsense"])
        with pytest.raises(ProblemFileError, match="header"):
            TransformLog.from_lines(ctx, ["(1,+1) | x[(1,+1)]^2 | 1 0"])


class TestApplyTransform:
    def test_empty_log_identity(self):
        pt = (0.1 + 0.2j, -0.3j)
        assert apply_transform(TransformLog(), pt, "forward") == pt

    def test_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            apply_transform(TransformLog(), (0,), "sideways")

    def test_forward_inverse_roundtrip(self, run):
        _, _, log, _ = run
        rng = random.Random(23)
        for _ in range(10):
            pt = [
                0.1 * rng.uniform(-1, 1) + 0.1j * rng.uniform(-1, 1)
                for _ in range(6)
            ]
            there = apply_transform(log, pt, "forward")
            back = apply_transform(log, there, "inverse")
            assert max(abs(a - b) for a, b in zip(pt, back)) < 1e-8

    def test_point_length_validated(self, run):
        _, _, log, _ = run
        with pytest.raises(ValueError, match="5 coordinates; context has 6"):
            apply_transform(log, [0j] * 5)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_matches_evaluate_oracle(self, run, direction):
        # The compiled evaluator and RK4 step against the reference
        # evaluator, flow by flow in the documented composition order.
        _, _, log, _ = run
        rng = random.Random(37)
        pt = [0.1 * rng.uniform(-1, 1) + 0.1j * rng.uniform(-1, 1) for _ in range(6)]
        fields = log.fields()
        if direction == "forward":
            fields, t = fields[::-1], 1.0
        else:
            t = -1.0
        want = pt
        for f in fields:
            want = rk4_flow(f, want, t, steps=64)
        got = apply_transform(log, pt, direction, steps=64)
        assert len(fields) > 1
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12

    def test_flow_conjugacy(self, run):
        # forward carries the normalized flow to the original flow.
        w, dec, log, _ = run
        rng = random.Random(29)
        pt = [0.05 * rng.uniform(-1, 1) + 0.05j * rng.uniform(-1, 1) for _ in range(6)]
        t = 0.5
        lhs = rk4_flow(w, pt, t, steps=600)
        xi = apply_transform(log, pt, "inverse", steps=600)
        xi_t = rk4_flow(dec.assemble(), xi, t, steps=600)
        rhs = apply_transform(log, xi_t, "forward", steps=600)
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-8

    def test_leading_order_scaling(self, six_setup, run):
        # the transform differs from the identity only at the cutoff
        # order and beyond: halving the point shrinks the displacement
        # by at least 2^mstar.
        _, dec, log, _ = run
        kam_only = TransformLog(
            tuple((s, f) for s, f in log if s == "kam")
        )
        rng = random.Random(31)
        direction = [rng.uniform(0.5, 1) + 1j * rng.uniform(0.5, 1) for _ in range(6)]
        norm = math.sqrt(sum(abs(v) ** 2 for v in direction))
        direction = [v / norm for v in direction]

        def displacement(scale):
            pt = [scale * v for v in direction]
            moved = apply_transform(kam_only, pt, "forward")
            return max(abs(a - b) for a, b in zip(moved, pt))

        big, small = displacement(0.1), displacement(0.05)
        assert big > 0
        assert big / small >= 2 ** dec.mstar


class TestKamConstants:
    def test_schedule(self):
        c = KamConstants()
        assert c.rho_n(3) == pytest.approx(c.rho_n(2) / 2)
        total = 5.0 * sum(c.rho_n(n) for n in range(200))
        assert total < c.r0
        sigmas = [c.sigma_n(n) for n in range(1, 6)]
        assert sigmas == sorted(sigmas, reverse=True)
        assert c.sigma_n(0) == c.sigma / 8

    def test_log_sup_k(self):
        c = KamConstants()
        val = c.log_sup_k()
        assert math.isfinite(val)
        assert val > 1e30

    def test_as_dict(self):
        d = KamConstants().as_dict()
        assert d["gamma"] == 1.0 and d["chi"] == 1.5

    def test_radius_schedule_is_the_running_sum(self):
        # The radii of step n subtract 5 rho_i and add 2 sigma_i for each
        # earlier step i, in step order, so every record matches a running
        # sum bit for bit.
        w, model = build_example_dim6(seed=5, degree=10)
        module = enumerate_resonance(w.ctx, model)
        _, _, trace = normalize(w, module)
        assert len(trace.records) >= 2
        r, s = KAM.r0, KAM.s0
        for rec in trace.records:
            assert (rec.r, rec.s) == (r, s)
            assert (rec.rho, rec.sigma) == (KAM.rho_n(rec.step), KAM.sigma_n(rec.step))
            r -= 5.0 * KAM.rho_n(rec.step)
            s += 2.0 * KAM.sigma_n(rec.step)
