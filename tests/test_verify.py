"""Tests for the flow-based verification helpers and example builders."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import dim6_model
from resnf.errors import NormalFormError
from resnf.fields import GaussianRational, VectorField
from resnf.indexing import Mode, MultiIndex, TruncationContext
from resnf.normalform import TransformLog, apply_transform, normalize
from resnf.resonance import enumerate_resonance
from resnf.verify import (
    FlowConfig,
    SigmaSpec,
    build_example_dim6,
    build_example_hyperbolic,
    build_example_nls,
    check_tangent_sigma,
    conjugacy_error,
    compile_field,
    default_potential,
    dim6_frequency_model,
    hyperbolic_frequency_model,
    integrate_flow,
    linear_flow,
    loglog_slope,
    nls_frequency_model,
)


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


@pytest.fixture(scope="module")
def normalized_example(six_setup):
    _, _, module = six_setup
    w, _ = build_example_dim6(seed=3)
    dec, log, trace = normalize(w, module)
    return w, dec, log


class TestSigmaSpec:
    def test_from_module(self, six_setup):
        _, _, module = six_setup
        spec = SigmaSpec.from_module(module)
        assert set(spec.generators) == {Q1, Q2}
        assert set(spec.minus_modes()) == {fin(4), fin(6)}

    def test_restrict_and_contains(self, six_setup):
        ctx, _, module = six_setup
        spec = SigmaSpec.from_module(module)
        point = [0.1 + 0.1j] * 6
        on = spec.restrict(point, ctx)
        assert spec.contains(on, ctx)
        assert on[3] == 0 and on[5] == 0
        assert on[0] == 0.1 + 0.1j
        assert not spec.contains(point, ctx)


class TestTangency:
    def test_normalized_field_is_tangent(self, six_setup, normalized_example):
        _, _, module = six_setup
        _, dec, _ = normalized_example
        report = check_tangent_sigma(dec.assemble(), module)
        assert report
        assert report.offenders.is_zero

    def test_planted_violation_reported(self, six_setup):
        ctx, model, module = six_setup
        w = model.linear_field(ctx) + VectorField.monomial(
            ctx, fin(1), E2 + E2 + Q1, 1
        )
        report = check_tangent_sigma(w, module)
        assert not report
        assert report.offenders.coefficient(fin(1), E2 + E2 + Q1) is not None

    def test_pure_diagonal_is_tangent(self, six_setup):
        ctx, model, module = six_setup
        assert check_tangent_sigma(model.linear_field(ctx), module).ok


class TestLinearFlow:
    def test_time_zero_identity(self, six_setup):
        ctx, model, _ = six_setup
        xi = tuple(complex(i, -i) for i in range(6))
        assert linear_flow(model, ctx, xi, 0.0) == xi

    def test_imaginary_spectrum_preserves_modulus(self):
        model = nls_frequency_model(1)
        ctx = TruncationContext(1, 3, momentum_enabled=True, arithmetic="exact")
        xi = [0.3 + 0.1j] * len(ctx.modes())
        out = linear_flow(model, ctx, xi, 2.7)
        assert all(
            abs(abs(a) - abs(b)) < 1e-12 for a, b in zip(out, xi)
        )

    def test_real_spectrum_matches_scalar_exponential(self):
        model = hyperbolic_frequency_model(1)
        ctx = TruncationContext(1, 3, momentum_enabled=True, arithmetic="exact")
        xi = [0.5] * len(ctx.modes())
        t = 0.3
        out = linear_flow(model, ctx, xi, t)
        for v, k in zip(out, ctx.modes()):
            lam = model.eigenvalue_complex(k)
            assert lam.imag == 0
            assert abs(v - 0.5 * math.exp(lam.real * t)) < 1e-12


class TestIntegrateFlow:
    def test_diagonal_matches_closed_form(self, six_setup):
        ctx, model, _ = six_setup
        d = model.linear_field(ctx)
        xi = [0.2 - 0.1j] * 6
        run = integrate_flow(d, xi, 1.0, FlowConfig(steps=200))
        exact = linear_flow(model, ctx, xi, 1.0)
        assert not run.diverged
        assert max(abs(a - b) for a, b in zip(run.final, exact)) < 1e-9

    def test_step_halving_is_fourth_order(self, six_setup):
        ctx, model, _ = six_setup
        d = model.linear_field(ctx)
        xi = [0.5 + 0.5j] * 6
        exact = linear_flow(model, ctx, xi, 1.0)

        def global_error(steps):
            run = integrate_flow(d, xi, 1.0, FlowConfig(steps=steps))
            return max(abs(a - b) for a, b in zip(run.final, exact))

        ratio = global_error(16) / global_error(32)
        assert 10 < ratio < 24

    def test_fixed_point_is_stationary(self, six_setup):
        ctx, model, _ = six_setup
        w = model.linear_field(ctx) + VectorField.monomial(
            ctx, fin(1), E1 + E1 + E1 + E1 + E1, 1
        )
        run = integrate_flow(w, [0j] * 6, 1.0)
        assert not run.diverged
        assert run.final == (0j,) * 6

    def test_divergence_flagged(self, six_setup):
        ctx, _, _ = six_setup
        w = VectorField.monomial(ctx, fin(1), E1 + E1, 5)
        run = integrate_flow(w, [0.9, 0, 0, 0, 0, 0], 1.0, FlowConfig(blowup=10.0))
        assert run.diverged
        # stopped at the first step past the bound, before overflowing
        norm = max(abs(v) for v in run.final)
        assert math.isfinite(norm) and norm > 10.0

    def test_nan_state_is_divergence(self, six_setup):
        ctx, model, _ = six_setup
        run = integrate_flow(model.linear_field(ctx), [0.1, math.nan, 0, 0, 0, 0], 1.0)
        assert run.diverged

    def test_compile_field_matches_evaluate(self, six_setup):
        ctx, model, _ = six_setup
        rng = random.Random(4)
        w = model.linear_field(ctx) + VectorField.monomial(
            ctx, fin(3), E1 + E2 + E3, Fraction(2, 7)
        )
        fn = compile_field(w)
        x = [rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(6)]
        direct = w.as_float().evaluate(x)
        assert max(abs(a - b) for a, b in zip(fn(x), direct)) < 1e-14

    def test_config_validation(self):
        with pytest.raises(NormalFormError):
            FlowConfig(steps=0)


class TestConjugacy:
    def test_zero_point_zero_error(self, six_setup, normalized_example):
        ctx, model, _ = six_setup
        w, _, log = normalized_example
        err = conjugacy_error(w, log, model, [0j] * 6, 1.0)
        assert err < 1e-14

    def test_on_sigma_beats_off_sigma(self, six_setup, normalized_example):
        ctx, model, module = six_setup
        w, _, log = normalized_example
        spec = SigmaSpec.from_module(module)
        rng = random.Random(9)
        raw = [
            0.05 * (rng.uniform(0.5, 1) + 1j * rng.uniform(0.5, 1)) for _ in range(6)
        ]
        on = spec.restrict(raw, ctx)
        err_on = conjugacy_error(w, log, model, on, 1.0)
        err_off = conjugacy_error(w, log, model, raw, 1.0)
        assert err_on < err_off / 100

    def test_divergence_propagates(self, six_setup):
        ctx, model, _ = six_setup
        w = model.linear_field(ctx) + VectorField.monomial(ctx, fin(1), E1 + E1, 9)
        with pytest.raises(NormalFormError, match="diverged"):
            conjugacy_error(w, TransformLog(), model, [1.2, 0, 0, 0, 0, 0], 2.0)


class TestLoglogSlope:
    def test_recovers_exponent(self):
        rhos = [0.1, 0.05, 0.025]
        errs = [3.0 * r ** 5 for r in rhos]
        assert abs(loglog_slope(rhos, errs) - 5.0) < 1e-10

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            loglog_slope([0.1], [1.0])

    def test_equal_scales_raise(self):
        with pytest.raises(ValueError):
            loglog_slope([0.05, 0.05, 0.05], [1e-3, 2e-3, 4e-3])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_polyfit_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        scales = [rng.uniform(1e-3, 1.0) for _ in range(n)]
        errors = [rng.uniform(1e-12, 1e-2) for _ in range(n)]
        expected = float(np.polyfit(np.log(scales), np.log(errors), 1)[0])
        assert loglog_slope(scales, errors) == pytest.approx(expected, rel=1e-12)


class TestBuildDim6:
    def test_zero_seed_is_diagonal(self, six_setup):
        ctx, _, _ = six_setup
        w, model = build_example_dim6(seed=0)
        assert w == model.linear_field(w.ctx)

    def test_generator_structure(self):
        w, model = build_example_dim6(seed=0)
        module = enumerate_resonance(w.ctx, model)
        assert set(module.q_generators) == {Q1, Q2}
        translate = MultiIndex(((fin(1), -1), (fin(2), 2)))
        assert translate in module.p_generators[fin(1)]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_seeded_fields_decompose(self, six_setup, seed):
        from resnf.normalform import decompose

        ctx, _, module = six_setup
        w, _ = build_example_dim6(seed=seed)
        dec = decompose(w, module)
        assert not dec.x.is_zero
        assert dec.x.order() >= 4

    def test_seeds_are_reproducible(self):
        w1, _ = build_example_dim6(seed=7)
        w2, _ = build_example_dim6(seed=7)
        assert w1 == w2


class TestBuildNls:
    def test_known_coefficient(self):
        # (u^2 v)_0 contains u_1 u_{-1} v_0 with multiplicity 2, so the
        # coefficient of that monomial in direction (0,+) is 2i.
        w, model = build_example_nls(1, cutoff=1)
        q = (
            MultiIndex.unit(Mode(1, 1))
            + MultiIndex.unit(Mode(-1, 1))
            + MultiIndex.unit(Mode(0, -1))
        )
        assert w.coefficient(Mode(0, 1), q) == GaussianRational(0, 2)
        assert w.coefficient(Mode(0, -1), q) is None

    def test_conjugate_pairing(self):
        w, model = build_example_nls(1, cutoff=1)
        q = (
            MultiIndex.unit(Mode(1, -1))
            + MultiIndex.unit(Mode(-1, -1))
            + MultiIndex.unit(Mode(0, 1))
        )
        assert w.coefficient(Mode(0, -1), q) == GaussianRational(0, -2)

    def test_momentum_conserved_exhaustively(self):
        w, _ = build_example_nls(2, cutoff=2)
        assert w.term_count() > 0
        for k, q, _ in w.terms():
            assert q.momentum_sum == k.sigma * k.j

    def test_resonance_structure_of_built_model(self):
        w, model = build_example_nls(1, cutoff=1)
        module = enumerate_resonance(w.ctx, model)
        expected = {
            MultiIndex.unit(Mode(j, 1)) + MultiIndex.unit(Mode(j, -1))
            for j in (-1, 0, 1)
        }
        assert set(module.q_generators) == expected
        assert all(not v for v in module.p_generators.values())

    def test_degree_window_guard(self):
        with pytest.raises(ValueError, match="window"):
            build_example_nls(2, cutoff=1, degree=3)
        with pytest.raises(ValueError, match="p must"):
            build_example_nls(0)


class TestPotential:
    def test_shifts_up_to_four_sites(self):
        table = {
            -4: Fraction(1, 37), -3: Fraction(1, 29), -2: Fraction(1, 19),
            -1: Fraction(1, 13), 0: Fraction(3, 4), 1: Fraction(1, 11),
            2: Fraction(1, 17), 3: Fraction(1, 23), 4: Fraction(1, 31),
        }
        assert default_potential(4) == table

    def test_shifts_stay_distinct_beyond_four_sites(self):
        shifts = default_potential(12).values()
        assert len(set(shifts)) == 25


class TestBuildHyperbolic:
    def test_zero_seed_is_diagonal(self):
        w, model = build_example_hyperbolic(cutoff=1)
        assert w == model.linear_field(w.ctx)

    def test_stable_directions_decay(self):
        w, model = build_example_hyperbolic(cutoff=1)
        ctx = w.ctx
        positions = ctx.mode_positions()
        xi = [0j] * len(positions)
        for k, i in positions.items():
            if k.sigma == -1:
                xi[i] = 0.4 + 0j
        out = linear_flow(model, ctx, xi, 1.5)
        assert all(abs(v) < 0.4 * math.exp(-1.0) for v in out if v != 0)
        assert any(v != 0 for v in out)

    def test_mixed_partition(self):
        model = hyperbolic_frequency_model(1, elliptic_sites=(0,))
        lam0 = model.eigenvalue_complex(Mode(0, 1))
        lam1 = model.eigenvalue_complex(Mode(1, 1))
        assert abs(lam0.real) < 1e-15 and lam0.imag > 0
        assert lam1.imag == 0 and lam1.real > 0

    def test_same_module_as_gauge_twin(self):
        ctx = TruncationContext(1, 3, momentum_enabled=True, arithmetic="exact")
        hyper = enumerate_resonance(ctx, hyperbolic_frequency_model(1))
        gauge = enumerate_resonance(ctx, nls_frequency_model(1))
        assert set(hyper.q_generators) == set(gauge.q_generators)
        assert hyper.m_star_minimal == gauge.m_star_minimal

    def test_seeded_terms_conserve_momentum(self):
        w, model = build_example_hyperbolic(cutoff=1, seed=11)
        nonlinear = w - model.linear_field(w.ctx)
        assert nonlinear.term_count() >= 3
        assert nonlinear.order() >= 2
        for k, q, _ in nonlinear.terms():
            assert q.momentum_sum == k.sigma * k.j
