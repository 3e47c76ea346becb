"""Unit tests for series/field arithmetic, brackets, norms, serialization."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from resnf.errors import ContextMismatch, NormalFormError
from resnf.fields import (
    GaussianRational,
    ScalarSeries,
    VectorField,
    bracket,
    coerce_coefficient,
    lie_derivative,
)
from resnf.indexing import Mode, MultiIndex, TruncationContext, ZERO_INDEX, norm_weight


def mi(*pairs):
    return MultiIndex([(Mode(j, s), e) for (j, s, e) in pairs])


def fin(j):
    """Finite-dimensional mode with label j."""
    return Mode(j, 1)


class TestGaussianRational:
    def test_ring_operations(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
        b = GaussianRational(2, -1)
        assert (a + b).re == Fraction(5, 2)
        assert (a - b).im == Fraction(7, 4)
        prod = a * b
        assert prod.re == Fraction(1, 2) * 2 + Fraction(3, 4)
        assert prod.im == -Fraction(1, 2) + Fraction(3, 2)

    def test_division_exact(self):
        num = GaussianRational(3, 4)
        den = GaussianRational(1, -2)
        quot = num / den
        assert quot * den == num
        assert (num / 2).re == Fraction(3, 2)
        with pytest.raises(ZeroDivisionError):
            num / GaussianRational(0, 0)

    def test_complex_round_trip(self):
        a = GaussianRational(Fraction(-2, 3), Fraction(5, 7))
        z = complex(a)
        assert z == pytest.approx(complex(-2 / 3, 5 / 7))
        assert abs(a) == pytest.approx(abs(z))

    def test_equality_with_integers(self):
        assert GaussianRational(3) == 3
        assert GaussianRational(3, 1) != 3
        assert GaussianRational(0).is_zero

    @pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
    def test_real_values_hash_like_the_number_they_equal(self, value):
        g = GaussianRational(value)
        assert g == value and hash(g) == hash(value)
        assert len({g, value}) == 1
        assert {value: "a"}[g] == "a"
        assert {g: "b"}[value] == "b"
        assert GaussianRational(value, 1) not in {value}


class TestCoercion:
    def test_exact_rejects_floats(self, ctx6):
        with pytest.raises(NormalFormError):
            coerce_coefficient(ctx6, 0.5)
        assert coerce_coefficient(ctx6, Fraction(1, 3)).re == Fraction(1, 3)
        assert coerce_coefficient(ctx6, 2) == GaussianRational(2)

    def test_float_accepts_everything(self, ctx6f):
        assert coerce_coefficient(ctx6f, Fraction(1, 2)) == 0.5 + 0j
        assert coerce_coefficient(ctx6f, GaussianRational(1, 1)) == 1 + 1j
        assert coerce_coefficient(ctx6f, 2.5j) == 2.5j


class TestScalarSeries:
    def test_construction_merges_duplicates(self, ctx6):
        q = mi((1, 1, 2))
        f = ScalarSeries(ctx6, [(q, 1), (q, 2), (ZERO_INDEX, 5)])
        assert f.coefficient(q) == GaussianRational(3)
        assert f.coefficient(ZERO_INDEX) == GaussianRational(5)
        assert len(f) == 2

    def test_rejects_out_of_window_keys(self, ctx6):
        too_big = mi((1, 1, 9))
        with pytest.raises(NormalFormError):
            ScalarSeries(ctx6, [(too_big, 1)])
        bad_mode = mi((7, 1, 1))
        with pytest.raises(NormalFormError):
            ScalarSeries(ctx6, [(bad_mode, 1)])

    def test_momentum_enforced(self, wave_ctx):
        balanced = mi((2, 1, 1), (2, -1, 1))
        ScalarSeries(wave_ctx, [(balanced, 1)])  # fine
        unbalanced = mi((2, 1, 1))
        with pytest.raises(NormalFormError):
            ScalarSeries(wave_ctx, [(unbalanced, 1)])

    def test_product_matches_expansion(self, ctx6):
        x1, x2 = MultiIndex.unit(fin(1)), MultiIndex.unit(fin(2))
        f = ScalarSeries(ctx6, [(x1, 1), (x2, 2)])
        g = ScalarSeries(ctx6, [(x1, 3), (ZERO_INDEX, 1)])
        prod = f.mul(g)
        # (x1 + 2 x2)(3 x1 + 1) = 3 x1^2 + x1 + 6 x1 x2 + 2 x2
        assert prod.coefficient(mi((1, 1, 2))) == GaussianRational(3)
        assert prod.coefficient(x1) == GaussianRational(1)
        assert prod.coefficient(x1 + x2) == GaussianRational(6)
        assert prod.coefficient(x2) == GaussianRational(2)

    def test_product_drops_out_of_window_terms(self):
        ctx = TruncationContext(2, 2)
        x1 = MultiIndex.unit(fin(1))
        f = ScalarSeries(ctx, [(mi((1, 1, 2)), 1)])
        g = ScalarSeries(ctx, [(x1, 1), (ZERO_INDEX, 1)])
        prod = f.mul(g)
        assert prod.coefficient(mi((1, 1, 3))) is None
        assert prod.coefficient(mi((1, 1, 2))) == GaussianRational(1)

    def test_partial_derivative(self, ctx6):
        f = ScalarSeries(ctx6, [(mi((1, 1, 2), (2, 1, 1)), Fraction(1, 2))])
        df1 = f.partial(fin(1))
        assert df1.coefficient(mi((1, 1, 1), (2, 1, 1))) == GaussianRational(1)
        df3 = f.partial(fin(3))
        assert df3.is_zero

    def test_lines_round_trip(self, ctx6):
        f = ScalarSeries(
            ctx6,
            [
                (mi((1, 1, 1)), GaussianRational(Fraction(1, 3), Fraction(-2, 5))),
                (ZERO_INDEX, 7),
            ],
        )
        again = ScalarSeries.from_lines(ctx6, f.to_lines())
        assert again == f


def random_field(ctx, rng, nterms, max_order=2, coeff_pool=(-2, -1, 1, 2, 3)):
    modes = ctx.modes()
    terms = []
    for _ in range(nterms):
        k = rng.choice(modes)
        deg = rng.randint(1, max_order + 1)
        entries = {}
        for _ in range(deg):
            m = rng.choice(modes)
            entries[m] = entries.get(m, 0) + 1
        q = MultiIndex(entries)
        if ctx.momentum_enabled and q.momentum_sum != k.sigma * k.j:
            continue
        c = GaussianRational(rng.choice(coeff_pool), rng.choice(coeff_pool))
        terms.append((k, q, c))
    return VectorField(ctx, terms)


def field_to_sympy(field, xs, pos):
    comps = [sympy.Integer(0)] * len(xs)
    for k, q, c in field.terms():
        coeff = sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)
        mono = sympy.Integer(1)
        for m, e in q.items():
            mono *= xs[pos[m]] ** e
        comps[pos[k]] += coeff * mono
    return comps


class TestVectorFieldBasics:
    def test_validation(self, ctx6):
        with pytest.raises(NormalFormError):
            VectorField(ctx6, [(Mode(9, 1), MultiIndex.unit(fin(1)), 1)])
        with pytest.raises(NormalFormError, match="exponent - must be nonnegative, nonzero"):
            VectorField(ctx6, [(fin(1), ZERO_INDEX, 1)])
        with pytest.raises(NormalFormError):
            VectorField(ctx6, [(fin(1), mi((1, 1, 10)), 1)])

    def test_momentum_validation(self, wave_ctx):
        k = Mode(2, 1)
        good = mi((1, 1, 2))  # momentum 2 == momentum of k
        VectorField(wave_ctx, [(k, good, 1)])
        bad = mi((1, 1, 1))
        with pytest.raises(NormalFormError):
            VectorField(wave_ctx, [(k, bad, 1)])

    def test_linear_ops_and_order(self, ctx6):
        x = VectorField(ctx6, [(fin(1), MultiIndex.unit(fin(2)), 2)])
        y = VectorField(ctx6, [(fin(1), mi((2, 1, 2)), 1)])
        s = x + y
        assert s.order() == 0
        assert s.max_order() == 1
        assert (s - x) == y
        assert s.scale(Fraction(1, 2)).coefficient(fin(1), MultiIndex.unit(fin(2))) == GaussianRational(1)
        assert VectorField.zero(ctx6).order() is None

    def test_cancellation_drops_terms(self, ctx6):
        q = MultiIndex.unit(fin(2))
        x = VectorField(ctx6, [(fin(1), q, 1)])
        z = x - x
        assert z.is_zero
        assert z.term_count() == 0

    def test_project_degree_partitions(self, ctx6):
        rng = random.Random(3)
        x = random_field(ctx6, rng, 12, max_order=3)
        parts = [x.project_degree(d) for d in range(0, 9)]
        total = VectorField.zero(ctx6)
        for p in parts:
            total = total + p
        assert total == x
        for d, p in enumerate(parts):
            assert p.project_degree(d) == p
            for other in range(0, 9):
                if other != d and not p.is_zero:
                    assert p.project_degree(other).is_zero

    def test_split_diagonal(self, ctx6):
        diag_term = (fin(2), mi((2, 1, 1), (3, 1, 1)), 1)
        out_term = (fin(1), mi((2, 1, 2)), 1)
        x = VectorField(ctx6, [diag_term, out_term])
        diag, rest = x.split_diagonal()
        assert diag.term_count() == 1
        assert diag.coefficient(*diag_term[:2]) == GaussianRational(1)
        assert rest.coefficient(*out_term[:2]) == GaussianRational(1)
        assert diag + rest == x

    def test_map_coefficients(self, ctx6):
        x = VectorField(ctx6, [(fin(1), MultiIndex.unit(fin(2)), 2)])
        halved = x.map_coefficients(lambda k, q, c: c / 2)
        assert halved.coefficient(fin(1), MultiIndex.unit(fin(2))) == GaussianRational(1)
        killed = x.map_coefficients(lambda k, q, c: 0)
        assert killed.is_zero

    def test_as_float(self, ctx6):
        x = VectorField(ctx6, [(fin(1), MultiIndex.unit(fin(2)), Fraction(1, 4))])
        xf = x.as_float()
        assert not xf.ctx.exact
        assert xf.coefficient(fin(1), MultiIndex.unit(fin(2))) == 0.25 + 0j

    def test_lines_round_trip(self, ctx6, ctx6f):
        rng = random.Random(11)
        x = random_field(ctx6, rng, 10, max_order=3)
        assert VectorField.from_lines(ctx6, x.to_lines()) == x
        xf = x.as_float()
        assert VectorField.from_lines(ctx6f, xf.to_lines()) == xf

    def test_lines_are_sorted_deterministically(self, ctx6):
        rng = random.Random(5)
        x = random_field(ctx6, rng, 8)
        lines = x.to_lines()
        # order is reproducible and canonical: rebuilding gives same lines
        assert VectorField.from_lines(ctx6, lines).to_lines() == lines
        # shuffled input produces identical canonical output
        shuffled = list(reversed(x.terms()))
        assert VectorField(ctx6, shuffled).to_lines() == lines

    def test_context_mismatch(self, ctx6, ctx6f):
        x = VectorField.zero(ctx6)
        y = VectorField.zero(ctx6f)
        with pytest.raises(ContextMismatch):
            x + y


class TestDerivations:
    def test_lie_derivative_manual(self, ctx6):
        # X = x2 d/dx1 applied to f = x1^2 gives 2 x1 x2
        x = VectorField(ctx6, [(fin(1), MultiIndex.unit(fin(2)), 1)])
        f = ScalarSeries(ctx6, [(mi((1, 1, 2)), 1)])
        lf = lie_derivative(x, f)
        assert lf.terms() == [(mi((1, 1, 1), (2, 1, 1)), GaussianRational(2))]

    def test_bracket_manual(self, ctx6):
        # [x2 d1, x1 d2] = x2 d2 - x1 d1  (a rotation generator identity)
        a = VectorField(ctx6, [(fin(1), MultiIndex.unit(fin(2)), 1)])
        b = VectorField(ctx6, [(fin(2), MultiIndex.unit(fin(1)), 1)])
        c = bracket(a, b)
        assert c.coefficient(fin(2), MultiIndex.unit(fin(2))) == GaussianRational(1)
        assert c.coefficient(fin(1), MultiIndex.unit(fin(1))) == GaussianRational(-1)
        assert c.term_count() == 2

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_bracket_matches_symbolic_oracle(self, seed):
        ctx = TruncationContext(4, 8)
        rng = random.Random(seed)
        x = random_field(ctx, rng, 6, max_order=2)
        y = random_field(ctx, rng, 6, max_order=2)
        z = bracket(x, y)

        xs = sympy.symbols("x0:4")
        pos = {m: i for i, m in enumerate(ctx.modes())}
        xc = field_to_sympy(x, xs, pos)
        yc = field_to_sympy(y, xs, pos)
        zc = field_to_sympy(z, xs, pos)
        for j in range(4):
            expect = sympy.Integer(0)
            for k in range(4):
                expect += xc[k] * sympy.diff(yc[j], xs[k])
                expect -= yc[k] * sympy.diff(xc[j], xs[k])
            assert sympy.expand(zc[j] - expect) == 0

    def test_bracket_antisymmetry_and_jacobi(self):
        ctx = TruncationContext(3, 9)
        rng = random.Random(99)
        x = random_field(ctx, rng, 5, max_order=2)
        y = random_field(ctx, rng, 5, max_order=2)
        z = random_field(ctx, rng, 5, max_order=2)
        assert bracket(x, y) == -bracket(y, x)
        jac = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert jac.is_zero

    def test_leibniz_rule(self, ctx6):
        rng = random.Random(7)
        x = random_field(ctx6, rng, 5, max_order=1)
        f = ScalarSeries(ctx6, [(mi((1, 1, 1)), 2), (mi((2, 1, 1), (3, 1, 1)), 1)])
        g = ScalarSeries(ctx6, [(mi((4, 1, 1)), 1), (ZERO_INDEX, 3)])
        left = x.lie_derivative(f.mul(g))
        right = x.lie_derivative(f).mul(g) + f.mul(x.lie_derivative(g))
        assert left == right

    def test_bracket_conserves_momentum(self, wave_ctx):
        rng = random.Random(13)
        terms = []
        modes = wave_ctx.modes()
        while len(terms) < 6:
            k = rng.choice(modes)
            deg = rng.randint(1, 2)
            entries = {}
            for _ in range(deg):
                m = rng.choice(modes)
                entries[m] = entries.get(m, 0) + 1
            q = MultiIndex(entries)
            if q.momentum_sum == k.sigma * k.j:
                terms.append((k, q, GaussianRational(1, 1)))
        x = VectorField(wave_ctx, terms[:3])
        y = VectorField(wave_ctx, terms[3:])
        z = bracket(x, y)
        # constructing a field re-validates momentum for every term
        again = VectorField(wave_ctx, z.terms())
        assert again == z

    def test_bracket_drops_out_of_window_terms(self):
        ctx = TruncationContext(2, 2)
        x = VectorField(ctx, [(fin(1), mi((1, 1, 2), (2, 1, 1)), 1)])  # order 2
        y = VectorField(ctx, [(fin(2), mi((2, 1, 2), (1, 1, 1)), 1)])  # order 2
        z = bracket(x, y)
        assert z.is_zero  # order-4 output exceeds the window entirely

    def test_pointwise_bracket_oracle(self):
        rng = random.Random(21)
        exact_ctx = TruncationContext(6, 8)
        x = random_field(exact_ctx, rng, 6, max_order=2).as_float()
        y = random_field(exact_ctx, rng, 6, max_order=2).as_float()
        z = x.bracket(y)
        pt = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for _ in range(6)]
        direct = z.evaluate(pt)
        # finite-difference directional derivative: (DY)X - (DX)Y
        h = 1e-6
        approx = [0j] * 6
        xv = x.evaluate(pt)
        yv = y.evaluate(pt)
        for i in range(6):
            bumped_p = list(pt)
            bumped_m = list(pt)
            bumped_p[i] += h
            bumped_m[i] -= h
            dy = [(a - b) / (2 * h) for a, b in zip(y.evaluate(bumped_p), y.evaluate(bumped_m))]
            dx = [(a - b) / (2 * h) for a, b in zip(x.evaluate(bumped_p), x.evaluate(bumped_m))]
            for j in range(6):
                approx[j] += xv[i] * dy[j] - yv[i] * dx[j]
        for j in range(6):
            assert direct[j] == pytest.approx(approx[j], abs=2e-4)


class TestMajorantNorm:
    def test_identity_direction_norm_one(self, ctx6f):
        k = fin(3)
        x = VectorField(ctx6f, [(k, MultiIndex.unit(k), 1.0)])
        assert x.majorant_norm(0.5, 0.3) == pytest.approx(1.0)

    def test_single_offdiagonal_term(self, ctx6f):
        # x1^2 d/dx2 with weights <1>=1, <2>=2
        theta = ctx6f.theta
        r, s = 0.5, 0.25
        x = VectorField(ctx6f, [(fin(2), mi((1, 1, 2)), 1.0)])
        gap = 2 * 1 ** theta - 2 ** theta
        expect = r * (2 / 1) ** 2 * math.exp(-s * gap)
        assert x.majorant_norm(r, s) == pytest.approx(expect, rel=1e-12)

    def test_two_directions_l2_combination(self, ctx6f):
        x = VectorField(
            ctx6f,
            [(fin(1), MultiIndex.unit(fin(1)), 3.0), (fin(2), MultiIndex.unit(fin(2)), 4.0)],
        )
        assert x.majorant_norm(1.0, 0.0) == pytest.approx(5.0)

    @pytest.mark.parametrize("arithmetic", ["exact", "float"])
    @pytest.mark.parametrize("seed", [17, 18])
    def test_matches_weighted_sum_oracle(self, arithmetic, seed):
        rng = random.Random(seed)
        x = random_field(TruncationContext(6, 8), rng, 15, max_order=3)
        if arithmetic == "float":
            x = x.as_float()
        r, s, theta = 0.3, 0.1, x.ctx.theta
        columns = {}
        for k, q, c in x.terms():
            columns[k] = columns.get(k, 0.0) + abs(complex(c)) * norm_weight(
                q, k, r, s, theta
            )
        expect = math.sqrt(sum(col * col for col in columns.values()))
        assert expect > 0
        assert x.majorant_norm(r, s) == pytest.approx(expect, rel=1e-12)

    def test_exact_context_norms_work(self, ctx6):
        x = VectorField(ctx6, [(fin(1), MultiIndex.unit(fin(1)), Fraction(1, 2))])
        assert x.majorant_norm(1.0, 0.0) == pytest.approx(0.5)
