"""Tests for the exact resonance-structure enumeration."""

import gc
import math
import tracemalloc
from fractions import Fraction

import pytest

from helpers import dim4_model, dim6_model, nls_model
from resnf.errors import (
    CutoffTooSmall,
    ModelError,
    NormalFormError,
    UniqueFactorizationViolation,
)
from resnf.fields import GaussianRational, VectorField
from resnf.indexing import Mode, MultiIndex, TruncationContext
from resnf.resonance import (
    MIDDLE_CAP,
    FrequencyModel,
    diophantine_audit,
    enumerate_resonance,
    resonance_split,
    small_divisor_audit,
    split_ideals,
)


def fin(label: int) -> Mode:
    return Mode(label, 1)


def mi(*pairs) -> MultiIndex:
    return MultiIndex(tuple((m, e) for m, e in pairs))


E1, E2, E3, E4, E5, E6 = (MultiIndex.unit(fin(i)) for i in range(1, 7))
Q1 = E3 + E4
Q2 = E5 + E6


@pytest.fixture(scope="module")
def six_module():
    ctx = TruncationContext(6, 8, momentum_enabled=False, arithmetic="exact")
    return enumerate_resonance(ctx, dim6_model())


@pytest.fixture(scope="module")
def four_module():
    ctx = TruncationContext(4, 8, momentum_enabled=False, arithmetic="exact")
    return enumerate_resonance(ctx, dim4_model())


@pytest.fixture(scope="module")
def gauge_module():
    ctx = TruncationContext(2, 5, momentum_enabled=True, arithmetic="exact")
    return enumerate_resonance(ctx, nls_model(2))


class TestFrequencyModel:
    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ModelError, match="duplicate"):
            FrequencyModel("bad", [("a", Fraction(1)), ("a", Fraction(2))], {})

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ModelError, match="unknown symbol"):
            FrequencyModel(
                "bad", [("a", Fraction(1))], {fin(1): {"nope": 1}}
            )

    def test_unknown_symbol_message_names_the_mode(self):
        with pytest.raises(ModelError, match=r"unknown symbol 'nope' for mode 1\+$"):
            FrequencyModel(
                "bad", [("a", Fraction(1))], {fin(1): {"nope": 1}}
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_symbol_value_rejected(self, value):
        with pytest.raises(ModelError, match=r"symbol 'b' has the non-finite value"):
            FrequencyModel(
                "bad", [("a", 1.5), ("b", value)], {fin(1): {"a": 1, "b": 1}}
            )

    def test_validate_missing_mode(self, ctx6):
        with pytest.raises(ModelError, match="no eigenvalue"):
            dim4_model().validate(ctx6)

    def test_validate_zero_eigenvalue(self):
        model = FrequencyModel(
            "degenerate", [("a", Fraction(1))], {fin(1): {"a": 0}}
        )
        with pytest.raises(ModelError, match="zero"):
            model.validate(TruncationContext(1, 2))

    @pytest.mark.parametrize("one", [Fraction(1), 1.0, 0.1])
    def test_eigenvalue_that_cancels_to_zero(self, one):
        """A nonempty key whose exact value is 0 (``a - b`` with ``a = b``,
        floats read as the binary fractions they are) is a zero eigenvalue."""
        model = FrequencyModel(
            "cancel", [("a", one), ("b", one)], {fin(1): {"a": 1, "b": -1}, fin(2): {"a": 1}}
        )
        for arithmetic in ("exact", "float"):
            ctx = TruncationContext(2, 3, arithmetic=arithmetic)
            with pytest.raises(ModelError, match=r"eigenvalue of mode 1\+ is zero"):
                model.validate(ctx)
            with pytest.raises(ModelError, match=r"eigenvalue of mode 1\+ is zero"):
                model.linear_field(ctx)

    def test_exact_capability(self):
        assert dim6_model().exact_capable
        floaty = FrequencyModel(
            "floaty", [("rt2", math.sqrt(2))], {fin(1): {"rt2": 1}}
        )
        assert not floaty.exact_capable
        exact = TruncationContext(1, 2, arithmetic="exact")
        with pytest.raises(ModelError, match="irrational"):
            floaty.linear_field(exact)
        with pytest.raises(ModelError, match="irrational"):
            floaty.divisor_value(E1 + E1, fin(1), exact)

    def test_eigenvalues(self, ctx6):
        model = dim6_model()
        linear = model.linear_field(ctx6)
        assert linear.coefficient(fin(1), MultiIndex.unit(fin(1))) == GaussianRational(2)
        assert linear.coefficient(fin(3), MultiIndex.unit(fin(3))) == GaussianRational(Fraction(1393, 985))
        assert model.eigenvalue_complex(fin(4)) == pytest.approx(-1393 / 985)
        with pytest.raises(ModelError, match="not covered"):
            model.eigenvalue_complex(Mode(7, 1))
        with pytest.raises(ModelError, match="not covered"):
            model.is_resonant_pair(E1, Mode(7, 1))

    def test_combination_and_divisor(self, ctx6):
        model = dim6_model()
        # lambda . (2 e2 - e1) = 2*1 - 2 = 0, seen on the symbols alone
        assert model.is_resonant_combination(mi((fin(2), 2), (fin(1), -1)))
        assert model.is_resonant_pair(E2 + E2, fin(1))
        assert model.is_resonant_pair(Q1 + E1, fin(1))
        assert model.is_resonant_pair(E1, fin(1))
        assert not model.is_resonant_pair(E2, fin(1))
        assert model.divisor_value(E2 + E2, fin(1), ctx6).is_zero
        assert model.divisor_value(E2, fin(1), ctx6) == GaussianRational(-1)

    def test_gauge_pair_coordinates(self):
        model = nls_model(1)
        up = model.eigenvalue_complex(Mode(1, 1))
        down = model.eigenvalue_complex(Mode(1, -1))
        assert up == pytest.approx(complex(0, 1 + 1 / 11))
        assert down == pytest.approx(-up)

    def test_asymptotic_shape(self):
        model = nls_model(1)
        declared = model.asymptotic_eigenvalue(Mode(1, 1))
        assert declared == pytest.approx(complex(0, 1))
        # without a declared shape the eigenvalue itself is used
        plain = dim6_model()
        assert plain.asymptotic_eigenvalue(fin(1)) == pytest.approx(2.0)

    def test_linear_field(self, ctx6):
        field = dim6_model().linear_field(ctx6)
        assert field.order() == 0
        assert field.coefficient(fin(2), E2) == GaussianRational(1)
        assert field.term_count() == 6


class TestSixVariableModule:
    def test_generators(self, six_module):
        assert six_module.q_generators == (Q1, Q2)
        assert six_module.M == 2

    def test_translates(self, six_module):
        gens = {k: v for k, v in six_module.p_generators.items() if v}
        assert set(gens) == {fin(1)}
        assert gens[fin(1)] == (mi((fin(1), -1), (fin(2), 2)),)
        assert six_module.M1 == 2

    def test_orders(self, six_module):
        assert six_module.m_star_bound == 6
        assert six_module.m_star_minimal == 4

    def test_violation_ladder(self, six_module):
        scalings = {s for s, _, _ in six_module.violations}
        assert scalings == {0, 1, 2, 3}
        assert (0, E1, fin(1)) in six_module.violations

    def test_window_counts(self, six_module):
        assert len(six_module.module_elements) == 14
        assert six_module.resonant_pair_count == 70

    def test_classify(self, six_module):
        assert six_module.classify(E1) == 0
        assert six_module.classify(Q1) == 1
        assert six_module.classify(Q1 + E2 + E2) == 1
        assert six_module.classify(Q1 + Q2) == 2
        assert six_module.classify(Q1 + Q1 + E1) == 2

    def test_classify_monotone_under_generators(self, six_module):
        for q in (E1, Q1, Q2 + E2):
            grown = six_module.classify(q + Q1)
            assert grown >= min(2, six_module.classify(q) + 1)

    def test_split_ideals_partition(self, six_module, ctx6):
        field = VectorField(
            ctx6,
            (
                (fin(1), E1, GaussianRational(2)),
                (fin(2), Q1 + E2, GaussianRational(1, 1)),
                (fin(3), Q1 + Q2 + E3, GaussianRational(-1)),
                (fin(5), E1 + E2 + E3, GaussianRational(1, -2)),
            ),
        )
        x0, x1, x2 = split_ideals(field, six_module)
        assert x0 + x1 + x2 == field
        assert (x0.term_count(), x1.term_count(), x2.term_count()) == (2, 1, 1)
        for part, want in ((x0, 0), (x1, 1), (x2, 2)):
            for _, q, _ in part.terms():
                assert six_module.classify(q) == want

    def test_summary_fields(self, six_module):
        info = six_module.summary()
        assert info["M"] == 2 and info["M1"] == 2
        assert info["m_star_bound"] == 6 and info["m_star_minimal"] == 4
        assert info["q_generators"] == ["3+^1 4+^1", "5+^1 6+^1"]
        assert "window" in info["window_note"]

    def test_float_model_agrees(self, ctx6f):
        """True irrational frequencies (float path) certify the same
        structure as the rational stand-ins."""
        symbols = [("one", 1.0), ("zeta1", math.sqrt(2)), ("zeta2", math.sqrt(3))]
        coords = {
            fin(1): {"one": 2},
            fin(2): {"one": 1},
            fin(3): {"zeta1": 1},
            fin(4): {"zeta1": -1},
            fin(5): {"zeta2": 1},
            fin(6): {"zeta2": -1},
        }
        module = enumerate_resonance(
            ctx6f, FrequencyModel("dim6f", symbols, coords)
        )
        assert module.q_generators == (Q1, Q2)
        assert module.m_star_minimal == 4


class TestFourVariableModule:
    def test_structure(self, four_module):
        assert four_module.q_generators == (Q1,)
        assert four_module.p_generators[fin(1)] == (
            mi((fin(1), -1), (fin(2), 2)),
        )
        assert four_module.M == 2 and four_module.M1 == 2
        assert four_module.m_star_bound == 6

    def test_minimal_order(self, four_module):
        # every resonant pair in the window is absorbed by two generators
        # from degree 4 on; the scan certifies the cutoff 4 (the stricter
        # claim of 5 is re-examined by the acceptance suite).
        assert {s for s, _, _ in four_module.violations} == {0, 1, 2, 3}
        assert four_module.m_star_minimal == 4


class TestGaugePairedModule:
    def test_pair_generators(self, gauge_module):
        expected = {
            MultiIndex(((Mode(j, 1), 1), (Mode(j, -1), 1)))
            for j in range(-2, 3)
        }
        assert set(gauge_module.q_generators) == expected
        assert gauge_module.M == 2

    def test_no_translates(self, gauge_module):
        """The signed translate lattice coincides with the nonnegative
        one: no direction needs extra generators."""
        assert all(not v for v in gauge_module.p_generators.values())
        assert gauge_module.M1 == 0

    def test_orders(self, gauge_module):
        assert gauge_module.m_star_bound == 4
        assert gauge_module.m_star_minimal == 3
        assert max(s for s, _, _ in gauge_module.violations) == 2

    def test_elements_conserve_momentum(self, gauge_module):
        assert all(q.momentum_sum == 0 for q in gauge_module.module_elements)

    def test_classify(self, gauge_module):
        pair = MultiIndex(((Mode(1, 1), 1), (Mode(1, -1), 1)))
        other = MultiIndex(((Mode(-2, 1), 1), (Mode(-2, -1), 1)))
        assert gauge_module.classify(pair) == 1
        assert gauge_module.classify(pair + MultiIndex.unit(Mode(0, 1))) == 1
        assert gauge_module.classify(pair + other) == 2

    def test_lookup_walk_peak_memory(self):
        """nls N=4 D=5 (18 modes, window 6, 19 targets) splits its modes
        after the fourteenth, where the table cap binds (without it the
        split would be 13, with an 8,778-entry table): the suffix table
        holds 3,990 entries, and the 38,760 prefix indices of a two-part
        split are an outer walk of the 5,005 indices of the first 9 modes
        over the middle lists of the 462 indices of the next 5.  They stand
        for the 134,596-index window.  The enumeration peaks at about 0.31
        MB of traced allocations; a window kept in memory would take tens
        of MB.  As in the lattice test below, a full collection runs before
        the warm-up, so that none empties the free lists inside the
        trace."""
        ctx = TruncationContext(4, 5, momentum_enabled=True)
        model = nls_model(4)
        targets = {model._scaled(model._table[k]) for k in ctx.modes()} | {(0, 0)}
        split = resonance_split(18, 6, len(targets))
        outer = resonance_split(split, 6, 1, MIDDLE_CAP)
        assert (outer, split) == (9, 14)
        assert math.comb(outer + 6, 6) == 5_005
        assert math.comb(split - outer + 6, 6) == 462
        assert len(targets) * math.comb(18 - split + 6, 6) == 3_990
        assert math.comb(split + 6, 6) == 38_760
        gc.collect()
        enumerate_resonance(ctx, model)
        tracemalloc.start()
        try:
            module = enumerate_resonance(ctx, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(module.module_elements) == 54
        assert peak <= 450_000

    def test_lattice_split_and_peak_memory(self):
        """The benchmark's lattice, nls N=4 D=6 (18 modes, window 7, 19
        targets), walks the 19,448 outer indices of its first 10 modes; the
        middle lists hold the 792 indices of the next 5 and the suffix table
        the 2,280 entries of the last 3 (120 indices per target).  They
        stand for the 170,544 prefix indices that a two-part split walks,
        of the 480,700-index window.  The enumeration peaks at about 0.41
        MB of traced allocations.  A full collection empties the free lists,
        and objects that refill them inside the trace count as allocated
        (0.78 MB after one), so it runs before the warm-up, not between."""
        ctx = TruncationContext(4, 6, momentum_enabled=True)
        model = nls_model(4)
        targets = {model._scaled(model._table[k]) for k in ctx.modes()} | {(0, 0)}
        split = resonance_split(18, 7, len(targets))
        outer = resonance_split(split, 7, 1, MIDDLE_CAP)
        assert (outer, split) == (10, 15)
        assert math.comb(outer + 7, 7) == 19_448
        assert math.comb(split - outer + 7, 7) == 792
        assert len(targets) * math.comb(18 - split + 7, 7) == 2_280
        assert math.comb(split + 7, 7) == 170_544
        gc.collect()
        enumerate_resonance(ctx, model)
        tracemalloc.start()
        try:
            module = enumerate_resonance(ctx, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(module.module_elements), module.resonant_pair_count) == (219, 990)
        assert peak <= 450_000


class TestHypothesisFailures:
    def test_ambiguous_factorization_detected(self):
        """Eigenvalues (1, -1, 2, -2): the element x1^2 x2^2 x3 x4 splits
        both as (e1+e2)+(e1+e2)+(e3+e4) and as (2e1+e4)+(2e2+e3)."""
        model = FrequencyModel(
            "ambiguous",
            [("one", Fraction(1))],
            {
                fin(1): {"one": 1},
                fin(2): {"one": -1},
                fin(3): {"one": 2},
                fin(4): {"one": -2},
            },
        )
        ctx = TruncationContext(4, 6, arithmetic="exact")
        with pytest.raises(UniqueFactorizationViolation, match="factorizations"):
            enumerate_resonance(ctx, model)

    def test_generator_on_window_boundary(self):
        model = FrequencyModel(
            "tight",
            [("one", Fraction(1))],
            {fin(1): {"one": 1}, fin(2): {"one": -1}},
        )
        with pytest.raises(CutoffTooSmall, match="generator"):
            enumerate_resonance(TruncationContext(2, 2, arithmetic="exact"), model)

    def test_translate_on_window_boundary(self):
        model = FrequencyModel(
            "tight-translate",
            [("one", Fraction(1))],
            {fin(1): {"one": 3}, fin(2): {"one": 1}},
        )
        with pytest.raises(CutoffTooSmall, match="translate"):
            enumerate_resonance(TruncationContext(2, 3, arithmetic="exact"), model)

    def test_dependent_values_detected_exact(self):
        """Symbols declared independent but sharing one value: the
        numeric audit sees a vanishing the symbols deny."""
        model = FrequencyModel(
            "dependent",
            [("a", Fraction(1)), ("b", Fraction(1))],
            {fin(1): {"a": 1}, fin(2): {"b": 1}},
        )
        with pytest.raises(ModelError, match="disagree"):
            enumerate_resonance(TruncationContext(2, 2, arithmetic="exact"), model)

    def test_dependent_values_detected_float(self):
        model = FrequencyModel(
            "dependent-float",
            [("a", 1.0), ("b", 1.0 + 1e-13)],
            {fin(1): {"a": 1}, fin(2): {"b": 1}},
        )
        with pytest.raises(ModelError, match="disagree"):
            enumerate_resonance(TruncationContext(2, 2, arithmetic="exact"), model)


class TestDiophantineAudit:
    def test_fast_path_is_exactly_brute_force(self, ctx6):
        model = dim6_model()
        fast = diophantine_audit(model, ctx6, 2.0, 4, use_fast_path=True)
        slow = diophantine_audit(model, ctx6, 2.0, 4, use_fast_path=False)
        assert fast.gamma_max == slow.gamma_max
        assert fast.worst_p == slow.worst_p
        assert fast.enumerated_count == slow.enumerated_count
        assert fast.fast_path_hits > 0 and slow.fast_path_hits == 0

    def test_gauge_paired_fast_path(self):
        ctx = TruncationContext(2, 5, momentum_enabled=True, arithmetic="exact")
        model = nls_model(2)
        fast = diophantine_audit(model, ctx, 2.0, 4, use_fast_path=True)
        slow = diophantine_audit(model, ctx, 2.0, 4, use_fast_path=False)
        assert fast.gamma_max == slow.gamma_max
        assert fast.worst_p == slow.worst_p
        assert fast.fast_path_hits > 0

    def test_momentum_conserving_worst_case(self):
        """Under momentum bookkeeping the scan only sees conserving
        combinations, and the reported minimum is reproducible."""
        ctx = TruncationContext(1, 4, momentum_enabled=True, arithmetic="exact")
        model = nls_model(1)
        report = diophantine_audit(model, ctx, 2.0, 3)
        p = report.worst_p
        assert p.momentum_sum == 0
        weighted = abs(sum(model.eigenvalue_complex(k) * e for k, e in p.items()))
        for m, e in p.items():
            weighted *= (1 + e * e * max(abs(m.j), 1) ** 2) ** 2.0
        assert report.gamma_max == pytest.approx(weighted)

    def test_resonant_combinations_excluded(self, ctx6):
        report = diophantine_audit(dim6_model(), ctx6, 2.0, 3)
        assert report.worst_p is not None
        assert not dim6_model().is_resonant_combination(report.worst_p)
        assert report.gamma_max > 0
        assert not report.unconstrained

    def test_inconsistent_declared_shape_raises(self):
        """A declared asymptotic shape far above the true eigenvalues
        trips the fast-path soundness assertion."""
        model = FrequencyModel(
            "inflated",
            [("s", Fraction(1, 10))],
            {Mode(1, 1): {"s": 3}, Mode(2, 1): {"s": 1}},
            alpha=3.0,
            phases={Mode(2, 1): 0.0},
        )
        ctx = TruncationContext(2, 3, arithmetic="exact")
        with pytest.raises(ModelError, match="fast-path"):
            diophantine_audit(model, ctx, 2.0, 2)

    def test_report_dict(self, ctx6):
        info = diophantine_audit(dim6_model(), ctx6, 2.0, 3).as_dict()
        assert info["tau"] == 2.0
        assert info["degree_bound"] == 3
        assert isinstance(info["worst_p"], str)


class TestSmallDivisorAudit:
    def test_rows_sorted_with_envelope(self, ctx6):
        report = small_divisor_audit(dim6_model(), ctx6, [1.0, 0.5, 0.25])
        deltas = [row.delta for row in report.rows]
        assert deltas == sorted(deltas)
        assert report.enumerated_count > 0
        for row in report.rows:
            assert row.implied_constant == pytest.approx(
                row.max_value * math.exp(-1.0 / row.delta**6)
            )

    def test_monotone_on_conserving_class(self, wave_ctx):
        """With momentum bookkeeping every audited gap is nonnegative,
        so the worst weighted divisor shrinks as delta grows."""
        report = small_divisor_audit(nls_model(2), wave_ctx, [1.0, 0.5, 0.25])
        assert report.monotone_in_delta
        maxima = [row.max_value for row in report.rows]
        assert maxima == sorted(maxima, reverse=True)

    def test_positive_delta_required(self, ctx6):
        with pytest.raises(NormalFormError, match="positive"):
            small_divisor_audit(dim6_model(), ctx6, [0.5, 0.0])

    def test_case0_chain(self):
        """On weight-one support the closed-form chain holds with the
        audited Diophantine constant."""
        ctx = TruncationContext(2, 5, momentum_enabled=True, arithmetic="exact")
        model = nls_model(2)
        gamma = diophantine_audit(model, ctx, 2.0, 7).gamma_max
        report = small_divisor_audit(model, ctx, [0.5, 1.0], gamma=gamma)
        assert report.case0_checked > 0
        assert report.case0_passed
        assert report.passed

    def test_case0_finite_dimensional(self, ctx6):
        model = dim6_model()
        gamma = diophantine_audit(model, ctx6, 2.0, 9).gamma_max
        report = small_divisor_audit(model, ctx6, [0.75], gamma=gamma)
        assert report.case0_checked > 0
        assert report.case0_passed

    def test_report_dict(self, ctx6):
        info = small_divisor_audit(dim6_model(), ctx6, [0.5]).as_dict()
        assert info["case0_checked"] == 0
        assert info["monotone_in_delta"] is True
        assert len(info["rows"]) == 1
