"""Unit tests for modes, multi-indices and truncation contexts."""

import dataclasses
import math
import random

import pytest

from resnf.errors import NormalFormError
from resnf.indexing import (
    Mode,
    MultiIndex,
    TruncationContext,
    ZERO_INDEX,
    format_mode,
    iter_indices,
    mode_momentum,
    mode_weight,
    norm_weight,
    parse_mode,
    rearranged_weights,
    smoothing_gap,
)


def mi(*pairs):
    return MultiIndex([(Mode(j, s), e) for (j, s, e) in pairs])


class TestMode:
    def test_weight_clamps_small_labels(self):
        assert mode_weight(Mode(0, 1)) == 1
        assert mode_weight(Mode(1, -1)) == 1
        assert mode_weight(Mode(-3, 1)) == 3
        assert mode_weight(Mode(7, -1)) == 7

    def test_momentum_is_signed_label(self):
        assert mode_momentum(Mode(4, 1)) == 4
        assert mode_momentum(Mode(4, -1)) == -4
        assert mode_momentum(Mode(-2, -1)) == 2
        assert mode_momentum(Mode(0, -1)) == 0

    def test_format_parse_round_trip(self):
        for k in (Mode(3, 1), Mode(-2, -1), Mode(0, 1), Mode(11, -1)):
            assert parse_mode(format_mode(k)) == k

    def test_parse_rejects_garbage(self):
        for bad in ("", "3", "x+", "3*", "++"):
            with pytest.raises(NormalFormError):
                parse_mode(bad)


class TestMultiIndex:
    def test_merges_and_drops_zeros(self):
        q = MultiIndex([(Mode(1, 1), 2), (Mode(1, 1), -2), (Mode(2, 1), 3)])
        assert q == mi((2, 1, 3))
        assert q.get(Mode(1, 1)) == 0
        assert q.degree == 3

    def test_degree_l1_momentum(self):
        q = mi((2, 1, 1), (2, -1, 2), (-1, 1, 1))
        assert q.degree == 4
        assert q.l1 == 4
        # momentum: +2*1 + (-2)*2 + (-1)*1 = -3
        assert q.momentum_sum == -3
        p = q - mi((2, 1, 2))
        assert p.l1 == 4
        assert p.degree == 2
        assert not p.is_nonnegative
        assert p.negative_entries() == ((Mode(2, 1), -1),)

    def test_addition_is_entrywise(self):
        a = mi((1, 1, 1), (2, 1, 2))
        b = mi((2, 1, 1), (3, 1, 4))
        assert a + b == mi((1, 1, 1), (2, 1, 3), (3, 1, 4))
        assert (a + b) - b == a
        assert -a + a == ZERO_INDEX

    def test_contains_is_componentwise(self):
        big = mi((1, 1, 2), (2, 1, 1))
        assert big.contains(mi((1, 1, 1)))
        assert big.contains(big)
        assert big.contains(ZERO_INDEX)
        assert not big.contains(mi((1, 1, 3)))
        assert not big.contains(mi((3, 1, 1)))

    def test_unit_and_add_unit(self):
        k = Mode(2, -1)
        assert MultiIndex.unit(k).get(k) == 1
        assert MultiIndex.unit(k).add_unit(k, -1) == ZERO_INDEX

    def test_sort_key_orders_by_l1_first(self):
        small = mi((5, 1, 1))
        large = mi((1, 1, 2))
        assert small.sort_key() < large.sort_key()

    def test_str_parse_round_trip(self):
        for q in (ZERO_INDEX, mi((1, 1, 2)), mi((-2, -1, 1), (3, 1, 2))):
            assert MultiIndex.parse(str(q)) == q

    def test_hashable_and_usable_as_dict_key(self):
        d = {mi((1, 1, 1)): "a", ZERO_INDEX: "b"}
        assert d[MultiIndex.unit(Mode(1, 1))] == "a"


class TestTruncationContext:
    def test_finite_mode_enumeration(self):
        ctx = TruncationContext(3, 4)
        assert ctx.modes() == (Mode(1, 1), Mode(2, 1), Mode(3, 1))
        assert not ctx.admits_mode(Mode(1, -1))
        assert not ctx.admits_mode(Mode(4, 1))
        assert not ctx.momentum_enabled

    def test_two_sided_mode_enumeration(self):
        ctx = TruncationContext(1, 4, momentum_enabled=True)
        assert set(ctx.modes()) == {
            Mode(0, 1),
            Mode(0, -1),
            Mode(1, 1),
            Mode(1, -1),
            Mode(-1, 1),
            Mode(-1, -1),
        }
        assert ctx.admits_mode(Mode(-1, -1))
        assert not ctx.admits_mode(Mode(2, 1))

    def test_degree_windows(self):
        ctx = TruncationContext(2, 3)
        assert ctx.allows_scalar_key(mi((1, 1, 3)))
        assert not ctx.allows_scalar_key(mi((1, 1, 4)))
        assert ctx.allows_field_key(mi((1, 1, 4)))
        assert not ctx.allows_field_key(mi((1, 1, 5)))
        assert not ctx.allows_field_key(ZERO_INDEX)

    def test_validation_errors(self):
        with pytest.raises(NormalFormError):
            TruncationContext(0, 3)
        with pytest.raises(NormalFormError):
            TruncationContext(2, 0)
        with pytest.raises(NormalFormError):
            TruncationContext(2, 3, theta=1.0)
        with pytest.raises(NormalFormError):
            TruncationContext(2, 3, arithmetic="symbolic")

    def test_zero_coeff_rules(self):
        exact = TruncationContext(2, 3, arithmetic="exact")
        floaty = exact.with_arithmetic("float")
        assert floaty.is_zero_coeff(1e-13)
        assert not floaty.is_zero_coeff(1e-11)
        from resnf.fields import GR_ZERO, GR_ONE

        assert exact.is_zero_coeff(GR_ZERO)
        assert not exact.is_zero_coeff(GR_ONE)

    def test_frozen(self):
        ctx = TruncationContext(2, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.theta = 0.25
        assert ctx.theta == 0.5

    def test_equal_contexts_compare_and_hash_equal(self):
        a = TruncationContext(2, 3, momentum_enabled=True, theta=0.25)
        b = TruncationContext(2.0, 3, momentum_enabled=1, theta="0.25")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != TruncationContext(2, 3, momentum_enabled=True)
        assert a != a.with_arithmetic("float")

    def test_with_arithmetic_keeps_other_fields(self):
        ctx = TruncationContext(2, 5, momentum_enabled=True, theta=0.3)
        floaty = ctx.with_arithmetic("float")
        assert floaty.arithmetic == "float"
        assert floaty.with_arithmetic("exact") == ctx
        for name in ("mode_cutoff", "degree_cutoff", "momentum_enabled", "theta"):
            assert getattr(floaty, name) == getattr(ctx, name)
        assert floaty.modes() == ctx.modes()


class TestWeights:
    def test_rearranged_weights_examples(self):
        v = mi((3, 1, 1), (2, -1, 1), (-1, 1, 1))
        assert rearranged_weights(v) == (3, 2, 1)
        assert rearranged_weights(mi((1, 1, 1), (0, 1, 1))) == (1, 1)
        assert rearranged_weights(mi((5, 1, 1), (2, 1, 3))) == (5, 2, 2, 2)

    def test_rearranged_weights_rejects_low_degree(self):
        with pytest.raises(NormalFormError):
            rearranged_weights(mi((3, 1, 1)))
        with pytest.raises(NormalFormError):
            rearranged_weights(mi((3, 1, 2)) - mi((3, 1, 1), (2, 1, 1)))

    def test_smoothing_gap_simple(self):
        theta = 0.5
        q = mi((4, 1, 1), (1, 1, 1))
        k = Mode(4, 1)
        assert smoothing_gap(q, k, theta) == pytest.approx(1.0)
        # transferring mass to the direction mode makes the gap smaller
        q2 = mi((9, 1, 1), (1, 1, 1))
        assert smoothing_gap(q2, Mode(9, 1), theta) == pytest.approx(1.0)
        assert smoothing_gap(q2, Mode(1, 1), theta) == pytest.approx(3.0)

    def test_norm_weight_formula(self):
        q = mi((2, 1, 1), (3, 1, 1))
        k = Mode(3, 1)
        r, s, theta = 0.5, 0.25, 0.5
        expect = (
            r ** (q.degree - 1)
            * (3 / (2 * 3)) ** 2
            * math.exp(-s * (2 ** theta + 3 ** theta - 3 ** theta))
        )
        assert norm_weight(q, k, r, s, theta) == pytest.approx(expect, rel=1e-14)

    def test_norm_weight_rejects_degree_zero(self):
        with pytest.raises(NormalFormError):
            norm_weight(ZERO_INDEX, Mode(1, 1), 0.5, 0.1, 0.5)


class TestSmoothingInequalities:
    """Structural inequalities behind the norm bookkeeping.

    For a nonnegative exponent ``v`` of degree >= 2 with rearranged
    weights ``n1 >= n2 >= ...`` arising from a momentum-conserving
    term, the largest weight is controlled by the sum of the others,
    and the theta-power sums dominate both the direction weight and a
    convexity correction.
    """

    @staticmethod
    def _random_conserving_pairs(count, seed):
        rng = random.Random(seed)
        ctx = TruncationContext(6, 7, momentum_enabled=True)
        modes = ctx.modes()
        pairs = []
        attempts = 0
        while len(pairs) < count and attempts < 40000:
            attempts += 1
            deg = rng.randint(1, 6)
            entries = {}
            for _ in range(deg):
                m = rng.choice(modes)
                entries[m] = entries.get(m, 0) + 1
            q = MultiIndex(entries)
            # pick a direction matching the momentum, if one exists
            for k in modes:
                if mode_momentum(k) == q.momentum_sum:
                    pairs.append((q, k))
                    break
        assert len(pairs) == count
        return pairs

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    def test_weight_inequalities_on_conserving_terms(self, theta):
        slack = 1e-9
        for q, k in self._random_conserving_pairs(250, seed=20240801):
            nhat = rearranged_weights(q.add_unit(k, 1))
            # largest weight never exceeds the sum of the others
            assert nhat[0] <= sum(nhat[1:]) + slack
            # theta-power sum dominates twice the top weight plus the
            # convexity-corrected tail
            lhs = sum(w ** theta for w in nhat)
            rhs = 2 * nhat[0] ** theta + (2 - 2 ** theta) * sum(
                w ** theta for w in nhat[2:]
            )
            assert lhs >= rhs - slack

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    def test_weight_ratio_monotone_in_smoothing(self, theta):
        """Increasing the smoothing parameter never increases the weight:
        c_{r,s+delta} / c_{r,s} <= 1 on momentum-conserving terms."""
        for q, k in self._random_conserving_pairs(250, seed=4815162342):
            base = norm_weight(q, k, 0.5, 0.3, theta)
            bumped = norm_weight(q, k, 0.5, 0.3 + 0.2, theta)
            assert bumped <= base * (1 + 1e-12)

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    def test_gap_nonnegative_on_conserving_terms(self, theta):
        """The smoothing exponent is nonnegative for every stored term:
        sum of theta-weights of the numerator dominates the direction."""
        slack = 1e-9
        for q, k in self._random_conserving_pairs(300, seed=91722):
            assert smoothing_gap(q, k, theta) >= -slack


class TestIteration:
    def test_iter_indices_counts(self):
        ctx = TruncationContext(3, 4)
        found = list(iter_indices(ctx.modes(), 2))
        # multisets of size <= 2 over 3 symbols: 1 + 3 + 6
        assert len(found) == 10
        assert len(set(found)) == 10
        assert all(q.degree <= 2 for q in found)

    def test_iter_indices_min_degree(self):
        ctx = TruncationContext(2, 4)
        found = list(iter_indices(ctx.modes(), 3, min_degree=2))
        assert all(2 <= q.degree <= 3 for q in found)
        # C(3,1)=3 of degree 2 ... over 2 symbols: deg2 -> 3, deg3 -> 4
        assert len(found) == 7

