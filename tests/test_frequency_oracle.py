"""Differential oracle for the integer-key frequency model.

``CoordModel`` keeps the dict-of-Gaussian-rationals representation the
model once used: each eigenvalue a sparse ``symbol -> GaussianRational``
map, combinations summed map by map, values summed symbol by symbol.  It
is built from the very arguments a builder passes to ``FrequencyModel``,
so it shares nothing with the integer table, and every resonance test,
divisor value and eigenvalue of the model must agree with it exactly
(float values bit for bit).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import resnf.verify
from resnf.errors import ModelError
from resnf.fields import GR_ZERO, GaussianRational
from resnf.indexing import Mode, MultiIndex, TruncationContext, iter_indices
from resnf.resonance import FrequencyModel


class CoordModel:
    """Reference frequency model on Gaussian-rational coordinate dicts."""

    def __init__(self, name, symbols, coordinates, **_shape):
        self.name = name
        self.values = tuple(v for _, v in symbols)
        index = {nm: i for i, (nm, _) in enumerate(symbols)}
        self.coords = {}
        for k, row in coordinates.items():
            vec = {}
            for sym, coeff in row.items():
                if isinstance(coeff, (tuple, list)):
                    g = GaussianRational(Fraction(coeff[0]), Fraction(coeff[1]))
                else:
                    g = GaussianRational(coeff)
                if not g.is_zero:
                    vec[index[sym]] = g
            self.coords[k] = vec

    def coord(self, k):
        try:
            return self.coords[k]
        except KeyError:
            raise ModelError("mode not covered") from None

    def combination(self, p, k=None):
        """Coordinates of ``lambda . p``, less ``lambda_k`` when given."""
        acc = self.extend({}, p.items())
        return acc if k is None else self.extend(acc, ((k, -1),))

    def extend(self, vec, items):
        """A copy of ``vec`` with ``sum e * lambda_m`` over ``items`` added."""
        acc = dict(vec)
        for m, e in items:
            for i, c in self.coord(m).items():
                cur = acc.get(i, GR_ZERO) + c * e
                if cur.is_zero:
                    acc.pop(i, None)
                else:
                    acc[i] = cur
        return acc

    def value_exact(self, vec):
        if not all(isinstance(v, Fraction) for v in self.values):
            raise ModelError("irrational symbol values")
        acc = GR_ZERO
        for i, c in vec.items():
            acc = acc + c * self.values[i]
        return acc

    def value_float(self, vec):
        acc = 0j
        for i, c in vec.items():
            acc += complex(c) * float(self.values[i])
        return acc


def captured(module, builder, *args):
    """Call ``builder`` and return the model it builds together with the
    oracle built from the arguments it passed to ``FrequencyModel``."""
    calls = []

    def record(*a, **kw):
        calls.append((a, kw))
        return FrequencyModel(*a, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "FrequencyModel", record)
        model = builder(*args)
    ((a, kw),) = calls
    return model, CoordModel(*a, **kw)


def same_float(a: complex, b: complex) -> bool:
    return repr(a) == repr(b)


def check_model(model, oracle, ctx):
    """Every pair ``(q, k)`` with ``1 <= |q| <= D + 1``, every mode."""
    exact, floaty = ctx.with_arithmetic("exact"), ctx.with_arithmetic("float")
    modes = ctx.modes()
    eigen = {}
    for k in modes:
        ref = oracle.coord(k)
        assert same_float(model.eigenvalue_complex(k), oracle.value_float(ref))
        assert same_float(model.eigenvalue(k, floaty), oracle.value_float(ref))
        if model.exact_capable:
            eigen[k] = oracle.value_exact(ref)
            assert model.eigenvalue(k, exact) == eigen[k]
    # exact values are linear, so the oracle's exact divisor value is the
    # value of lambda . q less the eigenvalue; float values are summed
    # entry by entry in the oracle's own order
    pairs = 0
    for q in iter_indices(modes, ctx.degree_cutoff + 1, min_degree=1):
        base = oracle.combination(q)
        assert model.is_resonant_combination(q) == (not base)
        base_value = oracle.value_exact(base) if model.exact_capable else None
        for k in modes:
            ref = oracle.extend(base, ((k, -1),))
            assert model.is_resonant_pair(q, k) == (not ref), (q, k)
            assert same_float(
                model.divisor_value(q, k, floaty), oracle.value_float(ref)
            ), (q, k)
            if model.exact_capable:
                assert model.divisor_value(q, k, exact) == base_value - eigen[k]
            pairs += 1
    return pairs


def test_dim6_agrees_with_oracle():
    model, oracle = captured(resnf.verify, resnf.verify.dim6_frequency_model)
    ctx = TruncationContext(6, 8, momentum_enabled=False)
    assert check_model(model, oracle, ctx) == 6 * 5004


def test_dim4_agrees_with_oracle(ctx4):
    model, oracle = captured(helpers, helpers.dim4_model)
    assert check_model(model, oracle, ctx4) > 0


def test_nls_agrees_with_oracle():
    model, oracle = captured(resnf.verify, resnf.verify.nls_frequency_model, 2)
    ctx = TruncationContext(2, 5, momentum_enabled=True)
    assert check_model(model, oracle, ctx) > 0


def test_hyperbolic_with_elliptic_site_agrees_with_oracle():
    model, oracle = captured(
        resnf.verify, resnf.verify.hyperbolic_frequency_model, 2, None, [0]
    )
    ctx = TruncationContext(2, 5, momentum_enabled=True)
    assert check_model(model, oracle, ctx) > 0


def test_float_valued_model_agrees_with_oracle():
    symbols = [("one", 1.0), ("zeta1", math.sqrt(2)), ("zeta2", math.sqrt(3))]
    coords = {
        Mode(1, 1): {"one": 2},
        Mode(2, 1): {"one": 1, "zeta2": (1, 1)},
        Mode(3, 1): {"zeta1": 1},
        Mode(4, 1): {"zeta2": -1, "zeta1": Fraction(-1, 3)},
    }
    model = FrequencyModel("floaty", symbols, coords)
    oracle = CoordModel("floaty", symbols, coords)
    ctx = TruncationContext(4, 5, momentum_enabled=False, arithmetic="float")
    assert not model.exact_capable
    assert check_model(model, oracle, ctx) > 0
    with pytest.raises(ModelError, match="irrational"):
        model.divisor_value(
            MultiIndex.unit(Mode(1, 1)), Mode(2, 1), ctx.with_arithmetic("exact")
        )


# ---------------------------------------------------------------------------
# property test: random models with several symbols per mode
# ---------------------------------------------------------------------------

MODES = tuple(Mode(j, s) for j in (0, 1, 2) for s in (1, -1))
SYMBOLS = ("a", "b", "c")

small_fraction = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 7))
)
coefficient = st.one_of(
    st.integers(-3, 3),
    small_fraction,
    st.tuples(small_fraction, small_fraction),
)
symbol_value = st.builds(
    Fraction, st.integers(1, 2000), st.integers(1, 1000)
)


@st.composite
def model_and_index(draw):
    names = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True))
    symbols = [(nm, draw(symbol_value)) for nm in names]
    coords = {
        k: draw(st.dictionaries(st.sampled_from(names), coefficient, max_size=3))
        for k in MODES
    }
    entries = draw(
        st.lists(
            st.tuples(st.sampled_from(MODES), st.integers(-4, 4)), max_size=6
        )
    )
    k = draw(st.one_of(st.none(), st.sampled_from(MODES)))
    return symbols, coords, MultiIndex(entries), k


@settings(max_examples=200, deadline=None)
@given(model_and_index())
def test_random_signed_combinations_agree_with_oracle(case):
    symbols, coords, p, k = case
    model = FrequencyModel("random", symbols, coords)
    oracle = CoordModel("random", symbols, coords)
    ref = oracle.combination(p, k)
    key = model.key(p, k)
    assert (not key) == (not ref)
    assert model.value(key, True) == oracle.value_exact(ref)
    assert same_float(model.value(key, False), oracle.value_float(ref))
    if k is None:
        assert model.is_resonant_combination(p) == (not ref)
    else:
        q = p + MultiIndex.unit(k)
        # the pair form subtracts e_k after the entries of q
        assert model.is_resonant_pair(q, k) == (not oracle.combination(q, k))
