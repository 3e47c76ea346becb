"""Differential oracles for what the exact pipeline reads off packed keys.

Each quantity below used to be read off the ``MultiIndex`` of a key; the
library now reads it off the key, once per key.  The earlier forms are
kept here as the reference:

- the order code of ``_Packing.order`` against ``MultiIndex.sort_key``;
- the packed divisor of ``FrequencyModel.divisors`` against
  ``model._scaled(model.key(q, k))`` and its zero test against
  ``not model.key(q, k)``;
- the norm factors of ``_Packing.norm_factors`` and ``majorant_norm``
  against ``indexing.norm_weight``, bit for bit;
- the one mirror test of ``lie_exp`` against the full loop of
  ``tests/parent_fields.py``'s series, with a generator or an initial W
  one coefficient off its mirror;
- ``check_tangent_sigma`` against its projection on exponents, and the
  table ``compile_field`` builds from the stored keys against the one it
  read off ``terms()``.

An exact ``normalize``, its tangency check, the flows of its result and
generators and their text form build no ``MultiIndex`` at all: ``decompose``,
``split_ideals`` and ``check_tangent_sigma`` classify stored keys.  A
module over another degree cutoff, whose keys are laid out otherwise,
classifies the exponents of the keys instead.
"""

import contextlib
import functools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dim6_model, nls_model
from parent_fields import decoded, layout
from resnf import fields
from resnf.fields import GaussianRational, VectorField, _Packing
from resnf.indexing import Mode, MultiIndex, TruncationContext, iter_indices, norm_weight
from resnf.normalform import compile_field, decompose, normalize
from resnf.resonance import FrequencyModel, enumerate_resonance, split_ideals
from resnf.verify import build_example_dim6, build_example_nls, check_tangent_sigma, hyperbolic_frequency_model
from test_kernel_oracle import (
    MIRROR_CONTEXTS,
    WIDE_PARTS,
    field_terms,
    parent_lie_series_terms,
    parent_pushforward_exp,
    self_mirrored,
    with_fault,
)

# ---------------------------------------------------------------------------
# the order code
# ---------------------------------------------------------------------------


@st.composite
def order_case(draw):
    """A context, momentum on or off, and exponents of degrees 1 to D + 1."""
    momentum = draw(st.booleans())
    ctx = TruncationContext(draw(st.integers(1, 3)), draw(st.integers(1, 5)), momentum_enabled=momentum)
    modes = ctx.modes()
    exponents = []
    for _ in range(draw(st.integers(1, 12))):
        degree = draw(st.integers(1, ctx.degree_cutoff + 1))
        exponents.append(MultiIndex((draw(st.sampled_from(modes)), 1) for _ in range(degree)))
    return ctx, exponents


@settings(max_examples=300, deadline=None)
@given(case=order_case())
def test_order_code_sorts_like_sort_key(case):
    ctx, exponents = case
    packing = _Packing(ctx)
    keys = list(dict.fromkeys(packing.key(q) for q in exponents))
    assert None not in keys
    assert sorted(keys, key=packing.order) == sorted(keys, key=lambda key: packing.index(key).sort_key())
    for a in keys:
        for b in keys:
            assert (packing.order(a) < packing.order(b)) == (
                packing.index(a).sort_key() < packing.index(b).sort_key()
            )


@pytest.mark.parametrize(
    "ctx",
    [
        TruncationContext(1, 3, momentum_enabled=True),
        TruncationContext(4, 4),
        TruncationContext(2, 2, momentum_enabled=True),
    ],
    ids=["nls-1-3", "dim-4-4", "nls-2-2"],
)
def test_order_code_on_every_key_of_small_windows(ctx):
    packing = _Packing(ctx)
    exponents = list(iter_indices(ctx.modes(), ctx.degree_cutoff + 1, 1))
    want = sorted(exponents, key=MultiIndex.sort_key)
    got = [packing.index(key) for key in sorted([packing.key(q) for q in exponents], key=packing.order)]
    assert got == want


# ---------------------------------------------------------------------------
# packed divisors
# ---------------------------------------------------------------------------

#: Complex coordinates with both parts nonzero over two symbols.
CUSTOM = FrequencyModel(
    "custom",
    [("one", Fraction(1)), ("zeta", Fraction(1393, 985))],
    {
        Mode(1, 1): {"one": (1, 2)},
        Mode(2, 1): {"one": (2, -1), "zeta": (0, 1)},
        Mode(3, 1): {"zeta": (Fraction(1, 3), 1)},
    },
)

DIVISOR_CASES = {
    "dim6": (dim6_model(), TruncationContext(6, 4)),
    "nls": (nls_model(1), TruncationContext(1, 4, momentum_enabled=True)),
    "hyperbolic-elliptic0": (
        hyperbolic_frequency_model(1, elliptic_sites=[0]),
        TruncationContext(1, 4, momentum_enabled=True),
    ),
    "custom": (CUSTOM, TruncationContext(3, 5)),
}


@pytest.mark.parametrize("name", sorted(DIVISOR_CASES))
def test_packed_divisors_match_keys(name):
    model, ctx = DIVISOR_CASES[name]
    packing = _Packing.of(ctx)
    divisor = model.divisors(ctx)
    resonant = 0
    for q in iter_indices(ctx.modes(), ctx.degree_cutoff + 1, 1):
        key = packing.key(q)
        for k in ctx.modes():
            code, scaled = divisor(k, key)
            want = model.key(q, k)
            assert (code == 0) == (not want), (q, k)
            assert scaled == model._scaled(want), (q, k)
            resonant += not want
    # every diagonal term x_k d/dx_k is resonant, so each case has zeros
    assert resonant >= len(ctx.modes())


def test_packed_divisor_names_a_mode_the_model_lacks():
    model = FrequencyModel("two", [("one", Fraction(1))], {Mode(1, 1): {"one": 1}, Mode(2, 1): {"one": 3}})
    ctx = TruncationContext(3, 3)
    divisor = model.divisors(ctx)
    key = _Packing.of(ctx).key(MultiIndex({Mode(1, 1): 2}))
    assert divisor(Mode(2, 1), key)[1] == model._scaled(model.key(MultiIndex({Mode(1, 1): 2}), Mode(2, 1)))
    with pytest.raises(Exception, match="mode 3\\+ not covered"):
        divisor(Mode(1, 1), _Packing.of(ctx).key(MultiIndex({Mode(3, 1): 1})))


# ---------------------------------------------------------------------------
# norm factors
# ---------------------------------------------------------------------------

RADII = [(0.9, 0.0), (0.3, 0.1), (1.0, 0.55), (0.75, 2.5)]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_norm_factors_match_norm_weight_bit_for_bit(data):
    ctx = data.draw(st.sampled_from([TruncationContext(6, 5), TruncationContext(2, 4, momentum_enabled=True)]))
    x = VectorField(ctx, data.draw(field_terms(ctx, 10, WIDE_PARTS)))
    packing = _Packing.of(ctx)
    for k, comp in x._terms.items():
        for key in comp:
            d, square, gap = packing.norm_factors(k, key)
            for r, s in RADII:
                weight = r ** (d - 1) * square
                if s:
                    weight *= math.exp(-s * gap)
                want = norm_weight(packing.index(key), k, r, s, ctx.theta)
                assert repr(weight) == repr(want)
    # the parent sums in the stored order too
    parent = decoded(x)
    for r, s in RADII:
        assert repr(x.majorant_norm(r, s)) == repr(parent.majorant_norm(r, s))
        assert repr(x.as_float().majorant_norm(r, s)) == repr(parent.as_float().majorant_norm(r, s))


# ---------------------------------------------------------------------------
# lie_exp tests F and W for the mirror symmetry once
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def series_spy():
    """Record each ``_self_mirrored`` result and each bracket's ``half``."""
    seen = {"mirrored": [], "half": []}
    bracket, check = fields._Packing.bracket, fields._Packing._self_mirrored

    def recorded_bracket(self, xs, ys, cutoff, half=None, fits=None):
        store = bracket(self, xs, ys, cutoff, half, fits)
        seen["half"].append(half)
        return store

    def recorded_check(self, terms):
        seen["mirrored"].append(check(self, terms))
        return seen["mirrored"][-1]

    with mock.patch.object(fields._Packing, "bracket", recorded_bracket), mock.patch.object(
        fields._Packing, "_self_mirrored", recorded_check
    ):
        yield seen


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_series_tests_the_mirror_once(data):
    ctx = data.draw(st.sampled_from(MIRROR_CONTEXTS))
    f = self_mirrored(ctx, data.draw(field_terms(ctx, 3, WIDE_PARTS, 2, 3)))
    w = self_mirrored(ctx, data.draw(field_terms(ctx, 5, WIDE_PARTS, max_degree=4)))
    if f.is_zero:
        return
    with series_spy() as seen:
        got, count = fields.lie_exp(f, w)
    # two tests, whatever the series' length, and every bracket halves
    assert seen["mirrored"] == [True, True]
    assert seen["half"] == [True] * (count + 1)
    want = parent_pushforward_exp(f, w)
    assert sorted(got.terms(), key=repr) == sorted(want.terms(), key=repr)
    assert count == len(parent_lie_series_terms(f, w)) - 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_term_off_its_mirror_sends_the_series_down_the_full_loop(data):
    ctx = data.draw(st.sampled_from(MIRROR_CONTEXTS))
    f = self_mirrored(ctx, data.draw(field_terms(ctx, 3, WIDE_PARTS, 2, 3)))
    w = self_mirrored(ctx, data.draw(field_terms(ctx, 5, WIDE_PARTS, max_degree=4)))
    if f.is_zero or w.is_zero:
        return
    faulty = data.draw(st.sampled_from(("generator", "initial")))
    if faulty == "generator":
        f = with_fault(f, "scale", data.draw(st.integers(0, f.term_count() - 1)))
    else:
        w = with_fault(w, "scale", data.draw(st.integers(0, w.term_count() - 1)))
    with series_spy() as seen:
        got, count = fields.lie_exp(f, w)
    # the first failing operand ends the test, and no bracket halves
    assert seen["mirrored"] == ([False] if faulty == "generator" else [True, False])
    assert seen["half"] == [False] * (count + 1)
    assert layout(got) == layout(parent_pushforward_exp(f, w))
    assert count == len(parent_lie_series_terms(f, w)) - 1


def test_a_fault_on_the_sigma_minus_side_of_the_initial_field():
    # the generator and W's sigma=+ terms are mirrored; one sigma=- term of
    # W is doubled, which a half series would never read
    ctx = MIRROR_CONTEXTS[0]
    third, half = GaussianRational(Fraction(1, 3), 1), GaussianRational(Fraction(-1, 2), 2)
    f = self_mirrored(ctx, [(Mode(1, 1), MultiIndex({Mode(1, 1): 2, Mode(1, -1): 1}), third)])
    w = self_mirrored(
        ctx,
        [
            (Mode(1, 1), MultiIndex({Mode(1, 1): 1}), GaussianRational(2, -1)),
            (Mode(2, 1), MultiIndex({Mode(1, 1): 1, Mode(1, -1): 1, Mode(2, 1): 1}), half),
        ],
    )
    terms = w.terms()
    i = next(i for i, (k, _, _) in enumerate(terms) if k.sigma < 0)
    bad = with_fault(w, "scale", i)
    got, count = fields.lie_exp(f, bad)
    assert count >= 1
    assert layout(got) == layout(parent_pushforward_exp(f, bad))


# ---------------------------------------------------------------------------
# the ideal split, tangency and the flow tables on stored keys
# ---------------------------------------------------------------------------

PIPELINE_CASES = {
    "nls-N2-D5": lambda: build_example_nls(1, cutoff=2, degree=5),
    "dim6-seed11-D5": lambda: build_example_dim6(seed=11, degree=5),
}


@functools.cache
def normalized(name):
    field, model = PIPELINE_CASES[name]()
    module = enumerate_resonance(field.ctx, model)
    return field, module, normalize(field, module)


def parent_check_tangent_sigma(w, module):
    """The earlier ``check_tangent_sigma``: a projection on exponents."""
    model = module.model
    return w.project(
        lambda k, q: q.degree > 1
        and module.classify(q) != 2
        and not (model.is_resonant_pair(q, k) and q.get(k) >= 1)
    )


def parent_flow_table(w):
    """The earlier ``compile_field`` table, read off ``terms()``."""
    f = w.as_float()
    positions = f.ctx.mode_positions()
    return tuple(
        (positions[k], complex(c), tuple((positions[m], e) for m, e in q.items())) for k, q, c in f.terms()
    )


@contextlib.contextmanager
def counting_indices():
    """Count every ``MultiIndex`` built, by either constructor."""
    built = []
    init, from_sorted = MultiIndex.__init__, MultiIndex._from_sorted.__func__

    def counted_init(self, *args, **kwargs):
        built.append("__init__")
        init(self, *args, **kwargs)

    def counted_from_sorted(cls, pairs, degree):
        built.append("_from_sorted")
        return from_sorted(cls, pairs, degree)

    with mock.patch.object(MultiIndex, "__init__", counted_init), mock.patch.object(
        MultiIndex, "_from_sorted", classmethod(counted_from_sorted)
    ):
        yield built


@pytest.mark.parametrize("name", sorted(PIPELINE_CASES))
def test_exact_pipeline_builds_no_exponent(name):
    # normalize, tangency, the flows and the text form
    field, model = PIPELINE_CASES[name]()
    module = enumerate_resonance(field.ctx, model)
    with counting_indices() as built:
        dec, log, _ = normalize(field, module)
        result = dec.assemble()
        assert check_tangent_sigma(result, module).ok
        flows = [compile_field(f) for f in (result, *log.fields())]
        assert result.to_lines() and log.to_lines()
        assert not built
        # the patches are live
        MultiIndex(), MultiIndex._from_sorted((), 0)
        dec.z.terms()
    assert built[:2] == ["__init__", "_from_sorted"] and len(built) == 2 + dec.z.term_count()
    assert len(flows) == 1 + len(log.entries) >= 2


@pytest.mark.parametrize("name", sorted(PIPELINE_CASES))
def test_tangency_and_flow_tables_match_the_exponent_forms(name):
    field, module, (dec, log, _) = normalized(name)
    result = dec.assemble()
    for w in (field, result, result + field.scale(GaussianRational(1, 3)), *log.fields()):
        report = check_tangent_sigma(w, module)
        want = parent_check_tangent_sigma(w, module)
        assert layout(report.offenders) == layout(want) and report.ok == want.is_zero
        assert compile_field(w).rows == parent_flow_table(w)
    # the original field is not normal, the result is
    assert not check_tangent_sigma(field, module).ok and check_tangent_sigma(result, module).ok


@pytest.mark.parametrize("module_degree", [4, 6])
def test_a_module_over_another_cutoff_classifies_by_exponent(module_degree):
    # keys over another degree cutoff are laid out otherwise: the module
    # classifies their exponents, as it classified every term before
    field, _, (dec, _, _) = normalized("nls-N2-D5")
    model = dec.module.model
    other = enumerate_resonance(build_example_nls(1, cutoff=2, degree=module_degree)[0].ctx, model)
    assert other.ctx.degree_cutoff != field.ctx.degree_cutoff
    for w in (field, dec.assemble()):
        parts = split_ideals(w, other)
        for klass, part in enumerate(parts):
            assert layout(part) == layout(w.project(lambda k, q: other.classify(q) == klass))
        report = check_tangent_sigma(w, other)
        want = parent_check_tangent_sigma(w, other)
        assert layout(report.offenders) == layout(want) and report.ok == want.is_zero
    again = decompose(dec.assemble(), other)
    assert [layout(part) for part in (again.z, again.x, again.n)] == [
        layout(part) for part in (dec.z, dec.x, dec.n)
    ]


def test_the_float_twin_splits_as_the_exact_field():
    field, module, _ = normalized("nls-N2-D5")
    assert [part.term_count() for part in split_ideals(field.as_float(), module)] == [
        part.term_count() for part in split_ideals(field, module)
    ]
