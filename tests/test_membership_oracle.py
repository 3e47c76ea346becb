"""Differential oracles for the membership rules of the algebra.

Two earlier forms of ``ResonanceModule.classify`` are kept here:

- ``parent_classify``: the constructor built a table of generator pair
  sums, and an exponent was class 2 if it contained one of them;
- ``definition_classify``: the class read off the generators by its
  definition on ``MultiIndex`` values, class 2 when some generator
  ``g <= q`` leaves room ``q - g`` for a generator ``h``.

The library runs the same definition as a packed guard-bit test on
integers.  All three are compared on window exponents, on signed
exponents with modes outside the window and entries up to ``3 (D + 1)``,
on a module with no generators, and on every exponent that an nls N=2,
D=7 ``normalize`` classifies (in ``split_ideals`` and in ``decompose``).
The pipeline passes ``classify`` the stored key of a term, which must
classify as its exponent, the form the pipeline passed before.

``parent_admits_mode`` is the earlier mode rule, written out from the
cutoff, the sign and the momentum flag.  The context now looks a mode
up in the one set it builds next to ``modes()``.
"""

import functools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SQRT2, dim6_model, hyperbolic_model, nls_model
from resnf import normalform
from resnf.fields import _Packing
from resnf.indexing import Mode, MultiIndex, TruncationContext
from resnf.resonance import (
    FrequencyModel,
    ResonanceModule,
    enumerate_resonance,
    split_ideals,
)
from resnf.verify import build_example_nls


def parent_classify(module, q):
    """The earlier ``classify``, pair-sum table included."""
    sums = set()
    gens = module.q_generators
    for i, a in enumerate(gens):
        for b in gens[i:]:
            sums.add(a + b)
    for s in sorted(sums, key=lambda s: s.sort_key()):
        if q.contains(s):
            return 2
    for g in gens:
        if q.contains(g):
            return 1
    return 0


def definition_classify(module, q):
    """The earlier ``classify``: ``contains`` and ``q - g`` on ``MultiIndex``
    values, in generator order."""
    klass = 0
    for g in module.q_generators:
        if q.contains(g):
            rest = q - g
            if any(rest.contains(h) for h in module.q_generators):
                return 2
            klass = 1
    return klass


def assert_classify_agrees(module, q):
    klass = module.classify(q)
    assert klass == definition_classify(module, q) == parent_classify(module, q), q
    return klass


def parent_admits_mode(ctx, k):
    """The earlier ``admits_mode``."""
    if abs(k.j) > ctx.mode_cutoff or k.sigma not in (1, -1):
        return False
    if not ctx.momentum_enabled and (k.j < 1 or k.sigma != 1):
        return False
    return True


def _nonresonant_model():
    """Two positive eigenvalues: no nonnegative resonance, no generator."""
    symbols = [("one", Fraction(1)), ("zeta", SQRT2)]
    coords = {Mode(1, 1): {"one": 1}, Mode(2, 1): {"zeta": 1}}
    return FrequencyModel("nonresonant", symbols, coords)


def _weighted_model():
    """Eigenvalues 1, -2 and -3: generators ``x1^2 x2`` and ``x1^3 x3``,
    so one digit must hold ``3 + 3 = 6``."""
    coords = {Mode(1, 1): {"one": 1}, Mode(2, 1): {"one": -2}, Mode(3, 1): {"one": -3}}
    return FrequencyModel("weighted", [("one", Fraction(1))], coords)


# name -> (mode cutoff, degree cutoff, momentum, model builder)
MODULES = {
    "dim6-D8": (6, 8, False, dim6_model),
    "nls-N2-D5": (2, 5, True, lambda: nls_model(2)),
    "lattice-N3-D5": (3, 5, True, lambda: nls_model(3)),
    "hyperbolic-N2-D5": (2, 5, True, lambda: hyperbolic_model(2)),
    "nonresonant-D6": (2, 6, False, _nonresonant_model),
    "weighted-D6": (3, 6, False, _weighted_model),
}


@functools.cache
def module_named(name):
    cutoff, degree, momentum, make_model = MODULES[name]
    ctx = TruncationContext(cutoff, degree, momentum_enabled=momentum)
    return enumerate_resonance(ctx, make_model())


@st.composite
def exponent(draw, module):
    """A nonnegative exponent of degree <= D + 1, seeded with up to three
    generators so that every class is drawn."""
    limit = module.ctx.degree_cutoff + 1
    parts = []
    if module.q_generators:
        parts = draw(st.lists(st.sampled_from(module.q_generators), max_size=3))
    q = MultiIndex()
    for g in parts:
        if q.degree + g.degree <= limit:
            q = q + g
    extra = draw(st.lists(st.sampled_from(module.ctx.modes()), max_size=limit - q.degree))
    return q + MultiIndex((m, 1) for m in extra)


def test_modules_have_the_stated_generators():
    assert [str(g) for g in module_named("dim6-D8").q_generators] == [
        "3+^1 4+^1",
        "5+^1 6+^1",
    ]
    assert not module_named("nonresonant-D6").q_generators
    assert [str(g) for g in module_named("weighted-D6").q_generators] == [
        "1+^2 2+^1",
        "1+^3 3+^1",
    ]


@st.composite
def wide_exponent(draw, module):
    """A signed exponent over the window's modes and modes outside it,
    with entries up to ``3 (D + 1)``: up to three generators, each taken
    one to three times, then a few positive entries and, at times, a
    negative one."""
    ctx = module.ctx
    big = 3 * (ctx.degree_cutoff + 1)
    entries = []
    if module.q_generators:
        for g in draw(st.lists(st.sampled_from(module.q_generators), max_size=3)):
            times = draw(st.integers(1, 3))
            entries.extend((m, times * e) for m, e in g.items())
    cutoff = ctx.mode_cutoff
    outside = st.builds(
        Mode, st.integers(-cutoff - 3, cutoff + 3), st.sampled_from((1, -1))
    ).filter(lambda m: not ctx.admits_mode(m))
    modes = st.sampled_from(ctx.modes()) | outside
    entries.extend(draw(st.lists(st.tuples(modes, st.integers(1, big)), max_size=4)))
    if draw(st.integers(0, 3)) == 0:
        entries.append((draw(modes), draw(st.integers(-big, -1))))
    return MultiIndex(entries)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_generator_sums_classify_as_before(name):
    module = module_named(name)
    gens = module.q_generators
    for g in gens:
        assert assert_classify_agrees(module, g) == 1
        for h in gens:
            assert assert_classify_agrees(module, g + h) == 2


@pytest.mark.parametrize("name", sorted(MODULES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_classify_matches_pair_sum_table(name, data):
    module = module_named(name)
    klass = assert_classify_agrees(module, data.draw(exponent(module)))
    if not module.q_generators:
        assert klass == 0


@pytest.mark.parametrize("name", sorted(MODULES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_classify_matches_definition_off_the_window(name, data):
    module = module_named(name)
    q = data.draw(wide_exponent(module))
    klass = assert_classify_agrees(module, q)
    if any(e < 0 for _, e in q.items()) or not module.q_generators:
        assert klass == 0


def test_classify_at_the_digit_capacity():
    # x1 needs up to 3 + 3 = 6 in the weighted module: entries above that
    # are clamped to it and must decide the same fits
    module = module_named("weighted-D6")
    x1, x2, x3 = Mode(1, 1), Mode(2, 1), Mode(3, 1)
    cases = {
        ((x1, 5), (x2, 1), (x3, 1)): 2,
        ((x1, 4), (x2, 1), (x3, 1)): 1,
        ((x1, 6), (x3, 2)): 2,
        ((x1, 5), (x3, 2)): 1,
        ((x1, 40), (x2, 1), (x3, 1)): 2,
        ((x1, 40), (x3, 1)): 1,
        ((x1, 40), (x2, 40), (x3, 40)): 2,
        ((x1, 1), (x2, 40), (x3, 40)): 0,
        ((x1, 40), (x2, 1), (x3, -1)): 0,
    }
    for entries, want in cases.items():
        assert assert_classify_agrees(module, MultiIndex(entries)) == want


def test_classify_off_the_window_on_gauge_pairs():
    # nls gauge pairs ``x_{j+} x_{j-}``: a mode outside the window never
    # decides a fit, and a negative entry anywhere makes class 0
    module = module_named("nls-N2-D5")
    plus, minus = Mode(1, 1), Mode(1, -1)
    cases = {
        ((plus, 2), (minus, 2)): 2,
        ((plus, 2), (minus, 1)): 1,
        ((plus, 1), (minus, 1)): 1,
        ((plus, 18), (minus, 1)): 1,
        ((plus, 18), (minus, 18)): 2,
        ((plus, 1), (minus, 1), (Mode(2, 1), 1), (Mode(2, -1), 1)): 2,
        ((plus, 2), (minus, 2), (Mode(9, 1), 7)): 2,
        ((plus, 2), (minus, 2), (Mode(9, 1), -1)): 0,
        ((plus, 2), (minus, 2), (Mode(2, 1), -1)): 0,
        ((plus, -1), (minus, 2)): 0,
        ((Mode(9, 1), 3), (Mode(9, -1), 3)): 0,
    }
    for entries, want in cases.items():
        assert assert_classify_agrees(module, MultiIndex(entries)) == want


def test_classify_on_every_exponent_a_normalize_classifies():
    # the stored keys ``split_ideals`` and ``decompose`` classify: each must
    # classify as its exponent, which the pipeline passed before
    field, model = build_example_nls(1, cutoff=2, degree=7)
    module = enumerate_resonance(field.ctx, model)
    split, seen = set(), set()
    classify = ResonanceModule.classify

    def spy_split(x, mod):
        split.update(key for comp in x._terms.values() for key in comp)
        return split_ideals(x, mod)

    def spy_classify(self, q):
        seen.add(q)
        return classify(self, q)

    with mock.patch.object(normalform, "split_ideals", spy_split), mock.patch.object(
        ResonanceModule, "classify", spy_classify
    ):
        normalform.normalize(field, module)
    assert all(type(key) is int for key in seen)
    assert split < seen and len(seen) > 2000  # 2,426 distinct of 10,968 calls
    index = _Packing.of(field.ctx).index
    classes = []
    for key in seen:
        klass = module.classify(key)
        assert klass == assert_classify_agrees(module, index(key)), key
        classes.append(klass)
    assert set(classes) == {0, 1, 2}


def test_classify_tests_each_exponent_once():
    # the pipeline asks again for the terms of every solve and series; the
    # module keeps each exponent's class, so the guard-bit test runs once
    field, model = build_example_nls(1, cutoff=2, degree=5)
    module = enumerate_resonance(field.ctx, model)
    calls, fits = [], []
    classify, test = ResonanceModule.classify, ResonanceModule._fits

    def spy_classify(self, q):
        calls.append(q)
        return classify(self, q)

    def spy_fits(self, q):
        fits.append(q)
        return test(self, q)

    with mock.patch.object(ResonanceModule, "classify", spy_classify), mock.patch.object(
        ResonanceModule, "_fits", spy_fits
    ):
        normalform.normalize(field, module)
    again = [module.classify(q) for q in calls]
    assert len(fits) == len(set(fits)) and set(fits) <= set(calls)
    assert len(calls) > 4 * len(fits)  # 1,704 calls, 380 tests
    assert again == [test(module, q) for q in calls]
    # the pipeline passes stored keys; each classifies as its exponent
    index = _Packing.of(field.ctx).index
    assert all(type(q) is int for q in calls)
    assert again == [test(module, index(q)) for q in calls]


CUTOFFS = (1, 2, 3, 4)


@pytest.mark.parametrize("momentum", [False, True])
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_admits_mode_matches_rule(cutoff, momentum):
    ctx = TruncationContext(cutoff, 3, momentum_enabled=momentum)
    for j in range(-cutoff - 2, cutoff + 3):
        for sigma in (-1, 0, 1, 2):
            k = Mode(j, sigma)
            assert ctx.admits_mode(k) == parent_admits_mode(ctx, k), k


@st.composite
def context_and_index(draw):
    cutoff = draw(st.sampled_from(CUTOFFS))
    ctx = TruncationContext(cutoff, 3, momentum_enabled=draw(st.booleans()))
    modes = st.builds(
        Mode, st.integers(-cutoff - 2, cutoff + 2), st.sampled_from((-1, 0, 1, 2))
    )
    entries = draw(st.lists(st.tuples(modes, st.integers(-3, 3)), max_size=5))
    return ctx, MultiIndex(entries)


@settings(max_examples=200, deadline=None)
@given(context_and_index())
def test_admits_support_matches_rule(case):
    ctx, q = case
    expected = all(parent_admits_mode(ctx, m) for m in q.modes())
    assert ctx.admits_support(q) == expected
