"""Differential oracles for the exact-lane field kernel.

The kernel now avoids exponents it would throw away: ``MultiIndex``
stores its ``degree`` at construction, ``_lie_into`` forms a product
``qx + base`` only when ``qx.degree`` fits in the room that ``base``
leaves under the cutoff, ``contains`` compares entries without building
``self - other``, and ``split_ideals`` classifies each term once.  The
earlier forms are kept here and compared with the library on random
signed indices and random fields, in exact and float arithmetic; the
results must be equal term for term and in the same insertion order.
"""

import functools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resnf import fields
from resnf.fields import GaussianRational, ScalarSeries, VectorField
from resnf.indexing import Mode, MultiIndex, TruncationContext, iter_indices
from resnf.resonance import ResonanceModule, enumerate_resonance, split_ideals
from resnf.verify import build_example_dim6, build_example_nls


def parent_degree(q):
    """The earlier ``degree`` property: the sum of the entries."""
    return sum(e for _, e in q.items())


def parent_contains(a, b):
    """The earlier ``contains``, which built ``a - b``."""
    return (a - b).is_nonnegative


def parent_lie_into(ctx, out, xterms, fdict, cutoff, tally=None):
    """The earlier ``_lie_into``: form every product, then drop those
    above ``cutoff``.  ``tally`` counts the kept and dropped products."""
    for k, comp in xterms.items():
        for qf, cf in fdict.items():
            e = qf.get(k)
            if not e:
                continue
            base = qf.add_unit(k, -1)
            for qx, cx in comp.items():
                q_new = qx + base
                kept = parent_degree(q_new) <= cutoff
                if tally is not None:
                    tally[kept] += 1
                if kept:
                    fields._accumulate(ctx, out, q_new, cx * cf * e)


def parent_split_ideals(x, module):
    """The earlier ``split_ideals``: one projection per class."""
    x0 = x.project(lambda k, q: module.classify(q) == 0)
    x1 = x.project(lambda k, q: module.classify(q) == 1)
    x2 = x.project(lambda k, q: module.classify(q) == 2)
    return x0, x1, x2


def with_parent_kernel(fn, tally=None):
    """Run ``fn()`` with the earlier ``_lie_into`` patched in."""
    parent = functools.partial(parent_lie_into, tally=tally)
    with mock.patch.object(fields, "_lie_into", parent):
        return fn()


def layout(obj):
    """Terms with their insertion order, which fixes float sums and the
    order that later passes see."""
    if isinstance(obj, ScalarSeries):
        return list(obj._terms.items())
    return [(k, list(comp.items())) for k, comp in obj._terms.items()]


# ---------------------------------------------------------------------------
# MultiIndex: degree and contains on signed indices
# ---------------------------------------------------------------------------

MODES = st.builds(Mode, st.integers(-2, 3), st.sampled_from((1, -1)))
ENTRIES = st.lists(st.tuples(MODES, st.integers(-3, 3)), max_size=6)
SIGNED = st.builds(MultiIndex, ENTRIES)


def assert_degree(q):
    assert q.degree == parent_degree(q), q


@settings(max_examples=300, deadline=None)
@given(entries=ENTRIES, other=SIGNED, mode=MODES, count=st.integers(-3, 3))
def test_degree_on_every_constructor_path(entries, other, mode, count):
    q = MultiIndex(entries)
    assert_degree(q)
    assert q.degree == sum(e for _, e in entries)
    assert_degree(MultiIndex(dict(q.items())))
    assert_degree(MultiIndex.parse(str(q)))
    assert MultiIndex.parse(str(q)) == q
    for derived in (q + other, q - other, other - q, -q, q.add_unit(mode, count)):
        assert_degree(derived)
    assert (q - q).degree == 0
    assert MultiIndex.unit(mode).degree == 1


@pytest.mark.parametrize("max_degree, min_degree", [(0, 0), (3, 0), (4, 2), (2, 3)])
def test_degree_of_walked_indices(max_degree, min_degree):
    modes = (Mode(2, 1), Mode(-1, -1), Mode(0, 1), Mode(1, 1))
    walked = list(iter_indices(modes, max_degree, min_degree))
    for q in walked:
        assert_degree(q)
        assert min_degree <= q.degree <= max_degree
        assert MultiIndex(q.items()) == q
    assert len(walked) == len(set(walked))


@settings(max_examples=400, deadline=None)
@given(a=SIGNED, b=SIGNED)
def test_contains_matches_allocating_form(a, b):
    empty = MultiIndex()
    for x, y in ((a, b), (b, a), (a, a), (a, empty), (empty, a), (a, -a), (a + b, b)):
        assert x.contains(y) == parent_contains(x, y), (x, y)


def test_contains_keeps_its_signed_meaning():
    m1, m2 = Mode(1, 1), Mode(2, 1)
    q = MultiIndex({m1: 2, m2: -1})
    assert not q.contains(MultiIndex())  # q itself has a negative entry
    assert q.contains(MultiIndex({m2: -1}))
    assert q.contains(MultiIndex({m1: 2, m2: -3}))
    assert not q.contains(MultiIndex({m1: 3}))
    assert MultiIndex().contains(MultiIndex({m1: -1}))
    assert not MultiIndex().contains(MultiIndex({m1: 1}))


# ---------------------------------------------------------------------------
# bracket and lie_derivative: the room check against form-then-filter
# ---------------------------------------------------------------------------

CONTEXTS = {
    "finite": TruncationContext(3, 4),
    "momentum": TruncationContext(2, 4, momentum_enabled=True),
}
ARITHMETIC = ("exact", "float")
PARTS = st.sampled_from((-2, -1, 0, 1, Fraction(1, 2), Fraction(-5, 3)))


def _coefficient(ctx, re, im):
    if ctx.exact:
        return GaussianRational(re, im)
    return complex(float(re), float(im))


@st.composite
def field_terms(draw, ctx, max_terms=6):
    """Terms of every degree up to ``degree_cutoff + 1``, so products land
    below, on and above the cutoff."""
    modes = ctx.modes()
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        degree = draw(st.integers(1, ctx.degree_cutoff + 1))
        q = MultiIndex((draw(st.sampled_from(modes)), 1) for _ in range(degree))
        if ctx.momentum_enabled:
            ks = [k for k in modes if k.sigma * k.j == q.momentum_sum]
        else:
            ks = list(modes)
        if ks:
            c = _coefficient(ctx, draw(PARTS), draw(PARTS))
            terms.append((draw(st.sampled_from(ks)), q, c))
    return terms


@st.composite
def series_terms(draw, ctx, max_terms=6):
    modes = ctx.modes()
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        degree = draw(st.integers(0, ctx.degree_cutoff))
        q = MultiIndex((draw(st.sampled_from(modes)), 1) for _ in range(degree))
        if not ctx.momentum_enabled or q.momentum_sum == 0:
            terms.append((q, _coefficient(ctx, draw(PARTS), draw(PARTS))))
    return terms


@st.composite
def context(draw):
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    return ctx.with_arithmetic(draw(st.sampled_from(ARITHMETIC)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bracket_matches_form_then_filter(data):
    ctx = data.draw(context())
    x = VectorField(ctx, data.draw(field_terms(ctx)))
    y = VectorField(ctx, data.draw(field_terms(ctx)))
    got = x.bracket(y)
    assert layout(got) == layout(with_parent_kernel(lambda: x.bracket(y)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lie_derivative_matches_form_then_filter(data):
    ctx = data.draw(context())
    x = VectorField(ctx, data.draw(field_terms(ctx)))
    f = ScalarSeries(ctx, data.draw(series_terms(ctx)))
    got = x.lie_derivative(f)
    assert layout(got) == layout(with_parent_kernel(lambda: x.lie_derivative(f)))


def _random_field(ctx, rng, nterms):
    modes = ctx.modes()
    terms = []
    while len(terms) < nterms:
        q = MultiIndex(
            (rng.choice(modes), 1) for _ in range(rng.randint(1, ctx.degree_cutoff + 1))
        )
        ks = [k for k in modes if not ctx.momentum_enabled or k.sigma * k.j == q.momentum_sum]
        if ks:
            parts = [rng.choice((-2, -1, 1, Fraction(1, 3))) for _ in range(2)]
            terms.append((rng.choice(ks), q, _coefficient(ctx, *parts)))
    return VectorField(ctx, terms)


@pytest.mark.parametrize("arithmetic", ARITHMETIC)
@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_room_check_both_keeps_and_skips(name, arithmetic):
    ctx = CONTEXTS[name].with_arithmetic(arithmetic)
    rng = random.Random(12)
    tally = {True: 0, False: 0}
    for _ in range(6):
        x, y = _random_field(ctx, rng, 8), _random_field(ctx, rng, 8)
        for op in (lambda: x.bracket(y), lambda: x.bracket(x.bracket(y))):
            assert layout(op()) == layout(with_parent_kernel(op, tally))
    assert tally[True] > 0 and tally[False] > 0, tally


# ---------------------------------------------------------------------------
# split_ideals: one pass against three projections
# ---------------------------------------------------------------------------

EXAMPLES = {
    "nls-N2-D5": lambda: build_example_nls(1, cutoff=2, degree=5),
    "dim6-D5": lambda: build_example_dim6(seed=11, degree=5),
}


@functools.cache
def example(name):
    field, model = EXAMPLES[name]()
    return field, enumerate_resonance(field.ctx, model)


def assert_same_split(x, module):
    calls = []
    classify = ResonanceModule.classify

    def counted(self, q):
        calls.append(q)
        return classify(self, q)

    with mock.patch.object(ResonanceModule, "classify", counted):
        got = split_ideals(x, module)
    assert len(calls) == x.term_count()
    want = parent_split_ideals(x, module)
    assert [layout(part) for part in got] == [layout(part) for part in want]
    assert all(part.ctx == x.ctx for part in got)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_split_ideals_on_example_fields(name):
    field, module = example(name)
    assert module.q_generators
    assert_same_split(field, module)
    rng = random.Random(5)
    wide = field + _random_field(field.ctx, rng, 40)
    assert_same_split(wide, module)
    assert_same_split(wide.bracket(field), module)
    assert all(not part.is_zero for part in split_ideals(wide, module)[:2])


@pytest.mark.parametrize("name", sorted(EXAMPLES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_split_ideals_on_random_fields(name, data):
    field, module = example(name)
    ctx = field.ctx
    terms = data.draw(field_terms(ctx, max_terms=10))
    # seed some exponents with generators so that every class is drawn
    gens = module.q_generators
    for k, q, c in data.draw(field_terms(ctx, max_terms=4)):
        g = data.draw(st.sampled_from(gens))
        if (q + g).degree <= ctx.degree_cutoff + 1:
            terms.append((k, q + g, c))
    assert_same_split(VectorField(ctx, terms), module)
