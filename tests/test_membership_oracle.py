"""Differential oracles for the membership rules of the algebra.

``parent_classify`` is the earlier ``ResonanceModule.classify``: the
constructor built a table of generator pair sums, and an exponent was
class 2 if it contained one of them.  The library now reads the class
off the generators by its definition: class 2 when some generator
``g <= q`` leaves room ``q - g`` for a generator ``h``.

``parent_admits_mode`` is the earlier mode rule, written out from the
cutoff, the sign and the momentum flag.  The context now looks a mode
up in the one set it builds next to ``modes()``.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SQRT2, dim6_model, hyperbolic_model, nls_model
from resnf.indexing import Mode, MultiIndex, TruncationContext
from resnf.resonance import FrequencyModel, enumerate_resonance


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


# name -> (mode cutoff, degree cutoff, momentum, model builder)
MODULES = {
    "dim6-D8": (6, 8, False, dim6_model),
    "nls-N2-D5": (2, 5, True, lambda: nls_model(2)),
    "lattice-N3-D5": (3, 5, True, lambda: nls_model(3)),
    "hyperbolic-N2-D5": (2, 5, True, lambda: hyperbolic_model(2)),
    "nonresonant-D6": (2, 6, False, _nonresonant_model),
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


@pytest.mark.parametrize("name", sorted(MODULES))
def test_generator_sums_classify_as_before(name):
    module = module_named(name)
    gens = module.q_generators
    for g in gens:
        assert module.classify(g) == parent_classify(module, g) == 1
        for h in gens:
            assert module.classify(g + h) == parent_classify(module, g + h) == 2


@pytest.mark.parametrize("name", sorted(MODULES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_classify_matches_pair_sum_table(name, data):
    module = module_named(name)
    q = data.draw(exponent(module))
    klass = module.classify(q)
    assert klass == parent_classify(module, q)
    if not module.q_generators:
        assert klass == 0


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
