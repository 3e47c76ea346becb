"""The minimal cutoff order ``m_star_minimal``, certified from its
definition.

The oracle uses no ``ResonanceModule`` code, only the model's exact
resonance tests ``is_resonant_combination`` and ``is_resonant_pair``:

- the resonant pairs are the ``(q, k)`` with ``1 <= |q| <= D`` and
  ``lambda . q = lambda_k`` that conserve momentum;
- the module elements are the resonant ``q`` of zero momentum, and the
  generators those that are not a sum of two elements;
- a pair lies in the squared ideal when two generators, repetition
  allowed, fit inside ``q`` together;
- the minimal order is the smallest ``m >= 1`` such that every pair of
  order ``|q| - 1 >= m`` lies in the squared ideal.

Under the degree convention (``|q| >= d`` instead of ``|q| - 1 >= m``)
the same cut reads ``d = m + 1``.
"""

from collections import Counter
from itertools import combinations_with_replacement

import pytest

from helpers import dim4_model, dim6_model, nls_model
from resnf.indexing import MultiIndex, TruncationContext, mode_momentum
from resnf.resonance import enumerate_resonance
from resnf.verify import hyperbolic_frequency_model


def window(modes, D):
    """Every nonnegative exponent with ``1 <= |q| <= D``."""
    for degree in range(1, D + 1):
        for combo in combinations_with_replacement(modes, degree):
            yield MultiIndex(Counter(combo))


def fits(small, big):
    return all(big.get(m) >= e for m, e in small.items())


def momentum(q):
    return sum(mode_momentum(m) * e for m, e in q.items())


def certify(ctx, model):
    """The generators, the resonant pair count and the minimal order from
    the definitions above."""
    modes = ctx.modes()

    def conserves(q, carried):
        return not ctx.momentum_enabled or momentum(q) == carried

    exponents = list(window(modes, ctx.degree_cutoff))
    elements = [
        q
        for q in exponents
        if conserves(q, 0) and model.is_resonant_combination(q)
    ]
    element_set = set(elements)
    generators = [
        q
        for q in elements
        if not any(fits(e, q) and e != q and q - e in element_set for e in elements)
    ]
    pairs = [
        (q, k)
        for q in exponents
        for k in modes
        if conserves(q, mode_momentum(k)) and model.is_resonant_pair(q, k)
    ]

    def squared(q):
        return any(
            fits(g + h, q)
            for i, g in enumerate(generators)
            for h in generators[i:]
        )

    orders = [q.degree - 1 for q, _ in pairs if not squared(q)]
    return set(generators), len(pairs), 1 + max(orders, default=0)


CASES = {
    "dim6-D8": lambda: (TruncationContext(6, 8), dim6_model()),
    "dim4-D8": lambda: (TruncationContext(4, 8), dim4_model()),
    "nls-N2-D5": lambda: (
        TruncationContext(2, 5, momentum_enabled=True), nls_model(2)
    ),
    "nls-N3-D5": lambda: (
        TruncationContext(3, 5, momentum_enabled=True), nls_model(3)
    ),
    "hyperbolic-elliptic0-N2-D5": lambda: (
        TruncationContext(2, 5, momentum_enabled=True),
        hyperbolic_frequency_model(2, elliptic_sites=[0]),
    ),
}


#: The orders ``|q| - 1`` that the README records for its examples (one
#: higher as degrees ``|q|``).
README_ORDERS = {"dim6-D8": 4, "dim4-D8": 4, "nls-N2-D5": 3, "nls-N3-D5": 3}


@pytest.mark.parametrize("case", sorted(CASES))
def test_minimal_order_matches_its_definition(case):
    ctx, model = CASES[case]()
    generators, pair_count, m = certify(ctx, model)
    module = enumerate_resonance(ctx, model)
    assert set(module.q_generators) == generators
    assert module.resonant_pair_count == pair_count
    assert module.m_star_minimal == m
    assert m == README_ORDERS.get(case, m)
