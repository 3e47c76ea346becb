"""Differential oracle for the window walk ``iter_indices``.

The library walks the window with a flat odometer; the recursive walk it
replaced, one nested generator per mode, is kept here as the reference.
Both must yield the same indices, with the same stored ``degree``, in the
same order.  The sums the odometer carries (packed key, value and
momentum of each index) must equal the ones computed from the index,
float symbol values included: the carried value is exact.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resnf.indexing import (
    Mode,
    MultiIndex,
    TruncationContext,
    iter_indices,
    mode_key,
    walk,
)
from resnf.resonance import FrequencyModel


def recursive_walk(modes, max_degree, min_degree=0):
    """The parent walk: one generator level per mode."""
    ordered = tuple(sorted(modes, key=mode_key))
    n = len(ordered)

    def rec(pos, remaining, acc):
        if pos == n:
            if max_degree - remaining >= min_degree:
                yield MultiIndex._from_sorted(tuple(acc), max_degree - remaining)
            return
        for e in range(remaining + 1):
            if e:
                yield from rec(pos + 1, remaining - e, acc + [(ordered[pos], e)])
            else:
                yield from rec(pos + 1, remaining, acc)

    yield from rec(0, max_degree, [])


def walked(walk, modes, max_degree, min_degree=0):
    return [(q.items(), q.degree) for q in walk(modes, max_degree, min_degree)]


# listed out of canonical order, so both walks must sort them
MODES = (Mode(2, -1), Mode(0, 1), Mode(-1, 1), Mode(1, -1), Mode(-2, 1))


@pytest.mark.parametrize("n", range(6))
def test_small_windows_match_the_recursive_walk(n):
    for max_degree in range(5):
        for min_degree in range(6):
            assert walked(iter_indices, MODES[:n], max_degree, min_degree) == walked(
                recursive_walk, MODES[:n], max_degree, min_degree
            ), (n, max_degree, min_degree)


def test_lattice_window_matches_the_recursive_walk():
    ctx = TruncationContext(4, 5, momentum_enabled=True)
    modes = ctx.modes()
    assert len(modes) == 18
    D = ctx.degree_cutoff
    assert walked(iter_indices, modes, D + 1, 1) == walked(
        recursive_walk, modes, D + 1, 1
    )


def test_walk_depth_does_not_grow_with_the_mode_count():
    modes = tuple(Mode(j, 1) for j in range(1, 1201))
    found = list(iter_indices(modes, 1))
    assert len(found) == 1201
    assert found[0] == MultiIndex()
    assert [q.modes() for q in found[1:]] == [(m,) for m in reversed(modes)]


# coordinates that often cancel, with the extremes that set the key base
COORDINATES = st.integers(-3, 3) | st.sampled_from((-10 ** 6, 10 ** 6, 999_999))


@st.composite
def models_in_windows(draw):
    """A model over 1-3 symbols, exact (rational values) or float, with
    integer or Gaussian coordinates, in a window with or without momentum."""
    momentum = draw(st.booleans())
    if momentum:
        ctx = TruncationContext(draw(st.integers(1, 2)), draw(st.integers(1, 3)), momentum_enabled=True)
    else:
        ctx = TruncationContext(draw(st.integers(1, 5)), draw(st.integers(1, 4)))
    names = ("a", "b", "c")[: draw(st.integers(1, 3))]
    if draw(st.booleans()):
        value = st.floats(0.1, 10.0)
    else:
        value = st.fractions(Fraction(-20), Fraction(20), max_denominator=9)
    symbols = [(nm, draw(value)) for nm in names]
    entry = COORDINATES | st.tuples(COORDINATES, COORDINATES)
    coords = {
        k: draw(st.dictionaries(st.sampled_from(names), entry, min_size=1))
        for k in ctx.modes()
    }
    return FrequencyModel("drawn", symbols, coords), ctx


@settings(max_examples=150, deadline=None)
@given(models_in_windows())
def test_carried_sums_match_each_index(case):
    model, ctx = case
    modes = ctx.modes()
    top = ctx.degree_cutoff + 1
    codes = model.walk_rows(modes, top + 1, ctx.momentum_enabled)
    values = [Fraction(v) for v in model.symbol_values]
    steps = walk(modes, top, 1, codes.rows)
    for (pairs, degree, (key, value, mom)), q in zip(steps, iter_indices(modes, top, 1)):
        assert (tuple(pairs), degree) == (q.items(), q.degree)
        exact = model.key(q)
        assert key == codes.pack_key(exact)
        # the value of the key, with float symbol values read exactly
        assert codes.unpack_value(value) == tuple(
            sum(pair[part] * values[i] for i, pair in exact.items()) * codes.value_scale
            for part in (0, 1)
        )
        if model.exact_capable:
            assert value == codes.pack_value(model._scaled(exact))
        assert mom == (q.momentum_sum if ctx.momentum_enabled else 0)
        # packed equality with an eigenvalue row is dict-key equality
        for k in modes:
            assert (key == codes.rows[k][0]) == (not model.key(q, k))
