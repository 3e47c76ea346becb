"""Differential oracle for the window walk ``iter_indices``.

The library walks the window with a flat odometer; the recursive walk it
replaced, one nested generator per mode, is kept here as the reference.
Both must yield the same indices, with the same stored ``degree``, in the
same order.
"""

import pytest

from resnf.indexing import (
    Mode,
    MultiIndex,
    TruncationContext,
    iter_indices,
    mode_key,
)


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
