"""Differential oracles for the exact-lane field kernel.

The kernel avoids work it would throw away: ``MultiIndex`` stores its
``degree`` at construction, ``contains`` compares entries without
building ``self - other``, ``split_ideals`` classifies each term once,
and the Lie kernel behind ``bracket`` and ``lie_derivative`` packs each
exponent as one integer, pairs each f term only with the X terms that fit
under the cutoff with it, and builds one ``MultiIndex`` per distinct
output exponent.  In the exact lane it multiplies and adds Gaussian-integer
numerators over per-term denominators and reduces once, at unpack.  The
Lie series ``fields.lie_exp``, which ``pushforward_exp`` and ``kam_step``
call in both lanes, stays on the packed form from its first bracket to its
sum.

The earlier forms are kept here as oracles and compared with the library:

- ``parent_degree``, the summed ``degree``, and ``parent_contains``, the
  allocating ``contains``, on random signed indices;
- ``parent_lie_into``, the form-then-filter kernel over ``MultiIndex``
  keys, and the ``bracket`` and ``lie_derivative`` bodies that call it
  (``parent_bracket``, ``parent_lie_derivative``), on random exact and
  float fields, finite and with momentum, and on hand-built fields whose
  products land on the cutoff, one above it, or hold a single mode at
  exponent ``degree_cutoff + 1``;
- ``parent_gaussian_lie_into``, the packed-exponent kernel on
  ``GaussianRational`` coefficients that tested every pair against the
  cutoff, with its ``bracket`` and ``lie_derivative`` bodies, and
  ``parent_lie_series_terms`` and ``parent_pushforward_exp``, the series
  on that kernel scaled with ``VectorField.scale`` and summed with chained
  ``VectorField.__add__``, against ``fields.lie_exp`` in both lanes; on
  random fields with distinct denominators of 200 bits and more, zero real
  or imaginary parts and components of mixed degrees, and on a series in
  which a key and a whole direction cancel and come back;
- ``parent_mul``, the four-product Gaussian multiply, on exact rationals
  with either factor, both or neither real or zero;
- ``parent_truediv``, the divide through the complex norm, on the same
  rationals with real, purely imaginary and general divisors;
- ``parent_split_ideals``, one projection per class.

``split_ideals`` and ``decompose`` classify on packed integers, so on the
nls field they are counted to make no ``MultiIndex`` difference and no
``contains`` call.

Results must be equal term for term and in the same insertion order,
which fixes the order of later float sums.  The Lie algebra laws and the
agreement of the exact and float lanes are checked on random fields over
a momentum-enabled context.
"""

import functools
import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from resnf import fields
from resnf.fields import GaussianRational, ScalarSeries, VectorField
from resnf.indexing import Mode, MultiIndex, TruncationContext, iter_indices
from resnf.normalform import decompose, prenormalize, pushforward_exp
from resnf.resonance import ResonanceModule, enumerate_resonance, split_ideals
from resnf.verify import build_example_dim6, build_example_nls


def parent_degree(q):
    """The earlier ``degree`` property: the sum of the entries."""
    return sum(e for _, e in q.items())


def parent_contains(a, b):
    """The earlier ``contains``, which built ``a - b``."""
    return (a - b).is_nonnegative


def parent_lie_into(ctx, out, xterms, fdict, cutoff, tally=None):
    """The earlier ``_lie_into``: form every product over ``MultiIndex``
    keys, then drop those above ``cutoff``.  ``tally`` counts the kept and
    dropped products."""
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


def parent_bracket(x, y, tally=None):
    """The earlier ``VectorField.bracket`` body on ``parent_lie_into``."""
    cutoff = x.ctx.degree_cutoff + 1
    store = {}
    for j, comp in y._terms.items():
        target = {}
        parent_lie_into(x.ctx, target, x._terms, comp, cutoff, tally)
        if target:
            store[j] = target
    for j, comp in x._terms.items():
        target = store.setdefault(j, {})
        neg = {q: -c for q, c in comp.items()}
        parent_lie_into(x.ctx, target, y._terms, neg, cutoff, tally)
        if not target:
            store.pop(j, None)
    return VectorField._raw(x.ctx, store)


def parent_lie_derivative(x, f, tally=None):
    """The earlier ``VectorField.lie_derivative`` body."""
    store = {}
    parent_lie_into(x.ctx, store, x._terms, f._terms, x.ctx.degree_cutoff, tally)
    return ScalarSeries._raw(x.ctx, store)


def parent_gaussian_layout(ctx):
    """``(radix, modes, weight of each mode)`` of the packed exponents."""
    radix = ctx.degree_cutoff + 2
    modes = ctx.modes()
    return radix, modes, {m: radix**i for i, m in enumerate(modes)}


def parent_gaussian_pack(layout, terms):
    """``(packed exponent, degree, coefficient)`` of each term, in order."""
    weights = layout[2]
    return [
        (sum(e * weights[m] for m, e in q.items()), q.degree, c)
        for q, c in terms.items()
    ]


def parent_gaussian_unpack(layout, packed, built):
    radix, modes, _ = layout
    out = {}
    for key, c in packed.items():
        q = built.get(key)
        if q is None:
            pairs = []
            degree = i = 0
            rest = key
            while rest:
                rest, e = divmod(rest, radix)
                if e:
                    pairs.append((modes[i], e))
                    degree += e
                i += 1
            q = built[key] = MultiIndex._from_sorted(tuple(pairs), degree)
        out[q] = c
    return out


def parent_gaussian_lie_into(ctx, layout, out, xterms, fterms, cutoff):
    """The earlier packed kernel: ``GaussianRational`` (or complex)
    coefficients, every pair tested against ``cutoff``."""
    radix, _, weights = layout
    is_zero = ctx.is_zero_coeff
    for k, comp in xterms.items():
        w = weights[k]
        for qf, df, cf in fterms:
            e = qf // w % radix
            if not e:
                continue
            base = qf - w
            room = cutoff + 1 - df
            for qx, dx, cx in comp:
                if dx <= room:
                    key = qx + base
                    value = cx * cf * e
                    prev = out.get(key)
                    if prev is not None:
                        value = prev + value
                    if is_zero(value):
                        out.pop(key, None)
                    else:
                        out[key] = value


def parent_gaussian_bracket(x, y):
    ctx = x.ctx
    cutoff = ctx.degree_cutoff + 1
    layout = parent_gaussian_layout(ctx)
    xs = {k: parent_gaussian_pack(layout, comp) for k, comp in x._terms.items()}
    ys = {k: parent_gaussian_pack(layout, comp) for k, comp in y._terms.items()}
    store = {}
    for j, comp in ys.items():
        target = {}
        parent_gaussian_lie_into(ctx, layout, target, xs, comp, cutoff)
        if target:
            store[j] = target
    for j, comp in xs.items():
        target = store.setdefault(j, {})
        neg = [(key, degree, -c) for key, degree, c in comp]
        parent_gaussian_lie_into(ctx, layout, target, ys, neg, cutoff)
        if not target:
            store.pop(j, None)
    built = {}
    return VectorField._raw(
        ctx, {j: parent_gaussian_unpack(layout, t, built) for j, t in store.items()}
    )


def parent_gaussian_lie_derivative(x, f):
    layout = parent_gaussian_layout(x.ctx)
    xs = {k: parent_gaussian_pack(layout, comp) for k, comp in x._terms.items()}
    store = {}
    parent_gaussian_lie_into(
        x.ctx, layout, store, xs, parent_gaussian_pack(layout, f._terms), x.ctx.degree_cutoff
    )
    return ScalarSeries._raw(x.ctx, parent_gaussian_unpack(layout, store, {}))


def parent_lie_series_terms(f, w):
    """The earlier series: ``ad_F^k(W)/k!`` as fields, up to the first
    zero term."""
    if f.is_zero:
        return [w]
    terms = [w]
    current = w
    k = 0
    while True:
        k += 1
        current = parent_gaussian_bracket(f, current).scale(Fraction(1, k))
        if current.is_zero:
            return terms
        assert k <= w.ctx.degree_cutoff + 1
        terms.append(current)


def parent_partial_sums(f, w):
    """``W``, ``W + t_1``, ``W + t_1 + t_2``, ... with chained ``__add__``."""
    sums = []
    for t in parent_lie_series_terms(f, w):
        sums.append(t if not sums else sums[-1] + t)
    return sums


def parent_pushforward_exp(f, w):
    return parent_partial_sums(f, w)[-1]


def parent_mul(a, b):
    """The earlier ``GaussianRational`` product: always four products."""
    return GaussianRational(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def parent_truediv(a, b):
    """The earlier ``GaussianRational`` divide: through the norm of ``b``."""
    denom = b.re * b.re + b.im * b.im
    if not denom:
        raise ZeroDivisionError("division of exact coefficient by zero")
    return GaussianRational(
        (a.re * b.re + a.im * b.im) / denom,
        (a.im * b.re - a.re * b.im) / denom,
    )


def parent_split_ideals(x, module):
    """The earlier ``split_ideals``: one projection per class."""
    x0 = x.project(lambda k, q: module.classify(q) == 0)
    x1 = x.project(lambda k, q: module.classify(q) == 1)
    x2 = x.project(lambda k, q: module.classify(q) == 2)
    return x0, x1, x2


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
def field_terms(draw, ctx, max_terms=6, parts=PARTS, min_degree=1):
    """Terms of every degree from ``min_degree`` up to ``degree_cutoff +
    1``, in random order, so products land below, on and above the
    cutoff."""
    modes = ctx.modes()
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        degree = draw(st.integers(min_degree, ctx.degree_cutoff + 1))
        q = MultiIndex((draw(st.sampled_from(modes)), 1) for _ in range(degree))
        if ctx.momentum_enabled:
            ks = [k for k in modes if k.sigma * k.j == q.momentum_sum]
        else:
            ks = list(modes)
        if ks:
            c = _coefficient(ctx, draw(parts), draw(parts))
            terms.append((draw(st.sampled_from(ks)), q, c))
    return terms


@st.composite
def series_terms(draw, ctx, max_terms=6, parts=PARTS):
    modes = ctx.modes()
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        degree = draw(st.integers(0, ctx.degree_cutoff))
        q = MultiIndex((draw(st.sampled_from(modes)), 1) for _ in range(degree))
        if not ctx.momentum_enabled or q.momentum_sum == 0:
            terms.append((q, _coefficient(ctx, draw(parts), draw(parts))))
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
    assert layout(x.bracket(y)) == layout(parent_bracket(x, y))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lie_derivative_matches_form_then_filter(data):
    ctx = data.draw(context())
    x = VectorField(ctx, data.draw(field_terms(ctx)))
    f = ScalarSeries(ctx, data.draw(series_terms(ctx)))
    assert layout(fields.lie_derivative(x, f)) == layout(parent_lie_derivative(x, f))


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
        xy = x.bracket(y)
        assert layout(xy) == layout(parent_bracket(x, y, tally))
        assert layout(x.bracket(xy)) == layout(parent_bracket(x, xy, tally))
    assert tally[True] > 0 and tally[False] > 0, tally


# ---------------------------------------------------------------------------
# packed exponents at the edge of the window
# ---------------------------------------------------------------------------


def index(*powers):
    """``MultiIndex`` from ``(j, sigma, exponent)`` triples."""
    return MultiIndex((Mode(j, sigma), e) for j, sigma, e in powers)


@pytest.mark.parametrize("arithmetic", ARITHMETIC)
def test_single_mode_at_the_field_cutoff(arithmetic):
    # degree cutoff 4: field exponents reach degree 5, so x_1^5 puts the
    # largest entry a field holds into one mode's digit
    ctx = TruncationContext(3, 4, arithmetic=arithmetic)
    m1, m2, m3 = ctx.modes()
    top = index((1, 1, 5))
    x = VectorField(ctx, [(m2, top, 1), (m1, index((1, 1, 1), (3, 1, 1)), 2)])
    y = VectorField(ctx, [(m1, top, 3), (m3, index((2, 1, 1)), 1)])
    got = x.bracket(y)
    assert layout(got) == layout(parent_bracket(x, y))
    want = VectorField(ctx, [(m3, top, 1), (m1, index((1, 1, 1), (2, 1, 1)), -2)])
    assert got == want
    assert layout(y.bracket(x)) == layout(parent_bracket(y, x))
    assert y.bracket(x) == -want
    # the field operand of lie_derivative reaches degree cutoff + 1 too
    f = ScalarSeries(ctx, [(index((2, 1, 1)), 1), (index((1, 1, 4)), 1)])
    xf = VectorField(
        ctx, [(m2, top, 1), (m2, index((1, 1, 3)), 1), (m1, index((1, 1, 1)), 1)]
    )
    got = fields.lie_derivative(xf, f)
    assert layout(got) == layout(parent_lie_derivative(xf, f))
    assert got == ScalarSeries(ctx, [(index((1, 1, 3)), 1), (index((1, 1, 4)), 4)])


@pytest.mark.parametrize("arithmetic", ARITHMETIC)
def test_momentum_products_on_and_above_the_cutoff(arithmetic):
    # labels -1, 0, 1 with both signs; scalar cutoff 4, field cutoff 5
    ctx = TruncationContext(1, 4, momentum_enabled=True, arithmetic=arithmetic)
    on_cutoff = index((0, 1, 1), (-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1))
    x = VectorField(
        ctx,
        [
            (Mode(-1, 1), index((1, 1, 1), (1, -1, 1), (-1, 1, 1)), 2),
            (Mode(-1, 1), index((1, 1, 1), (1, -1, 1), (-1, 1, 1), (0, 1, 1)), 1),
        ],
    )
    y = VectorField(ctx, [(Mode(0, 1), index((-1, 1, 1), (-1, -1, 1), (0, 1, 1)), 3)])
    tally = {True: 0, False: 0}
    got = x.bracket(y)
    assert layout(got) == layout(parent_bracket(x, y, tally))
    # one product lands on degree 5 and is kept, two land on 6 and drop
    assert tally == {True: 1, False: 2}
    assert on_cutoff.degree == ctx.degree_cutoff + 1
    assert got == VectorField(ctx, [(Mode(0, 1), on_cutoff, 6)])
    assert layout(y.bracket(x)) == layout(parent_bracket(y, x))

    f = ScalarSeries(ctx, [(index((-1, 1, 1), (-1, -1, 1)), 1)])
    tally = {True: 0, False: 0}
    got = fields.lie_derivative(x, f)
    assert layout(got) == layout(parent_lie_derivative(x, f, tally))
    assert tally == {True: 1, False: 1}
    on_scalar_cutoff = index((-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1))
    assert got == ScalarSeries(ctx, [(on_scalar_cutoff, 2)])


# ---------------------------------------------------------------------------
# packed numerators and the packed Lie series against the GaussianRational forms
# ---------------------------------------------------------------------------

#: Distinct primes of 201 bits: a sum over two of them cannot share a
#: denominator, so the packed sums cross-multiply.
BIG_PRIMES = [sympy.nextprime(2**200 + 10**9 * i) for i in range(5)]
BIG = st.builds(
    Fraction, st.integers(-(2**70), 2**70).filter(bool), st.sampled_from(BIG_PRIMES)
)
#: Zero real and imaginary parts are common, so real, imaginary and
#: complex coefficients all occur.
WIDE_PARTS = st.one_of(PARTS, BIG, st.just(0))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bracket_matches_gaussian_kernel(data):
    ctx = data.draw(context())
    x = VectorField(ctx, data.draw(field_terms(ctx, 8, WIDE_PARTS)))
    y = VectorField(ctx, data.draw(field_terms(ctx, 8, WIDE_PARTS)))
    assert layout(x.bracket(y)) == layout(parent_gaussian_bracket(x, y))
    assert layout(y.bracket(x)) == layout(parent_gaussian_bracket(y, x))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_lie_derivative_matches_gaussian_kernel(data):
    ctx = data.draw(context())
    x = VectorField(ctx, data.draw(field_terms(ctx, 8, WIDE_PARTS)))
    f = ScalarSeries(ctx, data.draw(series_terms(ctx, 8, WIDE_PARTS)))
    assert layout(fields.lie_derivative(x, f)) == layout(parent_gaussian_lie_derivative(x, f))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pushforward_matches_chained_series(data):
    ctx = data.draw(context())
    # the generator has no order-0 part, so the series terminates
    f = VectorField(ctx, data.draw(field_terms(ctx, 4, WIDE_PARTS, min_degree=2)))
    w = VectorField(ctx, data.draw(field_terms(ctx, 8, WIDE_PARTS)))
    got, count = fields.lie_exp(f, w)
    assert layout(got) == layout(parent_pushforward_exp(f, w))
    assert count == len(parent_lie_series_terms(f, w)) - 1


def test_series_over_distinct_big_denominators():
    # F over one 201-bit prime and W over another: the series adds terms
    # over distinct denominators, and their product survives reduction
    ctx = CONTEXTS["finite"]
    p, q = BIG_PRIMES[:2]
    f = VectorField(ctx, [(Mode(1, 1), index((2, 1, 1), (3, 1, 1)), Fraction(1, p))])
    w = VectorField(
        ctx,
        [
            (Mode(3, 1), index((1, 1, 1)), GaussianRational(0, Fraction(3, q))),
            (Mode(2, 1), index((1, 1, 1), (2, 1, 1)), GaussianRational(Fraction(1, q), 0)),
        ],
    )
    got = pushforward_exp(f, w)
    assert layout(got) == layout(parent_pushforward_exp(f, w))
    denominators = {c.re.denominator for _, _, c in got.terms()}
    denominators |= {c.im.denominator for _, _, c in got.terms()}
    assert p * q in denominators


@pytest.mark.parametrize("arithmetic", ARITHMETIC)
def test_fitting_terms_keep_their_stored_order(arithmetic):
    # X^(1) holds degrees 1, 5, 2, 4, 1, 3 interleaved: against an f term
    # of degree 3 only degrees 1 to 3 fit, against degree 2 also 4
    ctx = TruncationContext(3, 4, arithmetic=arithmetic)
    m1, m2, m3 = ctx.modes()
    xterms = [
        index((2, 1, 1)),
        index((2, 1, 3), (3, 1, 2)),
        index((3, 1, 2)),
        index((2, 1, 2), (3, 1, 2)),
        index((3, 1, 1)),
        index((2, 1, 1), (3, 1, 2)),
    ]
    x = VectorField(ctx, [(m1, q, i + 1) for i, q in enumerate(xterms)])
    y = VectorField(
        ctx, [(m2, index((1, 1, 2), (2, 1, 1)), 1), (m3, index((1, 1, 1), (3, 1, 1)), 2)]
    )
    tally = {True: 0, False: 0}
    got = x.bracket(y)
    assert layout(got) == layout(parent_bracket(x, y, tally))
    assert layout(got) == layout(parent_gaussian_bracket(x, y))
    assert tally[True] > 0 and tally[False] > 0, tally


# found by a seeded search: in W + t_1 the direction 3+ cancels whole and
# t_2 brings it back; in ... + t_3 the key 2+^2 3+^3 of 3+ cancels and t_4
# brings it back after two keys that t_3 added.  Both move to the end.
CANCELLING_F = ["1+ | 2+^1 3+^1 | 2/1 1/1", "3+ | 1+^1 3+^1 | -1/1 0/1"]
CANCELLING_W = [
    "1+ | 2+^1 | 2/1 1/1",
    "3+ | 2+^1 3+^1 | -2/1 -1/1",
    "2+ | 2+^1 | 2/1 1/1",
    "2+ | 1+^1 2+^1 | 1/1 1/1",
    "2+ | 2+^2 3+^1 | -1/1 -3/1",
]


@pytest.mark.parametrize("arithmetic", ARITHMETIC)
def test_series_cancellations_keep_the_chained_order(arithmetic):
    ctx = TruncationContext(3, 4, arithmetic=arithmetic)
    f = VectorField.from_lines(ctx, CANCELLING_F)
    w = VectorField.from_lines(ctx, CANCELLING_W)
    sums = [s._terms for s in parent_partial_sums(f, w)]
    d3 = Mode(3, 1)
    key = index((2, 1, 2), (3, 1, 3))
    assert len(sums) == 5
    assert d3 in sums[0] and d3 not in sums[1] and d3 in sums[2]
    assert key in sums[2][d3] and key not in sums[3][d3] and key in sums[4][d3]
    got, count = fields.lie_exp(f, w)
    assert count == 4
    assert layout(got) == layout(parent_pushforward_exp(f, w))
    # the direction and the key that came back moved to the end
    assert list(w._terms) == [Mode(1, 1), d3, Mode(2, 1)]
    assert list(got._terms)[-1] == d3
    assert list(got._terms[d3]) == list(sums[3][d3]) + [key]


# ---------------------------------------------------------------------------
# GaussianRational: the real-factor product against four products
# ---------------------------------------------------------------------------

NONZERO = st.fractions(min_value=-50, max_value=50, max_denominator=40).filter(bool)
KINDS = ("zero", "real", "imaginary", "complex")


def gaussian(kind):
    if kind == "zero":
        return st.just(GaussianRational())
    if kind == "real":
        return st.builds(GaussianRational, NONZERO)
    if kind == "imaginary":
        return st.builds(GaussianRational, st.just(0), NONZERO)
    return st.builds(GaussianRational, NONZERO, NONZERO)


def assert_same_product(a, b):
    got, want = a * b, parent_mul(a, b)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (want.re, want.im), (a, b)


@pytest.mark.parametrize("right", KINDS)
@pytest.mark.parametrize("left", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_matches_four_products(left, right, data):
    a, b = data.draw(gaussian(left)), data.draw(gaussian(right))
    assert_same_product(a, b)
    assert_same_product(b, a)


def assert_same_quotient(a, b):
    got, want = a / b, parent_truediv(a, b)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (want.re, want.im), (a, b)


@pytest.mark.parametrize("right", KINDS[1:])
@pytest.mark.parametrize("left", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quotient_matches_the_norm_formula(left, right, data):
    a, b = data.draw(gaussian(left)), data.draw(gaussian(right))
    assert_same_quotient(a, b)
    if not a.is_zero:
        assert_same_quotient(b, a)
    if right == "real":
        # an int or Fraction divisor takes the real path
        got = a / b.re
        assert (got.re, got.im) == (a.re / b.re, a.im / b.re)
        if b.re.denominator == 1:
            got = a / int(b.re)
            assert (got.re, got.im) == (a.re / b.re, a.im / b.re)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_quotient_by_zero_raises(kind, data):
    a = data.draw(gaussian(kind))
    for zero in (GaussianRational(), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError, match="exact coefficient by zero"):
            a / zero


# ---------------------------------------------------------------------------
# Lie algebra laws and lane agreement over a momentum context
# ---------------------------------------------------------------------------

NLS = TruncationContext(2, 4, momentum_enabled=True)
INTEGER_PARTS = st.integers(-3, 3)


@st.composite
def integer_field(draw, ctx, max_terms=4, max_degree=3):
    """A momentum-conserving field of one to ``max_terms`` terms with
    integer coefficient parts, so that float arithmetic on it is exact.
    Degrees stay low enough that nested brackets often land in the
    window."""
    modes = ctx.modes()
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        q = MultiIndex(
            (draw(st.sampled_from(modes)), 1)
            for _ in range(draw(st.integers(1, max_degree)))
        )
        ks = [k for k in modes if k.sigma * k.j == q.momentum_sum]
        if ks:
            re = draw(INTEGER_PARTS.filter(bool))
            c = GaussianRational(re, draw(INTEGER_PARTS))
            terms.append((draw(st.sampled_from(ks)), q, c))
    return VectorField(ctx, terms)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_antisymmetry_and_jacobi_with_momentum(data):
    x, y, z = (data.draw(integer_field(NLS)) for _ in range(3))
    assert (x.bracket(y) + y.bracket(x)).is_zero
    jacobi = x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y))
    assert jacobi.is_zero


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_float_lane_matches_exact_lane(data):
    # degrees up to the field cutoff, so products also land above it
    x, y = (data.draw(integer_field(NLS, 6, NLS.degree_cutoff + 1)) for _ in range(2))
    exact = x.bracket(y)
    got = x.as_float().bracket(y.as_float())
    assert got == exact.as_float()
    assert layout(got) == layout(exact.as_float())


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


def test_classification_builds_no_index():
    # the nls field's module has generators, so every term is tested
    field, module = example("nls-N2-D5")
    w, _ = prenormalize(field, module)
    calls = []
    sub, contains = MultiIndex.__sub__, MultiIndex.contains

    def counted_sub(self, other):
        calls.append("__sub__")
        return sub(self, other)

    def counted_contains(self, other):
        calls.append("contains")
        return contains(self, other)

    with mock.patch.object(MultiIndex, "__sub__", counted_sub), mock.patch.object(
        MultiIndex, "contains", counted_contains
    ):
        parts = split_ideals(w, module)
        dec = decompose(w, module)
        split_ideals(dec.x + dec.n, module)
        # the patch is live: one difference and one contains are counted
        assert MultiIndex.unit(Mode(1, 1)) - MultiIndex()
        assert MultiIndex.unit(Mode(1, 1)).contains(MultiIndex())
    assert calls == ["__sub__", "contains"]
    assert all(not part.is_zero for part in parts)
    assert not dec.n.is_zero


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
