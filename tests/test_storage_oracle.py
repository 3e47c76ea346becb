"""The stored term form of fields and series against the earlier storage.

Fields and series store the Lie kernel's packed form: one integer key per
exponent and reduced ``(re, im, den)`` exact coefficients.  The earlier
``MultiIndex -> GaussianRational`` storage and its algebra are kept in
``parent_fields`` and compared with the library here, on Hypothesis fields
of random support in the exact and the float lane, term by term and in
insertion order:

- the constructors, ``+``, ``-``, negation, ``scale`` and ``==``;
- ``project``, ``project_degree``, ``split_diagonal`` and
  ``map_coefficients``;
- ``majorant_norm``, ``evaluate`` and ``as_float``, bit for bit;
- ``to_lines`` and ``from_lines``;
- the homological divides, against the earlier ``map_coefficients``
  closures that divided by ``model.value``.

The edge of the key space is guarded: ``coefficient()`` gives None for an
exponent no stored key can hold, however it would pack.  Every stored
exact coefficient is reduced.  A context's packing is freed with the
context, and an exact ``normalize`` keeps to the one stored form.
"""

import contextlib
import gc
import math
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SQRT2, dim4_model, nls_model
from parent_fields import ParentField, ParentSeries, decoded, decode_key, layout
from resnf import fields, normalform
from resnf.errors import CutoffTooSmall, ResonantTermInRange
from resnf.fields import GaussianRational, ScalarSeries, VectorField, _Packing
from resnf.indexing import Mode, MultiIndex, TruncationContext
from resnf.normalform import _a_inverse, normalize, solve_linear_homological
from resnf.resonance import FrequencyModel, enumerate_resonance
from resnf.verify import build_example_nls
from test_kernel_oracle import WIDE_PARTS, context, field_terms, series_terms

#: Eigenvalues with both parts nonzero, so divisors are real, purely
#: imaginary (the nls model) and general.
COMPLEX = FrequencyModel(
    "complex",
    [("one", Fraction(1)), ("zeta", SQRT2)],
    {
        Mode(1, 1): {"one": (1, 2)},
        Mode(2, 1): {"one": (2, -1), "zeta": (0, 1)},
        Mode(3, 1): {"zeta": (Fraction(1, 3), 1)},
    },
)


def model_of(data, ctx):
    if ctx.momentum_enabled:
        return nls_model(2)
    return data.draw(st.sampled_from((dim4_model(), COMPLEX)))


def both(data, ctx, max_terms=8):
    """A library field and its parent twin from the same random terms."""
    terms = data.draw(field_terms(ctx, max_terms, WIDE_PARTS))
    return VectorField(ctx, terms), ParentField(ctx, terms)


def factors(ctx):
    exact = st.one_of(
        st.just(0),
        st.integers(-3, 3),
        WIDE_PARTS,
        st.builds(GaussianRational, WIDE_PARTS, WIDE_PARTS),
    )
    if ctx.exact:
        return exact
    # tiny factors push products under FLOAT_ATOL
    tiny = st.sampled_from((1e-13, -2.5e-14j, 0.75 + 1e-9j, 1e20))
    return st.one_of(exact, tiny, st.complex_numbers(max_magnitude=1e3, allow_nan=False))


# ---------------------------------------------------------------------------
# the storage algebra against the parent storage
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constructors_match_parent(data):
    ctx = data.draw(context())
    x, px = both(data, ctx)
    assert layout(x) == layout(px)
    assert x.terms() == px.terms()
    terms = data.draw(series_terms(ctx, 8, WIDE_PARTS))
    assert layout(ScalarSeries(ctx, terms)) == layout(ParentSeries(ctx, terms))
    assert ScalarSeries(ctx, terms).terms() == ParentSeries(ctx, terms).terms()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_linear_structure_matches_parent(data):
    ctx = data.draw(context())
    (x, px), (y, py) = both(data, ctx), both(data, ctx)
    assert layout(x + y) == layout(px + py)
    assert layout(y + x) == layout(py + px)
    assert layout(x - y) == layout(px - py)
    assert layout(x - x) == layout(px - px) == []
    assert layout(-x) == layout(-px)
    c = data.draw(factors(ctx))
    assert layout(x.scale(c)) == layout(px.scale(c))
    assert (x == y) == (px == py)
    assert x == VectorField(ctx, x.terms()) and decoded(x) == px


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_projections_match_parent(data):
    ctx = data.draw(context())
    x, px = both(data, ctx)
    pairs = [(k, q) for k, q, _ in px.terms()]
    kept = set(data.draw(st.lists(st.sampled_from(pairs), max_size=8))) if pairs else set()
    assert layout(x.project(lambda k, q: (k, q) in kept)) == layout(
        px.project(lambda k, q: (k, q) in kept)
    )
    d = data.draw(st.integers(-1, ctx.degree_cutoff + 1))
    assert layout(x.project_degree(d)) == layout(px.project_degree(d))
    got, want = x.split_diagonal(), px.split_diagonal()
    assert [layout(part) for part in got] == [layout(part) for part in want]

    def fn(k, q, c):
        return c * (q.degree - 2) if q.get(k) else c

    assert layout(x.map_coefficients(fn)) == layout(px.map_coefficients(fn))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_numerics_match_parent_bit_for_bit(data):
    ctx = data.draw(context())
    x, px = both(data, ctx)
    r = data.draw(st.sampled_from((0.05, 0.3, 1.0, 2.5)))
    s = data.draw(st.sampled_from((0.0, 0.125, 1.0)))
    assert x.majorant_norm(r, s) == px.majorant_norm(r, s)
    point = data.draw(
        st.lists(
            st.complex_numbers(max_magnitude=2, allow_nan=False),
            min_size=len(ctx.modes()),
            max_size=len(ctx.modes()),
        )
    )
    assert x.evaluate(point) == px.evaluate(point)
    assert layout(x.as_float()) == layout(px.as_float())
    assert x.as_float().ctx == px.as_float().ctx


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_text_io_matches_parent(data):
    ctx = data.draw(context())
    x, px = both(data, ctx)
    lines = x.to_lines()
    assert lines == px.to_lines()
    assert layout(VectorField.from_lines(ctx, lines)) == layout(ParentField.from_lines(ctx, lines))
    # from_lines sums repeated lines in the order they come
    doubled = lines + lines[::-1]
    assert layout(VectorField.from_lines(ctx, doubled)) == layout(
        ParentField.from_lines(ctx, doubled)
    )


def parent_divide(y, model, sign, resonant):
    """The earlier divides: ``map_coefficients`` by ``model.value``."""
    ctx = y.ctx

    def divide(k, q, c):
        key = model.key(q, k)
        if not key:
            raise resonant
        value = c / model.value(key, ctx.exact)
        return -value if sign < 0 else value

    return decoded(y).map_coefficients(divide)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_divides_match_parent(data):
    ctx = data.draw(context())
    model = model_of(data, ctx)
    y, _ = both(data, ctx)
    free = y.project(lambda k, q: not model.is_resonant_pair(q, k))
    got = solve_linear_homological(free, model)
    assert layout(got) == layout(parent_divide(free, model, 1, ResonantTermInRange))
    got = _a_inverse(free, model)
    assert layout(got) == layout(parent_divide(free, model, -1, ResonantTermInRange))
    if free != y:
        with pytest.raises(ResonantTermInRange):
            solve_linear_homological(y, model)
        with pytest.raises((ResonantTermInRange, CutoffTooSmall)):
            _a_inverse(y, model)


def test_float_divides_drop_quotients_at_the_tolerance():
    # divisor lambda . (3 e_1 - e_1) = 4: 2e-12 / 4 falls under FLOAT_ATOL
    ctx = TruncationContext(3, 4, arithmetic="float")
    m1, m2, _ = ctx.modes()
    y = VectorField(ctx, [(m1, index((1, 1, 3)), 2e-12), (m2, index((1, 1, 3)), 1.0)])
    model = dim4_model()
    for sign, divide in ((1, solve_linear_homological), (-1, _a_inverse)):
        got = divide(y, model)
        assert layout(got) == layout(parent_divide(y, model, sign, ResonantTermInRange))
        assert got.coefficient(m1, index((1, 1, 3))) is None
        assert got.coefficient(m2, index((1, 1, 3))) is not None


@pytest.mark.parametrize("arithmetic", ("exact", "float"))
def test_a_inverse_names_the_window_edge(arithmetic):
    # x_{1+} x_{1-} x_{1+} d/dx_{1+} is resonant (gauge pair) at degree 3
    ctx = TruncationContext(1, 2, momentum_enabled=True, arithmetic=arithmetic)
    q = MultiIndex({Mode(1, 1): 2, Mode(1, -1): 1})
    y = VectorField.monomial(ctx, Mode(1, 1), q, 3)
    with pytest.raises(CutoffTooSmall, match="beyond the enumeration window 2"):
        _a_inverse(y, nls_model(1))
    with pytest.raises(ResonantTermInRange, match="zero divisor"):
        solve_linear_homological(y, nls_model(1))


# ---------------------------------------------------------------------------
# the edge of the key space
# ---------------------------------------------------------------------------


def index(*powers):
    return MultiIndex((Mode(j, sigma), e) for j, sigma, e in powers)


@pytest.mark.parametrize("arithmetic", ("exact", "float"))
def test_coefficient_outside_the_key_space_is_none(arithmetic):
    ctx = TruncationContext(3, 4, arithmetic=arithmetic)
    m1, m2, m3 = ctx.modes()
    inside = index((1, 1, 1), (2, 1, 1), (3, 1, 1))
    w = VectorField(ctx, [(m1, inside, 5), (m2, index((1, 1, 5)), 2), (m3, index((3, 1, 1)), 1)])
    # radix 6: 1+^7 2+^-6 3+^2 would pack to 3*216 + 7 - 6*6 + 2*36 = 691,
    # the key of 1+^1 2+^1 3+^1
    aliased = index((1, 1, 7), (2, 1, -6), (3, 1, 2))
    assert _Packing.of(ctx).key(inside) == 3 * 216 + 1 + 6 + 36 == 691
    assert w.coefficient(m1, inside) == 5
    outside = {
        "negative entry": aliased,
        "mode outside the context": index((1, 1, 1), (4, 1, 2)),
        "degree 0": MultiIndex(),
        "degree above D + 1": index((1, 1, 6)),
        "degree above D + 1, carrying into the degree digit": index((1, 1, 7), (3, 1, 5)),
    }
    for name, q in outside.items():
        for k in ctx.modes():
            assert w.coefficient(k, q) is None, name
    assert w.coefficient(m2, index((1, 1, 5))) == 2
    assert w.coefficient(m2, inside) is None
    assert w.coefficient(Mode(4, 1), inside) is None
    # the map holds only canonical exponents, each under its own key
    packing = _Packing.of(ctx)
    assert [q for _, q, _ in w.terms()] == [packing.index(key) for _, key, _ in w._sorted_terms()]
    for key in (key for comp in w._terms.values() for key in comp):
        q = packing.index(key)
        assert decode_key(ctx, key) == q and packing.key(q) == key


def assert_reduced(obj):
    stores = [obj._terms] if isinstance(obj, ScalarSeries) else obj._terms.values()
    for comp in stores:
        for re, im, den in comp.values():
            assert den > 0 and (re or im) and math.gcd(re, im, den) == 1, (re, im, den)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_stored_exact_coefficient_is_reduced(data):
    ctx = data.draw(context().filter(lambda c: c.exact))
    x, _ = both(data, ctx)
    y, _ = both(data, ctx)
    f = VectorField(ctx, data.draw(field_terms(ctx, 4, WIDE_PARTS, min_degree=2)))
    model = model_of(data, ctx)
    free = y.project(lambda k, q: not model.is_resonant_pair(q, k))
    results = [
        x,
        x + y,
        x - y,
        x.scale(data.draw(factors(ctx))),
        x.bracket(y),
        fields.lie_exp(f, y)[0],
        solve_linear_homological(free, model),
        _a_inverse(free, model),
        VectorField.from_lines(ctx, (x + y).to_lines() + y.to_lines()),
        fields.lie_derivative(x, ScalarSeries(ctx, data.draw(series_terms(ctx, 8, WIDE_PARTS)))),
    ]
    for got in results:
        assert_reduced(got)


# ---------------------------------------------------------------------------
# memory: a packing lives as long as its context
# ---------------------------------------------------------------------------


def _normalize_and_drop():
    """Run a small exact and float normalize; return weak references to
    the packings of every context used, with nothing else kept."""
    field, model = build_example_nls(1, cutoff=1, degree=4)
    refs = []
    for w in (field, field.as_float()):
        module = enumerate_resonance(w.ctx, model)
        dec, log, _ = normalize(w, module)
        dec.assemble().terms()
        log.to_lines()
        refs.append(weakref.ref(_Packing.of(w.ctx)))
    return refs


def test_packing_is_freed_with_its_context():
    gc.collect()
    gc.disable()
    try:
        refs = _normalize_and_drop()
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# one term form: an exact normalize converts nothing inside the algebra
# ---------------------------------------------------------------------------


def test_exact_normalize_keeps_to_the_stored_form():
    field, model = build_example_nls(1, cutoff=2, degree=5)
    module = enumerate_resonance(field.ctx, model)
    depth = [0]
    built = {"GaussianRational": 0, "Fraction": 0}
    indices = []
    gr_init, fraction_new = GaussianRational.__init__, Fraction.__new__
    from_sorted = MultiIndex._from_sorted.__func__

    def counted_init(self, *args, **kwargs):
        built["GaussianRational"] += depth[0] > 0
        gr_init(self, *args, **kwargs)

    def counted_new(cls, *args, **kwargs):
        built["Fraction"] += depth[0] > 0
        return fraction_new(cls, *args, **kwargs)

    def counted_from_sorted(cls, pairs, degree):
        indices.append(pairs)
        return from_sorted(cls, pairs, degree)

    def inside(fn):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapped

    watched = [
        (VectorField, "bracket"),
        (normalform, "lie_exp"),
        (normalform, "split_ideals"),
        (normalform, "decompose"),
        (normalform, "_a_inverse"),
    ]
    calls = {name: 0 for _, name in watched}

    def patch(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inside(fn)(*args, **kwargs)

        return mock.patch.object(owner, name, counted)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(GaussianRational, "__init__", counted_init))
        stack.enter_context(mock.patch.object(Fraction, "__new__", counted_new))
        stack.enter_context(
            mock.patch.object(MultiIndex, "_from_sorted", classmethod(counted_from_sorted))
        )
        for owner, name in watched:
            stack.enter_context(patch(owner, name))
        dec, log, _ = normalform.normalize(field, module)
        # nor does it build an exponent: the algebra reads the stored keys
        assert not indices
        # the patches are live: one of each is counted inside, and the
        # GaussianRational builds its two parts; ``terms()`` builds the
        # exponents
        inside(lambda: (GaussianRational(1), Fraction(1, 2)))()
        dec.n.terms()
    assert built == {"GaussianRational": 1, "Fraction": 1 + 2}
    assert all(calls.values()), calls
    assert len(indices) == dec.n.term_count()
    assert (dec.z.term_count(), dec.x.term_count(), dec.n.term_count()) == (50, 0, 92)
