"""The storage algebra of fields and series before they stored packed terms.

``VectorField`` and ``ScalarSeries`` used to hold ``MultiIndex ->
GaussianRational`` (or complex) maps and summed them with ``_accumulate``;
now they hold the Lie kernel's packed keys and ``(re, im, den)``
coefficients.  ``ParentField`` and ``ParentSeries`` keep the earlier form
and its algebra (the constructor, ``__add__``, ``scale``, ``project``,
``split_diagonal``, ``majorant_norm``, ``evaluate``, ``as_float``,
``map_coefficients``, the text form and ``==``) as an oracle.

``decoded`` reads a library field or series into that form, keeping the
insertion order, with its own decoder of the packed keys: a base
``degree_cutoff + 2`` digit per mode of ``ctx.modes()`` and the degree as
the digit above them.  It asserts on the way that every stored exact
coefficient is reduced, with a positive denominator.
"""

import math
from fractions import Fraction

from resnf.fields import (
    FLOAT_ATOL,
    GaussianRational,
    ScalarSeries,
    VectorField,
    _split_term_line,
    _validate_field_key,
    _validate_scalar_key,
    coerce_coefficient,
    format_coefficient,
    parse_coefficient,
)
from resnf.indexing import MultiIndex, format_mode, mode_key, norm_weight, parse_mode


def is_zero_coeff(ctx, c) -> bool:
    """The earlier ``TruncationContext.is_zero_coeff``."""
    if ctx.exact:
        return c.is_zero
    return abs(c) <= FLOAT_ATOL


def parent_accumulate(ctx, store: dict, key, value) -> None:
    """The earlier ``fields._accumulate``."""
    prev = store.get(key)
    acc = value if prev is None else prev + value
    if is_zero_coeff(ctx, acc):
        store.pop(key, None)
    else:
        store[key] = acc


def decode_key(ctx, key: int) -> MultiIndex:
    radix = ctx.degree_cutoff + 2
    pairs = []
    for m in ctx.modes():
        key, e = divmod(key, radix)
        pairs.append((m, e))
    q = MultiIndex(pairs)
    assert key == q.degree, "the top digit of a key is its degree"
    return q


def decode_coefficient(c):
    if isinstance(c, tuple):
        re, im, den = c
        assert den > 0 and math.gcd(re, im, den) == 1 and (re or im), c
        return GaussianRational(Fraction(re, den), Fraction(im, den))
    assert type(c) is complex, c
    return c


def decoded(obj):
    """The parent form of a library field or series; a parent object is
    returned as it is."""
    if isinstance(obj, (ParentField, ParentSeries)):
        return obj
    ctx = obj.ctx

    def comp(terms):
        return {decode_key(ctx, key): decode_coefficient(c) for key, c in terms.items()}

    if isinstance(obj, ScalarSeries):
        return ParentSeries._raw(ctx, comp(obj._terms))
    assert isinstance(obj, VectorField)
    return ParentField._raw(ctx, {k: comp(terms) for k, terms in obj._terms.items()})


def layout(obj):
    """Terms with their insertion order, which fixes float sums and the
    order that later passes see."""
    obj = decoded(obj)
    if isinstance(obj, ParentSeries):
        return list(obj._terms.items())
    return [(k, list(comp.items())) for k, comp in obj._terms.items()]


class ParentSeries:
    """The earlier ``ScalarSeries`` storage."""

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        store = {}
        for q, c in items:
            c = coerce_coefficient(ctx, c)
            if is_zero_coeff(ctx, c):
                continue
            _validate_scalar_key(ctx, q)
            parent_accumulate(ctx, store, q, c)
        self.ctx = ctx
        self._terms = store

    @classmethod
    def _raw(cls, ctx, store):
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj._terms = store
        return obj

    def terms(self):
        return sorted(self._terms.items(), key=lambda it: it[0].sort_key())

    def __eq__(self, other):
        return (
            isinstance(other, ParentSeries)
            and self.ctx == other.ctx
            and self._terms == other._terms
        )


class ParentField:
    """The earlier ``VectorField`` storage and its algebra."""

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx, terms=()):
        store = {}
        for k, q, c in terms:
            c = coerce_coefficient(ctx, c)
            if is_zero_coeff(ctx, c):
                continue
            _validate_field_key(ctx, k, q)
            parent_accumulate(ctx, store.setdefault(k, {}), q, c)
        self.ctx = ctx
        self._terms = {k: comp for k, comp in store.items() if comp}

    @classmethod
    def _raw(cls, ctx, store):
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj._terms = {k: comp for k, comp in store.items() if comp}
        return obj

    @property
    def is_zero(self):
        return not self._terms

    def coefficient(self, k, q):
        return self._terms.get(k, {}).get(q)

    def terms(self):
        out = []
        for k in sorted(self._terms, key=mode_key):
            comp = self._terms[k]
            for q in sorted(comp, key=lambda idx: idx.sort_key()):
                out.append((k, q, comp[q]))
        return out

    def _iter_terms(self):
        for k, comp in self._terms.items():
            for q, c in comp.items():
                yield k, q, c

    def __eq__(self, other):
        return (
            isinstance(other, ParentField)
            and self.ctx == other.ctx
            and self._terms == other._terms
        )

    def __add__(self, other):
        store = {k: dict(comp) for k, comp in self._terms.items()}
        for k, comp in other._terms.items():
            target = store.setdefault(k, {})
            for q, c in comp.items():
                parent_accumulate(self.ctx, target, q, c)
        return ParentField._raw(self.ctx, store)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor):
        factor = coerce_coefficient(self.ctx, factor)
        if is_zero_coeff(self.ctx, factor):
            return ParentField._raw(self.ctx, {})
        store = {
            k: {q: c * factor for q, c in comp.items()}
            for k, comp in self._terms.items()
        }
        return ParentField._raw(self.ctx, store)

    def map_coefficients(self, fn):
        store = {}
        for k, q, c in self._iter_terms():
            new = coerce_coefficient(self.ctx, fn(k, q, c))
            if not is_zero_coeff(self.ctx, new):
                store.setdefault(k, {})[q] = new
        return ParentField._raw(self.ctx, store)

    def project_degree(self, d):
        return self.project(lambda k, q: q.degree == d + 1)

    def project(self, keep):
        store = {}
        for k, comp in self._terms.items():
            kept = {q: c for q, c in comp.items() if keep(k, q)}
            if kept:
                store[k] = kept
        return ParentField._raw(self.ctx, store)

    def split_diagonal(self):
        diag = self.project(lambda k, q: q.get(k) >= 1)
        rest = self.project(lambda k, q: q.get(k) < 1)
        return diag, rest

    def majorant_norm(self, r, s):
        theta = self.ctx.theta
        upper_sq = 0.0
        for k, comp in self._terms.items():
            col = sum(
                abs(complex(c)) * norm_weight(q, k, r, s, theta)
                for q, c in comp.items()
            )
            upper_sq += col * col
        return math.sqrt(upper_sq)

    def evaluate(self, x):
        positions = self.ctx.mode_positions()
        out = [0j] * len(positions)
        for k, comp in self._terms.items():
            acc = 0j
            for q, c in comp.items():
                val = complex(c)
                for m, e in q.items():
                    val *= x[positions[m]] ** e
                acc += val
            out[positions[k]] = acc
        return out

    def as_float(self):
        if not self.ctx.exact:
            return self
        fctx = self.ctx.with_arithmetic("float")
        return ParentField(fctx, ((k, q, complex(c)) for k, q, c in self._iter_terms()))

    def to_lines(self):
        return [
            "%s | %s | %s" % (format_mode(k), q, format_coefficient(self.ctx, c))
            for k, q, c in self.terms()
        ]

    @classmethod
    def from_lines(cls, ctx, lines):
        terms = []
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kpart, qpart, cpart = _split_term_line(line)
            terms.append(
                (parse_mode(kpart), MultiIndex.parse(qpart), parse_coefficient(ctx, cpart))
            )
        return cls(ctx, terms)
