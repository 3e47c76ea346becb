"""Sparse scalar series and polynomial vector fields over mode spaces.

Coefficients are dual-mode: Gaussian rationals (exact zero tests, exact
division) or complex doubles with a configured zero tolerance.  All
containers are keyed by :class:`~resnf.indexing.MultiIndex` and validated
against a shared :class:`~resnf.indexing.TruncationContext`; products that
fall outside the degree window are dropped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import ContextMismatch, NormalFormError
from .indexing import (
    Mode,
    MultiIndex,
    TruncationContext,
    format_mode,
    mode_key,
    norm_weight,
    parse_mode,
)


class GaussianRational:
    """Exact complex scalar ``re + i*im`` with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other):
        other = _as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_gaussian(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        other = _as_gaussian(other)
        # a real factor scales both parts: two products instead of four
        if not other.im:
            return GaussianRational(self.re * other.re, self.im * other.re)
        if not self.im:
            return GaussianRational(self.re * other.re, self.re * other.im)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of exact coefficient by zero")
            return GaussianRational(self.re / other, self.im / other)
        other = _as_gaussian(other)
        denom = other.re * other.re + other.im * other.im
        if not denom:
            raise ZeroDivisionError("division of exact coefficient by zero")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return (
            isinstance(other, GaussianRational)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        # equal to an int or Fraction when real, so hash like one
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(1)


def _as_gaussian(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise NormalFormError(
        "exact arithmetic accepts int/Fraction/GaussianRational, got %r" % (value,)
    )


def coerce_coefficient(ctx: TruncationContext, value):
    """Bring ``value`` into the coefficient domain of ``ctx``.

    Exact contexts reject floats loudly rather than guessing a rational.
    """
    if ctx.exact:
        if isinstance(value, (float, complex)):
            raise NormalFormError(
                "float value %r not accepted in exact arithmetic" % (value,)
            )
        return _as_gaussian(value)
    if isinstance(value, GaussianRational):
        return complex(value)
    if isinstance(value, Fraction):
        return complex(float(value), 0.0)
    return complex(value)


def format_coefficient(ctx: TruncationContext, c) -> str:
    if ctx.exact:
        return "%d/%d %d/%d" % (
            c.re.numerator,
            c.re.denominator,
            c.im.numerator,
            c.im.denominator,
        )
    return "%r %r" % (c.real, c.imag)


def _parse_float(token: str) -> float:
    """A float-lane token: a float literal, or else a ``p/q`` rational."""
    try:
        return float(token)
    except ValueError:
        return float(Fraction(token))


def parse_coefficient(ctx: TruncationContext, text: str):
    parts = text.split()
    if len(parts) != 2:
        raise NormalFormError("coefficient must be two tokens, got %r" % (text,))
    parse = Fraction if ctx.exact else _parse_float
    try:
        re, im = (parse(part) for part in parts)
    except (ValueError, ZeroDivisionError):
        raise NormalFormError("cannot parse coefficient %r" % (text,)) from None
    if ctx.exact:
        return GaussianRational(re, im)
    return complex(re, im)


# ---------------------------------------------------------------------------
# scalar series
# ---------------------------------------------------------------------------


class ScalarSeries:
    """Truncated formal series ``sum_q f_q x^q`` with sparse storage."""

    __slots__ = ("ctx", "_terms")

    def __init__(
        self,
        ctx: TruncationContext,
        terms: Iterable[tuple[MultiIndex, object]] | dict = (),
    ):
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        store: dict[MultiIndex, object] = {}
        for q, c in items:
            c = coerce_coefficient(ctx, c)
            if ctx.is_zero_coeff(c):
                continue
            _validate_scalar_key(ctx, q)
            _accumulate(ctx, store, q, c)
        self.ctx = ctx
        self._terms = store

    @classmethod
    def zero(cls, ctx: TruncationContext) -> "ScalarSeries":
        return cls(ctx)

    @classmethod
    def monomial(cls, ctx: TruncationContext, q: MultiIndex, c=1) -> "ScalarSeries":
        return cls(ctx, ((q, c),))

    @classmethod
    def _raw(cls, ctx, store):
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj._terms = store
        return obj

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, q: MultiIndex):
        return self._terms.get(q)

    def terms(self) -> list[tuple[MultiIndex, object]]:
        return sorted(self._terms.items(), key=lambda it: it[0].sort_key())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScalarSeries)
            and self.ctx == other.ctx
            and self._terms == other._terms
        )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "ScalarSeries") -> "ScalarSeries":
        _same_ctx(self.ctx, other.ctx)
        store = dict(self._terms)
        for q, c in other._terms.items():
            _accumulate(self.ctx, store, q, c)
        return ScalarSeries._raw(self.ctx, store)

    def __sub__(self, other: "ScalarSeries") -> "ScalarSeries":
        return self + other.scale(-1)

    def scale(self, factor) -> "ScalarSeries":
        factor = coerce_coefficient(self.ctx, factor)
        if self.ctx.is_zero_coeff(factor):
            return ScalarSeries._raw(self.ctx, {})
        store = {q: c * factor for q, c in self._terms.items()}
        return ScalarSeries._raw(self.ctx, store)

    def mul(self, other: "ScalarSeries") -> "ScalarSeries":
        """Series product, truncated at the scalar degree cutoff."""
        _same_ctx(self.ctx, other.ctx)
        cutoff = self.ctx.degree_cutoff
        store: dict[MultiIndex, object] = {}
        for qa, ca in self._terms.items():
            for qb, cb in other._terms.items():
                if qa.degree + qb.degree <= cutoff:
                    _accumulate(self.ctx, store, qa + qb, ca * cb)
        return ScalarSeries._raw(self.ctx, store)

    def partial(self, k: Mode) -> "ScalarSeries":
        """Partial derivative with respect to the coordinate of mode ``k``."""
        store: dict[MultiIndex, object] = {}
        for q, c in self._terms.items():
            e = q.get(k)
            if e:
                _accumulate(self.ctx, store, q.add_unit(k, -1), c * e)
        return ScalarSeries._raw(self.ctx, store)

    def project_degree(self, d: int) -> "ScalarSeries":
        store = {q: c for q, c in self._terms.items() if q.degree == d}
        return ScalarSeries._raw(self.ctx, store)

    # -- text ---------------------------------------------------------

    def to_lines(self) -> list[str]:
        return [
            "- | %s | %s" % (q, format_coefficient(self.ctx, c))
            for q, c in self.terms()
        ]

    @classmethod
    def from_lines(cls, ctx: TruncationContext, lines: Iterable[str]) -> "ScalarSeries":
        terms = []
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kpart, qpart, cpart = _split_term_line(line)
            if kpart != "-":
                raise NormalFormError("scalar line must have '-' direction: %r" % line)
            terms.append((MultiIndex.parse(qpart), parse_coefficient(ctx, cpart)))
        return cls(ctx, terms)

    def __repr__(self):
        if self.is_zero:
            return "ScalarSeries(0)"
        return "ScalarSeries(%d terms)" % len(self._terms)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


class VectorField:
    """Truncated polynomial vector field ``sum_{k,q} X^(k)_q x^q d/dx_k``.

    Terms are grouped per direction ``k``.  A monomial term with exponent
    ``q`` has scaling order ``|q| - 1``; all stored terms satisfy
    ``1 <= |q| <= degree_cutoff + 1`` and, when momentum bookkeeping is
    enabled, ``momentum(q) == momentum(k)``.
    """

    __slots__ = ("ctx", "_terms")

    def __init__(
        self,
        ctx: TruncationContext,
        terms: Iterable[tuple[Mode, MultiIndex, object]] = (),
    ):
        store: dict[Mode, dict[MultiIndex, object]] = {}
        for k, q, c in terms:
            c = coerce_coefficient(ctx, c)
            if ctx.is_zero_coeff(c):
                continue
            _validate_field_key(ctx, k, q)
            _accumulate(ctx, store.setdefault(k, {}), q, c)
        self.ctx = ctx
        self._terms = {k: comp for k, comp in store.items() if comp}

    @classmethod
    def zero(cls, ctx: TruncationContext) -> "VectorField":
        return cls(ctx)

    @classmethod
    def monomial(cls, ctx, k: Mode, q: MultiIndex, c=1) -> "VectorField":
        return cls(ctx, ((k, q, c),))

    @classmethod
    def _raw(cls, ctx, store):
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj._terms = {k: comp for k, comp in store.items() if comp}
        return obj

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return sum(len(comp) for comp in self._terms.values())

    def directions(self) -> list[Mode]:
        return sorted(self._terms, key=mode_key)

    def coefficient(self, k: Mode, q: MultiIndex):
        return self._terms.get(k, {}).get(q)

    def terms(self) -> list[tuple[Mode, MultiIndex, object]]:
        out = []
        for k in self.directions():
            comp = self._terms[k]
            for q in sorted(comp, key=lambda idx: idx.sort_key()):
                out.append((k, q, comp[q]))
        return out

    def _iter_terms(self) -> Iterator[tuple[Mode, MultiIndex, object]]:
        for k, comp in self._terms.items():
            for q, c in comp.items():
                yield k, q, c

    def order(self) -> int | None:
        """Smallest scaling order ``|q| - 1`` present, or None if zero."""
        degs = [q.degree - 1 for _, comp in self._terms.items() for q in comp]
        return min(degs) if degs else None

    def max_order(self) -> int | None:
        degs = [q.degree - 1 for _, comp in self._terms.items() for q in comp]
        return max(degs) if degs else None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorField)
            and self.ctx == other.ctx
            and self._terms == other._terms
        )

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_ctx(self.ctx, other.ctx)
        store = {k: dict(comp) for k, comp in self._terms.items()}
        for k, comp in other._terms.items():
            target = store.setdefault(k, {})
            for q, c in comp.items():
                _accumulate(self.ctx, target, q, c)
        return VectorField._raw(self.ctx, store)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + other.scale(-1)

    def __neg__(self) -> "VectorField":
        return self.scale(-1)

    def scale(self, factor) -> "VectorField":
        factor = coerce_coefficient(self.ctx, factor)
        if self.ctx.is_zero_coeff(factor):
            return VectorField._raw(self.ctx, {})
        store = {
            k: {q: c * factor for q, c in comp.items()}
            for k, comp in self._terms.items()
        }
        return VectorField._raw(self.ctx, store)

    def map_coefficients(self, fn: Callable[[Mode, MultiIndex, object], object]):
        """Termwise coefficient map; drops terms mapped to zero."""
        store: dict[Mode, dict[MultiIndex, object]] = {}
        for k, q, c in self._iter_terms():
            new = coerce_coefficient(self.ctx, fn(k, q, c))
            if not self.ctx.is_zero_coeff(new):
                store.setdefault(k, {})[q] = new
        return VectorField._raw(self.ctx, store)

    # -- derivations ----------------------------------------------------

    def lie_derivative(self, f: ScalarSeries) -> ScalarSeries:
        """Derivative of the scalar ``f`` along the field:
        ``sum_k X^(k) * df/dx_k``, truncated at the scalar cutoff."""
        _same_ctx(self.ctx, f.ctx)
        layout = _layout(self.ctx)
        xs, fs = _pack_field(layout, self._terms), _pack(layout, f._terms)
        store: dict[int, object] = {}
        _lie_into(self.ctx, layout, store, xs, fs, self.ctx.degree_cutoff)
        return ScalarSeries._raw(self.ctx, _unpack(layout, store, {}))

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket ``[X, Y]^(j) = X(Y^(j)) - Y(X^(j))``, truncated at
        the field cutoff."""
        _same_ctx(self.ctx, other.ctx)
        ctx = self.ctx
        cutoff = ctx.degree_cutoff + 1
        layout = _layout(ctx)
        xs, ys = _pack_field(layout, self._terms), _pack_field(layout, other._terms)
        store: dict[Mode, dict[int, object]] = {}
        for j, comp in ys.items():
            target: dict[int, object] = {}
            _lie_into(ctx, layout, target, xs, comp, cutoff)
            if target:
                store[j] = target
        for j, comp in xs.items():
            target = store.setdefault(j, {})
            neg = [(key, degree, -c) for key, degree, c in comp]
            _lie_into(ctx, layout, target, ys, neg, cutoff)
            if not target:
                store.pop(j, None)
        built: dict[int, MultiIndex] = {}
        return VectorField._raw(
            ctx, {j: _unpack(layout, target, built) for j, target in store.items()}
        )

    # -- projections ----------------------------------------------------

    def project_degree(self, d: int) -> "VectorField":
        """Terms of scaling order exactly ``d`` (that is ``|q| = d + 1``)."""
        return self.project(lambda k, q: q.degree == d + 1)

    def project(self, keep: Callable[[Mode, MultiIndex], bool]) -> "VectorField":
        store = {}
        for k, comp in self._terms.items():
            kept = {q: c for q, c in comp.items() if keep(k, q)}
            if kept:
                store[k] = kept
        return VectorField._raw(self.ctx, store)

    def split_diagonal(self) -> tuple["VectorField", "VectorField"]:
        """Split into (diagonal, rest): a term is diagonal when the
        direction variable itself appears, ``q_k >= 1``."""
        diag = self.project(lambda k, q: q.get(k) >= 1)
        rest = self.project(lambda k, q: q.get(k) < 1)
        return diag, rest

    # -- norms ------------------------------------------------------------

    def majorant_norm(self, r: float, s: float) -> float:
        """Estimate, rounded to nearest and not outward, of the majorant
        operator norm on the ball of radius ``r`` with smoothing parameter
        ``s``: absolute coefficients summed against the monomial weights,
        l1 in the exponent and l2 across directions."""
        theta = self.ctx.theta
        upper_sq = 0.0
        for k, comp in self._terms.items():
            col = sum(
                abs(complex(c)) * norm_weight(q, k, r, s, theta)
                for q, c in comp.items()
            )
            upper_sq += col * col
        return math.sqrt(upper_sq)

    # -- numerics ----------------------------------------------------------

    def evaluate(self, x) -> list[complex]:
        """Evaluate at a coordinate vector aligned with ``ctx.modes()``.

        The pipeline's flows run the code ``normalform.compile_field``
        generates; this term-by-term evaluator is a reference the tests
        compare one generated RK4 step against."""
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

    def as_float(self) -> "VectorField":
        """Copy of the field over the float twin of the context."""
        if not self.ctx.exact:
            return self
        fctx = self.ctx.with_arithmetic("float")
        return VectorField(
            fctx, ((k, q, complex(c)) for k, q, c in self._iter_terms())
        )

    # -- text ----------------------------------------------------------

    def to_lines(self) -> list[str]:
        return [
            "%s | %s | %s" % (format_mode(k), q, format_coefficient(self.ctx, c))
            for k, q, c in self.terms()
        ]

    @classmethod
    def from_lines(cls, ctx: TruncationContext, lines: Iterable[str]) -> "VectorField":
        terms = []
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kpart, qpart, cpart = _split_term_line(line)
            terms.append(
                (
                    parse_mode(kpart),
                    MultiIndex.parse(qpart),
                    parse_coefficient(ctx, cpart),
                )
            )
        return cls(ctx, terms)

    def __repr__(self):
        if self.is_zero:
            return "VectorField(0)"
        return "VectorField(%d terms, order %s)" % (self.term_count(), self.order())


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _same_ctx(a: TruncationContext, b: TruncationContext) -> None:
    if a != b:
        raise ContextMismatch("operands live over different truncation contexts")


def _validate_scalar_key(ctx: TruncationContext, q: MultiIndex) -> None:
    if not isinstance(q, MultiIndex):
        raise NormalFormError("series keys must be MultiIndex, got %r" % (q,))
    if not (q.is_nonnegative or q.is_zero):
        raise NormalFormError("series exponent %s has negative entries" % (q,))
    if not ctx.admits_support(q):
        raise NormalFormError("exponent %s leaves the mode cutoff" % (q,))
    if not ctx.allows_scalar_key(q):
        raise NormalFormError(
            "exponent %s exceeds the scalar degree cutoff %d" % (q, ctx.degree_cutoff)
        )
    if ctx.momentum_enabled and q.momentum_sum != 0:
        raise NormalFormError("scalar exponent %s violates zero momentum" % (q,))


def _validate_field_key(ctx: TruncationContext, k: Mode, q: MultiIndex) -> None:
    if not ctx.admits_mode(k):
        raise NormalFormError("direction %s not admitted by the context" % format_mode(k))
    if q.is_zero or not q.is_nonnegative:
        raise NormalFormError("field exponent %s must be nonnegative, nonzero" % (q,))
    if not ctx.admits_support(q):
        raise NormalFormError("exponent %s leaves the mode cutoff" % (q,))
    if not ctx.allows_field_key(q):
        raise NormalFormError(
            "field exponent %s exceeds scaling order %d" % (q, ctx.degree_cutoff)
        )
    if ctx.momentum_enabled and q.momentum_sum != k.sigma * k.j:
        raise NormalFormError(
            "term x^%s d/dx_%s violates momentum conservation" % (q, format_mode(k))
        )


def _accumulate(ctx, store: dict, key, value) -> None:
    prev = store.get(key)
    acc = value if prev is None else prev + value
    if ctx.is_zero_coeff(acc):
        store.pop(key, None)
    else:
        store[key] = acc


# The Lie kernel packs each exponent as one integer: the entry of the i-th
# mode of ``ctx.modes()`` is its base-``radix`` digit i.  Field exponents
# reach degree ``degree_cutoff + 1`` and series keys ``degree_cutoff``, so
# ``radix = degree_cutoff + 2`` exceeds every entry of an operand and of a
# kept product, and a product exponent ``qx + qf - e_k`` is one integer sum.


def _layout(ctx: TruncationContext) -> tuple[int, tuple[Mode, ...], dict[Mode, int]]:
    """``(radix, modes, weight of each mode)`` of the packed exponents."""
    radix = ctx.degree_cutoff + 2
    modes = ctx.modes()
    return radix, modes, {m: radix**i for i, m in enumerate(modes)}


def _pack(layout, terms: dict) -> list[tuple[int, int, object]]:
    """``(packed exponent, degree, coefficient)`` of each term, in order."""
    weights = layout[2]
    return [
        (sum(e * weights[m] for m, e in q.items()), q.degree, c)
        for q, c in terms.items()
    ]


def _pack_field(layout, terms: dict) -> dict[Mode, list]:
    return {k: _pack(layout, comp) for k, comp in terms.items()}


def _unpack(layout, packed: dict[int, object], built: dict[int, MultiIndex]) -> dict:
    """The exponent map of ``packed``, in its order; ``built`` caches one
    ``MultiIndex`` per packed exponent."""
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


def _lie_into(ctx, layout, out: dict, xterms: dict, fterms: list, cutoff: int) -> None:
    """Accumulate ``sum_k X^(k) * d f / dx_k`` into ``out`` (packed
    exponent map), skipping products above ``cutoff``.  ``xterms`` and
    ``fterms`` are packed by :func:`_pack_field` and :func:`_pack` on
    ``layout``."""
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


def _split_term_line(line: str) -> tuple[str, str, str]:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 3:
        raise NormalFormError("term line must have three '|' fields: %r" % (line,))
    return parts[0], parts[1], parts[2]


# -- module-level aliases matching the operation vocabulary ---------------


def lie_derivative(x: VectorField, f: ScalarSeries) -> ScalarSeries:
    return x.lie_derivative(f)


def bracket(x: VectorField, y: VectorField) -> VectorField:
    return x.bracket(y)


def project_degree(x: VectorField, d: int) -> VectorField:
    return x.project_degree(d)


def split_diagonal(x: VectorField) -> tuple[VectorField, VectorField]:
    return x.split_diagonal()


def majorant_norm(x: VectorField, r: float, s: float) -> float:
    return x.majorant_norm(r, s)
