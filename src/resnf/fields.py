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

from .errors import ContextMismatch, NonterminatingSeries, NormalFormError
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
    """Truncated formal series ``sum_q f_q x^q`` with sparse storage: the
    operand and the result of :func:`lie_derivative`."""

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
    def _raw(cls, ctx, store):
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj._terms = store
        return obj

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[MultiIndex, object]]:
        return sorted(self._terms.items(), key=lambda it: it[0].sort_key())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScalarSeries)
            and self.ctx == other.ctx
            and self._terms == other._terms
        )


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

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket ``[X, Y]^(j) = X(Y^(j)) - Y(X^(j))``, truncated at
        the field cutoff."""
        _same_ctx(self.ctx, other.ctx)
        packing = _Packing(self.ctx)
        xs, ys = packing.field(self._terms), packing.field(other._terms)
        store = packing.bracket(xs, ys, packing.negate(xs), self.ctx.degree_cutoff + 1)
        return VectorField._raw(self.ctx, {j: packing.unpack(t) for j, t in store.items()})

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


# The Lie kernel runs on packed terms.  A packed exponent is one integer:
# the entry of the i-th mode of ``ctx.modes()`` is its base-``radix`` digit
# i, and the degree is the digit above them all (weight ``top``).  Field
# exponents reach degree ``degree_cutoff + 1`` and series keys
# ``degree_cutoff``, so ``radix = degree_cutoff + 2`` exceeds every entry of
# an operand and of a kept product.  A product exponent ``qx + qf - e_k``,
# its degree included, is then one integer sum, and ``degree <= room`` is
# ``key < (room + 1) * top``.
#
# An exact coefficient is packed as Gaussian-integer numerators over the
# term's own denominator, ``(re + i*im) / den``, never reduced on the way: a
# product multiplies the denominators, a sum adds the numerators when the
# denominators agree and cross-multiplies otherwise.  ``Fraction`` reduces
# once per output term, at unpack.  One denominator per operand (their lcm)
# would make every numerator as large as the product of the operand's
# distinct denominators.  Float coefficients stay complex.
#
# Accumulation pops a key whose sum is zero, so a key that cancels and comes
# back is re-inserted at the end: output dicts keep the insertion order of
# the ``GaussianRational`` form, which fixes the order float sums (the
# float lane, ``majorant_norm``) later run in.


def _add(prev: tuple, re: int, im: int, den: int) -> tuple | None:
    """``prev + (re + i*im) / den`` on packed exact coefficients, or None
    when the sum is zero.  Without a gcd: a denominator that divides the
    other is scaled up to it, and two that do not are multiplied."""
    pr, pi, pd = prev
    if pd == den:
        re += pr
        im += pi
    elif not den % pd:
        m = den // pd
        re += pr * m
        im += pi * m
    elif not pd % den:
        m = pd // den
        re, im, den = re * m + pr, im * m + pi, pd
    else:
        re, im, den = re * pd + pr * den, im * pd + pi * den, den * pd
    return (re, im, den) if re or im else None


class _Packing:
    """Packed exponents and coefficients over one context."""

    __slots__ = ("exact", "radix", "modes", "weights", "top", "is_zero", "built")

    def __init__(self, ctx: TruncationContext):
        self.exact = ctx.exact
        self.radix = radix = ctx.degree_cutoff + 2
        self.modes = modes = ctx.modes()
        self.weights = {m: radix**i for i, m in enumerate(modes)}
        self.top = radix ** len(modes)
        self.is_zero = ctx.is_zero_coeff
        self.built: dict[int, MultiIndex] = {}

    def pack(self, terms: dict) -> list[tuple]:
        """``(key, re, im, den)`` (exact) or ``(key, c)`` (float) of each
        term, in order; ``built`` records each key's ``MultiIndex``."""
        weights, top, exact, built = self.weights, self.top, self.exact, self.built
        out = []
        for q, c in terms.items():
            key = q.degree * top
            for m, e in q.items():
                key += e * weights[m]
            built[key] = q
            if exact:
                re, b = c.re.numerator, c.re.denominator
                im, d = c.im.numerator, c.im.denominator
                out.append((key, re, im, b) if b == d else (key, re * d, im * b, b * d))
            else:
                out.append((key, c))
        return out

    def field(self, terms: dict) -> dict[Mode, list]:
        return {k: self.pack(comp) for k, comp in terms.items()}

    def negate(self, packed: dict[Mode, list]) -> dict[Mode, list]:
        if self.exact:
            return {
                k: [(key, -re, -im, den) for key, re, im, den in comp]
                for k, comp in packed.items()
            }
        return {k: [(key, -c) for key, c in comp] for k, comp in packed.items()}

    def unpack(self, packed: dict) -> dict:
        """The exponent map of ``packed`` (key to exact ``(re, im, den)``
        or complex), in its order; ``built`` caches one ``MultiIndex`` per
        packed exponent."""
        radix, modes, top, exact, built = self.radix, self.modes, self.top, self.exact, self.built
        out = {}
        for key, c in packed.items():
            q = built.get(key)
            if q is None:
                pairs = []
                i = 0
                rest = key % top
                while rest:
                    rest, e = divmod(rest, radix)
                    if e:
                        pairs.append((modes[i], e))
                    i += 1
                q = built[key] = MultiIndex._from_sorted(tuple(pairs), key // top)
            if exact:
                re, im, den = c
                c = GaussianRational(Fraction(re, den), Fraction(im, den))
            out[q] = c
        return out

    def _fitting(self, xterms: dict[Mode, list], fterms: list, cutoff: int):
        """For each direction ``k`` of X and each f term with ``x_k`` in
        it: the X^(k) terms whose product with it stays within ``cutoff``
        (in stored order; each component is filtered once per distinct f
        degree), the key offset ``-e_k`` of the product, the exponent of
        ``x_k`` and the f term."""
        radix, weights, top = self.radix, self.weights, self.top
        for k, comp in xterms.items():
            w = weights[k]
            shift = w + top
            fits: dict[int, list] = {}
            for term in fterms:
                qf = term[0]
                e = qf // w % radix
                if not e:
                    continue
                limit = (cutoff + 2 - qf // top) * top
                xs = fits.get(limit)
                if xs is None:
                    xs = fits[limit] = [t for t in comp if t[0] < limit]
                if xs:
                    yield xs, qf - shift, e, term

    def lie_into(self, out: dict, xterms: dict[Mode, list], fterms: list, cutoff: int):
        """Accumulate ``sum_k X^(k) * d f / dx_k`` into ``out`` (packed
        key to coefficient), skipping products above ``cutoff``."""
        if not self.exact:
            is_zero = self.is_zero
            for xs, base, e, (_, cf) in self._fitting(xterms, fterms, cutoff):
                for qx, cx in xs:
                    key = qx + base
                    value = cx * cf * e
                    prev = out.get(key)
                    if prev is not None:
                        value = prev + value
                    if is_zero(value):
                        out.pop(key, None)
                    else:
                        out[key] = value
            return
        for xs, base, e, (_, fr, fi, fd) in self._fitting(xterms, fterms, cutoff):
            fr *= e
            fi *= e
            for qx, xr, xi, xd in xs:
                key = qx + base
                # a real factor scales both parts: two products, not four
                if not fi:
                    re, im = xr * fr, xi * fr
                elif not xi:
                    re, im = xr * fr, xr * fi
                else:
                    re, im = xr * fr - xi * fi, xr * fi + xi * fr
                prev = out.get(key)
                if prev is None:
                    out[key] = re, im, xd * fd
                elif total := _add(prev, re, im, xd * fd):
                    out[key] = total
                else:
                    del out[key]

    def bracket(self, xs: dict, ys: dict, neg_xs: dict, cutoff: int) -> dict:
        """``[X, Y]`` on packed operands (``neg_xs`` is ``-X``): direction
        to packed key to coefficient."""
        store: dict[Mode, dict] = {}
        for j, comp in ys.items():
            target: dict = {}
            self.lie_into(target, xs, comp, cutoff)
            if target:
                store[j] = target
        for j, comp in neg_xs.items():
            target = store.setdefault(j, {})
            self.lie_into(target, ys, comp, cutoff)
            if not target:
                del store[j]
        return store


def lie_derivative(x: VectorField, f: ScalarSeries) -> ScalarSeries:
    """Derivative of the scalar ``f`` along the field ``x``:
    ``sum_k X^(k) * df/dx_k``, truncated at the scalar cutoff."""
    _same_ctx(x.ctx, f.ctx)
    packing = _Packing(x.ctx)
    store: dict[int, object] = {}
    packing.lie_into(store, packing.field(x._terms), packing.pack(f._terms), x.ctx.degree_cutoff)
    return ScalarSeries._raw(x.ctx, packing.unpack(store))


def _series_bound(f: VectorField) -> int:
    """The most nonzero terms ``ad_F^k(W)/k!`` a series can have at
    truncation; ``f`` is nonzero."""
    order = f.order()
    if order == 0:
        raise NonterminatingSeries(
            "generator has an order-0 part; the Lie series need not "
            "terminate at truncation"
        )
    return math.ceil((f.ctx.degree_cutoff + 1) / order)


def lie_exp(f: VectorField, w: VectorField) -> tuple[VectorField, int]:
    """``exp(ad_F) W``, the pushforward of W along the time-1 flow of F,
    and the number of its nonzero terms ``ad_F^k(W)/k!`` after ``W``;
    more than :func:`_series_bound` of them raise ``NormalFormError``.

    F and W are packed once; each term stays packed and the running sum is
    unpacked once.  In the exact lane ``1/k`` folds into a term's
    denominators; in the float lane it multiplies the coefficients as
    ``VectorField.scale`` does, and each sum is ``_accumulate``'s.  The sum
    keeps the insertion order of ``W + t_1 + t_2 + ...`` summed with
    ``__add__``: a key that cancels is removed, and a direction left empty
    is dropped."""
    if f.is_zero:
        return w, 0
    bound = _series_bound(f)
    _same_ctx(f.ctx, w.ctx)
    ctx = w.ctx
    packing = _Packing(ctx)
    fs = packing.field(f._terms)
    neg_fs = packing.negate(fs)
    current = packing.field(w._terms)
    if ctx.exact:
        total = {
            j: {key: (re, im, den) for key, re, im, den in comp}
            for j, comp in current.items()
        }
    else:
        total = {j: dict(comp) for j, comp in current.items()}
    cutoff = ctx.degree_cutoff + 1
    k = 0
    while True:
        store = packing.bracket(fs, current, neg_fs, cutoff)
        if not store:
            break
        k += 1
        if k > bound:
            raise NormalFormError(
                "Lie series exceeded the degree bound %d; generator order "
                "bookkeeping is inconsistent" % bound
            )
        current = {}
        if ctx.exact:
            for j, terms in store.items():
                comp = current[j] = [
                    (key, re, im, den * k) for key, (re, im, den) in terms.items()
                ]
                target = total.setdefault(j, {})
                for key, re, im, den in comp:
                    prev = target.get(key)
                    if prev is None:
                        target[key] = re, im, den
                    elif value := _add(prev, re, im, den):
                        target[key] = value
                    else:
                        del target[key]
                if not target:
                    del total[j]
        else:
            factor = coerce_coefficient(ctx, Fraction(1, k))
            for j, terms in store.items():
                comp = current[j] = [(key, c * factor) for key, c in terms.items()]
                target = total.setdefault(j, {})
                for key, c in comp:
                    _accumulate(ctx, target, key, c)
                if not target:
                    del total[j]
    if not k:
        return w, 0
    return (
        VectorField._raw(ctx, {j: packing.unpack(t) for j, t in total.items()}),
        k,
    )


def _split_term_line(line: str) -> tuple[str, str, str]:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 3:
        raise NormalFormError("term line must have three '|' fields: %r" % (line,))
    return parts[0], parts[1], parts[2]


# -- module-level aliases matching the operation vocabulary ---------------


def bracket(x: VectorField, y: VectorField) -> VectorField:
    return x.bracket(y)


def project_degree(x: VectorField, d: int) -> VectorField:
    return x.project_degree(d)


def split_diagonal(x: VectorField) -> tuple[VectorField, VectorField]:
    return x.split_diagonal()


def majorant_norm(x: VectorField, r: float, s: float) -> float:
    return x.majorant_norm(r, s)
