"""Sparse scalar series and polynomial vector fields over mode spaces.

Coefficients are dual-mode: Gaussian rationals (exact zero tests, exact
division) or complex doubles with a configured zero tolerance.  Fields and
series store their terms in the packed form of the Lie kernel (see
``_Packing``), validated against a shared
:class:`~resnf.indexing.TruncationContext`; products that fall outside the
degree window are dropped.  The pipeline reads the stored keys as they are;
``MultiIndex`` exponents and ``GaussianRational`` coefficients are built, anew
each time, only where a term leaves the algebra.
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
    format_power,
    mode_key,
    mode_weight,
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
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
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
# stored terms
# ---------------------------------------------------------------------------

# A stored exponent is one integer key: the entry of the i-th mode of
# ``ctx.modes()`` is its base-``radix`` digit i, and the degree is the digit
# above them all (weight ``top``).  ``radix = degree_cutoff + 2`` exceeds
# every entry of a field or series exponent, so a product exponent ``qx + qf
# - e_k``, degree included, is one integer sum, and ``degree <= room`` is
# ``key < (room + 1) * top``.  A stored exact coefficient is ``(re, im,
# den)``, Gaussian-integer numerators over a denominator, reduced (``den >
# 0``, ``gcd(re, im, den) == 1``), so equal values are equal tuples; the
# kernel and the Lie series add and multiply them unreduced and reduce each
# output term once.  A float coefficient is a complex.  A sum pops a key
# whose total vanishes, so a key that comes back is re-inserted at the end:
# outputs keep the insertion order of term-by-term sums, which fixes the
# order the float lane's later sums run in.  An exact bracket of two
# self-mirrored fields keeps that order only in its sigma=+ components and
# fills each sigma=- one from its mirror (see ``_Packing.bracket``); no
# exact artifact reads dict order, since ``decompose`` rebuilds its parts
# in ``terms()`` order and the text form sorts.


def _stored(ctx: TruncationContext, value):
    """``value`` in the stored coefficient form of ``ctx``."""
    if not ctx.exact:
        return coerce_coefficient(ctx, value)
    if isinstance(value, int):
        return value, 0, 1
    c = coerce_coefficient(ctx, value)
    b, d = c.re.denominator, c.im.denominator
    den = math.lcm(b, d)
    return c.re.numerator * (den // b), c.im.numerator * (den // d), den


def _edge(c):
    """A stored coefficient as the API gives it out."""
    if type(c) is tuple:
        re, im, den = c
        return GaussianRational(Fraction(re, den), Fraction(im, den))
    return c


def _complex(c) -> complex:
    """``complex(_edge(c))``, rounded alike without building it."""
    if type(c) is tuple:
        return complex(c[0] / c[2], c[1] / c[2])
    return c


# Zero threshold for coefficients in float mode.
FLOAT_ATOL = 1e-12


def _vanishes(c) -> bool:
    """The zero test of a stored coefficient: an exact one is zero, a float
    one at or below ``FLOAT_ATOL`` in modulus.  ``_sum_into``, the float Lie
    kernel's inner loop, writes the float half inline to save a call."""
    if type(c) is tuple:
        return not (c[0] or c[1])
    return abs(c) <= FLOAT_ATOL


def _reduced(re: int, im: int, den: int) -> tuple:
    """``(re + i*im) / den`` with ``den > 0`` in lowest terms."""
    g = math.gcd(re, im, den)
    return (re, im, den) if g == 1 else (re // g, im // g, den // g)


def _reduce(exact: bool, comp: dict) -> dict:
    """``comp`` with each exact coefficient reduced."""
    if not exact:
        return comp
    return {key: _reduced(*c) for key, c in comp.items()}


def _product(a: tuple, b: tuple) -> tuple:
    """``a * b`` on stored exact coefficients, reduced."""
    (ar, ai, ad), (br, bi, bd) = a, b
    return _reduced(ar * br - ai * bi, ar * bi + ai * br, ad * bd)


def _quotient(c: tuple, re: int, im: int, den: int) -> tuple:
    """``c / ((re + i*im) / den)`` on a stored exact coefficient, reduced;
    the divisor is nonzero, and ``den`` may be negative."""
    cr, ci, cd = c
    return _reduced((cr * re + ci * im) * den, (ci * re - cr * im) * den, cd * (re * re + im * im))


def _add(prev: tuple, re: int, im: int, den: int) -> tuple | None:
    """``prev + (re + i*im) / den`` on exact coefficients, unreduced, or
    None when the sum is zero.  Without a gcd: a denominator that divides
    the other is scaled up to it, and two that do not are multiplied."""
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


def _sum_into(exact: bool, target: dict, items) -> None:
    """Add ``(key, coefficient)`` pairs into ``target``, popping a key whose
    sum vanishes (at or below ``FLOAT_ATOL`` in the float lane, where a
    single small term is dropped too); exact sums stay unreduced."""
    for key, c in items:
        prev = target.get(key)
        if prev is not None:
            c = _add(prev, *c) if exact else prev + c
        if c is None or not exact and abs(c) <= FLOAT_ATOL:
            target.pop(key, None)
        else:
            target[key] = c


class _Packing:
    """The stored form of one context's terms and what is read off a key:
    the support (:meth:`support`, kept per key), the order code
    (:meth:`order`), the text (``tokens``) and, where a term leaves the
    algebra, the exponent (:meth:`index`, which alone builds a
    ``MultiIndex``).  ``of`` keeps it on the context for the context's
    lifetime; it holds nothing of the context, so it is freed with it."""

    __slots__ = ("exact", "radix", "modes", "weights", "positions", "top", "smoothing", "pairs", "tokens")
    __slots__ += ("ranks", "supports", "mirrored", "__weakref__")

    def __init__(self, ctx: TruncationContext):
        self.exact = ctx.exact
        self.radix = radix = ctx.degree_cutoff + 2
        self.modes = modes = ctx.modes()
        self.weights = {m: radix**i for i, m in enumerate(modes)}
        self.positions = {m: i for i, m in enumerate(modes)}
        self.top = top = radix ** len(modes)
        self.ranks = [top // radix ** (i + 1) for i in range(len(modes))]  # the order code's digit weights
        # per mode, ``(<h>, <h>**theta)`` of its norm weight
        self.smoothing = [(w, w**ctx.theta) for w in map(mode_weight, modes)]
        # each ``(i, e)`` of a support once, so a support tuple holds references
        self.pairs = [[(i, e) for e in range(radix)] for i in range(len(modes))]
        # the text ``str(MultiIndex)`` gives each ``(i, e)``
        self.tokens = [[format_power(m, e) for e in range(radix)] for m in modes]
        self.supports: dict[int, tuple] = {}
        # key -> key of its mirror, which ``mirror`` fills; None where no
        # bracket halves: a float context, or one without the sigma=- modes
        self.mirrored: dict[int, int] | None = {} if ctx.exact and ctx.momentum_enabled else None

    @staticmethod
    def of(ctx: TruncationContext) -> "_Packing":
        packing = ctx._packing
        if packing is None:
            packing = _Packing(ctx)
            object.__setattr__(ctx, "_packing", packing)
        return packing

    def key(self, q: MultiIndex) -> int | None:
        """The key of ``q``, or None unless ``q`` is nonnegative, over the
        context's modes and of degree below ``radix``: no other exponent
        has a key of its own, and a stored key never aliases one."""
        if q.degree >= self.radix:
            return None
        weights = self.weights
        key = q.degree * self.top
        for m, e in q.items():
            w = weights.get(m)
            if w is None or e < 0:
                return None
            key += e * w
        return key

    def index(self, key: int) -> MultiIndex:
        """The exponent of ``key``, built anew where a term leaves the algebra."""
        modes = self.modes
        return MultiIndex._from_sorted(tuple((modes[i], e) for i, e in self.support(key)), key // self.top)

    def support(self, key: int) -> tuple:
        """``(i, e)`` for each nonzero digit ``e`` of ``key``, the entry of
        the i-th mode, in modes order.  Built once per key."""
        found = self.supports.get(key)
        if found is None:
            radix, made, pairs, rest, i = self.radix, self.pairs, [], key % self.top, 0
            while rest:
                rest, e = divmod(rest, radix)
                if e:
                    pairs.append(made[i][e])
                i += 1
            found = self.supports[key] = tuple(pairs)
        return found

    def entry(self, key: int, k: Mode) -> int:
        """The entry of the mode ``k`` in ``key``'s exponent."""
        return key // self.weights[k] % self.radix

    def order(self, key: int) -> int:
        """The order code of ``key``, which orders keys as
        ``MultiIndex.sort_key`` orders their exponents: the degree as the
        top digit, then the i-th mode's digit at weight ``radix**(n-1-i)``
        (the first mode most significant), ``e - 1`` for an entry ``e > 0``
        and ``radix - 1`` for 0."""
        radix, top, ranks = self.radix, self.top, self.ranks
        code = (key // top + 1) * top - 1  # every digit at ``radix - 1``
        for i, e in self.support(key):
            code += (e - radix) * ranks[i]
        return code

    def norm_factors(self, k: Mode, key: int) -> tuple:
        """What the majorant-norm weight of ``x^q d/dx_k`` reads of the
        exponent: the degree ``d``, ``(<k> / prod_h <h>**q_h)**2`` and the
        smoothing gap ``sum_h <h>**theta * q_h - <k>**theta``, each with
        the operations of ``indexing.norm_weight`` in its order, so
        ``float(r)**(d-1) * square * exp(-float(s) * gap)`` is that weight
        bit for bit.  Not kept: a norm meets a term once per KAM step."""
        smoothing, prod, total = self.smoothing, 1, 0.0
        for i, e in self.support(key):
            w, power = smoothing[i]
            prod *= w**e
            total += power * e
        wk, power = smoothing[self.positions[k]]
        return key // self.top, (wk / prod) ** 2, total - power

    def _fitting(self, xterms: dict[Mode, dict], by_mode: dict, fits: dict):
        """For each direction ``k`` of X and each f term with ``x_k`` in
        it, in stored order: the X^(k) terms whose product with it stays
        within the cutoff (in stored order), the key offset ``-e_k`` of the
        product, the exponent of ``x_k`` and the f coefficient.  ``by_mode``
        is f's :meth:`support_index`; ``fits`` keeps each X component's
        filtered list per limit, and a caller that keeps X passes the same
        one again to share them."""
        positions = self.positions
        for k, comp in xterms.items():
            lists = fits.setdefault(k, {})
            for limit, base, e, cf in by_mode.get(positions[k], ()):
                xs = lists.get(limit)
                if xs is None:
                    xs = lists[limit] = [t for t in comp.items() if t[0] < limit]
                if xs:
                    yield xs, base, e, cf

    def support_index(self, fterms: dict, cutoff: int) -> dict:
        """f's terms by the modes of their support: per mode position, in
        stored order, each f term with an entry ``e > 0`` there as ``(limit,
        base, e, cf)``, where an X key fits under ``limit`` and ``base`` is
        the key offset ``-e_k`` of the product."""
        top, weights, support = self.top, list(self.weights.values()), self.support
        index: dict[int, list] = {}
        for qf, cf in fterms.items():
            limit = (cutoff + 2 - qf // top) * top
            for i, e in support(qf):
                index.setdefault(i, []).append((limit, qf - weights[i] - top, e, cf))
        return index

    def lie_into(self, out: dict, xterms: dict, fterms: dict, cutoff: int, sign: int = 1, fits: dict | None = None):
        """Accumulate ``sign * sum_k X^(k) * d f / dx_k`` into ``out``
        (key to unreduced coefficient), skipping products above
        ``cutoff``; ``fits`` as for :meth:`_fitting`."""
        pairs = self._fitting(xterms, self.support_index(fterms, cutoff), {} if fits is None else fits)
        if not self.exact:
            for xs, base, e, cf in pairs:
                cf = -cf if sign < 0 else cf
                _sum_into(False, out, ((qx + base, cx * cf * e) for qx, cx in xs))
            return
        for xs, base, e, (fr, fi, fd) in pairs:
            fr *= sign * e
            fi *= sign * e
            for qx, (xr, xi, xd) in xs:
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

    def mirror(self, key: int) -> int:
        """The key of the mirror of ``key``'s exponent, each mode's sigma
        swapped: a momentum context's modes come in pairs ``(j, -1), (j,
        +1)``, so the digits of each pair swap.  Built once per key."""
        m = self.mirrored.get(key)
        if m is None:
            radix = self.radix
            pair_radix = radix * radix
            rest = key % self.top
            m, w = key - rest, 1
            while rest:
                rest, pair = divmod(rest, pair_radix)
                m += (pair % radix * radix + pair // radix) * w
                w *= pair_radix
            self.mirrored[key] = m
        return m

    def _self_mirrored(self, terms: dict) -> bool:
        """Whether stored exact terms are their own mirror: each component
        ``(j, sigma)`` has the component ``(j, -sigma)``, as many terms,
        and at the mirror of each key the conjugate coefficient, compared
        cross-multiplied because the series' terms are unreduced."""
        mirror = self.mirror
        for k, comp in terms.items():
            other = terms.get(Mode(k.j, -k.sigma))
            if other is None or len(other) != len(comp):
                return False
            if k.sigma < 0:
                continue
            for key, (re, im, den) in comp.items():
                c = other.get(mirror(key))
                if c is None or re * c[2] != c[0] * den or im * c[2] != -c[1] * den:
                    return False
        return True

    def halves(self, *operands: dict) -> bool:
        """Whether a bracket of these stored terms halves: the context is
        exact with momentum and each operand is self-mirrored, tested in
        turn until one fails."""
        return self.mirrored is not None and all(map(self._self_mirrored, operands))

    def bracket(self, xs: dict, ys: dict, cutoff: int, half: bool | None = None, fits: dict | None = None) -> dict:
        """``[X, Y]`` on stored terms: direction to key to unreduced
        coefficient.  When X and Y are both exact and self-mirrored, so is
        ``[X, Y]`` (the mirror relabels the coordinates and conjugates, and
        the bracket's structure constants are integers): only its sigma=+
        components are computed, and each sigma=- one is the mirror of its
        twin.  ``half`` is :meth:`halves` of X and Y, tested here when None.
        ``fits`` holds X's fit lists (see :meth:`_fitting`) for a caller
        whose X stays the same."""
        if half is None:
            half = self.halves(xs, ys)
        if fits is None:
            fits = {}
        store: dict[Mode, dict] = {}
        for j, comp in ys.items():
            if half and j.sigma < 0:
                continue
            target: dict = {}
            self.lie_into(target, xs, comp, cutoff, 1, fits)
            if target:
                store[j] = target
        for j, comp in xs.items():
            if half and j.sigma < 0:
                continue
            target = store.setdefault(j, {})
            self.lie_into(target, ys, comp, cutoff, -1)
            if not target:
                del store[j]
        if half:
            mirror = self.mirror
            for j, comp in list(store.items()):
                store[Mode(j.j, -1)] = {
                    mirror(key): (re, -im, den) for key, (re, im, den) in comp.items()
                }
        return store


# ---------------------------------------------------------------------------
# scalar series
# ---------------------------------------------------------------------------


class ScalarSeries:
    """Truncated formal series ``sum_q f_q x^q`` with sparse storage: the
    operand and the result of :func:`lie_derivative`."""

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: TruncationContext, terms: Iterable[tuple] | dict = ()):
        packing = _Packing.of(ctx)
        store: dict[int, object] = {}
        for q, c in terms.items() if isinstance(terms, dict) else terms:
            c = _stored(ctx, c)
            if _vanishes(c):
                continue
            _validate_scalar_key(ctx, q)
            _sum_into(ctx.exact, store, ((packing.key(q), c),))
        self.ctx = ctx
        self._terms = _reduce(ctx.exact, store)

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
        packing = _Packing.of(self.ctx)
        terms = self._terms
        return [(packing.index(key), _edge(terms[key])) for key in sorted(terms, key=packing.order)]

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

    def __init__(self, ctx: TruncationContext, terms: Iterable[tuple] = ()):
        packing = _Packing.of(ctx)
        store: dict[Mode, dict[int, object]] = {}
        for k, q, c in terms:
            c = _stored(ctx, c)
            if _vanishes(c):
                continue
            _validate_field_key(ctx, k, q)
            _sum_into(ctx.exact, store.setdefault(k, {}), ((packing.key(q), c),))
        self.ctx = ctx
        self._terms = {k: _reduce(ctx.exact, comp) for k, comp in store.items() if comp}

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

    @classmethod
    def _diagonal(cls, ctx, values: dict) -> "VectorField":
        """``sum_k values[k] x_k d/dx_k`` from stored coefficients."""
        packing = _Packing.of(ctx)
        units = {k: packing.top + packing.weights[k] for k in values}
        return cls._raw(ctx, {k: {units[k]: c} for k, c in values.items() if not _vanishes(c)})

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return sum(len(comp) for comp in self._terms.values())

    def directions(self) -> list[Mode]:
        return sorted(self._terms, key=mode_key)

    def coefficient(self, k: Mode, q: MultiIndex):
        c = self._terms.get(k, {}).get(_Packing.of(self.ctx).key(q))
        return None if c is None else _edge(c)

    def terms(self) -> list[tuple[Mode, MultiIndex, object]]:
        index = _Packing.of(self.ctx).index
        return [(k, index(key), _edge(c)) for k, key, c in self._sorted_terms()]

    def _sorted_terms(self) -> Iterator[tuple[Mode, int, object]]:
        """``(k, key, stored coefficient)`` in ``terms()`` order."""
        order = _Packing.of(self.ctx).order
        for k in self.directions():
            comp = self._terms[k]
            for key in sorted(comp, key=order):
                yield k, key, comp[key]

    def order(self) -> int | None:
        """Smallest scaling order ``|q| - 1`` present, or None if zero."""
        keys = [min(comp) for comp in self._terms.values()]
        return min(keys) // _Packing.of(self.ctx).top - 1 if keys else None

    def max_order(self) -> int | None:
        keys = [max(comp) for comp in self._terms.values()]
        return max(keys) // _Packing.of(self.ctx).top - 1 if keys else None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorField)
            and self.ctx == other.ctx
            and self._terms == other._terms
        )

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_ctx(self.ctx, other.ctx)
        exact = self.ctx.exact
        store = {k: dict(comp) for k, comp in self._terms.items()}
        for k, comp in other._terms.items():
            _sum_into(exact, store.setdefault(k, {}), comp.items())
        return VectorField._raw(self.ctx, {k: _reduce(exact, comp) for k, comp in store.items()})

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + other.scale(-1)

    def __neg__(self) -> "VectorField":
        return self.scale(-1)

    def scale(self, factor) -> "VectorField":
        factor = _stored(self.ctx, factor)
        if _vanishes(factor):
            return VectorField._raw(self.ctx, {})
        times = _product if self.ctx.exact else complex.__mul__
        store = {
            k: {key: times(c, factor) for key, c in comp.items()}
            for k, comp in self._terms.items()
        }
        return VectorField._raw(self.ctx, store)

    def map_coefficients(self, fn: Callable[[Mode, MultiIndex, object], object]):
        """Termwise coefficient map; drops terms mapped to zero."""
        index = _Packing.of(self.ctx).index
        store: dict[Mode, dict[int, object]] = {}
        for k, comp in self._terms.items():
            for key, c in comp.items():
                new = _stored(self.ctx, fn(k, index(key), _edge(c)))
                if not _vanishes(new):
                    store.setdefault(k, {})[key] = new
        return VectorField._raw(self.ctx, store)

    # -- derivations ----------------------------------------------------

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket ``[X, Y]^(j) = X(Y^(j)) - Y(X^(j))``, truncated at
        the field cutoff."""
        _same_ctx(self.ctx, other.ctx)
        ctx = self.ctx
        store = _Packing.of(ctx).bracket(self._terms, other._terms, ctx.degree_cutoff + 1)
        return VectorField._raw(ctx, {j: _reduce(ctx.exact, t) for j, t in store.items()})

    # -- projections ----------------------------------------------------

    def project_degree(self, d: int) -> "VectorField":
        """Terms of scaling order exactly ``d`` (that is ``|q| = d + 1``):
        the keys in ``[(d + 1) * top, (d + 2) * top)``."""
        top = _Packing.of(self.ctx).top
        low, high = (d + 1) * top, (d + 2) * top
        store = {k: {key: c for key, c in comp.items() if low <= key < high} for k, comp in self._terms.items()}
        return VectorField._raw(self.ctx, store)

    def project(self, keep: Callable[[Mode, MultiIndex], bool]) -> "VectorField":
        index = _Packing.of(self.ctx).index
        store = {k: {key: c for key, c in comp.items() if keep(k, index(key))} for k, comp in self._terms.items()}
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
        factors = _Packing.of(self.ctx).norm_factors
        r, s = float(r), float(s)
        upper_sq = 0.0
        for k, comp in self._terms.items():
            col = 0
            for key, c in comp.items():
                d, square, gap = factors(k, key)
                # ``indexing.norm_weight``'s operations, in its order
                weight = r ** (d - 1) * square
                if s:
                    weight *= math.exp(-s * gap)
                col += abs(_complex(c)) * weight
            upper_sq += col * col
        return math.sqrt(upper_sq)

    # -- numerics ----------------------------------------------------------

    def evaluate(self, x) -> list[complex]:
        """Evaluate at a coordinate vector aligned with ``ctx.modes()``.

        The pipeline's flows run the code ``normalform.compile_field``
        generates; this term-by-term evaluator is a reference the tests
        compare one generated RK4 step against."""
        packing = _Packing.of(self.ctx)
        out = [0j] * len(packing.modes)
        for k, comp in self._terms.items():
            acc = 0j
            for key, c in comp.items():
                val = _complex(c)
                for i, e in packing.support(key):
                    val *= x[i] ** e
                acc += val
            out[packing.positions[k]] = acc
        return out

    def as_float(self) -> "VectorField":
        """Copy of the field over the float twin of the context."""
        if not self.ctx.exact:
            return self
        store = {}
        for k, comp in self._terms.items():
            values = ((key, _complex(c)) for key, c in comp.items())
            store[k] = {key: c for key, c in values if not _vanishes(c)}
        return VectorField._raw(self.ctx.with_arithmetic("float"), store)

    # -- text ----------------------------------------------------------

    def to_lines(self) -> list[str]:
        packing = _Packing.of(self.ctx)
        tokens, support, ctx = packing.tokens, packing.support, self.ctx
        return [
            "%s | %s | %s"
            % (format_mode(k), " ".join([tokens[i][e] for i, e in support(key)]), format_coefficient(ctx, _edge(c)))
            for k, key, c in self._sorted_terms()
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


def lie_derivative(x: VectorField, f: ScalarSeries) -> ScalarSeries:
    """Derivative of the scalar ``f`` along the field ``x``:
    ``sum_k X^(k) * df/dx_k``, truncated at the scalar cutoff."""
    _same_ctx(x.ctx, f.ctx)
    store: dict[int, object] = {}
    _Packing.of(x.ctx).lie_into(store, x._terms, f._terms, x.ctx.degree_cutoff)
    return ScalarSeries._raw(x.ctx, _reduce(x.ctx.exact, store))


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

    The terms and the running sum stay unreduced, and each term of the sum
    is reduced once, at the end.  In the exact lane ``1/k`` folds into a
    term's denominators; in the float lane it multiplies the coefficients
    as ``VectorField.scale`` does.  The sum keeps the insertion order of
    ``W + t_1 + t_2 + ...`` summed with ``__add__``.

    F and W are tested for the mirror symmetry once: when both pass, every
    term is self-mirrored by construction, and every bracket halves; when
    one fails, every bracket takes the full loop.  F's fit lists are
    shared by the brackets of the series."""
    if f.is_zero:
        return w, 0
    bound = _series_bound(f)
    _same_ctx(f.ctx, w.ctx)
    ctx = w.ctx
    exact = ctx.exact
    packing = _Packing.of(ctx)
    current = w._terms
    total = {j: dict(comp) for j, comp in current.items()}
    cutoff = ctx.degree_cutoff + 1
    half = packing.halves(f._terms, current)
    fits: dict = {}
    k = 0
    while True:
        store = packing.bracket(f._terms, current, cutoff, half, fits)
        if not store:
            break
        k += 1
        if k > bound:
            raise NormalFormError(
                "Lie series exceeded the degree bound %d; generator order "
                "bookkeeping is inconsistent" % bound
            )
        # 1/k: into the exact denominators, or as the complex of Fraction(1, k)
        factor = complex(1 / k, 0.0)
        current = {
            j: {key: (c[0], c[1], c[2] * k) if exact else c * factor for key, c in t.items()}
            for j, t in store.items()
        }
        for j, comp in current.items():
            target = total.setdefault(j, {})
            _sum_into(exact, target, comp.items())
            if not target:
                del total[j]
    if not k:
        return w, 0
    return VectorField._raw(ctx, {j: _reduce(exact, t) for j, t in total.items()}), k


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
