"""Exact resonance structure of a diagonal linear part.

A frequency model stores each eigenvalue ``lambda_k`` once, as an
integer key: its Gaussian-rational coordinates over a small basis of
named real symbols (assumed rationally independent), multiplied by the
common denominator of all coordinates.  The key of a combination
``lambda . p`` or ``lambda . (q - e_k)`` is the same integer sum of the
eigenvalue keys, and an empty key is a vanishing combination, so every
resonance question is decided exactly and independently of the symbol
values.  The value of a key (``sum_i key_i * symbol_i``) is used for
divisions, flows and Diophantine audits, and a coherence audit checks
that within the truncation window the values vanish exactly where the
keys do.

The value is an integer-linear function of the key (``value = W . key``,
``W`` the symbol values over their common denominator), in the exact and
the float lane alike.  So an empty key has the value 0, and a key equal to
an eigenvalue's key has that eigenvalue's value: an index of the window
can be a lattice element, a resonant pair or a failure of the coherence
audit only when its value lies within tolerance of 0 or of an
eigenvalue's value.  The enumeration looks up exactly those indices, with
a meet in the middle over three runs of the modes: a table holds each
suffix index once, as the record of its pairs, degree and walked sums with
its rank in the suffix walk; lists hold the values of the middle indices;
and an index is an outer index plus a middle index plus a record.  It
applies to each, in walk order, the rules a walk over every index would
apply; every other index passes the audit and records nothing.  The audit
therefore certifies the same statement as a walk over the whole window.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    CutoffTooSmall,
    ModelError,
    NormalFormError,
    ProblemFileError,
    UniqueFactorizationViolation,
)
from .fields import GaussianRational, VectorField, _Packing, _reduced
from .indexing import (
    Mode,
    MultiIndex,
    TruncationContext,
    format_mode,
    iter_indices,
    mode_key,
    mode_momentum,
    mode_weight,
    smoothing_gap,
    walk,
)

Key = dict[int, tuple[int, int]]
"""Integer coordinates ``symbol index -> (re, im)`` of a combination of
eigenvalues over the model's common denominator.  Zero entries are never
stored, so an empty key is a vanishing combination; the insertion order
is the order the entries first appeared in, which fixes the summation
order of float values."""


class FrequencyModel:
    """Eigenvalues of the diagonal linear part as integer keys.

    ``__init__`` builds one table: each mode's coordinates over the
    symbol basis as integers over a common denominator.  Every caller
    goes through two functions: :meth:`key` gives the key of
    ``lambda . p`` or ``lambda . (q - e_k)`` (empty means resonant) and
    :meth:`value` turns a key into a ``GaussianRational`` (exact
    arithmetic) or a complex number (float arithmetic).

    Parameters
    ----------
    name : str
        Label used in reports.
    symbols : sequence of (name, value)
        Basis of reals assumed rationally independent.  Values are exact
        ``Fraction`` stand-ins (enables exact arithmetic end-to-end) or
        floats (restricts the model to numeric audits).
    coordinates : mapping Mode -> mapping symbol-name -> coefficient
        Gaussian-rational coordinates of each eigenvalue.  Coefficients
        may be int, Fraction, GaussianRational, or an (re, im) pair.
    alpha, phases :
        Optional growth exponent and phase map declaring the asymptotic
        eigenvalue shape ``<k>**alpha * exp(i*phi_k)`` used by the
        Diophantine fast path; when absent the eigenvalues themselves
        are used.
    """

    __slots__ = (
        "name",
        "symbol_names",
        "symbol_values",
        "alpha",
        "phases",
        "_table",
        "_den",
        "_floats",
        "_scale",
        "_weights",
        "_unit",
    )

    def __init__(
        self,
        name: str,
        symbols: Sequence[tuple[str, Fraction | float]],
        coordinates: Mapping[Mode, Mapping[str, object]],
        *,
        alpha: float | None = None,
        phases: Mapping[Mode, float] | None = None,
    ):
        self.name = name
        self.symbol_names = tuple(nm for nm, _ in symbols)
        if len(set(self.symbol_names)) != len(self.symbol_names):
            raise ModelError("duplicate symbol names in frequency model")
        self.symbol_values = tuple(val for _, val in symbols)
        for nm, val in symbols:
            if isinstance(val, float) and not math.isfinite(val):
                raise ModelError("symbol %r has the non-finite value %r" % (nm, val))
        index = {nm: i for i, nm in enumerate(self.symbol_names)}
        coords: dict[Mode, dict[int, GaussianRational]] = {}
        den = 1
        for k, row in coordinates.items():
            if not isinstance(k, Mode):
                k = Mode(*k)
            vec = {}
            for sym, coeff in row.items():
                if sym not in index:
                    raise ModelError("unknown symbol %r for mode %s" % (sym, format_mode(k)))
                g = _as_coeff(coeff)
                if not g.is_zero:
                    vec[index[sym]] = g
                    den = math.lcm(den, g.re.denominator, g.im.denominator)
            coords[k] = vec
        self._table: dict[Mode, Key] = {
            k: {i: (int(c.re * den), int(c.im * den)) for i, c in vec.items()}
            for k, vec in coords.items()
        }
        self._den = den
        self._floats = tuple(float(v) for v in self.symbol_values)
        # the symbol values read exactly, a float as the binary fraction it
        # is, over their common denominator: ``_scaled`` is ``value * _unit``
        values = [Fraction(v) for v in self.symbol_values]
        self._scale = math.lcm(*(v.denominator for v in values))
        self._weights = tuple(int(v * self._scale) for v in values)
        self._unit = den * self._scale
        self.alpha = None if alpha is None else float(alpha)
        self.phases = None if phases is None else {
            (k if isinstance(k, Mode) else Mode(*k)): float(v)
            for k, v in phases.items()
        }

    # -- capabilities ----------------------------------------------------

    @property
    def exact_capable(self) -> bool:
        """True when all symbol values are rational, so divisions by
        divisor values stay exact."""
        return all(isinstance(v, Fraction) for v in self.symbol_values)

    def validate(self, ctx: TruncationContext) -> None:
        """Check the model covers the context with nonzero eigenvalues."""
        for k in ctx.modes():
            row = self._table.get(k)
            if row is None:
                raise ModelError("mode %s has no eigenvalue in model %s" % (format_mode(k), self.name))
            if self._scaled(row) == (0, 0):
                raise ModelError(
                    "eigenvalue of mode %s is zero; the linear part must be "
                    "nondegenerate" % format_mode(k)
                )

    # -- keys and values ---------------------------------------------------

    def _row(self, k: Mode) -> Key:
        try:
            return self._table[k]
        except KeyError:
            raise ModelError("mode %s not covered by model %s" % (format_mode(k), self.name)) from None

    def key(self, p: MultiIndex, k: Mode | None = None) -> Key:
        """Key of ``lambda . p`` for a signed index ``p``, or of
        ``lambda . (p - e_k)`` when a direction ``k`` is given."""
        table = self._table
        acc: Key = {}
        terms = p.items() if k is None else p.items() + ((k, -1),)
        for m, e in terms:
            row = table.get(m)
            if row is None:
                row = self._row(m)
            for i, (re, im) in row.items():
                cur = acc.get(i)
                if cur is None:
                    acc[i] = (re * e, im * e)
                    continue
                re = cur[0] + re * e
                im = cur[1] + im * e
                if re or im:
                    acc[i] = (re, im)
                else:
                    del acc[i]
        return acc

    def _scaled(self, key: Key) -> tuple:
        """``value(key) * _unit`` as an integer ``(re, im)`` pair, so zero
        tests need no rational arithmetic."""
        weights = self._weights
        re = im = 0
        for i, (a, b) in key.items():
            re += a * weights[i]
            im += b * weights[i]
        return re, im

    def walk_rows(self, modes: Sequence[Mode], terms: int, momentum: bool) -> "WalkRows":
        """The rows :func:`~resnf.indexing.walk` sums over ``modes`` to
        carry each index's key, value and momentum, for combinations of at
        most ``terms`` eigenvalues (counted with multiplicity and sign)."""
        table = self._table
        scaled = {k: self._scaled(table[k]) for k in modes}
        width = max((abs(c) for k in modes for pair in table[k].values() for c in pair), default=0)
        height = max((abs(c) for pair in scaled.values() for c in pair), default=0)
        codes = WalkRows(2 * terms * width + 1, 2 * terms * height + 1, self._scale, {})
        for k in modes:
            codes.rows[k] = (
                codes.pack_key(table[k]),
                codes.pack_value(scaled[k]),
                mode_momentum(k) if momentum else 0,
            )
        return codes

    def divisors(self, ctx: TruncationContext):
        """``divisor(k, key)`` over the stored keys of ``ctx``: the divisor
        ``lambda . (q - e_k)`` of ``q``'s key as its packed key, which is 0
        exactly when ``key(q, k)`` is empty, and its ``_scaled`` pair (see
        :class:`WalkRows`; ``D + 2`` eigenvalues at most), summed over the
        support of the key."""
        packing = _Packing.of(ctx)
        modes = packing.modes
        codes = self.walk_rows([m for m in modes if m in self._table], ctx.degree_cutoff + 2, False)
        rows = [codes.rows.get(m) for m in modes]
        support, unpack = packing.support, codes.unpack_value

        def divisor(k: Mode, key: int) -> tuple[int, tuple[int, int]]:
            a, b, _ = codes.rows.get(k) or self._row(k)
            for i, e in support(key):
                row = rows[i] or self._row(modes[i])  # raises: the model lacks the mode
                a -= e * row[0]
                b -= e * row[1]
            return -a, unpack(-b)

        return divisor

    def value(self, key: Key, exact: bool):
        """``sum_i key_i * symbol_i`` over the common denominator: a
        ``GaussianRational`` when ``exact``, else a complex number."""
        if exact:
            unit = self.exact_unit()
            re, im = self._scaled(key)
            return GaussianRational(Fraction(re, unit), Fraction(im, unit))
        den = self._den
        floats = self._floats
        acc = 0j
        for i, (a, b) in key.items():
            acc += complex(a / den, b / den) * floats[i]
        return acc

    def exact_unit(self) -> int:
        """The integer that ``_scaled`` multiplies values by; ModelError
        when a symbol value is irrational."""
        if not self.exact_capable:
            raise ModelError(
                "model %s has irrational symbol values; exact arithmetic "
                "is unavailable" % self.name
            )
        return self._unit

    def is_resonant_combination(self, p: MultiIndex) -> bool:
        """Exact test of ``lambda . p = 0`` (symbolic, value-independent)."""
        return not self.key(p)

    def is_resonant_pair(self, q: MultiIndex, k: Mode) -> bool:
        """Exact test of ``lambda . (q - e_k) = 0``."""
        return not self.key(q, k)

    def divisor_value(self, q: MultiIndex, k: Mode, ctx: TruncationContext):
        return self.value(self.key(q, k), ctx.exact)

    def eigenvalue_complex(self, k: Mode) -> complex:
        return self.value(self._row(k), False)

    def asymptotic_eigenvalue(self, k: Mode) -> complex:
        """The declared model shape ``<k>**alpha * exp(i*phi_k)``; falls
        back to the eigenvalue itself when no shape is declared."""
        if self.alpha is None or self.phases is None or k not in self.phases:
            return self.eigenvalue_complex(k)
        return mode_weight(k) ** self.alpha * cmath.exp(1j * self.phases[k])

    # -- derived fields -----------------------------------------------------

    def linear_field(self, ctx: TruncationContext) -> VectorField:
        """The diagonal linear vector field ``sum_k lambda_k x_k d/dx_k``."""
        self.validate(ctx)
        if ctx.exact:
            unit = self.exact_unit()
            values = {k: _reduced(*self._scaled(self._table[k]), unit) for k in ctx.modes()}
        else:
            values = {k: self.value(self._table[k], False) for k in ctx.modes()}
        return VectorField._diagonal(ctx, values)

    def __repr__(self):
        return "FrequencyModel(%s, %d modes, %d symbols)" % (
            self.name,
            len(self._table),
            len(self.symbol_names),
        )


@dataclass(frozen=True)
class WalkRows:
    """Per mode, ``(packed key, packed value, momentum)`` of its eigenvalue.

    A key packs as ``sum(re_i * B**(2i) + im_i * B**(2i+1))`` over its
    entries ``i -> (re_i, im_i)``, with ``B = key_base``.  ``B`` exceeds
    twice the largest ``|coordinate|`` that a combination of ``terms``
    eigenvalues can reach, such as ``key(q) - row(k)`` for ``|q| <= terms
    - 1``; a packed sum is zero only when every such balanced base-``B``
    digit is, so packed equality of those keys is exactly dict-key
    equality.  A value is ``sum_i key_i * symbol_i`` times ``value_scale``,
    the common denominator of the symbol values read exactly: an integer
    pair ``(re, im)`` (the model's ``_scaled``), packed as
    ``re + im * value_base`` with ``value_base`` chosen by the same rule.
    """

    key_base: int
    value_base: int
    value_scale: int
    rows: dict[Mode, tuple]

    def pack_key(self, key: Key) -> int:
        base = self.key_base
        return sum(re * base ** (2 * i) + im * base ** (2 * i + 1) for i, (re, im) in key.items())

    def pack_value(self, pair: tuple[int, int]) -> int:
        re, im = pair
        return re + im * self.value_base

    def unpack_value(self, code: int) -> tuple[int, int]:
        half = self.value_base // 2
        im, re = divmod(code + half, self.value_base)
        return re - half, im

    def within(self, code: int, bound: float) -> bool:
        """Whether the packed value's modulus is at most ``bound *
        value_scale``, decided in integers."""
        re, im = self.unpack_value(code)
        n, d = bound.as_integer_ratio()
        return (re * re + im * im) * d * d <= (n * self.value_scale) ** 2


def _as_coeff(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return GaussianRational(Fraction(value[0]), Fraction(value[1]))
    raise ModelError("cannot interpret %r as an exact coefficient" % (value,))


# ---------------------------------------------------------------------------
# resonance module enumeration
# ---------------------------------------------------------------------------


class ResonanceModule:
    """Window enumeration of the resonance structure of a model.

    Holds the nonnegative resonance lattice elements up to the degree
    cutoff, the extracted generator sets, the signed one-step translates
    per direction, and the derived order bounds.
    """

    __slots__ = (
        "model",
        "ctx",
        "q_generators",
        "p_generators",
        "module_elements",
        "M",
        "M1",
        "m_star_bound",
        "m_star_minimal",
        "violations",
        "resonant_pair_count",
        "_packing",
        "_classes",
    )

    def __init__(
        self,
        model: FrequencyModel,
        ctx: TruncationContext,
        q_generators: tuple[MultiIndex, ...],
        p_generators: dict[Mode, tuple[MultiIndex, ...]],
        module_elements: frozenset[MultiIndex],
        resonant_pairs: list[tuple[MultiIndex, Mode]],
    ):
        self.model = model
        self.ctx = ctx
        self.q_generators = q_generators
        self.p_generators = p_generators
        self.module_elements = module_elements
        self.M = max((g.degree for g in q_generators), default=0)
        self.M1 = max(
            (p.degree + 1 for gens in p_generators.values() for p in gens),
            default=0,
        )
        self.m_star_bound = 2 * self.M + self.M1
        cap = 2 * max((e for g in q_generators for _, e in g.items()), default=0)
        width = cap.bit_length() + 1
        modes = dict.fromkeys(m for g in q_generators for m in g.modes())
        places: dict[Mode | int, int] = {m: 1 << (i * width) for i, m in enumerate(modes)}
        packed = tuple(sum(e * places[m] for m, e in g.items()) for g in q_generators)
        guard = sum(places.values()) << (width - 1)
        # a stored key's places by mode position, which never equals a mode
        places.update((i, places[m]) for i, m in enumerate(ctx.modes()) if m in modes)
        packing = _Packing.of(ctx)
        self._packing = (guard, cap, places, packed, packing.support)
        # Resonant field exponents not absorbed by two generators; their maximal scaling order
        # determines the minimal valid cutoff.  Classes are kept by key, as the pipeline asks.
        found = {q: self._fits(q) for q in dict.fromkeys(q for q, _ in resonant_pairs)}
        self._classes: dict[MultiIndex | int, int] = {packing.key(q) or q: c for q, c in found.items()}
        violations = [(q.degree - 1, q, k) for q, k in resonant_pairs if found[q] != 2]
        violations.sort(key=lambda row: (row[0], row[1].sort_key(), mode_key(row[2])))
        self.violations = tuple(violations)
        self.m_star_minimal = 1 + max((s for s, _, _ in violations), default=-1)
        self.resonant_pair_count = len(resonant_pairs)

    def classify(self, q: MultiIndex | int) -> int:
        """Ideal class of an exponent, a ``MultiIndex`` or the stored key
        of a term over ``ctx``: 2 if two generators (repetition allowed)
        fit inside ``q``, 1 if one does, else 0.  Each exponent is tested
        once and its class kept, one memo for both forms: the pipeline asks
        again for the terms of every solve and series."""
        klass = self._classes.get(q)
        if klass is None:
            klass = self._classes[q] = self._fits(q)
        return klass

    def classifier(self, ctx: TruncationContext):
        """``classify`` for the stored keys over ``ctx``, read as exponents if laid out otherwise."""
        if ctx.degree_cutoff == self.ctx.degree_cutoff and ctx.modes() == self.ctx.modes():
            return self.classify
        return lambda key, index=_Packing.of(ctx).index: self.classify(index(key))

    def _fits(self, q: MultiIndex | int) -> int:
        """``classify`` without the memo.  A packed divisibility test (Monagan & Pearce,
        J. Symb. Comput. 46, 2011): a digit per generator mode, holding any ``g_i + h_i``
        (``q`` clamped to it) under a guard bit; ``G`` fits when ``Q - G`` keeps every guard
        bit, and that remainder tests ``H`` alike.  A key's entries are its support."""
        guard, cap, places, packed, support = self._packing
        code = guard
        for m, e in support(q) if type(q) is int else q.items():
            if e < 0:
                return 0
            code += (e if e < cap else cap) * places.get(m, 0)
        klass = 0
        for g in packed:
            rest = code - g
            if rest & guard == guard:
                for h in packed:
                    if (rest - h) & guard == guard:
                        return 2
                klass = 1
        return klass

    def summary(self) -> dict:
        return {
            "model": self.model.name,
            "q_generators": [str(g) for g in self.q_generators],
            "p_generators": {
                format_mode(k): [str(p) for p in gens]
                for k, gens in sorted(self.p_generators.items(), key=lambda it: mode_key(it[0]))
                if gens
            },
            "module_count": len(self.module_elements),
            "resonant_pair_count": self.resonant_pair_count,
            "M": self.M,
            "M1": self.M1,
            "m_star_bound": self.m_star_bound,
            "m_star_minimal": self.m_star_minimal,
            "violation_count": len(self.violations),
            "window_degree": self.ctx.degree_cutoff,
            "window_note": (
                "generator sets are certified only within the enumeration "
                "window; elements beyond degree %d are not examined"
                % self.ctx.degree_cutoff
            ),
        }

    def __repr__(self):
        return (
            "ResonanceModule(%d generators, M=%d, M1=%d, minimal order %d)"
            % (len(self.q_generators), self.M, self.M1, self.m_star_minimal)
        )


def classify_exponent(q: MultiIndex, module: ResonanceModule) -> int:
    return module.classify(q)


def split_ideals(
    x: VectorField, module: ResonanceModule
) -> tuple[VectorField, VectorField, VectorField]:
    """Split a field into its class-0, class-1 and class-2 parts."""
    stores = ({}, {}, {})
    classify = module.classifier(x.ctx)
    for k, comp in x._terms.items():
        for key, c in comp.items():
            stores[classify(key)].setdefault(k, {})[key] = c
    return tuple(VectorField._raw(x.ctx, store) for store in stores)


def enumerate_resonance(ctx: TruncationContext, model: FrequencyModel) -> ResonanceModule:
    """Enumerate the resonance lattice and translates within the window.

    Covers every nonnegative exponent ``q`` with ``|q| <= D`` (module
    candidates and, per direction ``k``, the signed translates
    ``q - e_k``), decides resonance exactly on the model's integer keys,
    and cross-checks that the values of those keys vanish in exactly the
    same places (a value-coherence audit guarding the divisions performed
    by the solvers over the larger field window ``|q| <= D + 1``).

    Certificate: the value of ``q`` is linear in its key, so ``q`` can
    resonate, or fail the audit, only when its value is within tolerance
    of 0 or of an eigenvalue's value.  :func:`_resonant_indices` finds
    every such ``q`` of the window ``1 <= |q| <= D + 1`` by lookups and
    list scans rather than a walk over all of it, and applies the
    per-index rules to each in walk order.  The elements, the pairs and
    their order, and the first audit failure raised, are those of the full
    walk, so the audit certifies the same statement.

    Generators: in ``sort_key`` order (degree first), an element is one
    unless a step down by a generator already found lands on an element
    (the walk keeps every resonant index of degree ``<= D``, so these are
    the indecomposable ones); a translate is one unless a step down by a
    module generator lands on a translate of its direction.  Unique
    factorization: one table ``ways[e]`` of generator multisets summing
    to ``e``, built by the coin-change recurrence over the sorted
    elements; each element needs ``ways == 1``, and each translate ``p``
    one split ``p = g + e``, ``g`` a generator of its direction and ``e``
    zero or an element.  Steps are taken on ``fields._Packing`` keys.
    """
    model.validate(ctx)
    D = ctx.degree_cutoff
    module_elements, resonant_pairs = _resonant_indices(model, ctx)

    module_elements.sort(key=MultiIndex.sort_key)
    # Packed keys, degree digit on top: for degrees <= D < radix, key(a) -
    # key(b) = key(c) iff a = b + c (key(b) + key(c) > key(a) if |b| + |c| > D)
    packing = _Packing.of(ctx)
    elements = {packing.key(e): e for e in module_elements}
    q_codes = _generators(elements, elements)
    q_generators = tuple(elements[g] for g in q_codes)
    for g in q_generators:
        if g.degree >= D:
            raise CutoffTooSmall(
                "module generator %s touches the degree window %d; raise the "
                "cutoff to certify completeness" % (g, D)
            )
    ways = dict.fromkeys(elements, 0)
    for g in q_codes:
        ways[g] += 1
        for e in elements:
            ways[e] += ways.get(e - g, 0)
    for e, n in ways.items():
        if n != 1:
            raise UniqueFactorizationViolation(
                "lattice element %s admits %d generator factorizations; the "
                "frequency model violates the unique-sum hypothesis" % (elements[e], n)
            )

    # per direction, the translates q - e_k outside the lattice, by key(q) - key(e_k)
    translates: dict[Mode, dict[int, MultiIndex]] = {}
    for q, k in resonant_pairs:
        code = packing.key(q) - packing.weights[k] - packing.top
        if code and code not in ways:
            translates.setdefault(k, {})[code] = q - MultiIndex.unit(k)
    p_codes = {}
    for k, plist in translates.items():
        translates[k] = plist = dict(sorted(plist.items(), key=lambda it: it[1].sort_key()))
        p_codes[k] = _generators(plist, plist, q_codes)
    p_generators = {k: tuple(translates[k][p] for p in gens) for k, gens in p_codes.items()}
    for k, gens in p_generators.items():
        for p in gens:
            if p.degree + 1 >= D:
                raise CutoffTooSmall(
                    "translate generator %s for direction %s touches the "
                    "degree window %d" % (p, format_mode(k), D)
                )
    for k, plist in translates.items():
        for code, p in plist.items():
            n = sum(1 if code == g else ways.get(code - g, 0) for g in p_codes[k])
            if n != 1:
                raise UniqueFactorizationViolation(
                    "translate %s (direction %s) admits %d factorizations "
                    "as generator plus lattice element" % (p, format_mode(k), n)
                )

    return ResonanceModule(
        model, ctx, q_generators, p_generators, frozenset(module_elements), resonant_pairs
    )


#: The most entries :func:`_resonant_indices` puts in its suffix table,
#: unless the suffix is empty.
SPLIT_TABLE_CAP = 4096

#: The most indices (about 200 bytes each) the middle lists keep, unless empty.
MIDDLE_CAP = 800


def resonance_split(n_modes: int, window: int, targets: int, cap: int = SPLIT_TABLE_CAP) -> int:
    """How many leading modes of ``n_modes`` are walked when the indices of
    the others are filed once per target.  The split ``s`` minimises the
    work ``C(s + window, window) + targets * C(n_modes - s + window,
    window)`` (indices walked plus entries filed) over the splits that file
    at most ``cap`` entries, and ``s = n_modes`` (one entry per target)
    always qualifies; ties go to the smaller ``s``.

    :func:`_resonant_indices` splits its modes with ``SPLIT_TABLE_CAP``,
    then its prefix with one target and ``MIDDLE_CAP``, which leaves the
    middle empty only for an empty prefix (one prefix mode ties, to 0)."""

    def table(s):
        return targets * math.comb(n_modes - s + window, window)

    fits = [s for s in range(n_modes + 1) if s == n_modes or table(s) <= cap]
    return min(fits, key=lambda s: math.comb(s + window, window) + table(s))


def _resonant_indices(model: FrequencyModel, ctx: TruncationContext):
    """The module elements and the resonant pairs ``(q, k)`` with ``|q| <=
    D``, in the order of ``walk(ctx.modes(), D + 1, 1)`` (then modes order),
    after the value-coherence audit of ``1 <= |q| <= D + 1``.

    A meet in the middle (Horowitz & Sahni, J. ACM 21, 1974) finds the
    indices whose value is within tolerance of a target (0 or an
    eigenvalue's value): ``value(q) = value(p) + value(r)`` for its parts
    ``p`` over the prefix ``modes[:s]`` and ``r`` over the suffix
    ``modes[s:]``.  The suffix walk files each ``r`` once, as the record
    ``(rank, pairs, degree, sums)`` with ``rank`` its place in that walk,
    under ``t - value(r)`` for each target ``t``; a prefix index ``p`` that
    finds records gives each ``q`` as ``p`` plus ``r``, with the prefix
    modes first.  A float-valued model files grid cells of side ``>= tol *
    value_scale`` and probes the 3 x 3 cells around ``value(p)``, taking
    each record once, in rank order: the walk order of ``r``.

    The prefix splits again (Schroeppel & Shamir, SIAM J. Comput. 10,
    1981): ``p`` is an outer index ``o`` over ``modes[:a]`` plus a middle
    index, walked once into a list of values per degree budget.  Each ``o``
    scans its budget's list for values ``v`` with ``value(o) + v`` filed;
    only those become prefix indices.  An empty middle is the two-part walk."""
    D = ctx.degree_cutoff
    window = D + 1
    modes = ctx.modes()

    # Each index carries its packed key, its packed value (exact, compared
    # against a tolerance for a model with float values) and its momentum.
    # The divisor key ``lambda . (q - e_k)`` is empty iff the key of ``q``
    # equals the eigenvalue key of ``k``, and its value vanishes iff the two
    # values agree; only directions of the same momentum are divisors.
    codes = model.walk_rows(modes, D + 2, ctx.momentum_enabled)
    rows = codes.rows
    exactly = model.exact_capable
    tol = None if exactly else 1e-9 * model._den  # ``within`` scales it by _scale
    # per momentum, the directions by packed key and by packed value (a
    # tolerance cannot be hashed: float values are scanned), in modes order
    buckets: dict[int, tuple[dict, dict | list]] = {}
    for k in modes:
        kcode, vcode, mom = rows[k]
        by_key, by_value = buckets.setdefault(mom, ({}, {} if exactly else []))
        by_key[kcode] = by_key.get(kcode, ()) + (k,)
        if exactly:
            by_value[vcode] = by_value.get(vcode, ()) + (k,)
        else:
            by_value.append((k, vcode))

    targets = {0} | {rows[k][1] for k in modes}
    split = resonance_split(len(modes), window, len(targets))
    outer = resonance_split(split, window, 1, MIDDLE_CAP)
    if not exactly:
        num, den = tol.as_integer_ratio()
        side = max(1, -(-num * codes.value_scale // den))

        def cell(code):
            re, im = codes.unpack_value(code)
            return re // side, im // side

    table: dict = {}
    for rank, (pairs, degree, sums) in enumerate(walk(modes[split:], window, 0, rows)):
        record = (rank, tuple(pairs), degree, sums)
        for t in targets:
            at = t - sums[1] if exactly else cell(t - sums[1])
            table.setdefault(at, []).append(record)
    # Tuples, one allocation per key: the lists' blocks are free again
    # before the prefix walk allocates what it keeps, which lowers the peak
    # RSS of an analyze of the 18-mode lattice by 0.2-0.3 MB.
    for at, entries in table.items():
        table[at] = tuple(entries)
    if exactly:
        probe = table.get
    else:

        def probe(value):
            re, im = cell(value)
            near = (table.get((re + dr, im + di), ()) for dr in (-1, 0, 1) for di in (-1, 0, 1))
            found = {record[0]: record for entries in near for record in entries}
            return [found[rank] for rank in sorted(found)]

    # The middle: per degree budget, the values of the middle indices of at
    # most that degree, in walk order; under each value, its indices' (rank,
    # pairs, degree, key, momentum).
    budgets: list[list[int]] = [[] for _ in range(window + 1)]
    named: dict[int, list] = {}
    for rank, (pairs, degree, sums) in enumerate(walk(modes[outer:split], window, 0, rows)):
        named.setdefault(sums[1], []).append((rank, tuple(pairs), degree, sums[0], sums[2]))
        for budget in range(degree, window + 1):
            budgets[budget].append(sums[1])

    def prefix_hits():  # the prefix indices with records, in walk order
        for opairs, odegree, (okey, ovalue, omom) in walk(modes[:outer], window, 0, rows):
            budget = window - odegree
            if exactly:
                found = [v for v in budgets[budget] if ovalue + v in table]
            else:
                found = [v for v in budgets[budget] if probe(ovalue + v)]
            if found:
                middles = [(m, v) for v in set(found) for m in named[v] if m[2] <= budget]
                for (_, mpairs, mdegree, mkey, mmom), mvalue in sorted(middles):
                    pairs = tuple(opairs) + mpairs
                    yield pairs, odegree + mdegree, (okey + mkey, ovalue + mvalue, omom + mmom)

    module_elements: list[MultiIndex] = []
    resonant_pairs: list[tuple[MultiIndex, Mode]] = []
    for head, pdegree, (pkey, pvalue, pmom) in prefix_hits():
        for _, rpairs, rdegree, (rkey, rvalue, rmom) in probe(pvalue):
            degree = pdegree + rdegree
            if not degree or degree > window:
                continue
            pairs = head + rpairs
            key, value, mom = pkey + rkey, pvalue + rvalue, pmom + rmom
            value_zero = not value if exactly else codes.within(value, tol)
            if (not key) != value_zero:
                q = MultiIndex._from_sorted(pairs, degree)
                _require_coherent(model, q, None, not key, value_zero)
            if degree <= D and not key and not mom:
                module_elements.append(MultiIndex._from_sorted(pairs, degree))
            bucket = buckets.get(mom)
            if bucket is None:
                continue  # no direction has this momentum
            by_key, by_value = bucket
            # the directions whose divisor key, and whose divisor value, vanish
            resonant = by_key.get(key, ())
            if exactly:
                vanishing = by_value.get(value, ())
            else:
                vanishing = tuple(k for k, v in by_value if codes.within(value - v, tol))
            if resonant != vanishing:
                k = next(k for k in modes if (k in resonant) != (k in vanishing))
                q = MultiIndex._from_sorted(pairs, degree)
                _require_coherent(model, q, k, k in resonant, k in vanishing)
            if resonant and degree <= D:
                q = MultiIndex._from_sorted(pairs, degree)
                resonant_pairs.extend((q, k) for k in resonant)
    return module_elements, resonant_pairs


def _require_coherent(model, q, k, symbolic_zero: bool, numeric_zero: bool) -> None:
    if symbolic_zero != numeric_zero:
        where = "lambda . %s" % (q,)
        if k is not None:
            where = "divisor of x^%s d/dx_%s" % (q, format_mode(k))
        raise ModelError(
            "symbol coordinates and numeric values disagree about the "
            "vanishing of %s in model %s: the declared values are not "
            "independent enough for this window" % (where, model.name)
        )


def _generators(ordered, members, steps=None) -> list[int]:
    """The codes of ``ordered`` from which no step down by one of ``steps``
    (default: the ones found so far) lands in ``members``."""
    gens: list[int] = []
    for e in ordered:
        if not any(e - g in members for g in (gens if steps is None else steps)):
            gens.append(e)
    return gens


# ---------------------------------------------------------------------------
# Diophantine audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiophantineReport:
    """Result of the small-divisor lower-bound scan."""

    tau: float
    gamma_max: float
    worst_p: MultiIndex | None
    enumerated_count: int
    degree_bound: int
    mode_cutoff: int
    fast_path_hits: int
    fast_path_enabled: bool
    unconstrained: bool

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "gamma_max": None if self.unconstrained else self.gamma_max,
            "worst_p": None if self.worst_p is None else str(self.worst_p),
        }


def _divisor_candidates(model: FrequencyModel, ctx: TruncationContext, degree_bound: int):
    """The non-resonant, momentum-free signed vectors with entries >= -1,
    at most one negative entry and l1 norm <= bound: exactly the
    translates ``q - e_k`` reachable from nonnegative exponents.  Each
    walked base comes first, then ``base - e_k`` for each direction
    ``k`` outside its support, in modes order; momentum and resonance are
    read off the walk's carried sums.  A vector is its pairs, as a tuple,
    given with its l1 norm."""
    modes = ctx.modes()
    codes = model.walk_rows(modes, degree_bound, ctx.momentum_enabled)
    places = {k: place for place, k in enumerate(modes)}
    by_momentum: dict[int, list[tuple[Mode, int, int]]] = {}
    for k in modes:
        kcode, _, mom = codes.rows[k]
        by_momentum.setdefault(mom, []).append((k, places[k], kcode))
    for pairs, degree, (key, _, mom) in walk(modes, degree_bound, 0, codes.rows):
        if degree and key and not mom:
            yield tuple(pairs), degree
        directions = by_momentum.get(mom) if degree < degree_bound else None
        if directions:
            # k lies in the support iff the support's place at k's cut is k's
            taken = [places[m] for m, _ in pairs]
            for k, place, kcode in directions:
                cut = bisect_left(taken, place)
                if kcode != key and (cut == len(taken) or taken[cut] != place):
                    yield (*pairs[:cut], (k, -1), *pairs[cut:]), degree + 1


def diophantine_audit(
    model: FrequencyModel,
    ctx: TruncationContext,
    tau: float,
    degree_bound: int,
    *,
    use_fast_path: bool = True,
) -> DiophantineReport:
    """Scan all non-resonant signed combinations in the window and report
    the largest Diophantine constant they allow.

    The fast path skips the weight-product evaluation for vectors whose
    asymptotic combination is large (those have ``|lambda . p| >= 1``,
    hence weighted value >= 1); the skip happens only when it provably
    cannot change the minimum, so the result is bit-identical with the
    brute-force scan.  On every fast-path hit the implied lower bound is
    still asserted against the exact eigenvalues.
    """
    model.validate(ctx)
    modes = ctx.modes()
    fvalues = {k: model.eigenvalue_complex(k) for k in modes}
    asymptotics = {k: model.asymptotic_eigenvalue(k) for k in modes}
    # per pair (mode, entry) of a vector: its term of each sum, and its
    # weight factor; a factor beyond the float range sends the vectors
    # that use it down the log path
    pairs = [(m, e) for m in modes for e in (-1, *range(1, degree_bound + 1))]
    values = {(k, e): fvalues[k] * e for k, e in pairs}
    shapes = {(k, e): e * asymptotics[k] for k, e in pairs}
    factors, overflowed = {}, set()
    for m, e in pairs:
        try:
            factors[m, e] = (1 + e * e * mode_weight(m) ** 2) ** tau
        except OverflowError:
            overflowed.add((m, e))
    gamma_max = math.inf
    worst = None
    count = 0
    fast_hits = 0
    for p, l1 in _divisor_candidates(model, ctx, degree_bound):
        count += 1
        value = abs(sum(map(values.__getitem__, p)))
        if use_fast_path:
            asymptotic = sum(map(shapes.__getitem__, p))
            if abs(asymptotic) >= 2 * l1:
                fast_hits += 1
                if value < 1.0:
                    raise ModelError(
                        "asymptotic fast-path premise held for %s but "
                        "|lambda . p| = %g < 1; the declared eigenvalue "
                        "shape is inconsistent with the model" % (MultiIndex(p), value)
                    )
                if gamma_max < 1.0:
                    continue  # cannot lower a minimum already below 1
        if overflowed.isdisjoint(p):
            weighted = math.prod(map(factors.__getitem__, p), start=value)
        else:
            # a weight beyond the float range; the product may lie within it
            log_weighted = math.log(value) + tau * sum(
                math.log(1 + e * e * mode_weight(m) ** 2) for m, e in p
            )
            try:
                weighted = math.exp(log_weighted)
            except OverflowError:
                continue
        if weighted < gamma_max:
            gamma_max = weighted
            worst = p
    if count and worst is None:
        raise ProblemFileError(
            "diophantine: tau = %g overflows every weight up to degree %d; "
            "lower tau or the degree bound" % (tau, degree_bound)
        )
    return DiophantineReport(
        tau=float(tau),
        gamma_max=gamma_max,
        worst_p=None if worst is None else MultiIndex(worst),
        enumerated_count=count,
        degree_bound=degree_bound,
        mode_cutoff=ctx.mode_cutoff,
        fast_path_hits=fast_hits,
        fast_path_enabled=use_fast_path,
        unconstrained=count == 0,
    )


# ---------------------------------------------------------------------------
# small-divisor / smoothing weight audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightAuditRow:
    delta: float
    max_value: float
    implied_constant: float
    worst_q: str
    worst_k: str


@dataclass(frozen=True)
class WeightAuditReport:
    """Scan of ``exp(-delta * gap) / |divisor|`` over non-resonant terms."""

    rows: tuple[WeightAuditRow, ...]
    enumerated_count: int
    case0_checked: int
    case0_passed: bool
    monotone_in_delta: bool
    c_constant: float

    @property
    def passed(self) -> bool:
        return self.case0_passed and self.monotone_in_delta

    def as_dict(self) -> dict:
        return {
            "rows": [asdict(r) for r in self.rows],
            "enumerated_count": self.enumerated_count,
            "case0_checked": self.case0_checked,
            "case0_passed": self.case0_passed,
            "monotone_in_delta": self.monotone_in_delta,
            "c_constant": self.c_constant,
        }


def small_divisor_audit(
    model: FrequencyModel,
    ctx: TruncationContext,
    deltas: Sequence[float],
    *,
    gamma: float | None = None,
    tau: float = 2.0,
    c_constant: float = 1.0,
) -> WeightAuditReport:
    """Bound the smoothing-weighted small divisors over the window.

    For every non-resonant stored term shape ``x^q d/dx_k`` the audit
    evaluates ``exp(-delta * gap(q, k)) / |lambda . (q - e_k)|`` and
    reports the maximum per ``delta`` together with the constant implied
    by an ``exp(c/delta**6)`` envelope.  Terms supported on weight-one
    modes additionally get the pointwise closed-form chain checked when
    a Diophantine constant ``gamma`` is supplied.
    """
    model.validate(ctx)
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas):
        raise NormalFormError("smoothing audit requires positive delta")
    modes = ctx.modes()
    momentum_on = ctx.momentum_enabled
    theta = ctx.theta

    maxima = {d: 0.0 for d in deltas}
    worst: dict[float, tuple[MultiIndex, Mode] | None] = {d: None for d in deltas}
    count = 0
    case0_checked = 0
    case0_passed = True
    table = model._table
    fvalues = {k: model.eigenvalue_complex(k) for k in modes}
    for q in iter_indices(modes, ctx.degree_cutoff + 1, min_degree=1):
        combo_key = model.key(q)
        combo_value = sum(fvalues[k] * e for k, e in q.items())
        momentum_q = q.momentum_sum if momentum_on else 0
        for k in modes:
            if momentum_on and momentum_q != mode_momentum(k):
                continue
            if combo_key == table[k]:
                continue
            count += 1
            divisor = abs(combo_value - fvalues[k])
            gap = smoothing_gap(q, k, theta)
            for d in deltas:
                val = math.exp(-d * gap) / divisor
                if val > maxima[d]:
                    maxima[d] = val
                    worst[d] = (q, k)
            if gamma is not None and _is_case0(q, k):
                case0_checked += 1
                if not _case0_chain_holds(model, q, k, deltas, gamma, tau):
                    case0_passed = False

    rows = tuple(
        WeightAuditRow(
            delta=d,
            max_value=maxima[d],
            implied_constant=maxima[d] * math.exp(-c_constant / d ** 6),
            worst_q="-" if worst[d] is None else str(worst[d][0]),
            worst_k="-" if worst[d] is None else format_mode(worst[d][1]),
        )
        for d in sorted(deltas)
    )
    monotone = all(
        rows[i].max_value >= rows[i + 1].max_value - 1e-12
        for i in range(len(rows) - 1)
    )
    return WeightAuditReport(
        rows=rows,
        enumerated_count=count,
        case0_checked=case0_checked,
        case0_passed=case0_passed,
        monotone_in_delta=monotone,
        c_constant=float(c_constant),
    )


def _is_case0(q: MultiIndex, k: Mode) -> bool:
    """Support (including the direction) entirely on weight-one modes."""
    return mode_weight(k) == 1 and all(mode_weight(m) == 1 for m in q.modes())


def _case0_chain_holds(
    model: FrequencyModel,
    q: MultiIndex,
    k: Mode,
    deltas: Sequence[float],
    gamma: float,
    tau: float,
) -> bool:
    """Pointwise closed-form chain on weight-one support:

    exp(-d*(|q|-1))/|divisor| <= (1/gamma) exp(-d*(|q|-1)) prod(1+p_h^2)^tau
                              <= (1/gamma) exp(-d*|q|/2) |q|^(12*tau),

    the second step requiring |q| >= 2.
    """
    p = q - MultiIndex.unit(k)
    divisor = abs(model.value(model.key(p), False))
    prod = 1.0
    for _, e in p.items():
        prod *= (1 + e * e) ** tau
    n = q.degree
    slack = 1 + 1e-9
    for d in deltas:
        lhs = math.exp(-d * (n - 1)) / divisor
        mid = math.exp(-d * (n - 1)) * prod / gamma
        if lhs > mid * slack:
            return False
        if n >= 2:
            right = math.exp(-d * n / 2) * n ** (12 * tau) / gamma
            if mid > right * slack:
                return False
    return True
