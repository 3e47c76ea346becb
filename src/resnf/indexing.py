"""Mode indices, sparse multi-indices and truncation contexts.

A mode is a pair ``(j, sigma)`` with ``j`` an integer label and ``sigma``
in ``{+1, -1}``.  Infinite-dimensional problems use the full two-sided
label set with momentum bookkeeping enabled; finite-dimensional problems
use labels ``1..n`` with ``sigma = +1`` and momentum disabled.  Exponent
vectors of monomials are finitely supported integer maps over modes,
stored sparsely.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple

from .errors import NormalFormError


class Mode(NamedTuple):
    """A single coordinate label ``(j, sigma)``."""

    j: int
    sigma: int


def mode_key(k: Mode) -> tuple[int, int, int]:
    """Canonical sort key: lexicographic on ``(|j|, j, sigma)``."""
    return (abs(k.j), k.j, k.sigma)


def mode_weight(k: Mode) -> int:
    """Weight of a mode: ``max(|j|, 1)``."""
    return max(abs(k.j), 1)


def mode_momentum(k: Mode) -> int:
    """Momentum carried by one power of the mode: ``sigma * j``."""
    return k.sigma * k.j


def format_mode(k: Mode) -> str:
    return "%d%s" % (k.j, "+" if k.sigma > 0 else "-")


def format_power(k: Mode, e: int) -> str:  # one entry of an exponent's text
    return "%s^%d" % (format_mode(k), e)


def parse_mode(text: str) -> Mode:
    text = text.strip()
    if len(text) < 2 or text[-1] not in "+-":
        raise NormalFormError("cannot parse mode token %r" % (text,))
    sigma = 1 if text[-1] == "+" else -1
    try:
        j = int(text[:-1])
    except ValueError:
        raise NormalFormError("cannot parse mode token %r" % (text,)) from None
    return Mode(j, sigma)


class MultiIndex:
    """Finitely supported exponent map ``mode -> int``.

    Entries may be negative (used for resonance combinations); monomial
    exponents of series and fields are validated to be nonnegative where
    they are consumed.  Instances are immutable and hashable.  The signed
    total ``degree`` (the plain sum of the entries) is stored at
    construction.
    """

    __slots__ = ("_pairs", "_hash", "degree")

    def __init__(self, entries: Iterable[tuple[Mode, int]] | dict[Mode, int] = ()):
        if isinstance(entries, dict):
            items = entries.items()
        else:
            items = list(entries)
        merged: dict[Mode, int] = {}
        for mode, exp in items:
            if not isinstance(mode, Mode):
                mode = Mode(*mode)
            if exp:
                merged[mode] = merged.get(mode, 0) + exp
        pairs = tuple(
            (m, e) for m, e in sorted(merged.items(), key=lambda it: mode_key(it[0])) if e
        )
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_hash", hash(pairs))
        object.__setattr__(self, "degree", sum(e for _, e in pairs))

    @classmethod
    def unit(cls, mode: Mode) -> "MultiIndex":
        return cls(((mode, 1),))

    @classmethod
    def _from_sorted(cls, pairs: tuple[tuple[Mode, int], ...], degree: int) -> "MultiIndex":
        """Trusted constructor: ``pairs`` already canonical (sorted by
        mode key, no zero exponents, no duplicates) and ``degree`` their
        sum of entries."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "_pairs", pairs)
        object.__setattr__(obj, "_hash", hash(pairs))
        object.__setattr__(obj, "degree", degree)
        return obj

    # -- basic queries ------------------------------------------------

    def items(self) -> tuple[tuple[Mode, int], ...]:
        return self._pairs

    def modes(self) -> tuple[Mode, ...]:
        return tuple(m for m, _ in self._pairs)

    def get(self, mode: Mode) -> int:
        for m, e in self._pairs:
            if m == mode:
                return e
        return 0

    @property
    def l1(self) -> int:
        """The l1 norm: sum of absolute values of the entries."""
        return sum(abs(e) for _, e in self._pairs)

    @property
    def is_zero(self) -> bool:
        return not self._pairs

    @property
    def is_nonnegative(self) -> bool:
        return all(e > 0 for _, e in self._pairs)

    @property
    def momentum_sum(self) -> int:
        return sum(mode_momentum(m) * e for m, e in self._pairs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(self._pairs + other._pairs)

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(self._pairs + tuple((m, -e) for m, e in other._pairs))

    def add_unit(self, mode: Mode, count: int = 1) -> "MultiIndex":
        return MultiIndex(self._pairs + ((mode, count),))

    def contains(self, other: "MultiIndex") -> bool:
        """True if ``self - other`` has no negative entry."""
        mine = dict(self._pairs)
        if any(mine.pop(m, 0) < e for m, e in other._pairs):
            return False
        return all(e > 0 for e in mine.values())

    # -- hashing / ordering -------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiIndex) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        """Deterministic total order: ``l1`` norm first, then entries."""
        return (self.l1, tuple((mode_key(m), e) for m, e in self._pairs))

    # -- text form ----------------------------------------------------

    def __str__(self) -> str:
        if not self._pairs:
            return "-"
        return " ".join(format_power(m, e) for m, e in self._pairs)

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "MultiIndex":
        text = text.strip()
        if text == "-":
            return cls()
        pairs = []
        for token in text.split():
            if "^" not in token:
                raise NormalFormError("cannot parse exponent token %r" % (token,))
            mode_part, _, exp_part = token.partition("^")
            try:
                exponent = int(exp_part)
            except ValueError:
                raise NormalFormError("cannot parse exponent token %r" % (token,)) from None
            pairs.append((parse_mode(mode_part), exponent))
        return cls(pairs)


ZERO_INDEX = MultiIndex()


@dataclass(frozen=True, slots=True)
class TruncationContext:
    """Shared description of the truncation window and the arithmetic mode.

    Frozen: a context is compared and hashed by value, so its fields
    cannot be reassigned; :meth:`with_arithmetic` gives a changed copy.

    Parameters
    ----------
    mode_cutoff : int
        Largest admitted ``|j|``.  In finite-dimensional (momentum-disabled)
        problems the modes are ``(1,+), ..., (mode_cutoff,+)``; with momentum
        enabled they are ``(j, sigma)`` for ``|j| <= mode_cutoff`` and both
        signs.
    degree_cutoff : int
        Scalar series keep exponents of total degree ``<= degree_cutoff``;
        vector fields keep exponents with ``degree - 1 <= degree_cutoff``
        (the scaling order of the monomial field).
    momentum_enabled : bool
        Whether momentum conservation is enforced on all stored objects.
    theta : float
        Exponent of the sub-linear weight used in the smoothing factors,
        strictly between 0 and 1.
    arithmetic : str
        ``"exact"`` (Gaussian-rational coefficients) or ``"float"``.
    """

    mode_cutoff: int
    degree_cutoff: int
    _: KW_ONLY
    momentum_enabled: bool = False
    theta: float = 0.5
    arithmetic: str = "exact"
    _modes: tuple[Mode, ...] = field(init=False, repr=False, compare=False)
    _mode_set: frozenset[Mode] = field(init=False, repr=False, compare=False)
    # the packed term form of ``resnf.fields``, built on first use
    _packing: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode_cutoff < 1:
            raise NormalFormError("mode_cutoff must be >= 1")
        if self.degree_cutoff < 1:
            raise NormalFormError("degree_cutoff must be >= 1")
        theta = float(self.theta)
        if not 0.0 < theta < 1.0:
            raise NormalFormError("theta must lie strictly between 0 and 1")
        if self.arithmetic not in ("exact", "float"):
            raise NormalFormError("arithmetic must be 'exact' or 'float'")
        cutoff = int(self.mode_cutoff)
        object.__setattr__(self, "mode_cutoff", cutoff)
        object.__setattr__(self, "degree_cutoff", int(self.degree_cutoff))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "momentum_enabled", bool(self.momentum_enabled))
        if self.momentum_enabled:
            modes = [Mode(j, s) for j in range(-cutoff, cutoff + 1) for s in (1, -1)]
        else:
            modes = [Mode(j, 1) for j in range(1, cutoff + 1)]
        object.__setattr__(self, "_modes", tuple(sorted(modes, key=mode_key)))
        object.__setattr__(self, "_mode_set", frozenset(modes))

    # -- structure ----------------------------------------------------

    def modes(self) -> tuple[Mode, ...]:
        """All admitted modes in canonical order."""
        return self._modes

    def mode_positions(self) -> dict[Mode, int]:
        return {m: i for i, m in enumerate(self._modes)}

    def admits_mode(self, k: Mode) -> bool:
        return k in self._mode_set

    def admits_support(self, q: MultiIndex) -> bool:
        return self._mode_set.issuperset(q.modes())

    def allows_scalar_key(self, q: MultiIndex) -> bool:
        return q.degree <= self.degree_cutoff

    def allows_field_key(self, q: MultiIndex) -> bool:
        return 1 <= q.degree <= self.degree_cutoff + 1

    # -- coefficients ---------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.arithmetic == "exact"

    def with_arithmetic(self, arithmetic: str) -> "TruncationContext":
        return replace(self, arithmetic=arithmetic)


# -- scalar helpers on indices ------------------------------------------


def rearranged_weights(v: MultiIndex) -> tuple[int, ...]:
    """Decreasing rearrangement of the mode weights of ``v``, with
    multiplicity.

    Each unit of ``v`` on mode ``(j, sigma)`` contributes one copy of
    ``max(|j|, 1)``; labels ``|j| <= 1`` therefore all contribute weight 1.
    Defined only for nonnegative ``v`` with at least two units.
    """
    if not (v.is_nonnegative or v.is_zero):
        raise NormalFormError("rearranged_weights needs a nonnegative index")
    if v.degree < 2:
        raise NormalFormError("rearranged_weights needs total degree >= 2")
    weights: list[int] = []
    for m, e in v.items():
        weights.extend([mode_weight(m)] * e)
    weights.sort(reverse=True)
    return tuple(weights)


def smoothing_gap(q: MultiIndex, k: Mode, theta: float) -> float:
    """The exponent ``sum_h <h>^theta q_h - <k>^theta`` of the smoothing
    factor attached to a monomial field ``x^q d/dx_k``."""
    total = 0.0
    for m, e in q.items():
        total += (mode_weight(m) ** theta) * e
    return total - mode_weight(k) ** theta


def norm_weight(q: MultiIndex, k: Mode, r: float, s: float, theta: float) -> float:
    """Majorant-norm weight of the monomial field ``x^q d/dx_k``.

    ``r**(|q|-1) * (<k> / prod_h <h>**q_h)**2 * exp(-s * smoothing_gap)``.
    Requires ``|q| >= 1``.
    """
    d = q.degree
    if d < 1 or not q.is_nonnegative:
        raise NormalFormError("norm_weight needs a nonnegative index of degree >= 1")
    prod = 1
    for m, e in q.items():
        prod *= mode_weight(m) ** e
    value = float(r) ** (d - 1) * (mode_weight(k) / prod) ** 2
    if s:
        value *= math.exp(-float(s) * smoothing_gap(q, k, theta))
    return value


def walk(
    modes: tuple[Mode, ...],
    max_degree: int,
    min_degree: int = 0,
    rows: dict[Mode, tuple] | None = None,
) -> Iterator[tuple[list[tuple[Mode, int]], int, tuple]]:
    """The window odometer: every nonnegative multi-index over ``modes``
    with total degree in ``[min_degree, max_degree]``, lexicographic with
    the first mode most significant, as ``(pairs, degree, sums)``.

    ``pairs`` is the walk's own list of ``(mode, exponent)`` pairs in
    canonical order, changed in place by the next step: copy it to keep
    it.  ``sums`` is the sum of ``rows[m]`` over the index's units, three
    components added one by one (zeros without ``rows``).  ``where`` holds
    the positions of the nonzero exponents and ``stack`` the sums of each
    prefix of them, so a step adds one mode's row to the sums of the
    prefix it keeps, in walk order, and never subtracts."""
    ordered = tuple(sorted(modes, key=mode_key))
    last = len(ordered) - 1
    zero = (0, 0, 0)
    rowlist = [zero if rows is None else rows[m] for m in ordered]
    where: list[int] = []
    pairs: list[tuple[Mode, int]] = []
    stack = [zero]
    sums = zero
    degree = 0
    while True:
        if degree >= min_degree:
            yield pairs, degree, sums
        if degree < max_degree and last >= 0:
            pos = last
        elif where and where[-1]:
            # the degree is full: drop the last nonzero exponent, carry left
            pos = where.pop() - 1
            degree -= pairs.pop()[1]
            stack.pop()
        else:
            return
        a, b, c = stack[-1]
        x, y, z = rowlist[pos]
        sums = (a + x, b + y, c + z)
        if where and where[-1] == pos:
            pairs[-1] = (ordered[pos], pairs[-1][1] + 1)
            stack[-1] = sums
        else:
            where.append(pos)
            pairs.append((ordered[pos], 1))
            stack.append(sums)
        degree += 1


def iter_indices(
    modes: tuple[Mode, ...], max_degree: int, min_degree: int = 0
) -> Iterator[MultiIndex]:
    """The indices of :func:`walk` as ``MultiIndex`` objects."""
    for pairs, degree, _ in walk(modes, max_degree, min_degree):
        yield MultiIndex._from_sorted(tuple(pairs), degree)
