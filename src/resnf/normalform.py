"""Homological solvers, Lie-series pushforward and the normalization driver.

The driver conjugates a truncated field ``D(lambda) + P`` to the form
``D(lambda) + Z + N`` where ``Z`` is diagonal resonant below the cutoff
order and ``N`` lies in the square of the resonance ideal.  The free
part ``X`` (ideal classes 0 and 1, order >= mstar) is removed by time-1
flows of generating fields solving a triangular pair of homological
equations; every step at least doubles the order of ``X``, so the
truncated iteration terminates unconditionally.  Analytic smallness
conditions are evaluated and reported as diagnostics only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import (
    AlreadyNormal,
    CutoffTooSmall,
    HypothesisViolation,
    NonterminatingSeries,
    NormalFormError,
    ProblemFileError,
    ResonantTermInRange,
)
from .fields import VectorField, _Packing, _quotient, _series_bound, _vanishes, bracket, lie_exp
from .indexing import TruncationContext, format_mode
from .resonance import FrequencyModel, ResonanceModule, split_ideals

CHI = 1.5
"""Super-exponential decay rate of the iterative scheme (fixed)."""


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecomposedField:
    """A field split as ``D(lambda) + Z + X + N``.

    ``Z`` holds the diagonal resonant terms of order 1..mstar-1, ``X``
    the class-0/1 terms of order >= mstar (all non-resonant), ``N`` the
    class-2 terms of order >= mstar.  The model and the cutoff order
    ``mstar`` are the module's; the linear part is carried by the model,
    not stored as terms.
    """

    module: ResonanceModule
    z: VectorField
    x: VectorField
    n: VectorField

    @property
    def mstar(self) -> int:
        return self.module.m_star_minimal

    @property
    def is_normal(self) -> bool:
        return self.x.is_zero

    def assemble(self) -> VectorField:
        """The full field ``D + Z + X + N``."""
        return self.module.model.linear_field(self.z.ctx) + self.z + self.x + self.n

    def __repr__(self):
        return "DecomposedField(Z:%d, X:%d, N:%d terms, mstar=%d)" % (
            self.z.term_count(),
            self.x.term_count(),
            self.n.term_count(),
            self.mstar,
        )


def resolve_mstar(module: ResonanceModule, mstar: int | None) -> int:
    if mstar is None:
        return module.m_star_minimal
    if mstar < module.m_star_minimal:
        raise HypothesisViolation(
            "cutoff order %d is below the certified minimal order %d; "
            "class-0/1 terms would include unsolvable resonant terms"
            % (mstar, module.m_star_minimal)
        )
    return mstar


def decompose(w: VectorField, module: ResonanceModule) -> DecomposedField:
    """Split ``w`` into linear part, ``Z``, ``X`` and ``N``, reading the
    model and the cutoff order from the module.

    Raises HypothesisViolation when the linear part differs from the
    model, when a kernel term below the cutoff order is non-diagonal
    (outside the diagonal-kernel hypothesis), or when non-resonant
    terms below the cutoff order remain (prenormalize first).
    """
    ctx = w.ctx
    model, mstar, classify = module.model, module.m_star_minimal, module.classifier(ctx)
    linear = w.project_degree(0)
    if not (linear - model.linear_field(ctx)).is_zero:
        raise HypothesisViolation(
            "linear part differs from the diagonal part of model %s"
            % model.name
        )
    packing = _Packing.of(ctx)
    index, top = packing.index, packing.top
    divisor = model.divisors(ctx)
    z, x, n = {}, {}, {}
    # keys of order 0 lie below 2 * top, and of order below mstar below
    # (mstar + 1) * top
    for k, key, c in w._sorted_terms():
        if key < 2 * top:
            continue
        if key < (mstar + 1) * top:
            if divisor(k, key)[0]:
                raise HypothesisViolation(
                    "non-resonant term x^%s d/dx_%s of order %d below the "
                    "cutoff order %d; prenormalize first"
                    % (index(key), format_mode(k), key // top - 1, mstar)
                )
            if not packing.entry(key, k):
                raise HypothesisViolation(
                    "resonant non-diagonal term x^%s d/dx_%s: the kernel "
                    "below the cutoff order must be diagonal" % (index(key), format_mode(k))
                )
            z.setdefault(k, {})[key] = c
        elif classify(key) == 2:
            n.setdefault(k, {})[key] = c
        else:
            x.setdefault(k, {})[key] = c
    return DecomposedField(module, *(VectorField._raw(ctx, store) for store in (z, x, n)))


def _require_diagonal_resonant(z: VectorField, model: FrequencyModel) -> None:
    packing = _Packing.of(z.ctx)
    divisor = model.divisors(z.ctx)
    for k, key, _ in z._sorted_terms():
        if not packing.entry(key, k) or divisor(k, key)[0]:
            raise HypothesisViolation(
                "Z term x^%s d/dx_%s is not diagonal resonant" % (packing.index(key), format_mode(k))
            )


# ---------------------------------------------------------------------------
# homological equations
# ---------------------------------------------------------------------------


def _divide(y: VectorField, model: FrequencyModel, sign: int, resonant: Callable) -> VectorField:
    """Termwise ``sign * Y_q^(k) / (lambda . (q - e_k))`` on the stored
    coefficients; ``resonant(k, q)`` raises for a zero divisor, found on the
    packed divisor of ``model.divisors``.  The exact lane divides by its
    integer pair (``model._scaled`` of the divisor's key) over
    ``model.exact_unit()``; the float lane by ``model.value(key, False)``,
    negating the quotient and dropping one at or below ``FLOAT_ATOL``."""
    ctx = y.ctx
    if y.is_zero:
        return y
    unit = sign * model.exact_unit() if ctx.exact else 0
    index = _Packing.of(ctx).index
    divisor = model.divisors(ctx)
    store: dict = {}
    for k, comp in y._terms.items():
        for key, c in comp.items():
            code, scaled = divisor(k, key)
            if not code:
                resonant(k, index(key))
            if unit:
                c = _quotient(c, *scaled, unit)
            else:
                c = c / model.value(model.key(index(key), k), False)
                if sign < 0:
                    c = -c
                if _vanishes(c):
                    continue
            store.setdefault(k, {})[key] = c
    return VectorField._raw(ctx, store)


def solve_linear_homological(y: VectorField, model: FrequencyModel) -> VectorField:
    """The unique ``F`` with ``[D(lambda), F] = Y``, termwise
    ``F_q^(k) = Y_q^(k) / (lambda . (q - e_k))``."""

    def resonant(k, q):
        raise ResonantTermInRange(
            "term x^%s d/dx_%s has zero divisor; it lies in the kernel, "
            "not the range" % (q, format_mode(k))
        )

    return _divide(y, model, 1, resonant)


def _a_inverse(y: VectorField, model: FrequencyModel) -> VectorField:
    """Invert ``A = [., D(lambda)]`` termwise (``A`` acts as minus the
    divisor on each monomial term)."""
    ctx = y.ctx

    def resonant(k, q):
        if q.degree == ctx.degree_cutoff + 1:
            # enumeration records resonant pairs only up to degree D
            raise CutoffTooSmall(
                "resonant term x^%s d/dx_%s at degree %d lies beyond the "
                "enumeration window %d; raise the degree cutoff"
                % (q, format_mode(k), q.degree, ctx.degree_cutoff)
            )
        raise ResonantTermInRange(
            "resonant term x^%s d/dx_%s inside a class-0/1 block: the "
            "ideal classification and the kernel structure disagree"
            % (q, format_mode(k))
        )

    return _divide(y, model, -1, resonant)


def solve_extended_homological(
    x_i: VectorField,
    klass: int,
    z: VectorField,
    n: VectorField,
    module: ResonanceModule,
    f0: VectorField | None = None,
) -> VectorField:
    """Solve the class-``klass`` homological equation of the main step.

    For ``klass = 0``: ``Pi0 [F0, D + Z] = -X0``.  For ``klass = 1``:
    ``Pi1 ([F1, D + Z] + [F0, Z + N]) = -X1`` with ``F0`` supplied.  The
    operator ``A + B`` (``A`` the diagonal bracket with ``D``, ``B`` the
    projected bracket with ``Z``) is inverted exactly via
    ``(A+B)^-1 = A^-1 - A^-1 B A^-1``, valid because ``A^-1 B`` is
    nilpotent of order two; the defining identity is re-checked term by
    term and a violation raises NormalFormError.
    """
    if klass not in (0, 1):
        raise ValueError("klass must be 0 or 1")
    ctx = x_i.ctx
    model = module.model
    _require_diagonal_resonant(z, model)
    if klass == 1 and f0 is not None:
        coupling = split_ideals(bracket(f0, z + n), module)[1]
    else:
        coupling = VectorField.zero(ctx)
    y = -x_i - coupling
    a_y = _a_inverse(y, model)
    f = a_y - _a_inverse(split_ideals(bracket(a_y, z), module)[klass], model)

    residual = split_ideals(
        bracket(f, model.linear_field(ctx) + z), module
    )[klass] + x_i + coupling
    if not residual.is_zero:
        raise NormalFormError(
            "homological residual is nonzero (nilpotency of the extended "
            "solve failed); %d residual terms" % residual.term_count()
        )
    return f


# ---------------------------------------------------------------------------
# Lie series
# ---------------------------------------------------------------------------


def lie_series_terms(f: VectorField, w: VectorField) -> list[VectorField]:
    """The terms ``ad_F^k(W)/k!`` of the exponential Lie series, up to
    and excluding the first zero term; exact at truncation.  A term-by-term
    twin of :func:`~resnf.fields.lie_exp` for tests."""
    if f.is_zero:
        return [w]
    bound = _series_bound(f)
    terms = [w]
    current = w
    k = 0
    while True:
        k += 1
        current = bracket(f, current).scale(Fraction(1, k))
        if current.is_zero:
            break
        if k > bound:
            raise NormalFormError(
                "Lie series exceeded the degree bound %d; generator order "
                "bookkeeping is inconsistent" % bound
            )
        terms.append(current)
    return terms


def pushforward_exp(f: VectorField, w: VectorField) -> VectorField:
    """Pushforward of ``w`` along the time-1 flow of ``f``:
    ``exp(ad_F) W``, summed exactly at truncation."""
    return lie_exp(f, w)[0]


def pushforward_exp_reversed(f: VectorField, w: VectorField) -> VectorField:
    """Verification twin of :func:`pushforward_exp`: recomputes the Lie
    series independently and folds the sum in reversed order; in exact
    arithmetic the two must agree term by term."""
    ctx = w.ctx
    if f.is_zero:
        return w
    if f.order() == 0:
        raise NonterminatingSeries("generator has an order-0 part")
    collected = []
    current = w
    k = 0
    while not current.is_zero:
        collected.append(current)
        k += 1
        factor = Fraction(1, k) if ctx.exact else 1.0 / k
        current = bracket(f, current).scale(factor)
        if k > ctx.degree_cutoff + 2:
            raise NormalFormError("Lie series failed to terminate")
    out = VectorField.zero(ctx)
    for t in reversed(collected):
        out = out + t
    return out


# ---------------------------------------------------------------------------
# KAM step and driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KamConstants:
    """The absolute constants of the smallness diagnostics, fixed at the
    values of :data:`KAM`; none of them affects the exact algebra."""

    gamma: float = 1.0
    k1: float = 1.0
    c: float = 1.0
    frak_c: float = 1.0
    r0: float = 1.0
    s0: float = 0.0
    rho: float = 0.1
    sigma: float = 1.0

    def rho_n(self, n: int) -> float:
        return self.rho / 10.0 * 2.0 ** -n

    def sigma_n(self, n: int) -> float:
        if n == 0:
            return self.sigma / 8.0
        return 9.0 * self.sigma / (4.0 * math.pi ** 2 * n * n)

    def radii(self, n: int) -> tuple[float, float]:
        """The radii ``(r_n, s_n)`` of step ``n``: each earlier step ``i``
        takes ``5 rho_i`` from ``r0`` and adds ``2 sigma_i`` to ``s0``,
        summed in step order."""
        r, s = self.r0, self.s0
        for i in range(n):
            r -= 5.0 * self.rho_n(i)
            s += 2.0 * self.sigma_n(i)
        return r, s

    def log_sup_k(self) -> float:
        """``log K`` of the summability constant: ``K = frak_c * sup_n
        2^(9n) exp(C' n^12) exp(-chi^n (2 - chi))`` computed in log
        space (the supremum is astronomically large but finite)."""
        cprime = 2.0 ** 9 * (4.0 * math.pi ** 2 / (9.0 * self.sigma)) ** 6 * self.c
        ln_chi = math.log(CHI)
        best = -math.inf
        for n in range(0, 4000):
            e = n * ln_chi
            if e > 700.0:
                break
            g = 9.0 * n * math.log(2.0) + cprime * float(n) ** 12 - (2.0 - CHI) * math.exp(e)
            if g > best:
                best = g
        return math.log(self.frak_c) + best

    def as_dict(self) -> dict:
        return {**asdict(self), "chi": CHI}


KAM = KamConstants()
"""The constants every KAM step and convergence check uses."""


@dataclass(frozen=True)
class KamStepRecord:
    """Per-step diagnostics of the iteration."""

    step: int
    ord_x: int
    ord_x_next: int | None
    generator_order: int
    series_terms: int
    eps: float
    theta: float
    r: float
    s: float
    rho: float
    sigma: float
    smallness_lhs_log: float
    smallness_rhs_log: float
    smallness_ok: bool


@dataclass(frozen=True)
class KamTrace:
    """Diagnostics of a full normalization run."""

    records: tuple[KamStepRecord, ...]
    convergence_lhs_log: float | None
    convergence_rhs_log: float | None
    convergence_ok: bool | None

    def as_dict(self) -> dict:
        return {**asdict(self), "constants": KAM.as_dict()}


@dataclass(frozen=True)
class TransformLog:
    """Ordered generating fields of the composed conjugation.

    The forward map composes the time-1 flows with the last entry
    acting first; the inverse composes the time -1 flows with the first
    entry acting first, undoing it.  Entries are labeled by the stage
    that produced them:
    ``prenormalize`` generators have order < mstar, ``kam`` generators
    lie in classes 0/1 with order >= mstar.
    """

    entries: tuple[tuple[str, VectorField], ...] = ()

    def __post_init__(self):
        for stage, _ in self.entries:
            if stage not in ("prenormalize", "kam"):
                raise NormalFormError("unknown transform stage %r" % stage)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def fields(self) -> tuple[VectorField, ...]:
        return tuple(f for _, f in self.entries)

    @cached_property
    def flows(self) -> tuple[FieldFlow, ...]:
        """The generators compiled by ``compile_field``, in entry order;
        compiled on first use and kept with the log."""
        return tuple(compile_field(f) for f in self.fields())

    def to_lines(self) -> list[str]:
        lines: list[str] = []
        for i, (stage, f) in enumerate(self.entries):
            lines.append("# generator %d | stage %s" % (i, stage))
            lines.extend(f.to_lines())
        return lines

    @classmethod
    def from_lines(cls, ctx: TruncationContext, lines: Iterable[str]) -> "TransformLog":
        entries: list[tuple[str, VectorField]] = []
        stage: str | None = None
        block: list[str] = []

        def flush():
            if stage is not None:
                entries.append((stage, VectorField.from_lines(ctx, block)))

        for line in lines:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                flush()
                parts = line.lstrip("#").split("|")
                words = parts[1].split() if len(parts) == 2 else []
                if len(words) != 2 or words[0] != "stage":
                    raise ProblemFileError("malformed generator header %r" % line)
                stage = words[1]
                block = []
            else:
                if stage is None:
                    raise ProblemFileError("generator lines before any header")
                block.append(line)
        flush()
        return cls(tuple(entries))


def prenormalize(
    w: VectorField, module: ResonanceModule
) -> tuple[VectorField, TransformLog]:
    """Degree-by-degree elimination of all non-resonant terms of order
    below the module's cutoff order; below that order only kernel terms
    remain."""
    return _eliminate_orders(w, module.model, range(1, module.m_star_minimal))


def poincare_dulac(
    w: VectorField, model: FrequencyModel
) -> tuple[VectorField, TransformLog]:
    """Classical full normal form: eliminate every non-resonant term of
    every order in the window.  Serves as an independent reference for
    the iterative driver (both leave the same kernel-diagonal part)."""
    return _eliminate_orders(w, model, range(1, w.ctx.degree_cutoff + 1))


def _eliminate_orders(
    w: VectorField,
    model: FrequencyModel,
    orders: Sequence[int],
) -> tuple[VectorField, TransformLog]:
    out = w
    entries: list[tuple[str, VectorField]] = []
    top = _Packing.of(w.ctx).top
    divisor = model.divisors(w.ctx)
    for d in orders:
        # the non-resonant terms of order d, keys in [(d + 1) * top, (d + 2) * top)
        low, high = (d + 1) * top, (d + 2) * top
        y = VectorField._raw(w.ctx, {
            k: {key: c for key, c in comp.items() if low <= key < high and divisor(k, key)[0]}
            for k, comp in out._terms.items()
        })
        if y.is_zero:
            continue
        f = solve_linear_homological(y, model)
        out = pushforward_exp(f, out)
        entries.append(("prenormalize", f))
    return out, TransformLog(tuple(entries))


def kam_step(
    dec: DecomposedField, step_index: int = 0
) -> tuple[DecomposedField, VectorField, KamStepRecord]:
    """One main step: solve the triangular homological pair, push the
    field forward along the generator's time-1 flow, redecompose.

    Exact postconditions (checked, violations raise NormalFormError):
    ``Z`` unchanged; ``ord(X+) >= 2 ord(X)``.  The analytic smallness
    check is evaluated in log space and reported, not enforced; the
    step computes its radii and losses from :data:`KAM` and
    ``step_index``.
    """
    if dec.x.is_zero:
        raise AlreadyNormal("X = 0: the field is already in normal form")
    r, s = KAM.radii(step_index)
    rho = KAM.rho_n(step_index)
    sigma = KAM.sigma_n(step_index)

    x0, x1, x2 = split_ideals(dec.x, dec.module)
    if not x2.is_zero:
        raise HypothesisViolation("X has class-2 terms; decompose is stale")
    f0 = solve_extended_homological(x0, 0, dec.z, dec.n, dec.module)
    f1 = solve_extended_homological(x1, 1, dec.z, dec.n, dec.module, f0=f0)
    f = f0 + f1
    if f.order() is not None and f.order() < dec.mstar:
        raise NormalFormError(
            "generator order %d below the cutoff order %d" % (f.order(), dec.mstar)
        )
    if not split_ideals(f, dec.module)[2].is_zero:
        raise NormalFormError("generator has class-2 terms")

    w_plus, series_terms = lie_exp(f, dec.assemble())
    dec_plus = decompose(w_plus, dec.module)

    if not (dec_plus.z - dec.z).is_zero:
        raise NormalFormError("Z changed across a step; main-step structure violated")
    old_ord = dec.x.order()
    new_ord = dec_plus.x.order()
    if new_ord is not None and new_ord < 2 * old_ord:
        raise NormalFormError(
            "order doubling failed: ord(X+) = %d < 2 * %d" % (new_ord, old_ord)
        )

    gamma = KAM.gamma
    norm_x = dec.x.majorant_norm(r, s)
    norm_z = dec.z.majorant_norm(r, s)
    norm_n = dec.n.majorant_norm(r, s)
    eps = norm_x / gamma
    theta = (norm_z + norm_n) / gamma + eps
    zn = (norm_z + norm_n) / gamma
    smallness_lhs = 3.0 * math.log1p(zn) + math.log(eps)
    smallness_rhs = (
        math.log(KAM.k1)
        + 4.0 * math.log(rho / r)
        - 2.0 ** 8 * KAM.c / sigma ** 6
    )
    record = KamStepRecord(
        step=step_index,
        ord_x=old_ord,
        ord_x_next=new_ord,
        generator_order=f.order(),
        series_terms=series_terms,
        eps=eps,
        theta=theta,
        r=r,
        s=s,
        rho=rho,
        sigma=sigma,
        smallness_lhs_log=smallness_lhs,
        smallness_rhs_log=smallness_rhs,
        smallness_ok=smallness_lhs <= smallness_rhs,
    )
    return dec_plus, f, record


def normalize(
    w: VectorField, module: ResonanceModule
) -> tuple[DecomposedField, TransformLog, KamTrace]:
    """Full driver: prenormalize below the cutoff order, then iterate
    main steps until ``X = 0`` at truncation.  The model and the cutoff
    order are the module's; each step takes its smallness schedule from
    :data:`KAM`.

    Termination is guaranteed in at most ``ceil(log2((D+1)/mstar)) + 1``
    steps by order doubling; exceeding the bound raises NormalFormError.
    """
    out, prelog = prenormalize(w, module)
    dec = decompose(out, module)

    max_steps = max(0, math.ceil(math.log2((w.ctx.degree_cutoff + 1) / dec.mstar))) + 1
    entries = list(prelog.entries)
    records: list[KamStepRecord] = []
    while not dec.x.is_zero:
        if len(records) >= max_steps:
            raise NormalFormError(
                "iteration exceeded the doubling bound of %d steps" % max_steps
            )
        dec, f, record = kam_step(dec, len(records))
        entries.append(("kam", f))
        records.append(record)

    if records:
        eps0, theta0 = records[0].eps, records[0].theta
        log_k = KAM.log_sup_k()
        convergence_lhs = math.log(eps0) if eps0 > 0 else -math.inf
        convergence_rhs = -7.0 * math.log1p(theta0) - log_k
        convergence_ok = convergence_lhs <= convergence_rhs
    else:
        convergence_lhs = convergence_rhs = convergence_ok = None
    trace = KamTrace(
        records=tuple(records),
        convergence_lhs_log=convergence_lhs,
        convergence_rhs_log=convergence_rhs,
        convergence_ok=convergence_ok,
    )
    return dec, TransformLog(tuple(entries)), trace


# ---------------------------------------------------------------------------
# numeric flows: each field compiled to one fused RK4 loop; the transform
# ---------------------------------------------------------------------------

#: Terms per statement of a generated sum.  One left-associated chain per
#: component would nest the generated syntax tree as deep as it is long.
_SUM_CHUNK = 32


@dataclass(frozen=True)
class FieldFlow:
    """A field compiled by ``compile_field`` into one fixed-step RK4 loop.

    ``run(x, h, n, blowup)`` takes ``n`` steps of size ``h`` from the
    coordinates ``x`` (aligned with ``ctx.modes()``) and returns the final
    state and a divergence flag.  With ``blowup`` None it only steps, and
    an ``OverflowError`` propagates.  With a bound it stops after the
    first step that leaves it (NaN never stays inside), and an
    ``OverflowError`` ends the run at the state before the failing step.
    It returns the result of ``loop``, the compiled loop without zero-base
    guards, unless ``loop`` raises ``OverflowError`` or ends non-finite:
    then ``_replay`` takes the ``n`` steps again, with those guards, over
    ``rows``, the ``(component, coefficient, factors)`` table.
    ``compile_field`` says why both give the same bits.
    """

    ctx: TruncationContext
    loop: Callable[..., tuple[tuple[complex, ...], bool]]
    rows: tuple[tuple[int, complex, tuple[tuple[int, int], ...]], ...]

    def run(self, x, h, n, blowup) -> tuple[tuple[complex, ...], bool]:
        try:
            out = self.loop(x, h, n, blowup)
            if all(map(cmath.isfinite, out[0])):
                return out
        except OverflowError:
            pass
        return _replay(self.rows, x, h, n, blowup)


def _replay(rows, x, h, n, blowup):
    """``FieldFlow.run`` over guarded terms: a term is ``0j`` from its first
    zero base on, else its coefficient times its ``**`` powers, in order."""

    def slopes(y):
        out = [0j] * len(y)
        for target, val, factors in rows:
            for pos, e in factors:
                if not y[pos]:
                    val = 0j
                    break
                val *= y[pos] ** e
            out[target] += val
        return out

    for _ in range(n):
        try:
            k1 = slopes(x)
            k2 = slopes([a + 0.5 * h * k for a, k in zip(x, k1)])
            k3 = slopes([a + 0.5 * h * k for a, k in zip(x, k2)])
            k4 = slopes([a + h * k for a, k in zip(x, k3)])
        except OverflowError:
            if blowup is None:
                raise
            return tuple(x), True
        x = [a + h / 6.0 * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
        try:
            if blowup is not None and not all(abs(v) <= blowup for v in x):
                return tuple(x), True
        except OverflowError:  # a modulus beyond the float range leaves any bound
            return tuple(x), True
    return tuple(x), False


def _power_lines(base: str, exponents: Iterable[int]) -> list[str]:
    """Source that takes each power ``base**e`` once as ``<base>_<e>``: for
    ``2 <= e <= 100`` as ``b**a * b**(e - a)``, the squarings and products
    of CPython 3.11's ``c_powu`` without its products with ``1+0j``, and
    above 100 by ``**``.  A first power ``base**1`` is ``base`` itself."""

    def name(e: int) -> str:
        return base if e == 1 else "%s_%d" % (base, e)

    steps: dict[int, str] = {}
    todo = list(exponents)
    while todo:
        e = todo.pop()
        if e > 1 and e not in steps:
            low = e - (1 << e.bit_length() - 1) or e // 2
            steps[e] = "%s**%d" % (base, e) if e > 100 else "%s*%s" % (name(low), name(e - low))
            todo += [] if e > 100 else [low, e - low]
    return ["%s = %s" % (name(e), steps[e]) for e in sorted(steps)]


def compile_field(w: VectorField) -> FieldFlow:
    """Generate and compile the fixed-step RK4 loop of ``w``'s float twin.

    The loop performs a four-stage RK4 step over local variables: each
    component is ``0j`` plus its terms in ``terms()`` order, each term is
    the left-associated, unguarded product of its coefficient and powers,
    and the new state is assigned at the end of the step.  A first power
    ``b**1`` reads ``b``, and each other power is taken once per stage by
    ``_power_lines``.  Two rules skip work, bit for bit.  (1) A component
    without terms has slopes ``0j`` and gets none; its stage inputs add
    ``zh = hh * 0j`` (stage 4's ``h * 0j`` has the same bits) and its
    update ``z6``.  (2) As ``x + z6`` is idempotent, the coordinate is
    frozen from step 2 on, and what reads only frozen inputs runs in steps
    1 and 2 alone, for stage 1 and for stages 2 to 4: the powers of frozen
    bases, wherever they sit in a term; each term's leading run of frozen
    factors, ``c*b1**e1*...``; and a component whose terms read only frozen
    factors, with its increments.  Step 2 sees the zero signs and NaN that
    ``z6`` brings.

    The result equals that of ``_replay``, the term-by-term evaluator,
    whenever it is finite, and ``FieldFlow.run`` replays every other run.
    For finite values a fast term differs from the evaluator's only in the
    signs of zero parts: a power chain is ``b**e`` up to them, a zero base
    makes both terms zero, and a finite chain means ``b**e`` does not
    raise.  The ``0j + ...`` at the head of every component sum erases
    those signs, so the slopes are bitwise equal.  Every power the
    evaluator takes is also taken by the loop and multiplied into a term,
    so an infinite one makes that step's slopes, and then the state,
    non-finite; each coordinate updates as ``x_i + ...``, so a non-finite
    state stays non-finite; and a finite state that leaves the bound is
    already exact.  ``tests/test_flow_oracle.py`` checks the interpreter
    facts this rests on."""
    f = w.as_float()
    packing = _Packing.of(f.ctx)
    positions, width = packing.positions, len(packing.modes)
    table = tuple((positions[k], c, packing.support(key)) for k, key, c in f._sorted_terms())
    rows = [[(j, fs) for j, (at, _, fs) in enumerate(table) if at == i] for i in range(width)]
    supports = [factors for row in rows for _, factors in row if factors]
    read = sorted({pos for factors in supports for pos, _ in factors})
    # head[j]: term j's leading run of factors over frozen coordinates
    head = {j: t[: next((r for r, (p, _) in enumerate(t) if rows[p]), len(t))] for row in rows for j, t in row}
    still = [i for i, row in enumerate(rows) if row and all(head[j] == fs for j, fs in row)]

    def each(template: str) -> list[str]:
        return [template.format(i=i) for i in range(width)]

    def state(template: str) -> str:
        return "(%s,)" % ", ".join(each(template))

    def product(lead: str, factors: tuple, var: str) -> str:
        return "*".join([lead] + ["%s%d%s" % (var, p, "_%d" % e if e > 1 else "") for p, e in factors])

    def stage(k: str, var: str, live: bool) -> list[str]:
        """A stage's live work, or the frozen work of stage 1 or of stages 2 to 4."""
        lines: list[str] = []
        for pos in [pos for pos in read if bool(rows[pos]) is live]:
            lines += _power_lines("%s%d" % (var, pos), {e for fs in supports for p, e in fs if p == pos})
        for j, factors in [] if live else [(j, fs) for row in rows for j, fs in row if head[j]]:
            lines.append("%sp%d = %s" % (var, j, product("c%d" % j, head[j], var)))
        for i in [i for i, row in enumerate(rows) if row and (i in still) is not live]:
            terms = [
                product("%sp%d" % (var, j) if head[j] else "c%d" % j, fs[len(head[j]) :], var) for j, fs in rows[i]
            ]
            for at in range(0, len(terms), _SUM_CHUNK):
                chunk = ["%s%d" % (k, i) if at else "0j"] + terms[at : at + _SUM_CHUNK]
                lines.append("%s%d = %s" % (k, i, " + ".join(chunk)))
        return lines

    def inputs(k: str, h: str, s: int) -> list[str]:
        rises = {i: "d%d_%d" % (s, i) if i in still else "%s * %s%d" % (h, k, i) for i in read if rows[i]}
        return ["y%d = x%d + %s" % (i, i, rise) for i, rise in rises.items()]

    frozen_inputs = ["y%d = x%d + zh" % (i, i) for i in read if not rows[i]]
    block = stage("k1_", "x", False) + frozen_inputs + stage("k2_", "y", False)
    for i in still:
        rises = ["d1_{i} = hh * k1_{i}", "d2_{i} = hh * k2_{i}", "d3_{i} = h * k2_{i}"] if i in read else []
        rises.append("d6_{i} = h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k2_{i} + k2_{i})")
        block += [line.format(i=i) for line in rises]
    step = (
        stage("k1_", "x", True)
        + inputs("k1_", "hh", 1)
        + stage("k2_", "y", True)
        + inputs("k2_", "hh", 2)
        + stage("k3_", "y", True)
        + inputs("k3_", "h", 3)
        + stage("k4_", "y", True)
    )
    update = "h6 * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
    rise = ["d6_%d" % i if i in still else update.format(i=i) if row else "z6" for i, row in enumerate(rows)]
    updates = ["x%d + %s" % (i, r) for i, r in enumerate(rise)]
    inside = " and ".join(each("abs(x{i}) <= blowup"))
    lines = ["def run(x, h, n, blowup):"]
    if table:
        lines.append("    %s, = coeffs" % ", ".join("c%d" % j for j in range(len(table))))
    lines += [
        "    %s = x" % state("x{i}"),
        "    hh = 0.5 * h",
        "    h6 = h / 6.0",
        "    zh, z6 = hh * 0j, h6 * (0j + 2.0 * 0j + 2.0 * 0j + 0j)",
        "    for %s in range(n):" % ("_i" if block else "_"),
        *(["        if _i < 2:"] + ["            " + line for line in block] if block else []),
        *("        " + line for line in step),
        "        %s = (%s,)" % (state("x{i}"), ", ".join(updates)),
        "        if blowup is not None and not (%s):" % inside,
        "            return %s, True" % state("x{i}"),
        "    return %s, False" % state("x{i}"),
    ]
    namespace = {"coeffs": tuple(c for _, c, _ in table)}
    exec(compile("\n".join(lines), "<compiled field>", "exec"), namespace)
    return FieldFlow(w.ctx, namespace["run"], table)


def apply_transform(
    log: TransformLog,
    point: Sequence[complex],
    direction: str = "forward",
    steps: int = 64,
) -> tuple[complex, ...]:
    """Evaluate the composed conjugation map at a numeric point.

    ``forward`` is the composition of the time-1 flows of the recorded
    generators (the last recorded generator acts first); it carries
    normal-form coordinates back to the original coordinates, so the
    original field's flow is ``forward`` conjugated with the normalized
    field's flow.  ``inverse`` composes the time -1 flows in entry
    order and undoes ``forward``.  Each flow is integrated with
    ``steps`` fixed RK4 steps of ``FieldFlow.run``; accuracy is the
    caller's concern (more steps, smaller points).  A step that overflows
    term by term raises ``OverflowError`` (from the replay)."""
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    state = tuple(complex(v) for v in point)
    if not log.entries:
        return state
    width = len(log.entries[0][1].ctx.modes())
    if len(state) != width:
        raise ValueError(
            "point has %d coordinates; context has %d modes" % (len(state), width)
        )
    flows = log.flows
    if direction == "forward":
        flows = flows[::-1]
        time = 1.0
    else:
        time = -1.0
    h = time / steps
    for flow in flows:
        state, _ = flow.run(state, h, steps, None)
    return state
