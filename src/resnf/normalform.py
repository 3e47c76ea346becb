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

import math
from dataclasses import asdict, dataclass
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
from .fields import VectorField, bracket
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
    model, mstar = module.model, module.m_star_minimal
    linear = w.project_degree(0)
    if not (linear - model.linear_field(ctx)).is_zero:
        raise HypothesisViolation(
            "linear part differs from the diagonal part of model %s"
            % model.name
        )
    z_terms, x_terms, n_terms = [], [], []
    for k, q, c in w.terms():
        order = q.degree - 1
        if order == 0:
            continue
        if order < mstar:
            if not model.is_resonant_pair(q, k):
                raise HypothesisViolation(
                    "non-resonant term x^%s d/dx_%s of order %d below the "
                    "cutoff order %d; prenormalize first"
                    % (q, format_mode(k), order, mstar)
                )
            if q.get(k) < 1:
                raise HypothesisViolation(
                    "resonant non-diagonal term x^%s d/dx_%s: the kernel "
                    "below the cutoff order must be diagonal" % (q, format_mode(k))
                )
            z_terms.append((k, q, c))
        elif module.classify(q) == 2:
            n_terms.append((k, q, c))
        else:
            x_terms.append((k, q, c))
    return DecomposedField(
        module,
        VectorField(ctx, z_terms),
        VectorField(ctx, x_terms),
        VectorField(ctx, n_terms),
    )


def _require_diagonal_resonant(z: VectorField, model: FrequencyModel) -> None:
    for k, q, _ in z.terms():
        if q.get(k) < 1 or not model.is_resonant_pair(q, k):
            raise HypothesisViolation(
                "Z term x^%s d/dx_%s is not diagonal resonant" % (q, format_mode(k))
            )


# ---------------------------------------------------------------------------
# homological equations
# ---------------------------------------------------------------------------


def solve_linear_homological(y: VectorField, model: FrequencyModel) -> VectorField:
    """The unique ``F`` with ``[D(lambda), F] = Y``, termwise
    ``F_q^(k) = Y_q^(k) / (lambda . (q - e_k))``."""
    ctx = y.ctx

    def divide(k, q, c):
        key = model.key(q, k)
        if not key:
            raise ResonantTermInRange(
                "term x^%s d/dx_%s has zero divisor; it lies in the kernel, "
                "not the range" % (q, format_mode(k))
            )
        return c / model.value(key, ctx.exact)

    return y.map_coefficients(divide)


def _a_inverse(y: VectorField, model: FrequencyModel) -> VectorField:
    """Invert ``A = [., D(lambda)]`` termwise (``A`` acts as minus the
    divisor on each monomial term)."""
    ctx = y.ctx

    def divide(k, q, c):
        key = model.key(q, k)
        if not key:
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
        return -(c / model.value(key, ctx.exact))

    return y.map_coefficients(divide)


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
    and excluding the first zero term; exact at truncation."""
    ctx = w.ctx
    if f.is_zero:
        return [w]
    order = f.order()
    if order == 0:
        raise NonterminatingSeries(
            "generator has an order-0 part; the Lie series need not "
            "terminate at truncation"
        )
    bound = math.ceil((ctx.degree_cutoff + 1) / order)
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
    return _lie_sum(f, w)[0]


def _lie_sum(f: VectorField, w: VectorField) -> tuple[VectorField, int]:
    """The sum of :func:`pushforward_exp` and the number of its bracket
    terms (the series length less the leading ``w``)."""
    terms = lie_series_terms(f, w)
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out, len(terms) - 1


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
    for d in orders:
        y = out.project_degree(d).project(
            lambda k, q: not model.is_resonant_pair(q, k)
        )
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

    w_plus, series_terms = _lie_sum(f, dec.assemble())
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
# numeric flows: compiled evaluator, RK4 step, transform evaluation
# ---------------------------------------------------------------------------


def compile_field(w: VectorField) -> Callable[[Sequence[complex]], list[complex]]:
    """Flatten the field into position-indexed rows for fast repeated
    evaluation inside integrator loops."""
    f = w.as_float()
    positions = f.ctx.mode_positions()
    rows = [
        (positions[k], complex(c), tuple((positions[m], e) for m, e in q.items()))
        for k, q, c in f.terms()
    ]
    width = len(positions)

    def evaluate(x: Sequence[complex]) -> list[complex]:
        out = [0j] * width
        for target, coeff, mono in rows:
            val = coeff
            for pos, e in mono:
                base = x[pos]
                if not base:
                    val = 0j
                    break
                val *= base ** e
            out[target] += val
        return out

    return evaluate


def _rk4(evaluate, x, h):
    k1 = evaluate(x)
    k2 = evaluate([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = evaluate([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = evaluate([xi + h * ki for xi, ki in zip(x, k3)])
    return [
        xi + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]


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
    ``steps`` fixed RK4 steps; accuracy is the caller's concern (more
    steps, smaller points).
    """
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    state = [complex(v) for v in point]
    if not log.entries:
        return tuple(state)
    fields = log.fields()
    width = len(fields[0].ctx.modes())
    if len(state) != width:
        raise ValueError(
            "point has %d coordinates; context has %d modes" % (len(state), width)
        )
    if direction == "forward":
        fields = fields[::-1]
        time = 1.0
    else:
        time = -1.0
    h = time / steps
    for f in fields:
        evaluate = compile_field(f)
        for _ in range(steps):
            state = _rk4(evaluate, state, h)
    return tuple(state)
