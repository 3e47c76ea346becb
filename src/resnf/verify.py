"""Numerical verification of the normalized structure, plus example systems.

Provides the invariant-set tangency check (every non-kernel term of a
normalized field lies in the squared resonance ideal, so the restriction
to the joint zero set of the generator monomials is linear), fixed-step
flow integration, conjugacy-error measurements between the original flow
and the linearized flow carried through the recorded transform, and
constructors for the worked example systems (a six-variable real
spectrum, a gauge-paired imaginary spectrum with a convolution
nonlinearity, and its hyperbolic twin).
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterable, Mapping, Sequence

from .errors import NormalFormError
from .fields import GaussianRational, VectorField, _Packing
from .indexing import (
    Mode,
    MultiIndex,
    TruncationContext,
    iter_indices,
    mode_key,
)
from .normalform import FieldFlow, TransformLog, apply_transform, compile_field
from .resonance import FrequencyModel, ResonanceModule

#: Continued-fraction convergents standing in for the irrational
#: frequency parameters; exact rationals keep the whole pipeline in
#: exact arithmetic while staying non-resonant inside every truncation
#: window used here (the enumeration's value-coherence audit re-checks).
DEFAULT_ZETA1 = Fraction(1393, 985)
DEFAULT_ZETA2 = Fraction(1351, 780)

_HALF_PI = 1.5707963267948966
_PI = 3.141592653589793


def potential_shift(j: int) -> Fraction:
    """Site-dependent potential stand-in: ``3/4`` at ``j = 0`` (keeping
    ``|V_0 - 1| <= 1/2``), elsewhere the reciprocal of the ``order``-th
    prime from 11 on, the sites taken in the order ``1, -1, 2, -2, ...``.
    Window coefficients stay far below the smallest denominator, so the
    pairwise-coprime denominators rule out accidental cancellations among
    the shifted squares."""
    if j == 0:
        return Fraction(3, 4)
    order = 2 * abs(j) - (1 if j > 0 else 0)
    prime = 7
    while order:
        prime += 2
        if all(prime % d for d in range(3, math.isqrt(prime) + 1, 2)):
            order -= 1
    return Fraction(1, prime)


def default_potential(cutoff: int) -> dict[int, Fraction]:
    return {j: potential_shift(j) for j in range(-cutoff, cutoff + 1)}


# ---------------------------------------------------------------------------
# frequency models
# ---------------------------------------------------------------------------


def dim6_frequency_model(
    zeta1: Fraction = DEFAULT_ZETA1, zeta2: Fraction = DEFAULT_ZETA2
) -> FrequencyModel:
    """Six real eigenvalues ``(2, 1, z1, -z1, z2, -z2)`` over the symbol
    basis ``(1, z1, z2)``."""
    symbols = [("one", Fraction(1)), ("zeta1", zeta1), ("zeta2", zeta2)]
    coords = {
        Mode(1, 1): {"one": 2},
        Mode(2, 1): {"one": 1},
        Mode(3, 1): {"zeta1": 1},
        Mode(4, 1): {"zeta1": -1},
        Mode(5, 1): {"zeta2": 1},
        Mode(6, 1): {"zeta2": -1},
    }
    return FrequencyModel("dim6", symbols, coords)


def _gauge_frequency_model(
    name: str,
    cutoff: int,
    potential: Mapping[int, Fraction] | None,
    elliptic: Container[int],
) -> FrequencyModel:
    """Gauge-paired spectrum ``lambda_(j,s) = s (j^2 + V_j)`` with one
    symbol per site ``j``; sites in ``elliptic`` carry the imaginary
    pairing ``i s (j^2 + V_j)`` instead."""
    potential = default_potential(cutoff) if potential is None else potential
    sites = range(-cutoff, cutoff + 1)
    symbols = [("w%d" % j, Fraction(j * j) + Fraction(potential[j])) for j in sites]
    coords = {}
    phases = {}
    for j in sites:
        for sigma in (1, -1):
            if j in elliptic:
                coords[Mode(j, sigma)] = {"w%d" % j: (0, sigma)}
                phases[Mode(j, sigma)] = sigma * _HALF_PI
            else:
                coords[Mode(j, sigma)] = {"w%d" % j: sigma}
                phases[Mode(j, sigma)] = 0.0 if sigma > 0 else _PI
    return FrequencyModel(name, symbols, coords, alpha=2.0, phases=phases)


def nls_frequency_model(
    cutoff: int, potential: Mapping[int, Fraction] | None = None
) -> FrequencyModel:
    """Gauge-paired imaginary spectrum ``lambda_(j,s) = i s (j^2 + V_j)``
    with one independent symbol per site ``j``."""
    sites = range(-cutoff, cutoff + 1)
    return _gauge_frequency_model("nls", cutoff, potential, sites)


def hyperbolic_frequency_model(
    cutoff: int,
    potential: Mapping[int, Fraction] | None = None,
    elliptic_sites: Iterable[int] = (),
) -> FrequencyModel:
    """Real gauge-paired spectrum ``lambda_(j,s) = s (j^2 + V_j)``; sites
    listed in ``elliptic_sites`` keep the imaginary pairing instead,
    giving the mixed elliptic/hyperbolic partition."""
    return _gauge_frequency_model(
        "hyperbolic", cutoff, potential, frozenset(elliptic_sites)
    )


# ---------------------------------------------------------------------------
# invariant set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaSpec:
    """The joint zero set of the generator monomials: the point ``x``
    lies on the set when every ``x^{Q_i}`` vanishes, that is when at
    least one coordinate in each generator's support is zero."""

    generators: tuple[MultiIndex, ...]

    @classmethod
    def from_module(cls, module: ResonanceModule) -> "SigmaSpec":
        return cls(tuple(module.q_generators))

    def minus_modes(self) -> tuple[Mode, ...]:
        """One designated mode per generator (the last in mode order);
        zeroing these places a point on the set."""
        return tuple(max(g.modes(), key=mode_key) for g in self.generators)

    def restrict(self, point: Sequence[complex], ctx: TruncationContext):
        """Copy of ``point`` with the designated minus-side coordinate
        of every generator zeroed."""
        positions = ctx.mode_positions()
        out = [complex(v) for v in point]
        for m in self.minus_modes():
            out[positions[m]] = 0j
        return tuple(out)

    def contains(self, point: Sequence[complex], ctx: TruncationContext) -> bool:
        positions = ctx.mode_positions()
        return all(
            any(not point[positions[m]] for m in g.modes())
            for g in self.generators
        )


@dataclass(frozen=True)
class TangencyReport:
    ok: bool
    offenders: VectorField

    def __bool__(self) -> bool:
        return self.ok


def check_tangent_sigma(w: VectorField, module: ResonanceModule) -> TangencyReport:
    """Check that ``w`` minus its linear and diagonal-kernel parts lies
    in the squared resonance ideal, reporting any offending term.

    Equivalently: the restriction of ``w`` to the invariant set is the
    diagonal linear part, at truncation.
    """
    packing = _Packing.of(w.ctx)
    divisor, entry, classify = module.model.divisors(w.ctx), packing.entry, module.classifier(w.ctx)
    low = 2 * packing.top  # the keys of degree > 1
    offenders = VectorField._raw(w.ctx, {
        k: {
            key: c
            for key, c in comp.items()
            if key >= low and classify(key) != 2 and (divisor(k, key)[0] or not entry(key, k))
        }
        for k, comp in w._terms.items()
    })
    return TangencyReport(offenders.is_zero, offenders)


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowConfig:
    """Fixed-step integrator parameters: an int count >= 1 and a bound > 0, which NaN is not."""

    steps: int = 256
    blowup: float = 10.0

    def __post_init__(self):
        if isinstance(self.steps, bool) or not isinstance(self.steps, int) or self.steps < 1 or not self.blowup > 0:
            raise NormalFormError("steps must be a positive integer and blowup positive")


@dataclass(frozen=True)
class Trajectory:
    final: tuple[complex, ...]
    diverged: bool


def integrate_flow(
    w: FieldFlow,
    x0: Sequence[complex],
    t: float,
    config: FlowConfig = FlowConfig(),
) -> Trajectory:
    """Fixed-step RK4 flow of ``w``, a field compiled by ``compile_field``,
    from ``x0`` over ``[0, t]``; stops early with the divergence flag set
    once a step overflows or some coordinate leaves the blow-up bound (NaN
    never stays inside it)."""
    x = tuple(complex(v) for v in x0)
    return Trajectory(*w.run(x, t / config.steps, config.steps, config.blowup))


def _rk4(flow: FieldFlow, x: Sequence[complex], h: float) -> list[complex]:
    """One RK4 step of a compiled flow.  No pipeline path calls it, nor the
    imported ``compile_field``; the benchmark's per-layer tracer pins both."""
    return list(flow.run(tuple(x), h, 1, None)[0])


def linear_flow(
    model: FrequencyModel, ctx: TruncationContext, xi: Sequence[complex], t: float
) -> tuple[complex, ...]:
    """Closed-form flow of the diagonal part: componentwise
    ``x_k(t) = e^{lambda_k t} x_k(0)``."""
    modes = ctx.modes()
    return tuple(
        complex(v) * cmath.exp(model.eigenvalue_complex(k) * t)
        for v, k in zip(xi, modes)
    )


def conjugacy_error(
    w0: FieldFlow,
    log: TransformLog,
    model: FrequencyModel,
    xi: Sequence[complex],
    t: float,
    config: FlowConfig = FlowConfig(),
) -> float:
    """Sup-norm mismatch between flowing ``w0`` (a field compiled by
    ``compile_field``) from the transformed point and transporting the
    linear flow through the transform.

    The recorded transform carries normal-form coordinates to the
    original ones, so for ``xi`` on the invariant set (where the
    normalized field restricts to its diagonal part) the two paths
    agree up to the truncation error.  A flow that diverges, the
    transform's included, raises NormalFormError.
    """
    ctx = w0.ctx
    try:
        start = apply_transform(log, xi, "forward", steps=config.steps)
        run = integrate_flow(w0, start, t, config)
        carried = None if run.diverged else apply_transform(
            log, linear_flow(model, ctx, xi, t), "forward", steps=config.steps
        )
    except OverflowError:
        carried = None
    if carried is None:
        raise NormalFormError("flow diverged before reaching the horizon")
    return max(abs(a - b) for a, b in zip(run.final, carried))


def loglog_slope(scales: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of ``log(error)`` against ``log(scale)``; a
    zero error makes ``math.log`` raise ValueError."""
    if len(scales) != len(errors) or len(scales) < 2:
        raise ValueError("need at least two (scale, error) pairs")
    xs = [math.log(s) for s in scales]
    ys = [math.log(e) for e in errors]
    if min(xs) == max(xs):
        raise ValueError("need at least two distinct scales")
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sum((x - mx) ** 2 for x in xs)


# ---------------------------------------------------------------------------
# example systems
# ---------------------------------------------------------------------------

_Q1 = MultiIndex.unit(Mode(3, 1)) + MultiIndex.unit(Mode(4, 1))
_Q2 = MultiIndex.unit(Mode(5, 1)) + MultiIndex.unit(Mode(6, 1))


def build_example_dim6(
    zeta1: Fraction = DEFAULT_ZETA1,
    zeta2: Fraction = DEFAULT_ZETA2,
    seed: int = 0,
    degree: int = 8,
) -> tuple[VectorField, FrequencyModel]:
    """The six-variable example: the diagonal part plus, for nonzero
    seeds, a random perturbation combining diagonal kernel terms of low
    degree, one planted squared-ideal kernel term, and non-resonant
    free terms of order at least four.

    Non-diagonal kernel terms (the obstruction coefficients of the
    example) are never generated, so the built field always satisfies
    the diagonal-kernel hypothesis.
    """
    model = dim6_frequency_model(zeta1, zeta2)
    ctx = TruncationContext(6, degree, momentum_enabled=False, arithmetic="exact")
    d = model.linear_field(ctx)
    if seed == 0:
        return d, model
    if degree < 4:
        raise ValueError("a seeded dim6 field needs degree >= 4, got %d" % degree)
    rng = random.Random(seed)
    modes = ctx.modes()
    terms = []

    def coeff():
        num = rng.choice([n for n in range(-3, 4) if n])
        return Fraction(num, rng.randint(2, 7))

    # diagonal resonant low-degree terms x^{Q_i} x_k d/dx_k
    for gen in rng.sample([_Q1, _Q2], rng.randint(1, 2)):
        k = rng.choice(modes)
        terms.append((k, gen + MultiIndex.unit(k), coeff()))
    # planted squared-ideal kernel term, so the conjugated field keeps
    # a nonzero component there
    if degree >= 5:
        k = rng.choice(modes)
        terms.append((k, _Q1 + _Q2 + MultiIndex.unit(k), coeff()))
    # non-resonant free terms of order >= 4
    wanted = rng.randint(2, 4)
    found = 0
    while found < wanted:
        k = rng.choice(modes)
        deg = rng.randint(5, degree + 1)
        entries: dict[Mode, int] = {}
        for _ in range(deg):
            m = rng.choice(modes)
            entries[m] = entries.get(m, 0) + 1
        q = MultiIndex(entries)
        pairs = min(q.get(Mode(3, 1)), q.get(Mode(4, 1))) + min(
            q.get(Mode(5, 1)), q.get(Mode(6, 1))
        )
        if pairs >= 2 or model.is_resonant_pair(q, k):
            continue
        terms.append((k, q, coeff()))
        found += 1
    return d + VectorField(ctx, terms), model


def _multinomial(total: int, counts: Iterable[int]) -> int:
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


def build_example_nls(
    p: int,
    potential: Mapping[int, Fraction] | None = None,
    cutoff: int = 2,
    degree: int | None = None,
) -> tuple[VectorField, FrequencyModel]:
    """Gauge-invariant convolution system at mode cutoff ``cutoff``:
    ``x'_{j,s} = i s (j^2+V_j) x_{j,s} + i s (u^{p+1} v^p)_j`` where
    ``u`` collects the ``s``-side and ``v`` the opposite coordinates.

    Each nonlinear term carries the multinomial coefficient of its
    exponent pattern and conserves momentum by construction.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    degree = 2 * p + 1 if degree is None else degree
    if degree < 2 * p:
        raise ValueError("degree window too small for the nonlinearity")
    model = nls_frequency_model(cutoff, potential)
    ctx = TruncationContext(
        cutoff, degree, momentum_enabled=True, arithmetic="exact"
    )
    d = model.linear_field(ctx)
    sites = range(-cutoff, cutoff + 1)
    terms = []
    for same in itertools.combinations_with_replacement(sites, p + 1):
        for anti in itertools.combinations_with_replacement(sites, p):
            j = sum(same) - sum(anti)
            if abs(j) > cutoff:
                continue
            same_counts = {h: same.count(h) for h in set(same)}
            anti_counts = {h: anti.count(h) for h in set(anti)}
            weight = _multinomial(p + 1, same_counts.values()) * _multinomial(
                p, anti_counts.values()
            )
            for sigma in (1, -1):
                entries = {Mode(h, sigma): c for h, c in same_counts.items()}
                for h, c in anti_counts.items():
                    m = Mode(h, -sigma)
                    entries[m] = entries.get(m, 0) + c
                terms.append(
                    (Mode(j, sigma), MultiIndex(entries), GaussianRational(0, sigma * weight))
                )
    return d + VectorField(ctx, terms), model


def build_example_hyperbolic(
    cutoff: int = 2,
    potential: Mapping[int, Fraction] | None = None,
    seed: int = 0,
    degree: int = 5,
    elliptic_sites: Iterable[int] = (),
) -> tuple[VectorField, FrequencyModel]:
    """Real-spectrum twin: the diagonal part plus, for nonzero seeds, a
    random momentum-conserving perturbation of order at least two."""
    model = hyperbolic_frequency_model(cutoff, potential, elliptic_sites)
    ctx = TruncationContext(
        cutoff, degree, momentum_enabled=True, arithmetic="exact"
    )
    d = model.linear_field(ctx)
    if seed == 0:
        return d, model
    rng = random.Random(seed)
    modes = ctx.modes()
    pool = [
        (k, q)
        for q in iter_indices(modes, degree + 1, 3)
        for k in modes
        if q.momentum_sum == k.sigma * k.j
    ]
    picks = rng.sample(pool, min(len(pool), rng.randint(3, 6)))
    terms = [
        (
            k,
            q,
            GaussianRational(
                Fraction(rng.choice([n for n in range(-3, 4) if n]), rng.randint(2, 7))
            ),
        )
        for k, q in picks
    ]
    return d + VectorField(ctx, terms), model
