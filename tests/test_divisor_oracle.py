"""Differential oracle for the Diophantine divisor audit.

``parent_candidates`` and ``parent_audit`` are the earlier
``_signed_candidates`` and ``diophantine_audit``: every signed vector of
the window is built as a ``MultiIndex``, then filtered by its momentum
and its key.  The library reads momentum and resonance off the walk's
carried sums and builds only the vectors it keeps; both must give equal
reports, field for field, with or without the fast path.
"""

import math

import pytest

from helpers import dim6_model, hyperbolic_model, nls_model
from resnf.errors import ModelError, ProblemFileError
from resnf.indexing import MultiIndex, TruncationContext, iter_indices, mode_weight
from resnf.resonance import DiophantineReport, diophantine_audit
from resnf.verify import hyperbolic_frequency_model


def parent_candidates(modes, degree_bound):
    for base in iter_indices(modes, degree_bound):
        if not base.is_zero:
            yield base
        if base.degree + 1 <= degree_bound:
            for k in modes:
                if base.get(k) == 0:
                    yield base.add_unit(k, -1)


def parent_audit(model, ctx, tau, degree_bound, *, use_fast_path=True):
    """The earlier ``diophantine_audit``, kept as the reference."""
    model.validate(ctx)
    modes = ctx.modes()
    momentum_on = ctx.momentum_enabled

    fvalues = {k: model.eigenvalue_complex(k) for k in modes}
    asymptotics = {k: model.asymptotic_eigenvalue(k) for k in modes}
    gamma_max = math.inf
    worst: MultiIndex | None = None
    count = 0
    fast_hits = 0
    for p in parent_candidates(modes, degree_bound):
        if momentum_on and p.momentum_sum != 0:
            continue
        if not model.key(p):
            continue
        count += 1
        value = abs(sum(fvalues[k] * e for k, e in p.items()))
        if use_fast_path:
            asymptotic = sum(e * asymptotics[k] for k, e in p.items())
            if abs(asymptotic) >= 2 * p.l1:
                fast_hits += 1
                if value < 1.0:
                    raise ModelError(
                        "asymptotic fast-path premise held for %s but "
                        "|lambda . p| = %g < 1; the declared eigenvalue "
                        "shape is inconsistent with the model" % (p, value)
                    )
                if gamma_max < 1.0:
                    continue  # cannot lower a minimum already below 1
        try:
            weighted = value
            for m, e in p.items():
                weighted *= (1 + e * e * mode_weight(m) ** 2) ** tau
        except OverflowError:
            log_weighted = math.log(value) + tau * sum(
                math.log(1 + e * e * mode_weight(m) ** 2) for m, e in p.items()
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
        worst_p=worst,
        enumerated_count=count,
        degree_bound=degree_bound,
        mode_cutoff=ctx.mode_cutoff,
        fast_path_hits=fast_hits,
        fast_path_enabled=use_fast_path,
        unconstrained=count == 0,
    )


def cases():
    for bound in (4, 5, 6):
        yield "dim6-D%d" % bound, dim6_model(), TruncationContext(6, bound), bound
    for n in (1, 2, 3):
        ctx = TruncationContext(n, 5, momentum_enabled=True)
        for bound in (3, 4):
            yield "nls-N%d-B%d" % (n, bound), nls_model(n), ctx, bound
            yield "hyperbolic-N%d-B%d" % (n, bound), hyperbolic_model(n), ctx, bound
            yield (
                "hyperbolic-elliptic0-N%d-B%d" % (n, bound),
                hyperbolic_frequency_model(n, elliptic_sites=[0]),
                ctx,
                bound,
            )
    # the lattice-analyze problem: 18 modes, degree bound 4
    yield "lattice-N4-B4", nls_model(4), TruncationContext(4, 6, momentum_enabled=True), 4


def outcome(audit, model, ctx, tau, bound, fast):
    try:
        return audit(model, ctx, tau, bound, use_fast_path=fast)
    except (ModelError, ProblemFileError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name, model, ctx, bound", [pytest.param(*c, id=c[0]) for c in cases()])
@pytest.mark.parametrize("tau", (0.0, 2.0, 300.0))
def test_audit_matches_parent(name, model, ctx, bound, tau):
    for fast in (True, False):
        expected = outcome(parent_audit, model, ctx, tau, bound, fast)
        got = outcome(diophantine_audit, model, ctx, tau, bound, fast)
        assert got == expected
        if isinstance(expected, DiophantineReport):
            # bit for bit, not only equal as floats
            assert repr(got.gamma_max) == repr(expected.gamma_max)


def test_lattice_report_is_the_recorded_one():
    ctx = TruncationContext(4, 6, momentum_enabled=True)
    rep = diophantine_audit(nls_model(4), ctx, 2.0, 4)
    assert (rep.gamma_max, str(rep.worst_p), rep.enumerated_count) == (3.0, "0-^-1", 1844)
