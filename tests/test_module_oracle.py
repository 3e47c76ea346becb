"""Differential oracle for the resonance-module certificates.

``parent_enumerate`` is the earlier implementation of
``enumerate_resonance``: a walk over every index of the window, then
five helpers that extract the generators with two different
decomposability tests and count factorizations with a recursive,
memoised counter per element.  The library now looks up only the
indices whose value is near 0 or an eigenvalue's, states one generator
rule and builds one factorization table; on every model below both must
give the same generators, translates, summary and violations, or raise
the same error with the same message.
"""

import random
from collections import Counter
from fractions import Fraction

from helpers import dim6_model, hyperbolic_model, nls_model
from resnf.errors import (
    CutoffTooSmall,
    ModelError,
    NormalFormError,
    UniqueFactorizationViolation,
)
from resnf.fields import GaussianRational
from resnf.indexing import (
    Mode,
    MultiIndex,
    TruncationContext,
    format_mode,
    iter_indices,
    mode_momentum,
)
from resnf.resonance import (
    FrequencyModel,
    ResonanceModule,
    _require_coherent,
    enumerate_resonance,
    resonance_split,
)
from resnf.verify import hyperbolic_frequency_model


def parent_enumerate(ctx, model):
    """The earlier ``enumerate_resonance``, kept as the reference."""
    model.validate(ctx)
    D = ctx.degree_cutoff
    modes = ctx.modes()
    momentum_on = ctx.momentum_enabled

    # Values are compared as ``value * unit`` pairs (``_scaled``): integer
    # pairs for exact-capable models, float pairs against a tolerance
    # otherwise.  The value of the divisor key ``lambda . (q - e_k)`` is
    # the value of ``lambda . q`` less that of the eigenvalue key.
    table = model._table
    exactly = model.exact_capable
    tol = 1e-9 * model._unit
    scaled = {k: model._scaled(table[k]) for k in modes}
    mom_of = {k: mode_momentum(k) for k in modes}

    module_elements: list[MultiIndex] = []
    resonant_pairs: list[tuple[MultiIndex, Mode]] = []
    for q in iter_indices(modes, D + 1, min_degree=1):
        combo = model.key(q)
        vre, vim = model._scaled(combo)
        if exactly:
            value_zero_q = not vre and not vim
        else:
            value_zero_q = abs(complex(vre, vim)) <= tol
        _require_coherent(model, q, None, not combo, value_zero_q)
        if (
            q.degree <= D
            and not combo
            and (not momentum_on or q.momentum_sum == 0)
        ):
            module_elements.append(q)
        momentum_q = q.momentum_sum if momentum_on else 0
        in_window = q.degree <= D
        for k in modes:
            if momentum_on and momentum_q != mom_of[k]:
                continue
            # the divisor key of (q, k) is empty iff the two keys agree
            symbolic_zero = combo == table[k]
            kre, kim = scaled[k]
            if exactly:
                value_zero = vre == kre and vim == kim
            else:
                value_zero = abs(complex(vre - kre, vim - kim)) <= tol
            _require_coherent(model, q, k, symbolic_zero, value_zero)
            if symbolic_zero and in_window:
                resonant_pairs.append((q, k))

    module_elements.sort(key=lambda e: (e.degree, e.sort_key()))
    element_set = frozenset(module_elements)

    q_generators = _extract_generators(module_elements, element_set)
    for g in q_generators:
        if g.degree >= D:
            raise CutoffTooSmall(
                "module generator %s touches the degree window %d; raise the "
                "cutoff to certify completeness" % (g, D)
            )
    _check_unique_factorization(module_elements, q_generators)

    p_generators, translate_elements = _extract_translates(
        resonant_pairs, element_set, q_generators
    )
    for k, gens in p_generators.items():
        for p in gens:
            if (p + MultiIndex.unit(k)).degree >= D:
                raise CutoffTooSmall(
                    "translate generator %s for direction %s touches the "
                    "degree window %d" % (p, format_mode(k), D)
                )
    _check_translate_factorization(
        translate_elements, p_generators, element_set, q_generators
    )

    return ResonanceModule(
        model, ctx, q_generators, p_generators, element_set, resonant_pairs
    )


def _extract_generators(
    elements: list[MultiIndex], element_set: frozenset[MultiIndex]
) -> tuple[MultiIndex, ...]:
    generators = []
    for e in elements:
        decomposable = any(
            a.degree < e.degree and e.contains(a) and (e - a) in element_set
            for a in elements
        )
        if not decomposable:
            generators.append(e)
    return tuple(generators)


def _count_factorizations(
    target: MultiIndex, generators: tuple[MultiIndex, ...]
) -> int:
    """Number of multisets of generators summing to ``target``."""
    memo = {}

    def rec(rem: MultiIndex, i: int) -> int:
        if rem.is_zero:
            return 1
        if i >= len(generators):
            return 0
        key = (rem, i)
        if key in memo:
            return memo[key]
        total = rec(rem, i + 1)
        if rem.contains(generators[i]):
            total += rec(rem - generators[i], i)
        memo[key] = total
        return total

    return rec(target, 0)


def _check_unique_factorization(
    elements: list[MultiIndex], generators: tuple[MultiIndex, ...]
) -> None:
    for e in elements:
        n = _count_factorizations(e, generators)
        if n != 1:
            raise UniqueFactorizationViolation(
                "lattice element %s admits %d generator factorizations; the "
                "frequency model violates the unique-sum hypothesis" % (e, n)
            )


def _extract_translates(
    resonant_pairs: list[tuple[MultiIndex, Mode]],
    element_set: frozenset[MultiIndex],
    q_generators: tuple[MultiIndex, ...],
):
    """Per direction, the signed resonant translates outside the lattice
    and their minimal elements."""
    per_direction: dict[Mode, list[MultiIndex]] = {}
    for q, k in resonant_pairs:
        p = q - MultiIndex.unit(k)
        if p.is_zero or p in element_set:
            continue  # lattice translates are not "new" directions
        per_direction.setdefault(k, []).append(p)
    p_generators: dict[Mode, tuple[MultiIndex, ...]] = {}
    for k, plist in per_direction.items():
        plist.sort(key=lambda p: (p.l1, p.sort_key()))
        pset = set(plist)
        gens = []
        for p in plist:
            reducible = any(
                (p - g) in pset for g in q_generators if not (p - g).is_zero
            )
            if not reducible:
                gens.append(p)
        p_generators[k] = tuple(gens)
    return p_generators, per_direction


def _check_translate_factorization(
    translate_elements: dict[Mode, list[MultiIndex]],
    p_generators: dict[Mode, tuple[MultiIndex, ...]],
    element_set: frozenset[MultiIndex],
    q_generators: tuple[MultiIndex, ...],
) -> None:
    for k, plist in translate_elements.items():
        gens = p_generators.get(k, ())
        for p in plist:
            ways = 0
            for g in gens:
                rem = p - g
                if rem.is_zero:
                    ways += 1
                elif rem.is_nonnegative and rem in element_set:
                    ways += _count_factorizations(rem, q_generators)
            if ways != 1:
                raise UniqueFactorizationViolation(
                    "translate %s (direction %s) admits %d factorizations "
                    "as generator plus lattice element" % (p, format_mode(k), ways)
                )


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def fixed_cases():
    """dim6 across the window sizes, and the gauge-paired lattices."""
    for degree in range(4, 9):
        yield "dim6-D%d" % degree, dim6_model(), TruncationContext(6, degree)
    for n in (1, 2, 3):
        for degree in ((3, 4, 5) if n < 3 else (3, 4)):
            ctx = TruncationContext(n, degree, momentum_enabled=True)
            yield "nls-N%d-D%d" % (n, degree), nls_model(n), ctx
            yield "hyperbolic-N%d-D%d" % (n, degree), hyperbolic_model(n), ctx
            yield (
                "hyperbolic-elliptic0-N%d-D%d" % (n, degree),
                hyperbolic_frequency_model(n, elliptic_sites=[0]),
                ctx,
            )


def random_case(seed):
    """A seeded custom model: 2-5 modes over 1-3 symbols with small
    integer (sometimes complex) coordinates, window degree 2-6."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    names = ("a", "b", "c")[: rng.randint(1, 3)]
    symbols = [(nm, Fraction(rng.randint(1, 5), rng.randint(1, 3))) for nm in names]
    coords = {}
    for j in range(1, n + 1):
        row = {}
        for nm in rng.sample(names, rng.randint(1, len(names))):
            c = rng.choice((-2, -1, 1, 2, 3))
            row[nm] = (c, rng.choice((-1, 1))) if rng.random() < 0.1 else c
        coords[Mode(j, 1)] = row
    model = FrequencyModel("random-%d" % seed, symbols, coords)
    return "random-%d" % seed, model, TruncationContext(n, rng.randint(2, 6))


def _resonant_row(rng, coords, j):
    """The coordinates of ``lambda_a + lambda_b`` or of ``-lambda_a`` for
    two earlier modes ``a, b``, so that mode ``j`` resonates."""
    a, b = rng.sample(range(1, j), 2)
    if rng.random() < 0.5:
        return {nm: -c for nm, c in coords[Mode(a, 1)].items()}
    row = dict(coords[Mode(a, 1)])
    for nm, c in coords[Mode(b, 1)].items():
        row[nm] = row[nm] + c if nm in row else c
    return {nm: c for nm, c in row.items() if not c.is_zero}


def _seeded_model(seed, label, values, draw):
    """2-5 modes whose coordinates come from ``draw(rng)``, about half of
    them from :func:`_resonant_row`, over the symbols ``values``."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    names = ("a", "b", "c")[: rng.randint(1, 3)]
    symbols = list(zip(names, values(rng, len(names))))
    coords = {}
    for j in range(1, n + 1):
        row = _resonant_row(rng, coords, j) if j > 2 and rng.random() < 0.5 else {}
        if not row:
            row = {nm: draw(rng) for nm in rng.sample(names, rng.randint(1, len(names)))}
        coords[Mode(j, 1)] = row
    name = "%s-%d" % (label, seed)
    return name, FrequencyModel(name, symbols, coords), TruncationContext(n, rng.randint(2, 5))


def _float_values(rng, count):
    """Irrational-looking symbol values; sometimes the second repeats the
    first to a relative 1e-10, inside the audit tolerance of 1e-9 for
    coordinates up to 3, or 1e-8, outside it."""
    values = [rng.uniform(0.5, 3.0) for _ in range(count)]
    if count > 1 and rng.random() < 0.4:
        values[1] = values[0] * (1 + rng.choice((1e-10, 1e-8)))
    return values


def _small_coordinate(rng):
    c = rng.choice((-2, -1, 1, 2, 3))
    return GaussianRational(c, rng.choice((-1, 1)) if rng.random() < 0.2 else 0)


def _large_values(rng, count):
    return [Fraction(rng.randint(1, 10 ** 4), rng.randint(1, 97)) for _ in range(count)]


def _large_coordinate(rng):
    """Up to about 10**6 over denominators up to 7, complex half the time."""
    re = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 7))
    return GaussianRational(re, rng.randint(-10 ** 6, 10 ** 6) if rng.random() < 0.5 else 0)


def random_edge_case(seed):
    """A seeded float model whose symbol ``e`` has the value ``f * 1e-9``
    with ``|f|`` near 1: a mode built as ``lambda_i + lambda_j`` (or
    ``-lambda_i``) plus ``e`` or ``i e`` differs from that combination by
    just inside or just outside the coherence tolerance, in the real or
    the imaginary part, and on either side of it."""
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    f = rng.choice((0.5, 0.9, 0.99, 1.01, 1.1)) * rng.choice((-1, 1))
    symbols = [("a", rng.uniform(0.5, 3.0)), ("b", rng.uniform(0.5, 3.0)), ("e", f * 1e-9)]
    coords = {}
    for j in range(1, n + 1):
        if j > 2 and rng.random() < 0.6:
            row = _resonant_row(rng, coords, j)
            row["e"] = rng.choice((GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1)))
        else:
            row = {rng.choice("ab"): GaussianRational(rng.choice((1, 2, 3)))}
        coords[Mode(j, 1)] = row
    name = "edge-%d" % seed
    return name, FrequencyModel(name, symbols, coords), TruncationContext(n, rng.randint(2, 3))


def random_float_case(seed):
    """A seeded float-valued model: small integer or Gaussian coordinates,
    built-in resonances, and near-equal symbol values."""
    return _seeded_model(seed, "float", _float_values, _small_coordinate)


def random_large_case(seed):
    """A seeded exact model with large, complex and rational coordinates,
    so the packed key and value bases are large, and built-in resonances."""
    return _seeded_model(seed, "large", _large_values, _large_coordinate)


def _dependent_model(name, coordinates, values=(1, 2)):
    """An exact model over ``a, b`` with the dependent values ``values``,
    mode ``j+`` taking the ``j``-th coordinate row."""
    symbols = [("a", Fraction(values[0])), ("b", Fraction(values[1]))]
    coords = {Mode(j, 1): row for j, row in enumerate(coordinates, 1)}
    return name, FrequencyModel(name, symbols, coords), TruncationContext(len(coords), 2)


def split_cases():
    """Windows for the split rule of the lookup walk: nls N=3 D=5 splits
    inside its 14 modes; a 60-rung ladder at D=1 keeps every mode in the
    walk; a one-mode model whose eigenvalue has the value 0 has one target
    and walks no mode.  The two four-mode models (split 3, suffix ``4+``)
    each fail the value audit at two places on opposite sides of the
    split: first at ``4+^2``, a suffix index, then at ``3+^1``; first at
    ``3+^1``, a prefix index, then at ``1+^1 4+^1``.  The float model of
    :func:`float_order_case` pins the walk order of float hits."""
    yield "nls-N3-D5", nls_model(3), TruncationContext(3, 5, momentum_enabled=True)
    rungs = {Mode(j, 1): {"a": j} for j in range(1, 61)}
    yield "ladder-60", FrequencyModel("ladder-60", [("a", Fraction(1))], rungs), TruncationContext(60, 1)
    yield _dependent_model("zero-value", [{"a": 1, "b": -1}], values=(1, 1))
    yield _dependent_model("suffix-first", [{"b": 1}, {"a": 2}, {"b": 1}, {"a": 1}])
    yield _dependent_model("prefix-first", [{"b": 1}, {"a": 7}, {"a": 2}, {"a": 5}])
    yield float_order_case()


def float_order_case():
    """A float model (split 3, suffix ``4+``) whose second prefix index
    ``3+^1`` finds two records that fail the value audit, in different
    probe cells.  With ``a = 1`` and ``e = 0.6e-9``: ``4+^1`` (rank 1),
    filed under the target 0 at ``-1``, gives ``3+^1 4+^1`` of key ``-e``
    and value ``-0.6e-9``; ``4+^2`` (rank 2), filed under ``lambda_2`` at
    ``-1 - 1.2e-9``, one cell lower, gives ``3+^1 4+^2``, whose value lies
    within tolerance of ``lambda_2`` and of ``lambda_4`` while its key
    equals neither.  Walk order raises the first failure; the order the
    cells are scanned in would raise the second."""
    coords = {
        Mode(1, 1): {"a": 5},
        Mode(2, 1): {"a": 1, "e": -2},
        Mode(3, 1): {"a": -1, "e": -1},
        Mode(4, 1): {"a": 1},
    }
    model = FrequencyModel("float-order", [("a", 1.0), ("e", 0.6e-9)], coords)
    return "float-order", model, TruncationContext(4, 2)


def split_of(model, ctx):
    """Where ``enumerate_resonance`` splits the window of ``ctx``: 0, an
    index inside the mode list, or the mode count ``n``."""
    modes = ctx.modes()
    targets = {(0, 0)} | {model._scaled(model._table[k]) for k in modes}
    s = resonance_split(len(modes), ctx.degree_cutoff + 1, len(targets))
    return {0: 0, len(modes): "n"}.get(s, "inside")


FLOAT_CASES = [random_float_case(seed) for seed in range(80)]
EDGE_CASES = [random_edge_case(seed) for seed in range(40)]
LARGE_CASES = [random_large_case(seed) for seed in range(60)]
CASES = (
    list(fixed_cases())
    + [random_case(seed) for seed in range(400)]
    + FLOAT_CASES
    + LARGE_CASES
    + EDGE_CASES
    + list(split_cases())
)


def outcome(enumerate_fn, ctx, model):
    try:
        module = enumerate_fn(ctx, model)
    except NormalFormError as exc:
        return type(exc), str(exc)
    return (
        module.q_generators,
        list(module.p_generators.items()),
        module.summary(),
        module.module_elements,
        module.violations,
    )


def error_kind(result):
    """The error class and the first word of its message, or None."""
    if isinstance(result[0], type):
        return result[0].__name__, result[1].split()[0]
    return None


def test_library_matches_parent_certificates():
    kinds = Counter()
    splits = Counter()
    edges = Counter()
    for name, model, ctx in CASES:
        expected = outcome(parent_enumerate, ctx, model)
        assert outcome(enumerate_resonance, ctx, model) == expected, name
        kinds[error_kind(expected)] += 1
        splits[split_of(model, ctx)] += 1
        if name.startswith("edge-"):
            edges[error_kind(expected)] += 1
    # the lookup walk splits before, inside and after the mode list, and
    # the tolerance-edge models both pass and fail the value audit
    assert splits[0] and splits["inside"] and splits["n"], splits
    assert edges[None] and edges["ModelError", "symbol"], edges
    # every certificate failure occurs, so agreement is not vacuous
    for kind in (
        ("CutoffTooSmall", "module"),
        ("CutoffTooSmall", "translate"),
        ("UniqueFactorizationViolation", "lattice"),
        ("UniqueFactorizationViolation", "translate"),
        ("ModelError", "symbol"),
        None,
    ):
        assert kinds[kind] > 0, kind


def test_new_cases_reach_every_lookup_path():
    """The float and large exact cases resonate, and the float ones both
    pass and fail the value-coherence audit."""
    for cases in (FLOAT_CASES, LARGE_CASES):
        outcomes = [outcome(parent_enumerate, ctx, model) for _, model, ctx in cases]
        summaries = [r[2] for r in outcomes if not error_kind(r)]
        assert any(summary["resonant_pair_count"] for summary in summaries)
        assert any(summary["module_count"] for summary in summaries)
    float_kinds = Counter(
        error_kind(outcome(parent_enumerate, ctx, model)) for _, model, ctx in FLOAT_CASES
    )
    assert float_kinds[None] > 0 and float_kinds["ModelError", "symbol"] > 0


def test_float_hits_follow_walk_order():
    """The first audit failure of the float lookup is the walk's, not the
    first one met in the probe's cell scan."""
    _, model, ctx = float_order_case()
    assert split_of(model, ctx) == "inside"
    result = outcome(enumerate_resonance, ctx, model)
    assert result[0] is ModelError
    assert "vanishing of lambda . 3+^1 4+^1 in" in result[1]
