"""Resonant normal forms of truncated polynomial vector fields.

The package computes, for a diagonal linear part with resonant frequencies,
the resonance module and its generators, splits the monomial algebra into
resonance-graded ideals, runs an iterative quadratic normalization that
pushes all non-resonant terms above any fixed order, and verifies the
resulting conjugacy numerically along trajectories.

Layout:

- :mod:`resnf.indexing` — mode set, multi-indices, truncation contexts;
- :mod:`resnf.fields` — scalar series, vector fields, brackets, norms;
- :mod:`resnf.resonance` — frequency models, resonance generators, ideals,
  small-divisor audits;
- :mod:`resnf.normalform` — homological solves, the quadratic iteration,
  transformation logs;
- :mod:`resnf.verify` — flow integration and conjugacy checks, example
  builders;
- :mod:`resnf.cli` — command-line front end over JSON problem files.
"""

from .errors import (
    AlreadyNormal,
    ContextMismatch,
    CutoffTooSmall,
    HypothesisViolation,
    ModelError,
    NonterminatingSeries,
    NormalFormError,
    ProblemFileError,
    ResonantTermInRange,
    UniqueFactorizationViolation,
)
from .indexing import Mode, MultiIndex, TruncationContext
from .fields import (
    GaussianRational,
    ScalarSeries,
    VectorField,
    bracket,
    lie_derivative,
)
from .resonance import (
    FrequencyModel,
    ResonanceModule,
    classify_exponent,
    diophantine_audit,
    enumerate_resonance,
    small_divisor_audit,
    split_ideals,
)
from .normalform import (
    DecomposedField,
    KamTrace,
    TransformLog,
    apply_transform,
    decompose,
    normalize,
    poincare_dulac,
    prenormalize,
    pushforward_exp,
    solve_extended_homological,
    solve_linear_homological,
)
from .verify import (
    FlowConfig,
    SigmaSpec,
    build_example_dim6,
    build_example_hyperbolic,
    build_example_nls,
    check_tangent_sigma,
    conjugacy_error,
    integrate_flow,
    loglog_slope,
)

__all__ = [
    "AlreadyNormal",
    "ContextMismatch",
    "CutoffTooSmall",
    "DecomposedField",
    "FlowConfig",
    "FrequencyModel",
    "GaussianRational",
    "HypothesisViolation",
    "KamTrace",
    "Mode",
    "ModelError",
    "MultiIndex",
    "NonterminatingSeries",
    "NormalFormError",
    "ProblemFileError",
    "ResonanceModule",
    "ResonantTermInRange",
    "ScalarSeries",
    "SigmaSpec",
    "TransformLog",
    "TruncationContext",
    "UniqueFactorizationViolation",
    "VectorField",
    "apply_transform",
    "bracket",
    "build_example_dim6",
    "build_example_hyperbolic",
    "build_example_nls",
    "check_tangent_sigma",
    "classify_exponent",
    "conjugacy_error",
    "decompose",
    "diophantine_audit",
    "enumerate_resonance",
    "integrate_flow",
    "lie_derivative",
    "loglog_slope",
    "normalize",
    "poincare_dulac",
    "prenormalize",
    "pushforward_exp",
    "small_divisor_audit",
    "solve_extended_homological",
    "solve_linear_homological",
    "split_ideals",
]

__version__ = "0.1.0"
