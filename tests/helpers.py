"""Frequency models and a command runner shared by the test modules.

Rational stand-ins replace the irrational frequency parameters so the
whole pipeline runs in exact arithmetic; the stand-ins are convergents
chosen so that no resonance appears inside the truncation windows used
by the tests (the enumeration's coherence audit re-checks this).  The
models themselves live in ``resnf.verify``; this module pins the test
aliases and the four-variable variant used only by the tests.
"""

import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import resnf
from resnf.indexing import Mode
from resnf.resonance import FrequencyModel
from resnf.verify import (
    DEFAULT_ZETA1 as SQRT2,
    DEFAULT_ZETA2 as SQRT3,
    dim6_frequency_model,
    hyperbolic_frequency_model,
    nls_frequency_model,
    potential_shift,
)

HALF_PI = 1.5707963267948966

__all__ = [
    "SQRT2",
    "SQRT3",
    "HALF_PI",
    "potential_shift",
    "dim6_model",
    "dim4_model",
    "nls_model",
    "hyperbolic_model",
    "module_cli",
]


def dim6_model(zeta1: Fraction = SQRT2, zeta2: Fraction = SQRT3) -> FrequencyModel:
    """Six real eigenvalues ``(2, 1, z1, -z1, z2, -z2)``."""
    return dim6_frequency_model(zeta1, zeta2)


def dim4_model(zeta: Fraction = SQRT2) -> FrequencyModel:
    """Four real eigenvalues ``(2, 1, z, -z)``."""
    symbols = [("one", Fraction(1)), ("zeta", zeta)]
    coords = {
        Mode(1, 1): {"one": 2},
        Mode(2, 1): {"one": 1},
        Mode(3, 1): {"zeta": 1},
        Mode(4, 1): {"zeta": -1},
    }
    return FrequencyModel("dim4", symbols, coords)


def nls_model(cutoff: int) -> FrequencyModel:
    """Gauge-paired imaginary spectrum with the default potential."""
    return nls_frequency_model(cutoff)


def hyperbolic_model(cutoff: int) -> FrequencyModel:
    """Real gauge-paired twin of :func:`nls_model`."""
    return hyperbolic_frequency_model(cutoff)


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def module_cli(*argv) -> subprocess.CompletedProcess:
    """``resnf`` in a child process, which a run without end can neither
    hold up (a 30 s timeout) nor let fill memory (2 GB of address space)."""
    env = dict(os.environ, PYTHONPATH=str(Path(resnf.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "resnf.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_cap_memory,
    )
