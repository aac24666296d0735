"""Shared helpers: random inputs, quadrature oracles, the cross-check suite."""

import numpy as np
import pytest
from scipy.integrate import quad

from b2gbounds import CosineSeries, YuParams, initial_params, to_series, yu_series
from b2gbounds.checks import random_series


def make_series(rng, k_max=10, fmax=30.0, bmax=2.0, zero_freq=False):
    """Random admissible series; zero_freq moves the first term to theta = 0."""
    series = random_series(rng, k_max, fmax, bmax)
    if zero_freq:
        freqs = series.freqs.copy()
        freqs[0] = 0.0
        series = CosineSeries(zip(series.coeffs, freqs))
    return series


def quad_integral(fn, rel=1e-12):
    """Adaptive quadrature over [0, 1]; oracle for the closed-form integrals."""
    value, estimate = quad(fn, 0.0, 1.0, limit=500, epsabs=1e-13, epsrel=rel)
    return value, estimate


def suite_series():
    """The fixed cross-check suite used by soundness tests.

    Mixes hand-picked, truncated-family, and optimizer-family members so the
    finite-N bound is exercised across very different coefficient profiles.
    """
    return [
        ("single-3/4", CosineSeries([(1.0, 0.75)])),
        ("two-term", CosineSeries([(1.0, 0.75), (0.5, 1.7)])),
        ("yu-m10", yu_series(YuParams(0.75, 10))),
        ("yu-m50-tuned", yu_series(YuParams(0.75315, 50))),
        ("family-paper-m8", to_series(initial_params(8, "paper"))),
        ("family-flat-m5", to_series(initial_params(5, "yu-like"))),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
