"""One-parameter family: O(M) collapse and certified limit."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from b2gbounds import (
    ToleranceError,
    ValidationError,
    YuParams,
    summarize,
    yu_evaluate,
    yu_series,
)
from b2gbounds import LIMIT, bounds, yu
from b2gbounds.yu import ROUND_SLACK, _BLOCK, _digamma, _trigamma, yu_functionals


def test_yu_series_terms():
    series = yu_series(YuParams(0.6, 2))
    assert list(series.freqs) == pytest.approx([0.6, 1.6, 2.6], rel=1e-15)
    assert list(series.coeffs) == pytest.approx(
        [1 / 0.6, 1 / 1.6, 1 / 2.6], rel=1e-15
    )


def test_params_validation():
    with pytest.raises(ValidationError):
        YuParams(0.5, 10)  # endpoint excluded
    with pytest.raises(ValidationError):
        YuParams(1.0, 10)
    with pytest.raises(ValidationError):
        YuParams(0.75, -1)
    with pytest.raises(ValidationError):
        YuParams(0.75, "forever")


def test_digamma_and_trigamma_match_mpmath():
    # the grid crosses the recurrence-to-series switch at x = 10
    x = np.concatenate(
        [
            np.arange(2, 97) / 8.0,  # 0.25 ... 12
            [9.999, 10.0, 10.001],
            10.0 ** np.arange(3, 13),
        ]
    )
    psi, psi1 = _digamma(x), _trigamma(x)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.psi(0, v)) for v in x])
        ref1 = np.array([float(mpmath.psi(1, v)) for v in x])
    assert np.all(np.abs(psi1 - ref1) <= 4 * np.spacing(ref1))
    assert np.all(np.abs(psi - ref) <= 2e-15 * np.maximum(1.0, np.abs(ref)))
    # a scalar argument gives the element of the array evaluation, and a
    # 0-d or 2-D one (C or Fortran order) keeps its shape
    assert float(_trigamma(0.875)) == psi1[x == 0.875][0]
    for func, flat in ((_digamma, psi), (_trigamma, psi1)):
        point = func(np.array(0.875))
        assert point.shape == () and point == flat[x == 0.875][0]
        assert np.array_equal(func(x.reshape(12, 9)), flat.reshape(12, 9))
        assert np.array_equal(func(x.reshape(9, 12).T), flat.reshape(9, 12).T)
    # one recurrence step across the switch: 9.5 is shifted, 10.5 is not
    assert float(_digamma(10.5) - _digamma(9.5)) == pytest.approx(1 / 9.5, rel=1e-14)
    assert float(_trigamma(9.5) - _trigamma(10.5)) == pytest.approx(
        1 / 9.5**2, rel=1e-13
    )


def test_linear_time_functionals_match_generic(rng):
    # oracle: the generic quadratic-time bilinear form on the explicit series
    for _ in range(12):
        lam = float(rng.uniform(0.51, 0.99))
        m = int(rng.integers(0, 400))
        series = yu_series(YuParams(lam, m))
        i1, i2 = yu_functionals(lam, m)
        summary = summarize(series)
        assert i1 == pytest.approx(summary.i1, rel=1e-10, abs=1e-12)
        assert i2 == pytest.approx(summary.i2, rel=1e-10, abs=1e-12)


BLOCK_EDGES = (0, 1, 2, 3, _BLOCK // 2 - 1, _BLOCK // 2, _BLOCK - 1, _BLOCK, _BLOCK + 1)
LAMBDAS = (0.5001, 0.62, 0.75, 0.75315, 365 / 478, 0.9999)


@pytest.mark.parametrize("m", (0, 1, _BLOCK + 1, 10**6))
def test_i1_is_the_dot_product_of_the_weights(m):
    for lam in LAMBDAS:
        inv = 1.0 / (np.arange(m + 1, dtype=float) + lam)
        i1 = math.sin(2.0 * math.pi * lam) / (2.0 * math.pi) * float(inv @ inv)
        assert yu_functionals(lam, m)[0] == i1, lam


def test_functionals_hold_one_array_and_one_block():
    # one array of 10^6 + 1 doubles is 8 MB, a block of trigamma temporaries
    # a few MB more; a second array of m + 1 doubles would pass the bound
    tracemalloc.start()
    try:
        yu_functionals(0.75315, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _long_double_constant(lam, m):
    """2(1 - I1^2/I2) in np.longdouble, T from running prefix sums P(k) of
    1/(i + 2 lambda)^2 rather than yu_functionals' trigamma differences."""
    ld = np.longdouble
    pi = ld(mpmath.nstr(mpmath.pi, 30))
    lam = ld(lam)
    inv = 1 / (np.arange(m + 1, dtype=ld) + lam)
    sum_inv2 = np.sum(inv * inv)
    prefix = 1 / (np.arange(2 * m + 1, dtype=ld) + 2 * lam) ** 2
    np.cumsum(prefix, out=prefix)  # prefix[j] = P(j + 1)
    inner = prefix[m:].copy()
    inner[1:] -= prefix[:m]
    t_sum = 2 * np.sum(inv * inner)
    i1 = np.sin(2 * pi * lam) / (2 * pi) * sum_inv2
    i2 = sum_inv2 / 2 + np.sin(4 * pi * lam) / (4 * pi) * t_sum
    return 2 * (1 - i1 * i1 / i2)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than double"
)
@pytest.mark.parametrize("m", BLOCK_EDGES + (2 * _BLOCK, 10**5, 10**6))
@pytest.mark.parametrize("lam", LAMBDAS)
def test_round_slack_covers_finite_truncation(lam, m):
    # the error_bound of a finite truncation is ROUND_SLACK alone; every m
    # here puts a block edge somewhere else
    result = yu_evaluate(YuParams(lam, m))
    assert result.error_bound == ROUND_SLACK
    gap = abs(result.constant - _long_double_constant(lam, m))
    assert gap <= ROUND_SLACK, gap
    assert gap <= 1e-15, gap


def test_limit_at_three_quarters_is_catalan_expression():
    # at lambda = 3/4 the limiting constant collapses to 1 + 8 G / pi^2
    mpmath.mp.dps = 40
    exact = float(1 + 8 * mpmath.catalan / mpmath.pi**2)
    result = yu_evaluate(YuParams(0.75, "limit"), tol=1e-12)
    assert abs(result.constant - exact) <= result.error_bound + 5e-14
    assert result.error_bound <= 1e-12


def test_truncated_constants_converge_to_limit():
    lam = 0.75315
    limit = yu_evaluate(YuParams(lam, "limit"), tol=1e-12).constant
    gaps = [
        abs(yu_evaluate(YuParams(lam, 2**k), tol=1e-9).constant - limit)
        for k in (10, 12, 14, 16, 18)
    ]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    # O(1/M) tail: each quadrupling of M cuts the gap by about 4
    for a, b in zip(gaps, gaps[1:]):
        assert a / b == pytest.approx(4.0, rel=0.4)


def test_finite_evaluation_is_exact_up_to_rounding():
    params = YuParams(0.8, 50)
    result = yu_evaluate(params, tol=1e-9)
    i1, i2 = yu_functionals(0.8, 50)
    assert result.constant == 2.0 * (1.0 - i1 * i1 / i2)
    assert result.error_bound == ROUND_SLACK
    with pytest.raises(ToleranceError):
        yu_evaluate(params, tol=1e-16)


def test_limit_refuses_a_tolerance_no_head_reaches(monkeypatch):
    # the doubling loop stops only at half-width + ROUND_SLACK <= tol / 4,
    # so a tol below 4 ROUND_SLACK is refused before any enclosure
    calls = []
    enclosure = yu._limit_enclosure
    monkeypatch.setattr(
        yu, "_limit_enclosure", lambda *args: calls.append(args) or enclosure(*args)
    )
    for tol in (1e-13, 3.9e-13):
        with pytest.raises(ToleranceError) as info:
            yu_evaluate(YuParams(0.7, LIMIT), tol=tol)
        assert info.value.achieved == ROUND_SLACK
    assert calls == []
    assert yu_evaluate(YuParams(0.7, LIMIT), tol=4e-13).error_bound <= 4e-13
    assert calls


def test_limit_error_bound_is_honest():
    # tighter tolerances give nested enclosures around a common value
    lam = 0.62
    loose = yu_evaluate(YuParams(lam, "limit"), tol=1e-6)
    tight = yu_evaluate(YuParams(lam, "limit"), tol=1e-11)
    assert loose.error_bound <= 1e-6
    assert tight.error_bound <= 1e-11
    assert abs(loose.constant - tight.constant) <= loose.error_bound + tight.error_bound


def test_i1_negative_across_lambda_range():
    for lam in [0.51, 0.6, 0.7, 0.75, 0.85, 0.95, 0.99]:
        i1, _ = yu_functionals(lam, 200)
        assert i1 < 0, lam
        # the limit constant is then well-defined
        assert yu_evaluate(YuParams(lam, "limit"), tol=1e-8).constant > 1.0


def test_limit_at_fixed_lambda_beats_reference_coefficient():
    # lambda = 365/478 lies near the minimizer of the limit over lambda; its
    # certified enclosure must lie wholly below the previously recorded
    # coefficient 1.74217 that the paper improves on
    result = yu_evaluate(YuParams(365 / 478, "limit"), 1e-12)
    assert result.constant + result.error_bound < bounds.REFERENCE_COEFF_PER_2G1
    assert abs(result.constant - 1.7407259237377182) <= 1e-12


def test_result_serialization():
    result = yu_evaluate(YuParams(0.75, "limit"), tol=1e-8)
    obj = result.to_obj()
    assert set(obj) == {"lambda", "truncation", "constant", "error_bound"}
    assert obj["lambda"] == 0.75
    assert obj["truncation"] == "limit"
