"""Series functionals against independent oracles.

The closed forms under test are linear/bilinear sinc combinations; every
[DERIVED] value here is cross-checked against adaptive quadrature or
high-precision mpmath evaluation rather than against the formulas themselves.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2gbounds import (
    CosineSeries,
    DomainError,
    HypothesisError,
    ValidationError,
    asymptotic_constant,
    curvature_bound,
    eval_w,
    fourier_coefficients,
    integral_i1,
    integral_i2,
    ratio_rho,
    summarize,
)
from b2gbounds.series import (
    D2SINC_CUT,
    DSINC_CUT,
    coefficient_decay_bound,
    d2sinc,
    dsinc,
    kernel_ds,
    kernel_s,
    parseval_tail_bound,
    reconstruction_tail_bound,
    sinc,
)

from b2gbounds.checks import coefficient_decay

from conftest import make_series, quad_integral


# -- kernels ---------------------------------------------------------------


def test_sinc_matches_mpmath_across_branch():
    mpmath.mp.dps = 40
    # straddle the series/direct switch at |x| = 1e-4
    xs = [0.0, 1e-9, 3e-6, 9.9e-5, 1.01e-4, 7e-4, 0.02, 1.3, -2.7, 31.4]
    for x in xs:
        exact = float(mpmath.sinc(mpmath.mpf(x)))
        assert sinc(x) == pytest.approx(exact, rel=1e-15, abs=1e-15)


def test_sinc_derivatives_match_mpmath_across_branch():
    mpmath.mp.dps = 40
    # both sides of each Taylor/direct switch, plus points well inside each
    # branch; near the old cut 1e-2 the direct form lost 3.7e-12
    cases = ((dsinc, 1, DSINC_CUT, 5e-14), (d2sinc, 2, D2SINC_CUT, 1e-13))
    for fn, order, cut, tol in cases:
        xs = [1e-9, 3e-6, 0.0101, 0.03, 0.1, 0.5 * cut, 0.99 * cut, 0.999999 * cut]
        xs += [cut, 1.000001 * cut, 1.01 * cut, 1.5 * cut, 0.7, 1.3, 3.0, 31.4]
        for x in xs + [-v for v in xs]:
            exact = float(mpmath.diff(mpmath.sinc, mpmath.mpf(x), order))
            assert fn(x) == pytest.approx(exact, rel=tol, abs=0.0), (order, x)
    assert dsinc(0.0) == 0.0
    assert d2sinc(0.0) == pytest.approx(-1.0 / 3.0, rel=1e-16)


def test_kernel_s_matches_quadrature():
    # S(theta) = integral of cos(2 pi theta t) over [0, 1]
    for theta in [0.0, 1e-7, 5e-5, 0.3, 0.5, 0.75, 1.0, 2.25, 17.8]:
        oracle, err = quad_integral(lambda t: math.cos(2 * math.pi * theta * t))
        assert kernel_s(theta) == pytest.approx(oracle, abs=max(1e-13, 10 * err))


def test_kernel_s_even_and_bounded():
    for theta in np.linspace(-40, 40, 4001):
        assert kernel_s(theta) == kernel_s(-theta)
        assert abs(kernel_s(theta)) <= 1.0 + 1e-15


@pytest.mark.filterwarnings("error")
def test_kernels_do_not_overflow_at_huge_arguments():
    # the Taylor polynomial must not square an argument the direct branch takes
    theta = 1e160
    values = [kernel_s(theta), kernel_ds(theta)]
    values += list(fourier_coefficients(CosineSeries([(1.0, theta)]), 2))
    assert all(math.isfinite(v) for v in values)


# -- construction and evaluation -------------------------------------------


def test_term_validation():
    with pytest.raises(ValidationError, match="coefficient"):
        CosineSeries([(1.0, 0.5), (-0.1, 1.0)])
    with pytest.raises(ValidationError, match="frequency"):
        CosineSeries([(1.0, -2.0)])
    with pytest.raises(ValidationError, match="non-finite"):
        CosineSeries([(float("nan"), 1.0)])


def test_eval_w_scalar_and_array_agree():
    series = CosineSeries([(1.0, 0.75), (0.5, 2.0)])
    grid = np.linspace(0, 1, 11)
    values = eval_w(series, grid)
    for t, v in zip(grid, values):
        assert eval_w(series, float(t)) == v
    assert isinstance(eval_w(series, 0.3), float)


def test_eval_w_is_even_and_w0_is_mass():
    series = CosineSeries([(0.7, 0.3), (1.1, 4.2), (0.2, 0.0)])
    for t in np.linspace(0, 2, 41):
        assert eval_w(series, -t) == pytest.approx(eval_w(series, t), rel=1e-15)
    assert eval_w(series, 0.0) == pytest.approx(sum(series.coeffs), rel=1e-15)


# -- integrals against quadrature ------------------------------------------


def test_single_term_closed_forms():
    series = CosineSeries([(1.0, 0.75)])
    # I1 = S(3/4) = -2/(3 pi); I2 = (1 + S(3/2)) / 2 = 1/2
    assert integral_i1(series) == pytest.approx(-2 / (3 * math.pi), rel=1e-15)
    assert integral_i2(series) == pytest.approx(0.5, rel=1e-15)
    assert ratio_rho(series) == pytest.approx(8 / (9 * math.pi**2), rel=1e-14)
    assert asymptotic_constant(series) == pytest.approx(
        2 * (1 - 8 / (9 * math.pi**2)), rel=1e-14
    )


def test_constant_series_moments():
    series = CosineSeries([(0.8, 0.0)])
    assert integral_i1(series) == pytest.approx(0.8, rel=1e-15)
    assert integral_i2(series) == pytest.approx(0.64, rel=1e-15)
    assert ratio_rho(series) == pytest.approx(1.0, rel=1e-14)


def test_integrals_match_quadrature(rng):
    for _ in range(40):
        series = make_series(rng, zero_freq=bool(rng.integers(0, 2)))
        i1_oracle, e1 = quad_integral(lambda t: eval_w(series, t))
        i2_oracle, e2 = quad_integral(lambda t: eval_w(series, t) ** 2)
        scale1 = 1.0 + abs(i1_oracle)
        scale2 = 1.0 + abs(i2_oracle)
        assert abs(integral_i1(series) - i1_oracle) < 1e-9 * scale1 + 10 * e1
        assert abs(integral_i2(series) - i2_oracle) < 1e-9 * scale2 + 10 * e2


def test_rho_on_zero_series_is_domain_error():
    with pytest.raises(DomainError):
        ratio_rho(CosineSeries([(0.0, 1.0)]))


def test_summary_outside_double_range_is_domain_error():
    # I1 stays finite and negative in the first two, but I2 underflows to 0
    # and overflows to inf; in the third A-upper overflows
    cases = [
        ([(1e-200, 0.75)], "I2"),
        ([(1e300, 0.75), (1e300, 1.7)], "I2"),
        ([(1.0, 1e160)], "A-upper"),
    ]
    for terms, what in cases:
        for fn in (summarize, ratio_rho, asymptotic_constant):
            with pytest.raises(DomainError, match=what):
                fn(CosineSeries(terms))


def test_asymptotic_constant_requires_negative_i1():
    constant_series = CosineSeries([(1.0, 0.0)])
    assert summarize(constant_series).constant is None
    with pytest.raises(HypothesisError):
        asymptotic_constant(constant_series)


# -- Fourier data -----------------------------------------------------------


def test_fourier_a_matches_quadrature(rng):
    # a_m of the even 2-periodic extension: 2 * int_0^1 w(t) cos(pi m t) dt
    for _ in range(12):
        series = make_series(rng, k_max=5, fmax=12.0)
        coeffs = fourier_coefficients(series, 17)
        for m in [0, 1, 2, 5, 17]:
            oracle, err = quad_integral(
                lambda t: 2.0 * eval_w(series, t) * math.cos(math.pi * m * t)
            )
            assert coeffs[m] == pytest.approx(
                oracle, abs=max(1e-10, 20 * err)
            )


def test_fourier_a0_is_twice_i1(rng):
    for _ in range(20):
        series = make_series(rng)
        assert fourier_coefficients(series, 0)[0] == pytest.approx(
            2.0 * integral_i1(series), rel=1e-12, abs=1e-12
        )


def test_fourier_coefficients_vectorized_matches_scalar(rng):
    series = make_series(rng, k_max=6)
    coeffs = fourier_coefficients(series, 64)
    assert coeffs.shape == (65,)


def test_curvature_bound_dominates_sampled_smoothness(rng):
    # A+ = |w'(1)| + sum b (2 pi theta)^2 certifies |w'(1)| + sup |w''|
    for _ in range(10):
        series = make_series(rng, k_max=5, fmax=8.0)
        h = 1e-5
        grid = np.linspace(0, 1, 2001)
        w = eval_w(series, grid)
        w_plus = eval_w(series, grid + h)
        w_minus = eval_w(series, grid - h)
        second = np.max(np.abs(w_plus - 2 * w + w_minus)) / h**2
        dw1 = (eval_w(series, 1 + h) - eval_w(series, 1 - h)) / (2 * h)
        assert curvature_bound(series) >= abs(dw1) + second - 1e-3


def test_coefficient_decay_bound_holds(rng):
    sample = [make_series(rng, k_max=6, fmax=10.0) for _ in range(10)]
    _, passed, detail = coefficient_decay(sample, 3000)
    assert passed, detail
    # the check uses the array form: the scalar formula applied elementwise
    ms = np.arange(1, 3001)
    scalar = [coefficient_decay_bound(7.5, int(m)) for m in ms]
    assert coefficient_decay_bound(7.5, ms).tolist() == scalar


def test_parseval_with_certified_tail(rng):
    for _ in range(10):
        series = make_series(rng, k_max=6, fmax=8.0, bmax=1.0)
        i1 = integral_i1(series)
        i2 = integral_i2(series)
        a_upper = summarize(series).a_upper
        m_star = 20000
        coeffs = fourier_coefficients(series, m_star)
        tail = parseval_tail_bound(a_upper, m_star)
        lhs = float(np.sum(coeffs[1:] ** 2))
        assert abs(lhs - 2.0 * (i2 - i1 * i1)) <= 1e-8 + tail


def test_tail_bounds_shrink():
    assert parseval_tail_bound(10.0, 2000) < parseval_tail_bound(10.0, 1000)
    assert reconstruction_tail_bound(10.0, 2000) < reconstruction_tail_bound(10.0, 1000)


def test_summarize_consistency(rng):
    series = make_series(rng)
    s = summarize(series)
    assert s.i1 == integral_i1(series)
    assert s.i2 == integral_i2(series)
    assert s.rho == ratio_rho(series)
    assert s.w0 == eval_w(series, 0.0)
    assert s.a_upper == curvature_bound(series)
    # the CLI's key order
    assert list(s.to_obj().items()) == [
        ("i1", s.i1), ("i2", s.i2), ("rho", s.rho), ("w0", s.w0), ("a_upper", s.a_upper)
    ]


# -- structural properties (hypothesis) -------------------------------------

finite_coeff = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
finite_freq = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
terms_strategy = st.lists(st.tuples(finite_coeff, finite_freq), min_size=1, max_size=8)


@settings(max_examples=120, deadline=None)
@given(terms=terms_strategy, scale=st.floats(min_value=1e-3, max_value=1e3))
def test_rho_is_scale_invariant(terms, scale):
    series = CosineSeries(terms)
    if series.is_zero() or integral_i2(series) < 1e-200:  # avoid underflow
        return
    scaled = series.scaled(scale)
    assert ratio_rho(scaled) == pytest.approx(ratio_rho(series), rel=1e-9)


@settings(max_examples=120, deadline=None)
@given(terms=terms_strategy)
def test_functionals_are_order_independent(terms):
    series = CosineSeries(terms)
    reversed_series = CosineSeries(terms[::-1])
    assert integral_i1(reversed_series) == pytest.approx(
        integral_i1(series), rel=1e-12, abs=1e-12
    )
    assert integral_i2(reversed_series) == pytest.approx(
        integral_i2(series), rel=1e-12, abs=1e-12
    )


@settings(max_examples=120, deadline=None)
@given(terms=terms_strategy)
def test_rho_is_at_most_one(terms):
    # Cauchy-Schwarz: I1^2 <= I2 * 1 on [0, 1]
    series = CosineSeries(terms)
    if series.is_zero() or integral_i2(series) < 1e-200:
        return
    assert ratio_rho(series) <= 1.0 + 1e-12


@settings(max_examples=80, deadline=None)
@given(
    coeff_a=finite_coeff,
    coeff_b=finite_coeff,
    freq=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)
def test_duplicate_frequencies_merge(coeff_a, coeff_b, freq):
    split = CosineSeries([(coeff_a, freq), (coeff_b, freq)])
    merged = CosineSeries([(coeff_a + coeff_b, freq)])
    assert integral_i1(split) == pytest.approx(
        integral_i1(merged), rel=1e-12, abs=1e-12
    )
    assert integral_i2(split) == pytest.approx(
        integral_i2(merged), rel=1e-12, abs=1e-12
    )
