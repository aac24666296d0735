"""Series functionals against independent oracles.

The closed forms under test are linear/bilinear sinc combinations; every
[DERIVED] value here is cross-checked against adaptive quadrature or
high-precision mpmath evaluation rather than against the formulas themselves.
"""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2gbounds import (
    CosineSeries,
    DomainError,
    ValidationError,
    curvature_bound,
    eval_w,
    fourier_coefficients,
    initial_params,
    integral_jet,
    summarize,
    to_series,
)
from b2gbounds.series import (
    _TAYLOR,
    _TAYLOR_CUTS,
    coefficient_decay_bound,
    kernel_ds,
    kernel_jet,
    kernel_s,
    parseval_tail_bound,
    sinc_jet,
)

from b2gbounds.checks import coefficient_decay


def integrals(series):
    """(I1, I2) from integral_jet, without summarize's guards."""
    return integral_jet(series.coeffs, series.freqs, 0)[0]

from conftest import make_series, quad_integral


# -- kernels ---------------------------------------------------------------


def test_sinc_matches_mpmath_across_branch():
    mpmath.mp.dps = 40
    # straddle the series/direct switch at |x| = 1e-4
    xs = [0.0, 1e-9, 3e-6, 9.9e-5, 1.01e-4, 7e-4, 0.02, 1.3, -2.7, 31.4]
    for x in xs:
        exact = float(mpmath.sinc(mpmath.mpf(x)))
        assert sinc_jet(x, 0)[0] == pytest.approx(exact, rel=1e-15, abs=1e-15)


def test_sinc_derivatives_match_mpmath_across_branch():
    mpmath.mp.dps = 40
    # both sides of each Taylor/direct switch, plus points well inside each
    # branch; near the old cut 1e-2 the direct form lost 3.7e-12
    for order, tol in ((1, 5e-14), (2, 1e-13)):
        cut = _TAYLOR_CUTS[order]
        xs = [1e-9, 3e-6, 0.0101, 0.03, 0.1, 0.5 * cut, 0.99 * cut, 0.999999 * cut]
        xs += [cut, 1.000001 * cut, 1.01 * cut, 1.5 * cut, 0.7, 1.3, 3.0, 31.4]
        for x in xs + [-v for v in xs]:
            exact = float(mpmath.diff(mpmath.sinc, mpmath.mpf(x), order))
            value = sinc_jet(x, 2)[order]
            assert value == pytest.approx(exact, rel=tol, abs=0.0), (order, x)
    assert sinc_jet(0.0, 2)[1] == 0.0
    assert sinc_jet(0.0, 2)[2] == pytest.approx(-1.0 / 3.0, rel=1e-16)


def test_taylor_coefficients_are_exact_rationals_rounded_once():
    # sinc^(k)(x) = sum_n (-1)^n (2n)! / ((2n+1)! (2n-k)!) x^(2n-k)
    f = math.factorial
    for k, table in enumerate(_TAYLOR):
        first = (k + 1) // 2
        for n, coeff in enumerate(table, start=first):
            exact = Fraction((-1) ** n * f(2 * n), f(2 * n + 1) * f(2 * n - k))
            assert coeff == float(exact), (k, n)
    assert [len(t) for t in _TAYLOR] == [4, 6, 6]


def test_lower_order_jets_are_prefixes_of_the_full_jet():
    cuts = [c * f for c in _TAYLOR_CUTS for f in (0.999999, 1.0, 1.000001)]
    x = np.array([0.0, 5e-324, 1e-300, 3e-6, 0.07, 0.9, 17.3, 5.7e102] + cuts)
    x = np.concatenate([x, -x, np.linspace(-40, 40, 4001)])
    full = kernel_jet(x, 2)
    for k in (0, 1):
        jet = kernel_jet(x, k)
        assert len(jet) == k + 1
        for j in range(k + 1):
            assert np.array_equal(jet[j], full[j]), (k, j)
    assert np.array_equal(kernel_s(x), full[0])
    assert np.array_equal(kernel_ds(x), full[1])


def full_array_sinc_jet(x, order):
    """sinc_jet with its Taylor polynomials run over the whole array (0
    beyond the widest cut) and merged in by np.where."""
    x = np.asarray(x, dtype=float)
    taylor = [np.abs(x) < cut for cut in _TAYLOR_CUTS[: order + 1]]
    safe = np.where(taylor[0], 1.0, x)
    s = np.sin(safe)
    jet = [s / safe]
    if order >= 1:
        c = np.cos(safe)
        jet.append((c - jet[0]) / safe)
    if order >= 2:
        far = np.abs(x) >= 1e100
        t = np.where(far, 1.0, safe)
        jet.append(((2.0 - t * t) * s - 2.0 * t * c) / (t * t * t))
        if far.any():
            stepwise = ((2.0 / safe - safe) * s - 2.0 * c) / safe / safe
            jet[2] = np.where(far, stepwise, jet[2])
    near = np.where(taylor[-1], x, 0.0)
    u2 = near * near
    for k in range(order + 1):
        poly = np.full_like(u2, _TAYLOR[k][-1])
        for a in _TAYLOR[k][-2::-1]:
            poly *= u2
            poly += a
        if k % 2:
            poly *= near
        jet[k] = np.where(taylor[k], poly, jet[k])
    return jet


def test_sinc_jet_matches_full_array_taylor_bit_for_bit(rng):
    edges = [0.0, -0.0, 1e-300, 1e100, -1e200, 5e307]
    for cut in _TAYLOR_CUTS:
        for v in (cut, -cut):
            edges += [math.nextafter(v, 0.0), v, math.nextafter(v, math.copysign(1, v))]
    theta = np.sort(rng.uniform(0.5, 200.0, 201))
    arrays = [
        np.array(edges),
        rng.uniform(-1.0, 1.0, 2000),
        rng.uniform(-50.0, 50.0, 2000),
        2.0 * math.pi * (theta[:, None] - theta[None, :]),
    ]
    scalars = edges + [0.5, np.float64(3e-5), np.asarray(0.0), np.asarray(-7.25)]
    for x in arrays + scalars:
        for order in (0, 1, 2):
            got, want = sinc_jet(x, order), full_array_sinc_jet(x, order)
            assert len(got) == len(want) == order + 1
            for g, w in zip(got, want):
                assert type(g) is type(w) and g.shape == w.shape, (x, order)
                assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), (x, order)


def test_jets_raise_no_floating_point_warning():
    xs = [0.0, 5e-324, 1e-300, 5.7e102, 1e160, 1.7e308] + list(_TAYLOR_CUTS) + [1e100]
    x = np.array(xs + [-v for v in xs])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        values = sinc_jet(x, 2)
        kernels = kernel_jet(x[np.abs(x) < 1e200], 2)
    assert all(np.isfinite(v).all() for v in values + kernels)


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
    values = list(kernel_jet(theta, 1))
    values += list(fourier_coefficients(CosineSeries([(1.0, theta)]), 2))
    assert all(math.isfinite(v) for v in values)
    # x^3 overflows past 5.6e102 and x^2 past 1.3e154; on both sides of the
    # far-x switch at 1e100, sinc''(x) = -sin(x)/x to far below double precision
    for x in (5.7e102, 1.4e154, 1e160, 1.7e308, 0.999e100, 1e100):
        for v in (x, -x):
            leading = -math.sin(v) / v
            assert sinc_jet(v, 2)[2] == pytest.approx(leading, rel=1e-14, abs=0.0), v
    assert all(math.isfinite(kernel_jet(x, 2)[2]) for x in (5.7e102, 1.4e154, 1e160))


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


def test_eval_w_holds_blocks_of_points():
    # 401 terms at 10^4 + 1 points: the samples are 80 kB and a block of
    # 2^16 terms x points 0.5 MB, where the whole matrix would be 32 MB
    series = to_series(initial_params(400, "paper"))
    grid = np.arange(10001) / 10000
    eval_w(series, grid[:10])  # numpy's first-call allocations
    tracemalloc.start()
    try:
        values = eval_w(series, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    # the blocks sum each point's terms in another order than one product
    # over the whole matrix: 2 n u sum b bounds the gap of any two orders
    whole = series.coeffs @ np.cos(2.0 * math.pi * np.outer(series.freqs, grid))
    slack = 2 * len(series) * 2.0**-53 * float(np.sum(series.coeffs))
    assert np.max(np.abs(values - whole)) <= slack


def test_eval_w_is_even_and_w0_is_mass():
    series = CosineSeries([(0.7, 0.3), (1.1, 4.2), (0.2, 0.0)])
    for t in np.linspace(0, 2, 41):
        assert eval_w(series, -t) == pytest.approx(eval_w(series, t), rel=1e-15)
    assert eval_w(series, 0.0) == pytest.approx(sum(series.coeffs), rel=1e-15)


# -- integrals against quadrature ------------------------------------------


def test_single_term_closed_forms():
    series = CosineSeries([(1.0, 0.75)])
    summary = summarize(series)
    # I1 = S(3/4) = -2/(3 pi); I2 = (1 + S(3/2)) / 2 = 1/2
    assert summary.i1 == pytest.approx(-2 / (3 * math.pi), rel=1e-15)
    assert summary.i2 == pytest.approx(0.5, rel=1e-15)
    assert summary.rho == pytest.approx(8 / (9 * math.pi**2), rel=1e-14)
    assert summary.constant == pytest.approx(
        2 * (1 - 8 / (9 * math.pi**2)), rel=1e-14
    )


def test_constant_series_moments():
    summary = summarize(CosineSeries([(0.8, 0.0)]))
    assert summary.i1 == pytest.approx(0.8, rel=1e-15)
    assert summary.i2 == pytest.approx(0.64, rel=1e-15)
    assert summary.rho == pytest.approx(1.0, rel=1e-14)


def test_integrals_match_quadrature(rng):
    for _ in range(40):
        series = make_series(rng, zero_freq=bool(rng.integers(0, 2)))
        i1_oracle, e1 = quad_integral(lambda t: eval_w(series, t))
        i2_oracle, e2 = quad_integral(lambda t: eval_w(series, t) ** 2)
        scale1 = 1.0 + abs(i1_oracle)
        scale2 = 1.0 + abs(i2_oracle)
        i1, i2 = integrals(series)
        assert abs(i1 - i1_oracle) < 1e-9 * scale1 + 10 * e1
        assert abs(i2 - i2_oracle) < 1e-9 * scale2 + 10 * e2


def test_rho_on_zero_series_is_domain_error():
    with pytest.raises(DomainError):
        summarize(CosineSeries([(0.0, 1.0)]))


def test_summary_outside_double_range_is_domain_error():
    # I1 stays finite and negative in the first two, but I2 underflows to 0
    # and overflows to inf; in the third A-upper overflows, and in the fourth
    # the frequency is past the kernels' domain, so every functional is NaN
    cases = [
        ([(1e-200, 0.75)], "I2"),
        ([(1e300, 0.75), (1e300, 1.7)], "I2"),
        ([(1.0, 1e160)], "A-upper"),
        ([(1.0, 1e308)], "A-upper"),
    ]
    for terms, what in cases:
        with pytest.raises(DomainError, match=what):
            summarize(CosineSeries(terms))


def test_asymptotic_constant_requires_negative_i1():
    constant_series = CosineSeries([(1.0, 0.0)])
    assert summarize(constant_series).constant is None


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
            2.0 * integrals(series)[0], rel=1e-12, abs=1e-12
        )


def test_fourier_coefficients_vectorized_matches_scalar(rng):
    series = make_series(rng, k_max=6)
    coeffs = fourier_coefficients(series, 64)
    assert coeffs.shape == (65,)
    # the rows filled one term at a time are the broadcast matrix, bit for bit
    half = 0.5 * np.arange(65.0)
    th = series.freqs[:, None]
    matrix = kernel_s(th - half) + kernel_s(th + half)
    assert np.array_equal(coeffs, series.coeffs @ matrix)


def test_fourier_coefficients_hold_one_matrix():
    # 6 terms x 20 001 coefficients is 0.96 MB, one row's kernel temporaries
    # about 1.1 MB more; the whole matrix's temporaries would pass the bound
    series = CosineSeries([(1.0 / (j + 1), 0.7 * j + 0.1) for j in range(6)])
    tracemalloc.start()
    try:
        fourier_coefficients(series, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


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
        s = summarize(series)
        m_star = 20000
        coeffs = fourier_coefficients(series, m_star)
        tail = parseval_tail_bound(s.a_upper, m_star)
        lhs = float(np.sum(coeffs[1:] ** 2))
        assert abs(lhs - 2.0 * (s.i2 - s.i1 * s.i1)) <= 1e-8 + tail


def test_tail_bounds_shrink():
    assert parseval_tail_bound(10.0, 2000) < parseval_tail_bound(10.0, 1000)


def test_integral_jet_derivatives_match_central_differences(rng):
    # in the coordinates z = (theta, b): the gradients against differences of
    # (I1, I2), the Hessians assembled from their blocks against differences
    # of the gradients; lower orders are prefixes of the order-2 jet, bit for bit
    h = 1e-6
    for _ in range(5):
        series = make_series(rng, k_max=6, fmax=3.0)
        th, b = series.freqs, series.coeffs
        k, idx = len(b), np.arange(len(b))
        jet = integral_jet(b, th, 2)
        assert integral_jet(b, th, 0)[0] == jet[0]
        grads = integral_jet(b, th, 1)[1]
        assert all(np.array_equal(u, v) for u, v in zip(grads, jet[1]))
        h1_tt, h1_tb, h2_tt, h2_tb, h2_bb = jet[2]
        hess1 = np.zeros((2 * k, 2 * k))
        hess1[idx, idx] = h1_tt
        hess1[idx, k + idx] = hess1[k + idx, idx] = h1_tb
        hess2 = np.block([[h2_tt, h2_tb], [h2_tb.T, h2_bb]])
        z = np.concatenate([th, b])
        for i in range(2 * k):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            (ip, gp), (im, gm) = (integral_jet(w[k:], w[:k], 1) for w in (zp, zm))
            for n in range(2):
                scale = 1.0 + float(np.max(np.abs(jet[1][n])))
                fd = (ip[n] - im[n]) / (2 * h)
                assert abs(fd - jet[1][n][i]) <= 1e-7 * scale
                column = (gp[n] - gm[n]) / (2 * h)
                hess = (hess1, hess2)[n]
                scale = 1.0 + float(np.max(np.abs(hess)))
                assert np.max(np.abs(column - hess[:, i])) <= 1e-6 * scale


def test_summarize_consistency(rng):
    series = make_series(rng)
    s = summarize(series)
    # the values the optimizer's order-2 jet starts from, bit for bit
    assert (s.i1, s.i2) == integral_jet(series.coeffs, series.freqs, 2)[0]
    assert s.rho == s.i1 * s.i1 / s.i2
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
    if series.is_zero() or integrals(series)[1] < 1e-200:  # avoid underflow
        return
    scaled = CosineSeries(zip(series.coeffs * scale, series.freqs))
    assert summarize(scaled).rho == pytest.approx(summarize(series).rho, rel=1e-9)


@settings(max_examples=120, deadline=None)
@given(terms=terms_strategy)
def test_functionals_are_order_independent(terms):
    series = CosineSeries(terms)
    reversed_series = CosineSeries(terms[::-1])
    assert integrals(reversed_series) == pytest.approx(
        integrals(series), rel=1e-12, abs=1e-12
    )


@settings(max_examples=120, deadline=None)
@given(terms=terms_strategy)
def test_rho_is_at_most_one(terms):
    # Cauchy-Schwarz: I1^2 <= I2 * 1 on [0, 1]
    series = CosineSeries(terms)
    if series.is_zero() or integrals(series)[1] < 1e-200:
        return
    assert summarize(series).rho <= 1.0 + 1e-12


@settings(max_examples=80, deadline=None)
@given(
    coeff_a=finite_coeff,
    coeff_b=finite_coeff,
    freq=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)
def test_duplicate_frequencies_merge(coeff_a, coeff_b, freq):
    split = CosineSeries([(coeff_a, freq), (coeff_b, freq)])
    merged = CosineSeries([(coeff_a + coeff_b, freq)])
    assert integrals(split) == pytest.approx(integrals(merged), rel=1e-12, abs=1e-12)
