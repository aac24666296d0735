"""Finite-N bound: precision, soundness against exhaustive counts, limits."""

import math

import mpmath
import pytest

from b2gbounds import (
    CosineSeries,
    ValidationError,
    f_table,
    finite_majorant,
    max_size_bound,
    reference_min,
    summarize,
)
from b2gbounds.bounds import MAX_EXACT_SIZE, radicand, scan_limit

from b2gbounds.checks import bound_monotone_in_g, bound_soundness

from conftest import make_series, suite_series

ORACLE_NS = list(range(1, 13)) + [17, 100, 12345, 10**6]


def scan_survivors(series, n, g):
    """Every size the finite-N estimate keeps, by the exhaustive scalar scan.

    The reference for max_size_bound: each size s = 1 .. scan_limit is
    judged by the same float test, with no assumption on their layout.
    """
    summary = summarize(series)
    b0 = float(series.coeffs[series.freqs == 0.0].sum())
    survivors = []
    for s in range(1, scan_limit(n, g) + 1):
        rhs = finite_majorant(summary, n, g, s)
        if rhs is not None and b0 * s * s <= rhs:
            survivors.append(s)
    return survivors


def majorant_mpmath(summary, n, g, size):
    """Same majorant evaluated at 40 digits; guards against cancellation."""
    mpmath.mp.dps = 40
    i1, i2 = mpmath.mpf(summary.i1), mpmath.mpf(summary.i2)
    w0, a_up = mpmath.mpf(summary.w0), mpmath.mpf(summary.a_upper)
    s = mpmath.mpf(size)
    rad = (2 * g - 1) * n * s**2 - s**4 / 2 + s**3
    if rad < 0:
        return None
    variance = max(i2 - i1 * i1, mpmath.mpf(0))
    rhs = (
        (i1 + a_up / (4 * mpmath.mpf(n) ** 2)) * s**2
        + (w0 - i1) * s
        + (mpmath.sqrt(2 * variance) + a_up / (2 * mpmath.mpf(n) ** 1.5))
        * mpmath.sqrt(rad)
    )
    return float(rhs)


def test_majorant_matches_doubled_precision(rng):
    for _ in range(60):
        series = make_series(rng)
        summary = summarize(series)
        n = int(rng.integers(10, 10**7))
        g = int(rng.integers(1, 4))
        size = int(rng.integers(1, math.isqrt(2 * (2 * g - 1) * n) + 2))
        ours = finite_majorant(summary, n, g, size)
        oracle = majorant_mpmath(summary, n, g, size)
        if oracle is None:
            assert ours is None
        else:
            assert ours == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_radicand_sign_drives_feasibility():
    series = CosineSeries([(1.0, 0.75)])
    summary = summarize(series)
    n, g = 100, 1
    # radicand: (2g-1) N s^2 - s^4/2 + s^3, negative once s^2/2 - s > N
    s_bad = math.isqrt(2 * n) + 3
    assert radicand(n, g, s_bad) < 0
    assert finite_majorant(summary, n, g, s_bad) is None
    assert finite_majorant(summary, n, g, 2) is not None


def test_scan_limit_covers_feasible_sizes():
    # sizes beyond scan_limit always have a negative radicand, so the
    # bisection bracket provably never drops a feasible size
    for n in [1, 10, 1000, 10**6, 10**8]:
        for g in [1, 2, 3]:
            limit = scan_limit(n, g)
            for s in range(limit + 1, limit + 12):
                assert radicand(n, g, s) < 0, (n, g, s)


def test_bound_is_sound_for_exhaustive_f():
    _, passed, detail = bound_soundness(
        suite_series(), [row for g in (1, 2) for row in f_table(g, 16)]
    )
    assert passed, detail


def test_bound_nondecreasing_in_g():
    _, passed, detail = bound_monotone_in_g(suite_series(), (10, 100, 10**4))
    assert passed, detail


def test_coefficient_tends_to_asymptotic_constant():
    for name, series in suite_series():
        constant = summarize(series).constant
        if constant is None:
            continue
        target = math.sqrt(constant)
        gaps = [
            abs(max_size_bound(series, n, 2).coefficient - target)
            for n in (10**4, 10**6, 10**8)
        ]
        assert gaps[0] > gaps[1] > gaps[2], (name, gaps)
        assert gaps[2] < 5e-3, (name, gaps)


def test_reference_min_values():
    assert reference_min(1) == pytest.approx(min(3.1694, 1.74217), rel=1e-12)
    assert reference_min(2) == pytest.approx(min(2 * 3.1694, 3 * 1.74217), rel=1e-12)
    assert reference_min(3) == pytest.approx(min(3 * 3.1694, 5 * 1.74217), rel=1e-12)


def test_report_fields_and_serialization():
    series = CosineSeries([(1.0, 0.75)])
    report = max_size_bound(series, 1000, 2)
    assert report.n == 1000 and report.g == 2
    assert report.coefficient == pytest.approx(
        report.max_size / math.sqrt((2 * 2 - 1) * 1000), rel=1e-15
    )
    obj = report.to_obj()
    assert list(obj) == ["n", "g", "max_size", "coefficient", "reference_min", "summary"]
    assert type(obj["summary"]) is dict
    assert list(obj["summary"]) == ["i1", "i2", "rho", "w0", "a_upper"]
    assert obj["summary"]["i1"] == report.summary.i1


def test_bound_input_validation():
    series = CosineSeries([(1.0, 0.75)])
    with pytest.raises(ValidationError):
        max_size_bound(series, 0, 1)
    with pytest.raises(ValidationError):
        max_size_bound(series, 100, 0)


def test_tiny_n_has_trivial_but_valid_bound():
    # the bound must stay meaningful (>= 1 and >= s for any feasible s) at small N
    series = CosineSeries([(1.0, 0.75)])
    for n in range(1, 12):
        for g in (1, 2):
            report = max_size_bound(series, n, g)
            assert report.max_size >= 1
            assert report.max_size <= scan_limit(n, g)


def test_bisection_matches_scan_oracle(rng):
    cases = suite_series()
    cases += [("random", make_series(rng)) for _ in range(12)]
    cases += [("random-b0", make_series(rng, zero_freq=True)) for _ in range(12)]
    kinds = set()
    for name, series in cases:
        summary = summarize(series)
        b0 = float(series.coeffs[series.freqs == 0.0].sum())
        for n in ORACLE_NS:
            # q, the slope of the linear part of h(s)/s
            q = summary.i1 + summary.a_upper / (4.0 * n * n) - b0
            for g in (1, 2, 3, 5):
                expected = max(scan_survivors(series, n, g))
                stats = {}
                report = max_size_bound(series, n, g, stats=stats)
                assert report.max_size == expected, (name, n, g)
                assert stats["sizes_evaluated"] <= 2 + math.ceil(
                    math.log2(scan_limit(n, g))
                )
                kinds.add((b0 == 0.0, q > 0))
    # series with and without a constant term, each with both signs of q
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_scan_survivors_form_an_interval(rng):
    cases = [series for _, series in suite_series()[:3]]
    cases += [make_series(rng, zero_freq=True) for _ in range(3)]
    for series in cases:
        for n in (1, 7, 100, 2000, 10**4):
            for g in (1, 3):
                survivors = scan_survivors(series, n, g)
                assert survivors == list(range(1, len(survivors) + 1))
                assert max_size_bound(series, n, g).max_size == len(survivors)


def test_sizes_beyond_exact_doubles_are_rejected():
    series = CosineSeries([(1.0, 0.75)])
    # scan_limit(n, 1) = isqrt(2n) + 2 is exactly 2**53 at n_edge and above
    # it at n_edge + 2**53
    n_edge = (MAX_EXACT_SIZE - 2) ** 2 // 2
    assert scan_limit(n_edge, 1) == MAX_EXACT_SIZE
    report = max_size_bound(series, n_edge, 1)
    assert 1 <= report.max_size <= MAX_EXACT_SIZE
    assert scan_limit(n_edge + MAX_EXACT_SIZE, 1) > MAX_EXACT_SIZE
    with pytest.raises(ValidationError, match="2\\*\\*53"):
        max_size_bound(series, n_edge + MAX_EXACT_SIZE, 1)
