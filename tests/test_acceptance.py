"""Acceptance gate: one pass/fail line per criterion, at stated tolerances.

Each test prints "[criterion N] PASS/FAIL: detail" before asserting, so the
full scoreboard is visible in the -rA summary.  Two asserts encode recorded
target values that this implementation does not reproduce; the computations
behind them are cross-checked independently inside the suite, so those two
tests fail honestly rather than having their targets adjusted.  Inline notes
mark them.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from b2gbounds import FamilyParams, f_table, initial_params, max_size_bound, to_series
from b2gbounds import checks
from b2gbounds.family import REF_C, REF_Y, _pack, rho_and_grad

from conftest import suite_series


def crit(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def crit_checks(num, results, elapsed=None, limit=None):
    """crit over (name, passed, detail) results of b2gbounds.checks."""
    ok = all(passed for _, passed, _ in results)
    detail = "; ".join(f"{name}: {text}" for name, _, text in results)
    if limit is not None:
        ok = ok and elapsed < limit
        detail += f", {elapsed:.1f}s < {limit:.0f}s"
    crit(num, ok, detail)


def run_cli(*argv, timeout=1200):
    return subprocess.run(
        [sys.executable, "-m", "b2gbounds.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="session")
def m400(tmp_path_factory):
    """One shared M=400 reference optimization (used by criteria 3 and 8)."""
    out = tmp_path_factory.mktemp("m400") / "m400.json"
    start = time.perf_counter()
    proc = run_cli("optimize", "--m", "400", "--init", "paper", "--out", str(out))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), elapsed


def test_criterion_1_yu_limit_at_three_quarters():
    start = time.perf_counter()
    proc = run_cli("yu", "--lambda", "0.75", "--limit", "--tol", "1e-6")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    constant = json.loads(proc.stdout)["constant"]
    gap = abs(constant - 1.7424537)
    crit(
        1,
        gap <= 1e-6 and elapsed < 10.0,
        f"limit constant {constant:.10f}, |gap to 1.7424537| = {gap:.2e} "
        f"(tol 1e-6), {elapsed:.1f}s < 10s",
    )


def test_criterion_2_yu_truncated_optimum():
    # EXPECTED RED.  The recorded target 1.74217 +- 5e-5 is not what this
    # family evaluates to at lambda=0.75315, M=1e6: the linear-time partial
    # fraction form, the generic O(M^2) bilinear form, and adaptive
    # quadrature all agree on 1.74175533 (see test_yu.py), and the M -> inf
    # limit at this lambda is 1.74175506.  The target appears to quote a
    # differently tuned run; the assert keeps the recorded value.
    start = time.perf_counter()
    proc = run_cli("yu", "--lambda", "0.75315", "--m", "1000000")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    constant = json.loads(proc.stdout)["constant"]
    gap = abs(constant - 1.74217)
    crit(
        2,
        gap <= 5e-5 and elapsed < 60.0,
        f"truncated constant {constant:.10f}, |gap to 1.74217| = {gap:.2e} "
        f"(tol 5e-5), {elapsed:.1f}s < 60s",
    )


def test_criterion_3_reference_optimization(m400):
    obj, elapsed = m400
    constant = obj["constant"]
    dev_c = max(abs(a - b) for a, b in zip(obj["c"][:50], REF_C[:50]))
    dev_y = max(abs(a - b) for a, b in zip(obj["y"][:50], REF_Y[:50]))
    crit(
        3,
        constant <= 1.74047 and dev_c <= 0.02 and dev_y <= 0.02,
        f"M=400 constant {constant:.12f} <= 1.74047, max |dc| {dev_c:.4f}, "
        f"max |dy| {dev_y:.4f} (tol 0.02), {elapsed:.0f}s",
    )


def test_criterion_3_m50_variant():
    # EXPECTED RED.  The M=50 regression target < 1.742 is not attainable:
    # eight independent starts (reference prefix, flat, six seeded random
    # restarts) all converge to 1.74211734335346 (the reference prefix to
    # 1.7421173433534594 with projected-gradient norm 5.0e-16), so 1.742
    # lies outside this family at M=50.  The frozen
    # threshold is asserted as recorded.
    start = time.perf_counter()
    proc = run_cli("optimize", "--m", "50", "--init", "paper")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    constant = json.loads(proc.stdout)["constant"]
    crit(
        "3 (M=50 variant)",
        constant < 1.742 and elapsed < 600.0,
        f"M=50 constant {constant:.16f} vs threshold 1.742, {elapsed:.0f}s < 600s",
    )


def test_criterion_4_lambda_probe_discrepancy_report():
    lam = 365.0 / 478.0
    proc = run_cli("yu", "--lambda", repr(lam), "--limit", "--tol", "1e-9")
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    constant, err = obj["constant"], obj["error_bound"]
    diff = constant - 1.7407259
    # a discrepancy against the recorded probe value is reported, not failed
    crit(
        4,
        err <= 1e-9,
        f"lambda=365/478 limit {constant:.12f} +- {err:.1e}; recorded 1.7407259, "
        f"difference {diff:+.2e} ({'consistent' if abs(diff) < 5e-7 else 'DISCREPANT'})",
    )


def test_criterion_5_gradient_against_central_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    h = 1e-6
    worst = 0.0
    for m in (1, 5, 20):
        for _ in range(50):
            params = initial_params(m, "random", seed=int(rng.integers(1 << 30)))
            x = _pack(params)
            _, grad = rho_and_grad(x, m)
            fd = np.empty_like(grad)
            for i in range(len(x)):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (rho_and_grad(xp, m)[0] - rho_and_grad(xm, m)[0]) / (2 * h)
            # relative error of the gradient as a vector; per-component
            # ratios are meaningless below the h^2 differencing floor
            worst = max(
                worst, float(np.linalg.norm(grad - fd) / np.linalg.norm(fd))
            )
    elapsed = time.perf_counter() - start
    crit(
        5,
        worst < 1e-5 and elapsed < 30.0,
        f"max relative gradient error {worst:.2e} over 50 points x M in {{1,5,20}} "
        f"(tol 1e-5), {elapsed:.1f}s < 30s",
    )


def test_criterion_6_spectral_inequality_full_enumeration():
    start = time.perf_counter()
    results = [checks.sdft_inequality(g, 18) for g in (1, 2)]
    crit_checks(6, results, time.perf_counter() - start, 300.0)


def test_criterion_7_spectral_identities_randomized():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    pairs = checks.random_pairs(rng, 500, n_max=29, p=0.5, k_max=6, fmax=15.0)
    results = [checks.difference_identity(pairs), checks.wraparound_identity(pairs)]
    crit_checks(7, results, time.perf_counter() - start, 60.0)


def test_criterion_8_soundness_and_reference_coefficient(m400):
    obj, _ = m400
    optimized = to_series(FamilyParams(y=tuple(obj["y"]), c=tuple(obj["c"])))
    all_series = suite_series() + [("optimized-m400", optimized)]
    _, sound, detail = checks.bound_soundness(
        all_series, [row for g in (1, 2) for row in f_table(g, 25)]
    )
    coeff = max_size_bound(optimized, 10**8, 2).coefficient
    rel = abs(coeff - 1.319266) / 1.319266
    crit(
        8,
        sound and rel <= 0.01,
        f"exhaustive F <= bound for {len(all_series)} series x (g,N) grid "
        f"({detail}); N=1e8 coefficient {coeff:.6f} within "
        f"{100 * rel:.3f}% of 1.319266 (tol 1%)",
    )


def test_criterion_9_coefficient_decay_and_parseval():
    rng = np.random.default_rng(9)
    sample = [
        checks.random_series(rng, k_max=8, fmax=12.0, bmax=1.5) for _ in range(20)
    ]
    results = [checks.coefficient_decay(sample, 10**4), checks.parseval(sample, 10**4)]
    crit_checks(9, results)
