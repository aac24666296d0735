"""Self-checks of the identities and lemmas the bounds rest on.

Every check takes its sample and returns ``(name, passed, detail)``: what
was checked, the verdict, and the measured value behind it.  The callers
draw their own samples, with their own seeds and sizes, through the
generators below: ``b2g verify`` through the three suites at the end of
this module, and the acceptance criteria and unit tests directly.
"""

from __future__ import annotations

import math

from ._numpy import np
from .bounds import max_size_bound
from .combinatorics import (
    IntSet,
    d_identity_residual,
    diff_profile,
    f_table,
    s_comb,
    s_dft,
    sdft_inequality_scan,
)
from .family import initial_params, to_series
from .series import (
    CosineSeries,
    coefficient_decay_bound,
    fourier_coefficients,
    parseval_tail_bound,
    summarize,
)
from .yu import YuParams, yu_series

CLAIMED_G = (1, 2, 3, 4, 5)  # g = 1 and every g the paper improves on

# -- random inputs -----------------------------------------------------------


def random_series(rng, k_max=10, fmax=30.0, bmax=2.0) -> CosineSeries:
    """1..k_max terms, coefficients uniform in [0, bmax), frequencies in [0, fmax)."""
    k = int(rng.integers(1, k_max + 1))
    coeffs = rng.uniform(0.0, bmax, k)
    freqs = rng.uniform(0.0, fmax, k)
    return CosineSeries(list(zip(coeffs, freqs)))


def random_intset(rng, n_max=30, p=0.4) -> IntSet:
    """Ambient N uniform in [1, n_max]; each of 0..N is kept with probability p."""
    n = int(rng.integers(1, n_max + 1))
    mask = rng.random(n + 1) < p
    return IntSet(elems=tuple(np.flatnonzero(mask)), n=n)


def random_pairs(rng, count, n_max=30, p=0.4, **series_kw):
    """count (set, random_series(**series_kw), d(n) table of the set) triples."""
    pairs = []
    for _ in range(count):
        a = random_intset(rng, n_max, p)
        pairs.append((a, random_series(rng, **series_kw), diff_profile(a)))
    return pairs


# -- spectral identities, on random_pairs samples ----------------------------


def difference_identity(pairs):
    """sum_n d(n) w(n/N) = sum_theta b_theta |f(theta/N)|^2, relative to 1 + |lhs|."""
    worst = max((d_identity_residual(a, series) for a, series, _ in pairs), default=0.0)
    detail = f"max relative residual {worst:.3e} over {len(pairs)} pairs"
    return ("difference-sum identity", worst < 1e-9, detail)


def wraparound_identity(pairs):
    """s_dft(A) = s_comb(A) + 2 d(N)^2: the +-N residues fold on the 2N grid."""
    worst = 0.0
    for a, _, profile in pairs:
        d_end = profile.get(a.n, 0)
        worst = max(worst, abs(s_dft(a) - (s_comb(a) + 2.0 * d_end * d_end)))
    detail = f"max |s_dft - s_comb - 2 d(N)^2| = {worst:.3e}"
    return ("dft vs combinatorial count", worst < 1e-9, detail)


def profile_invariants(pairs):
    """d has total mass |A|^2, d(0) = |A| and d(-n) = d(n)."""
    bad = 0
    for a, _, profile in pairs:
        if sum(profile.values()) != a.size**2 or profile.get(0, 0) != a.size:
            bad += 1
        if any(profile.get(-k, 0) != v for k, v in profile.items()):
            bad += 1
    return ("difference profile invariants", bad == 0, f"{bad} bad")


def sdft_inequality(g, n_max):
    """s_dft(A) <= (2g-1)|A|^2 on every B2[g] set in [0, N], N <= n_max."""
    report = sdft_inequality_scan(g, n_max)
    detail = f"{report.checked} sets, max ratio {report.max_ratio:.4f} of {2 * g - 1}"
    return (f"s_dft <= (2g-1)|A|^2, g={g}, N<={n_max}", report.violations == 0, detail)


# -- Fourier lemmas, on lists of series --------------------------------------


def coefficient_decay(series_list, m_max):
    """|a_m| <= 2 A+ / (pi^2 m^2) (+1e-12) for 1 <= m <= m_max."""
    ms = np.arange(1, m_max + 1)
    bad = 0
    for series in series_list:
        bound = coefficient_decay_bound(summarize(series).a_upper, ms)
        coeffs = fourier_coefficients(series, m_max)
        bad += int(np.count_nonzero(np.abs(coeffs[1:]) > bound + 1e-12))
    return ("coefficient decay bound", bad == 0, f"{bad} violations")


def parseval(series_list, m_star):
    """sum_{m=1..m_star} a_m^2 = 2 (I2 - I1^2) within 1e-6 + the certified tail."""
    worst, bad = 0.0, 0
    for series in series_list:
        summary = summarize(series)
        coeffs = fourier_coefficients(series, m_star)
        tail = parseval_tail_bound(summary.a_upper, m_star)
        variance = summary.i2 - summary.i1 * summary.i1
        gap = abs(float(np.sum(coeffs[1:] ** 2)) - 2.0 * variance)
        worst = max(worst, gap - tail)
        if gap > 1e-6 + tail:
            bad += 1
    detail = f"max excess over tail {worst:.3e}"
    return ("parseval within tail-bounded 1e-6", bad == 0, detail)


# -- the finite-N bound, on lists of (name, series) --------------------------


def bound_soundness(named_series, table):
    """Exact F(g, N) from an f_table never exceeds the finite-N bound."""
    bad = []
    for name, series in named_series:
        for g, n, size, _ in table:
            if n < 1:
                continue
            report = max_size_bound(series, n, g)
            if size > report.max_size:
                bad.append((name, g, n, size, report.max_size))
    first = f", first {bad[0]}" if bad else ""
    return ("exhaustive F <= finite-N bound", not bad, f"{len(bad)} violations{first}")


def bound_monotone_in_g(named_series, n_values):
    """The bound at each N is nondecreasing over g = 1 ... 5 (CLAIMED_G)."""
    bad = 0
    for _, series in named_series:
        for n in n_values:
            sizes = [max_size_bound(series, n, g).max_size for g in CLAIMED_G]
            if sizes != sorted(sizes):
                bad += 1
    return ("bound nondecreasing in g", bad == 0, f"{bad} bad")


def coefficient_convergence(named_series, n_values):
    """At g = 2 the gap to sqrt(2 (1 - rho)) does not grow along n_values.

    Every series needs I1 < 0, the hypothesis of the asymptotic constant.
    """
    bad = 0
    details = []
    for name, series in named_series:
        target = math.sqrt(summarize(series).constant)
        gaps = [
            abs(max_size_bound(series, n, 2).coefficient - target) for n in n_values
        ]
        if not all(a >= b for a, b in zip(gaps, gaps[1:])):
            bad += 1
        details.append(f"{name}: gaps " + " > ".join(f"{gap:.2e}" for gap in gaps))
    return ("coefficient converges to asymptotic", bad == 0, "; ".join(details))


# -- the suites of b2g verify ------------------------------------------------


def suite_identities(seed):
    pairs = random_pairs(np.random.default_rng(seed), 150)
    identities = (difference_identity, wraparound_identity, profile_invariants)
    return [check(pairs) for check in identities]


def suite_lemmas(seed, nmax):
    rng = np.random.default_rng(seed)
    decay = [random_series(rng, k_max=8, fmax=10.0, bmax=1.0) for _ in range(10)]
    tail = [random_series(rng, k_max=6, fmax=8.0, bmax=1.0) for _ in range(10)]
    scans = [sdft_inequality(g, nmax) for g in (1, 2)]
    return [coefficient_decay(decay, 2000), parseval(tail, 20000), *scans]


def suite_bounds():
    named = [
        ("single term 3/4", CosineSeries([(1.0, 0.75)])),
        ("yu truncated", yu_series(YuParams(0.75, 10))),
        ("family paper prefix", to_series(initial_params(8, "paper"))),
    ]
    return [
        bound_soundness(named, [row for g in CLAIMED_G for row in f_table(g, 16)]),
        bound_monotone_in_g(named, (10, 100, 1000)),
        coefficient_convergence(named[:2], (10**4, 10**6, 10**8)),
    ]
