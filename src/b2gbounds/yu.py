"""The one-parameter truncated cosine family

    w(t) = sum_{m=0}^{M} cos(2 pi (m + lambda) t) / (m + lambda),
           1/2 < lambda < 1,

its asymptotic constants, the closed-form M -> infinity limit with certified
error, and a one-dimensional refinement search over lambda.

Because consecutive frequencies differ by integers, the generic O(M^2)
functional evaluation collapses to O(M):

    I1 = sin(2 pi lambda)/(2 pi) * sum_m 1/(m+lambda)^2

    I2 = 1/2 sum_m 1/(m+lambda)^2  +  sin(4 pi lambda)/(4 pi) * T,
    T  = sum_{m,n} 1/((m+lambda)(n+lambda)(m+n+2 lambda))
       = 2 sum_m 1/(m+lambda) * [P(m+M+1) - P(m)]          (prefix sums P of
                                                            1/(i+2 lambda)^2)

using the partial fraction 1/((m+l)(n+l)) = [1/(m+l) + 1/(n+l)]/(m+n+2l).

In the limit the inner sums become trigamma values; the tail of T past a head
of M0 terms is evaluated in closed form through digamma/trigamma, leaving a
remainder enclosed in (0, 1/(9 (M0+lambda)^3)] by the enveloping expansion
1/x + 1/(2x^2) < psi'(x) < 1/x + 1/(2x^2) + 1/(6x^3).  The reported constant
is the midpoint of the resulting enclosure and error_bound certifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, polygamma

from .errors import BracketError, ToleranceError, ValidationError
from .series import CosineSeries

LIMIT = "limit"

# Rounding-noise envelope added on top of analytic error enclosures.  The
# head sums run over <= 2^23 doubles with pairwise summation, which keeps
# accumulated rounding far below this.
ROUND_SLACK = 1e-13
# Default certified tolerance of yu_evaluate and yu_constant, also the
# default of b2g yu --tol.
TOL = 1e-9

_M0_START = 1000
_M0_MAX = 2**23

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...: golden-section step


@dataclass(frozen=True)
class YuParams:
    """lambda in (1/2, 1) plus a truncation order M >= 0 or the LIMIT marker.

    The lambda window guarantees sin(2 pi lambda) < 0 and hence I1 < 0, the
    hypothesis of the asymptotic bound; it covers every value of interest.
    """

    lam: float
    truncation: int | str

    def __post_init__(self):
        if not (0.5 < self.lam < 1.0):
            raise ValidationError(
                f"lambda must lie in (1/2, 1), got {self.lam!r}"
            )
        t = self.truncation
        if t != LIMIT and not (isinstance(t, int) and t >= 0):
            raise ValidationError(
                f'truncation must be an integer >= 0 or "{LIMIT}", got {t!r}'
            )

    @property
    def is_limit(self) -> bool:
        return self.truncation == LIMIT


@dataclass(frozen=True)
class YuResult:
    lam: float
    truncation: int | str
    constant: float
    error_bound: float

    def to_obj(self) -> dict:
        return {
            "lambda": self.lam,
            "truncation": self.truncation,
            "constant": self.constant,
            "error_bound": self.error_bound,
        }


def yu_series(params: YuParams) -> CosineSeries:
    """Materialize the truncated family as an explicit cosine series."""
    if params.is_limit:
        raise ValidationError(
            "the limit has no finite series; evaluate via yu_constant"
        )
    lam = params.lam
    return CosineSeries(
        [(1.0 / (m + lam), m + lam) for m in range(params.truncation + 1)]
    )


def yu_functionals(lam: float, m: int) -> tuple[float, float]:
    """(I1, I2) for truncation order m, in O(m) time.

    Matches the generic series evaluation to full precision and is the only
    practical route at m ~ 10^6.
    """
    if not (0.5 < lam < 1.0):
        raise ValidationError(f"lambda must lie in (1/2, 1), got {lam!r}")
    if m < 0:
        raise ValidationError(f"truncation must be >= 0, got {m}")
    idx = np.arange(m + 1, dtype=float)
    inv = 1.0 / (idx + lam)
    sum_inv2 = float(inv @ inv)
    i1 = math.sin(2.0 * math.pi * lam) / (2.0 * math.pi) * sum_inv2

    q = 1.0 / (np.arange(2 * m + 1, dtype=float) + 2.0 * lam) ** 2
    prefix = np.concatenate([[0.0], np.cumsum(q)])  # prefix[j] = sum_{i<j} q_i
    inner = prefix[m + 1 :] - prefix[: m + 1]
    t_sum = 2.0 * float(inv @ inner)
    i2 = 0.5 * sum_inv2 + math.sin(4.0 * math.pi * lam) / (4.0 * math.pi) * t_sum
    return i1, i2


def _limit_enclosure(lam: float, m0: int) -> tuple[float, float]:
    """(constant midpoint, half-width) for the M -> infinity limit.

    I1 is exact (trigamma).  T is enclosed as [T0, T0 + R]:
      head      2 sum_{j<=m0} psi'(j+2l)/(j+l)
      tails     2/l * dpsi  and  dpsi/l^2 - psi'(m0+1+2l)/l
                with dpsi = psi(m0+1+2l) - psi(m0+1+l)
      remainder 0 < R <= 1/(9 (m0+l)^3)
    The constant 2(1 - I1^2/I2) is increasing in I2, so the enclosure of T
    maps directly onto an enclosure of the constant.
    """
    psi1 = float(polygamma(1, lam))
    i1 = math.sin(2.0 * math.pi * lam) / (2.0 * math.pi) * psi1

    j = np.arange(m0 + 1, dtype=float)
    head = 2.0 * float(np.sum(polygamma(1, j + 2.0 * lam) / (j + lam)))
    dpsi = float(digamma(m0 + 1 + 2.0 * lam) - digamma(m0 + 1 + lam))
    t1 = 2.0 / lam * dpsi
    t2 = dpsi / lam**2 - float(polygamma(1, m0 + 1 + 2.0 * lam)) / lam
    t_lo = head + t1 + t2
    t_hi = t_lo + 1.0 / (9.0 * (m0 + lam) ** 3)

    scale = math.sin(4.0 * math.pi * lam) / (4.0 * math.pi)
    i2_a = 0.5 * psi1 + scale * t_lo
    i2_b = 0.5 * psi1 + scale * t_hi
    i2_lo, i2_hi = min(i2_a, i2_b), max(i2_a, i2_b)
    c_lo = 2.0 * (1.0 - i1 * i1 / i2_lo)
    c_hi = 2.0 * (1.0 - i1 * i1 / i2_hi)
    return 0.5 * (c_lo + c_hi), 0.5 * (c_hi - c_lo)


def yu_evaluate(params: YuParams, tol: float = TOL) -> YuResult:
    """Asymptotic constant of the family with a certified error bound.

    Finite truncations are closed-form exact up to rounding; the limit is
    certified to < tol by growing the head length m0, then validated by a
    doubled-m0 re-evaluation whose result is the one reported.
    """
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol!r}")
    if not params.is_limit:
        if tol < ROUND_SLACK:
            raise ToleranceError(
                f"tol={tol:g} is below the floating-point envelope",
                achieved=ROUND_SLACK,
            )
        i1, i2 = yu_functionals(params.lam, params.truncation)
        constant = 2.0 * (1.0 - i1 * i1 / i2)
        return YuResult(params.lam, params.truncation, constant, ROUND_SLACK)

    m0 = _M0_START
    c_mid, half = _limit_enclosure(params.lam, m0)
    while half + ROUND_SLACK > 0.25 * tol and m0 < _M0_MAX:
        m0 *= 2
        c_mid, half = _limit_enclosure(params.lam, m0)
    if half + ROUND_SLACK > 0.25 * tol:
        raise ToleranceError(
            f"cannot certify tol={tol:g} within head budget {_M0_MAX}",
            achieved=half + ROUND_SLACK,
        )
    c_double, half_double = _limit_enclosure(params.lam, 2 * m0)
    error = abs(c_double - c_mid) + half_double + ROUND_SLACK
    if error > tol:
        raise ToleranceError(
            f"doubling validation left error {error:g} > tol {tol:g}",
            achieved=error,
        )
    return YuResult(params.lam, LIMIT, c_double, error)


def yu_constant(params: YuParams, tol: float = TOL) -> float:
    """Convenience scalar wrapper over yu_evaluate."""
    return yu_evaluate(params, tol).constant


def lambda_refine(
    interval: tuple[float, float],
    tol_lambda: float = 1e-6,
    tol_value: float = 1e-9,
) -> tuple[float, float]:
    """Locate a minimizer of the limit constant over lambda in [a, b].

    Golden-section refinement down to a bracket of width tol_lambda; the
    returned point is the best one evaluated (endpoints included, so a
    boundary minimum is legal, not an error).  A uniform validation grid then
    guards against non-unimodal behavior: if any grid point improves on the
    refined value by more than max(tol_value, 1e-12) the bracket was invalid
    and BracketError asks for a grid pre-scan.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (0.5 < a <= b < 1.0):
        raise ValidationError(
            f"interval must satisfy 1/2 < a <= b < 1, got ({a!r}, {b!r})"
        )
    if tol_lambda <= 0 or tol_value <= 0:
        raise ValidationError("tolerances must be positive")

    inner_tol = max(min(tol_value / 100.0, 1e-8), 1e-12)
    cache: dict[float, float] = {}

    def f(lam: float) -> float:
        if lam not in cache:
            cache[lam] = yu_constant(YuParams(lam, LIMIT), inner_tol)
        return cache[lam]

    if a == b:
        return a, f(a)

    lo, hi = a, b
    x1 = hi - INV_PHI * (hi - lo)
    x2 = lo + INV_PHI * (hi - lo)
    f(a), f(b)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol_lambda:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INV_PHI * (hi - lo)
            f2 = f(x2)

    best_lam = min(cache, key=cache.get)
    best_val = cache[best_lam]

    grid = np.linspace(a, b, 33)
    slack = max(tol_value, 1e-12)
    for lam in grid:
        if f(float(lam)) < best_val - slack:
            raise BracketError(
                f"interval ({a}, {b}) is not unimodal: grid point {lam:.6f} "
                f"beats the refined minimum; pre-scan with a finer grid and "
                f"refine inside a single basin"
            )
    best_lam = min(cache, key=cache.get)
    return best_lam, cache[best_lam]
