"""The one-parameter truncated cosine family

    w(t) = sum_{m=0}^{M} cos(2 pi (m + lambda) t) / (m + lambda),
           1/2 < lambda < 1,

its asymptotic constants, and the closed-form M -> infinity limit with
certified error.

Because consecutive frequencies differ by integers, the generic O(M^2)
functional evaluation collapses to O(M):

    I1 = sin(2 pi lambda)/(2 pi) * sum_m 1/(m+lambda)^2

    I2 = 1/2 sum_m 1/(m+lambda)^2  +  sin(4 pi lambda)/(4 pi) * T,
    T  = sum_{m,n} 1/((m+lambda)(n+lambda)(m+n+2 lambda))
       = 2 sum_m [psi'(m+2 lambda) - psi'(m+M+1+2 lambda)] / (m+lambda)

using the partial fraction 1/((m+l)(n+l)) = [1/(m+l) + 1/(n+l)]/(m+n+2l) and
sum_{n<=M} 1/(m+n+2l)^2 = psi'(m+2l) - psi'(m+M+1+2l).

The limit M -> infinity drops the second trigamma, T = 2 sum_m psi'(m+2l)/(m+l),
and I1 becomes sin(2 pi l)/(2 pi) psi'(l).  The tail of T past a head of M0
terms is evaluated in closed form through digamma/trigamma, leaving a
remainder enclosed in (0, 1/(9 (M0+lambda)^3)] by the enveloping expansion
1/x + 1/(2x^2) < psi'(x) < 1/x + 1/(2x^2) + 1/(6x^3).  The reported constant
is the midpoint of the resulting enclosure and error_bound certifies it.

psi and psi' are evaluated here in numpy, for x > 0: the recurrences
psi(x) = psi(x+1) - 1/x and psi'(x) = psi'(x+1) + 1/x^2 carry x to x >= 10,
where the Stirling-type asymptotic series (Abramowitz & Stegun 6.3.18 and
6.4.12) through B_16 is summed.  Both series envelop the true value, so the
truncation error is below the first omitted term, |B_18|/(18 x^18) < 3.1e-18
for psi and |B_18|/x^19 < 5.5e-18 for psi' at x >= 10: less than half an ulp
of either value.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._numpy import np
from .errors import ToleranceError, ValidationError, check_addressable
from .series import CosineSeries, constant_from

LIMIT = "limit"

# Rounding-noise envelope: added on top of the analytic enclosure of the
# limit, and the whole error_bound of a finite truncation.  In the limit the
# head sum runs over <= 2^24 + 1 doubles with np.sum's pairwise summation.  A
# finite truncation's sums are BLAS dot products: one over m + 1 terms for
# I1 and, for T, one per block of _BLOCK trigamma differences, whose
# ceil((m + 1) / _BLOCK) results are added in order.  The value is asserted,
# not derived (tests compare it with a long-double prefix-sum evaluation up
# to m = 10^6).
ROUND_SLACK = 1e-13
# Default certified tolerance of yu_evaluate, also the default of
# b2g yu --tol.
TOL = 1e-9

_M0_START = 1000
_M0_MAX = 2**23
# indices j per block of trigamma differences in yu_functionals
_BLOCK = 2**16

# psi and psi' recur up to this argument before the asymptotic series is used
_SERIES_FROM = 10.0
# Bernoulli numbers B_2, B_4, ..., B_16 of the asymptotic series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_DIGAMMA_COEFFS = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, start=1))


def _recur(x, power: int) -> tuple[np.ndarray, np.ndarray]:
    """(x + k, sum_{i<k} (x + i)**-power), with k the steps that carry each
    element of x > 0 to at least _SERIES_FROM (k = 0 where it already is)."""
    x = np.array(x, dtype=float, order="C")  # C order: the flat views share it
    carry = np.zeros_like(x)
    flat_x, flat_carry = x.reshape(-1), carry.reshape(-1)
    moving = np.flatnonzero(flat_x < _SERIES_FROM)
    while moving.size:
        step = flat_x[moving]
        flat_carry[moving] += 1.0 / step**power
        step += 1.0
        flat_x[moving] = step
        moving = moving[step < _SERIES_FROM]
    return x, carry


def _digamma(x) -> np.ndarray:
    """psi(x) for x > 0: ln x - 1/(2x) - sum_k B_2k / (2k x^2k) past the shift."""
    x, carry = _recur(x, 1)
    z = 1.0 / (x * x)
    return np.log(x) - 0.5 / x - z * np.polyval(_DIGAMMA_COEFFS[::-1], z) - carry


def _trigamma(x) -> np.ndarray:
    """psi'(x) for x > 0: 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) past the shift."""
    x, carry = _recur(x, 2)
    t = 1.0 / x
    z = t * t
    return t + 0.5 * z + t * z * np.polyval(_BERNOULLI[::-1], z) + carry


class YuParams(namedtuple("YuParams", "lam truncation")):
    """lambda in (1/2, 1) plus a truncation order M >= 0 or the LIMIT marker.

    The lambda window guarantees sin(2 pi lambda) < 0 and hence I1 < 0, the
    hypothesis of the asymptotic bound; it covers every value of interest.
    """

    __slots__ = ()

    def __new__(cls, lam, truncation):
        if not (0.5 < lam < 1.0):
            raise ValidationError(f"lambda must lie in (1/2, 1), got {lam!r}")
        t = truncation
        if t != LIMIT and not (isinstance(t, int) and t >= 0):
            raise ValidationError(
                f'truncation must be an integer >= 0 or "{LIMIT}", got {t!r}'
            )
        return super().__new__(cls, lam, t)

    @property
    def is_limit(self) -> bool:
        return self.truncation == LIMIT


class YuResult(namedtuple("YuResult", "lam truncation constant error_bound")):
    __slots__ = ()

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
            "the limit has no finite series; evaluate via yu_evaluate"
        )
    lam = params.lam
    return CosineSeries(
        [(1.0 / (m + lam), m + lam) for m in range(params.truncation + 1)]
    )


def yu_functionals(lam: float, m: int) -> tuple[float, float]:
    """(I1, I2) for truncation order m, in O(m) time.

    Matches the generic series evaluation to full precision and is the only
    practical route at m ~ 10^6.  Memory is one array of m + 1 doubles (the
    weights 1/(j + lambda)) plus the trigamma temporaries of one block of
    _BLOCK indices j.
    """
    if not (0.5 < lam < 1.0):
        raise ValidationError(f"lambda must lie in (1/2, 1), got {lam!r}")
    if m < 0:
        raise ValidationError(f"truncation must be >= 0, got {m}")
    check_addressable(m + 1, f"truncation {m}")
    inv = np.arange(m + 1, dtype=float)
    inv += lam
    np.reciprocal(inv, out=inv)
    sum_inv2 = float(inv @ inv)
    i1 = math.sin(2.0 * math.pi * lam) / (2.0 * math.pi) * sum_inv2

    # T's inner sums psi'(j + 2 lambda) - psi'(j + m + 1 + 2 lambda), a block
    # of j at a time
    t_sum = 0.0
    for start in range(0, m + 1, _BLOCK):
        stop = min(start + _BLOCK, m + 1)
        j = np.arange(start, stop, dtype=float)
        inner = _trigamma(j + 2.0 * lam)
        j += m + 1
        inner -= _trigamma(j + 2.0 * lam)
        t_sum += 2.0 * float(inv[start:stop] @ inner)
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
    psi1 = float(_trigamma(lam))
    i1 = math.sin(2.0 * math.pi * lam) / (2.0 * math.pi) * psi1

    j = np.arange(m0 + 1, dtype=float)
    head = 2.0 * float(np.sum(_trigamma(j + 2.0 * lam) / (j + lam)))
    dpsi = float(_digamma(m0 + 1 + 2.0 * lam) - _digamma(m0 + 1 + lam))
    t1 = 2.0 / lam * dpsi
    t2 = dpsi / lam**2 - float(_trigamma(m0 + 1 + 2.0 * lam)) / lam
    t_lo = head + t1 + t2
    t_hi = t_lo + 1.0 / (9.0 * (m0 + lam) ** 3)

    scale = math.sin(4.0 * math.pi * lam) / (4.0 * math.pi)
    i2_a = 0.5 * psi1 + scale * t_lo
    i2_b = 0.5 * psi1 + scale * t_hi
    i2_lo, i2_hi = min(i2_a, i2_b), max(i2_a, i2_b)
    c_lo = constant_from(i1, i2_lo)
    c_hi = constant_from(i1, i2_hi)
    return 0.5 * (c_lo + c_hi), 0.5 * (c_hi - c_lo)


def yu_evaluate(
    params: YuParams, tol: float = TOL, stats: dict | None = None
) -> YuResult:
    """Asymptotic constant of the family with a certified error bound.

    Finite truncations are closed-form exact up to rounding; the limit is
    certified to < tol by growing the head length m0, then validated by a
    doubled-m0 re-evaluation whose result is the one reported, and a tol
    below 4 ROUND_SLACK, which no m0 reaches, is refused at once.  For the
    limit, if stats is a dict, its "m0" and "half_width" entries receive the
    head length and half-width of the reported enclosure.
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
        constant = constant_from(i1, i2)
        return YuResult(params.lam, params.truncation, constant, ROUND_SLACK)
    if ROUND_SLACK > 0.25 * tol:  # the doubling loop below could never stop
        raise ToleranceError(
            f"tol={tol:g} is below 4 x the floating-point envelope",
            achieved=ROUND_SLACK,
        )

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
    if stats is not None:
        stats["m0"] = 2 * m0
        stats["half_width"] = half_double
    return YuResult(params.lam, LIMIT, c_double, error)

