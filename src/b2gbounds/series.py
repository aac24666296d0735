"""Finite nonnegative cosine series and their closed-form functionals.

A weight function is represented as

    w(t) = sum_theta  b_theta * cos(2*pi*theta*t),   b_theta >= 0, theta >= 0,

with finitely many terms.  Everything downstream needs only a handful of
functionals of w, all of which reduce to the kernel

    S(x) = sin(2*pi*x) / (2*pi*x),   S(0) = 1,

via the product-to-sum identity for cosines:

    I1 = integral_0^1 w(t) dt          = sum_theta b_theta * S(theta)
    I2 = integral_0^1 w(t)^2 dt        = 1/2 * b^T (S(D) + S(P)) b
                                         with D_jk = theta_j - theta_k,
                                              P_jk = theta_j + theta_k
    a_m = integral_{-1}^{1} w(t) e^{-i pi m t} dt
        = sum_theta b_theta [sinc(pi(2 theta - m)) + sinc(pi(2 theta + m))]

The ratio rho = I1^2 / I2 <= 1 (Cauchy-Schwarz) and, whenever I1 < 0, the
asymptotic constant c = 2(1 - rho) bounds B2[g] set sizes:
|A| <~ sqrt(c (2g-1) N) for A contained in [0, N].

CosineSeries stores the coefficients b and frequencies theta as two float
arrays.  summarize evaluates the functionals (I1, I2, rho, w(0), A-upper)
together; ratio_rho and asymptotic_constant read theirs from it, so its
guards (the zero series, I2 or A-upper outside the double range) cover all
three.  FunctionalSummary.constant is the one place that forms c and tests
I1 < 0.

All arithmetic is 64-bit floating point; the closed forms target >= 12
significant digits (verified against adaptive quadrature in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, HypothesisError, ValidationError

# Taylor switch-over for the sinc kernels.  Below SINC_CUT the direct formula
# sin(x)/x is replaced by a 4-term Taylor polynomial (degree 6), exact to
# ~1e-28 at the cut, so the branch is seamless at full double precision.
# The cut is in sinc's argument, so S(x) = sinc(2 pi x) switches at
# |x| = SINC_CUT / (2 pi); for |x| < 1e-3 it agrees with the Taylor form
# switched at |x| = SINC_CUT to 1.1e-16 absolute.
SINC_CUT = 1e-4
# The derivative kernels cancel near zero: cos(x)/x - sin(x)/x^2 is O(x) from
# two O(1/x) terms (relative loss ~eps/x^2), and the second derivative
# ((2 - x^2) sin(x) - 2x cos(x))/x^3 is O(1) from O(x) terms.  Below 0.2 both
# switch to 6-term Taylor polynomials, whose truncation error there is below
# 1e-18; on both sides of the cut each agrees with mpmath to 5e-14 (first
# derivative) and 1e-13 (second derivative).
DSINC_CUT = 0.2
D2SINC_CUT = 0.2
# sinc'(x) = x * sum_n (-1)^n 2n/(2n+1)! x^(2n-2)
# sinc''(x) =     sum_n (-1)^n 2n(2n-1)/(2n+1)! x^(2n-2),  n = 1..6
_DSINC_TAYLOR = tuple(
    (-1) ** n * 2 * n / math.factorial(2 * n + 1) for n in range(1, 7)
)
_D2SINC_TAYLOR = tuple(
    (-1) ** n * 2 * n * (2 * n - 1) / math.factorial(2 * n + 1) for n in range(1, 7)
)


def _even_poly(u2, coeffs):
    """sum_k coeffs[k] * u2**k by Horner's rule."""
    out = np.full_like(u2, coeffs[-1])
    for a in coeffs[-2::-1]:
        out = out * u2 + a
    return out


def sinc(x):
    """sin(x)/x with sinc(0) = 1; accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < SINC_CUT
    safe = np.where(small, 1.0, x)
    out = np.sin(safe) / safe
    # the polynomial sees 0 where the direct branch is taken, so a huge x
    # cannot overflow x * x there
    small_x = np.where(small, x, 0.0)
    u2 = small_x * small_x
    taylor = 1.0 - u2 / 6.0 * (1.0 - u2 / 20.0 * (1.0 - u2 / 42.0))
    return np.where(small, taylor, out)


def dsinc(x):
    """d/dx [sin(x)/x]; accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < DSINC_CUT
    safe = np.where(small, 1.0, x)
    out = (np.cos(safe) - np.sin(safe) / safe) / safe
    small_x = np.where(small, x, 0.0)
    taylor = small_x * _even_poly(small_x * small_x, _DSINC_TAYLOR)
    return np.where(small, taylor, out)


def d2sinc(x):
    """d^2/dx^2 [sin(x)/x]; accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < D2SINC_CUT
    safe = np.where(small, 1.0, x)
    out = ((2.0 - safe * safe) * np.sin(safe) - 2.0 * safe * np.cos(safe)) / (
        safe * safe * safe
    )
    small_x = np.where(small, x, 0.0)
    return np.where(small, _even_poly(small_x * small_x, _D2SINC_TAYLOR), out)


def kernel_s(x):
    """S(x) = sinc(2 pi x), so S(0) = 1."""
    return sinc(2.0 * math.pi * np.asarray(x, dtype=float))


def kernel_ds(x):
    """S'(x) = 2 pi * sinc'(2 pi x)."""
    return 2.0 * math.pi * dsinc(2.0 * math.pi * np.asarray(x, dtype=float))


def kernel_dds(x):
    """S''(x) = (2 pi)^2 * sinc''(2 pi x)."""
    two_pi = 2.0 * math.pi
    return two_pi * two_pi * d2sinc(two_pi * np.asarray(x, dtype=float))


class CosineSeries:
    """Finite cosine series held as two float arrays, coeffs and freqs.

    Built from (b, theta) pairs and validated once over the arrays: at least
    one term, every value finite, b >= 0 and theta >= 0.  Both arrays are
    read-only.  Frequencies need not be distinct or sorted; every functional
    below is a symmetric sum over terms, so results are independent of term
    order up to floating rounding.
    """

    __slots__ = ("coeffs", "freqs")

    def __init__(self, terms):
        pairs = np.array(list(terms), dtype=float)
        if pairs.size == 0:
            raise ValidationError("series must have at least one term")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValidationError("terms must be (coefficient, frequency) pairs")
        b, theta = pairs.T.copy()
        bad = ~(np.isfinite(b) & np.isfinite(theta)) | (b < 0) | (theta < 0)
        if bad.any():
            i = bad.argmax()
            c, f = float(b[i]), float(theta[i])
            if not (math.isfinite(c) and math.isfinite(f)):
                raise ValidationError(f"non-finite term ({c}, {f})")
            if c < 0:
                raise ValidationError(f"coefficient must be nonnegative, got {c}")
            raise ValidationError(f"frequency must be nonnegative, got {f}")
        b.flags.writeable = theta.flags.writeable = False
        self.coeffs = b
        self.freqs = theta

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, CosineSeries)
            and np.array_equal(self.coeffs, other.coeffs)
            and np.array_equal(self.freqs, other.freqs)
        )

    def __repr__(self):
        inner = ", ".join(
            f"({b:g}, {f:g})" for b, f in zip(self.coeffs[:6], self.freqs[:6])
        )
        if len(self) > 6:
            inner += f", ... {len(self)} terms"
        return f"CosineSeries([{inner}])"

    def scaled(self, factor: float) -> "CosineSeries":
        """Series with every coefficient multiplied by factor > 0."""
        if factor <= 0:
            raise ValidationError("scale factor must be positive")
        return CosineSeries(zip(self.coeffs * factor, self.freqs))

    def is_zero(self) -> bool:
        return not self.coeffs.any()


@dataclass(frozen=True)
class FunctionalSummary:
    """The functionals of one series that both bounds consume.

    a_upper is a certified over-estimate of A(w) = |w'(1)| + sup|w''|:
    the derivative value is exact, the sup norm is bounded by the triangle
    inequality sum_theta b_theta (2 pi theta)^2.
    """

    i1: float
    i2: float
    rho: float
    w0: float
    a_upper: float

    @property
    def constant(self) -> float | None:
        """c = 2 (1 - rho) when I1 < 0, the hypothesis of the asymptotic
        bound; None otherwise.  Not part of to_obj."""
        return 2.0 * (1.0 - self.rho) if self.i1 < 0 else None

    def to_obj(self) -> dict:
        """{i1, i2, rho, w0, a_upper}, the summary as the CLI writes it."""
        return asdict(self)


def eval_w(series: CosineSeries, t) -> float | np.ndarray:
    """w(t) = sum b_theta cos(2 pi theta t); even in t; t may be an array."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = series.coeffs @ np.cos(2.0 * math.pi * np.outer(series.freqs, t_arr))
    if np.ndim(t) == 0:
        return float(vals[0])
    return vals


def integral_i1(series: CosineSeries) -> float:
    """I1 = integral_0^1 w = sum b_theta S(theta), no quadrature involved."""
    return float(series.coeffs @ kernel_s(series.freqs))


def integral_i2(series: CosineSeries) -> float:
    """I2 = integral_0^1 w^2 via the product-to-sum closed form, O(K^2)."""
    th = series.freqs
    b = series.coeffs
    diff = th[:, None] - th[None, :]
    summ = th[:, None] + th[None, :]
    return float(0.5 * (b @ ((kernel_s(diff) + kernel_s(summ)) @ b)))


def ratio_rho(series: CosineSeries) -> float:
    """rho = I1^2 / I2, always in [0, 1] for a nonzero series."""
    return summarize(series).rho


def asymptotic_constant(series: CosineSeries) -> float:
    """c = 2 (1 - rho); requires I1 < 0.

    Under that hypothesis every B2[g] set A in [0, N] satisfies
    |A| <~ sqrt(c (2g-1) N) as N grows.
    """
    summary = summarize(series)
    if summary.constant is None:
        raise HypothesisError(
            f"asymptotic constant requires I1 < 0, got I1 = {summary.i1!r}"
        )
    return summary.constant


def fourier_coefficients(series: CosineSeries, m_max: int) -> np.ndarray:
    """[a_0, a_1, ..., a_m_max], the cosine coefficients of the 2-periodic
    extension of w.

    a_m = integral_{-1}^{1} w(t) exp(-i pi m t) dt, real by evenness:
    a_m = sum b_theta [sinc(pi(2 theta - m)) + sinc(pi(2 theta + m))].
    """
    m = np.arange(m_max + 1, dtype=float)
    th = series.freqs[:, None]
    b = series.coeffs
    return b @ (sinc(math.pi * (2.0 * th - m)) + sinc(math.pi * (2.0 * th + m)))


def curvature_bound(series: CosineSeries) -> float:
    """Certified upper bound for A(w) = |w'(1)| + sup_t |w''(t)|.

    w'(1) = -sum b_theta 2 pi theta sin(2 pi theta) is exact; the second
    derivative is bounded term by term: |w''| <= sum b_theta (2 pi theta)^2.
    """
    th = series.freqs
    b = series.coeffs
    two_pi_th = 2.0 * math.pi * th
    w1 = -float(b @ (two_pi_th * np.sin(two_pi_th)))
    return abs(w1) + float(b @ (two_pi_th * two_pi_th))


def summarize(series: CosineSeries) -> FunctionalSummary:
    """Bundle (I1, I2, rho, w(0), A-upper) for the bound evaluators.

    The one place I1 and I2 are combined into rho, so it holds the guards:
    the zero series has no rho, an I2 that is not a positive finite double
    (coefficients small enough to underflow it or large enough to overflow
    it) would give a meaningless one, and an infinite A-upper (a frequency
    too large to square) no finite-N bound.  All raise DomainError.
    """
    if series.is_zero():
        raise DomainError("rho is undefined for the identically zero series")
    with np.errstate(over="ignore"):  # overflows are reported just below
        i1 = integral_i1(series)
        i2 = integral_i2(series)
        a_upper = curvature_bound(series)
    if not 0.0 < i2 < math.inf:
        raise DomainError(
            f"I2 = {i2!r} is not a positive finite double; the coefficients "
            "are too small or too large for double precision"
        )
    if not math.isfinite(a_upper):
        raise DomainError(
            "A-upper overflows double precision; a frequency is too large"
        )
    return FunctionalSummary(
        i1=i1,
        i2=i2,
        rho=i1 * i1 / i2,
        w0=float(np.sum(series.coeffs)),
        a_upper=a_upper,
    )


def coefficient_decay_bound(a_upper: float, m) -> float:
    """|a_m| <= 2 A(w) / (pi^2 m^2) for m >= 1 (two integrations by parts).

    m may be a scalar or an integer array; the bound is applied elementwise.
    """
    m_arr = np.asarray(m)
    if np.any(m_arr < 1):
        raise ValidationError("decay bound applies to m >= 1")
    out = 2.0 * a_upper / (math.pi * math.pi * m_arr * m_arr)
    return float(out) if np.ndim(m) == 0 else out


def parseval_tail_bound(a_upper: float, m_star: int) -> float:
    """Upper bound for sum_{m > m_star} a_m^2 using the decay bound.

    sum_{m > M} m^-4 <= 1/(3 M^3), so the tail is at most
    (2 A / pi^2)^2 / (3 m_star^3).
    """
    if m_star < 1:
        raise ValidationError("tail bound applies to m_star >= 1")
    c = 2.0 * a_upper / (math.pi * math.pi)
    return c * c / (3.0 * m_star**3)


def reconstruction_tail_bound(a_upper: float, m_star: int) -> float:
    """Upper bound for sum_{m > m_star} |a_m|: at most (2 A / pi^2) / m_star."""
    if m_star < 1:
        raise ValidationError("tail bound applies to m_star >= 1")
    return 2.0 * a_upper / (math.pi * math.pi * m_star)
