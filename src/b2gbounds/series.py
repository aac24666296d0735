"""Finite nonnegative cosine series and their closed-form functionals.

A weight function is represented as

    w(t) = sum_theta  b_theta * cos(2*pi*theta*t),   b_theta >= 0, theta >= 0,

with finitely many terms.  Everything downstream needs only a handful of
functionals of w, all of which reduce to the kernel

    S(x) = sin(2*pi*x) / (2*pi*x),   S(0) = 1,

via the product-to-sum identity for cosines (kernel_jet gives S, S' and S''
together from one sin and one cos, switching to a Taylor polynomial near 0):

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
arrays.  integral_jet, the one evaluator of I1, I2 and their derivatives,
serves summarize and the family optimizer.  summarize bundles (I1, I2, rho,
w(0), A-upper) with their guards (the zero series, I2 or A-upper outside the
double range).  constant_from forms c from (I1, I2) and tests I1 < 0 for the
summary's constant and the yu family; family.optimize uses its own rho.

All arithmetic is 64-bit floating point; the closed forms target >= 12
significant digits (verified against adaptive quadrature in the test suite).
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._numpy import np
from .errors import DomainError, ValidationError

# S and its derivatives come from one jet of sinc(x) = sin(x)/x:
#     sinc^(k)(x) = sum_n (-1)^n (2n)! / ((2n+1)! (2n-k)!) x^(2n-k).
# Below a cut per order the direct formula cancels (sinc' is O(x) from two
# O(1/x) terms, sinc'' O(1) from O(x) terms) and this series is used; its
# numerators are exact integers, so each coefficient is rounded once.  sinc
# switches at 1e-4 with n <= 3 (exact to ~1e-28 there), sinc' and sinc'' at
# 0.2 with n <= 6 (truncation below 1e-18; both agree with mpmath to 5e-14
# and 1e-13 on either side of the cut).
_TAYLOR_CUTS = (1e-4, 0.2, 0.2)
_TAYLOR = tuple(
    tuple(
        (-1) ** n * (math.factorial(2 * n) // math.factorial(2 * n - k))
        / math.factorial(2 * n + 1)
        for n in range((k + 1) // 2, last + 1)
    )
    for k, last in enumerate((3, 6, 6))
)
_TWO_PI = 2.0 * math.pi


def sinc_jet(x, order: int) -> list:
    """[sinc, sinc', sinc''][:order + 1] at x, sinc(x) = sin(x)/x, sinc(0) = 1.

    x may be a scalar or an array, and each value has its shape.  One sin and
    (for order >= 1) one cos feed every direct branch.  The Taylor polynomials
    run only on entries inside the widest cut, so no huge x * x can overflow.
    """
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).reshape(-1)
    taylor = [np.abs(x) < cut for cut in _TAYLOR_CUTS[: order + 1]]
    safe = np.where(taylor[0], 1.0, x)
    s = np.sin(safe)
    jet = [s / safe]
    if order >= 1:
        c = np.cos(safe)
        jet.append((c - jet[0]) / safe)
    if order >= 2:
        # x^3 overflows past |x| ~ 5.6e102, so from 1e100 on the quotient is
        # divided by x one factor at a time, no intermediate exceeding |x|
        far = np.abs(x) >= 1e100
        t = np.where(far, 1.0, safe)
        jet.append(((2.0 - t * t) * s - 2.0 * t * c) / (t * t * t))
        if far.any():
            stepwise = ((2.0 / safe - safe) * s - 2.0 * c) / safe / safe
            jet[2] = np.where(far, stepwise, jet[2])
    # the cuts grow with k, so the last mask is the widest
    inside = np.flatnonzero(taylor[-1])
    near = x[inside]
    u2 = near * near
    for k in range(order + 1):
        poly = np.full_like(u2, _TAYLOR[k][-1])
        for a in _TAYLOR[k][-2::-1]:
            poly *= u2
            poly += a
        if k % 2:
            poly *= near
        within = taylor[k][inside]
        jet[k][inside[within]] = poly[within]
    return [v.reshape(shape) for v in jet]


def kernel_jet(x, order: int) -> list:
    """[S, S', S''][:order + 1] at x, S^(k)(x) = (2 pi)^k sinc^(k)(2 pi x).

    Domain |x| < 2.8e307: past about 2.86e307 the product 2 pi x overflows
    to inf and the values are NaN.
    """
    jet = sinc_jet(_TWO_PI * np.asarray(x, dtype=float), order)
    for k in range(1, order + 1):
        jet[k] *= _TWO_PI**k
    return jet


def kernel_s(x):
    """S(x) = sinc(2 pi x), so S(0) = 1; kernel_jet(x, 0)[0]."""
    return kernel_jet(x, 0)[0]


def kernel_ds(x):
    """S'(x) = 2 pi sinc'(2 pi x); kernel_jet(x, 1)[1]."""
    return kernel_jet(x, 1)[1]


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

    def __repr__(self):
        inner = ", ".join(
            f"({b:g}, {f:g})" for b, f in zip(self.coeffs[:6], self.freqs[:6])
        )
        if len(self) > 6:
            inner += f", ... {len(self)} terms"
        return f"CosineSeries([{inner}])"

    def is_zero(self) -> bool:
        return not self.coeffs.any()


class FunctionalSummary(namedtuple("FunctionalSummary", "i1 i2 rho w0 a_upper")):
    """The functionals of one series that both bounds consume.

    a_upper is a certified over-estimate of A(w) = |w'(1)| + sup|w''|:
    the derivative value is exact, the sup norm is bounded by the triangle
    inequality sum_theta b_theta (2 pi theta)^2.
    """

    __slots__ = ()

    @property
    def constant(self) -> float | None:
        """constant_from(i1, i2).  Not part of to_obj."""
        return constant_from(self.i1, self.i2)

    def to_obj(self) -> dict:
        """{i1, i2, rho, w0, a_upper}, the summary as the CLI writes it."""
        return self._asdict()


def constant_from(i1: float, i2: float) -> float | None:
    """c = 2 (1 - I1^2 / I2) when I1 < 0, the hypothesis of the asymptotic
    bound; None otherwise.  family.optimize forms 2 (1 - rho) from the same
    integral_jet values, not through this function."""
    return 2.0 * (1.0 - i1 * i1 / i2) if i1 < 0 else None


def eval_w(series: CosineSeries, t) -> float | np.ndarray:
    """w(t) = sum b_theta cos(2 pi theta t); even in t; t may be an array."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = series.coeffs @ np.cos(2.0 * math.pi * np.outer(series.freqs, t_arr))
    if np.ndim(t) == 0:
        return float(vals[0])
    return vals


def integral_jet(b: np.ndarray, theta: np.ndarray, order: int) -> list:
    """[(I1, I2), (g1, g2), (h1_tt, h1_tb, h2_tt, h2_tb, h2_bb)][:order + 1]
    for coefficients b and frequencies theta (D and P as above).  In the
    coordinates (theta, b), g1 and g2 are the gradients of I1 and I2, h1_tt
    and h1_tb the I1 Hessian's diagonals d2/dtheta_i^2 and d2/dtheta_i db_i,
    and h2_* the I2 Hessian's blocks, formed in place in the results of one
    kernel_jet call each on theta, D and P:

        g1 = [b S'(theta), S(theta)]
        g2 = [b ((S'(D) + S'(P)) b), (S(D) + S(P)) b]
        h1_tt = b S''(theta)                 h1_tb = S'(theta)
        h2_tt = diag(b (S''(D) + S''(P)) b) + b b^T * (S''(P) - S''(D))
        h2_tb = diag((S'(D) + S'(P)) b) + diag(b) (S'(D) + S'(P))
        h2_bb = S(D) + S(P)

    The elementwise b b^T * (S''(P) - S''(D)) term carries the diagonal
    b_i^2 S''(2 theta_i) - b_i^2 S''(0).
    """
    s_th = kernel_jet(theta, order)
    s_d = kernel_jet(theta[:, None] - theta[None, :], order)
    s_p = kernel_jet(theta[:, None] + theta[None, :], order)
    # only the sums and S''(P) - S''(D) stay alive; the I2 Hessian forms in them
    s_sum = [d + p for d, p in zip(s_d, s_p)]
    sdd_gap = s_p[2] - s_d[2] if order == 2 else None
    del s_d, s_p
    ab = s_sum[0] @ b
    jet = [(float(b @ s_th[0]), 0.5 * float(b @ ab))]
    if order >= 1:
        dab = s_sum[1] @ b
        g1 = np.concatenate([b * s_th[1], s_th[0]])
        jet.append((g1, np.concatenate([b * dab, ab])))
    if order >= 2:
        idx = np.arange(len(b))
        sdd_gap *= np.outer(b, b)
        sdd_gap[idx, idx] += b * (s_sum[2] @ b)
        s_sum[1] *= b[:, None]
        s_sum[1][idx, idx] += dab
        jet.append((b * s_th[2], s_th[1], sdd_gap, s_sum[1], s_sum[0]))
    return jet


def fourier_coefficients(series: CosineSeries, m_max: int) -> np.ndarray:
    """[a_0, a_1, ..., a_m_max], the cosine coefficients of the 2-periodic
    extension of w.

    a_m = integral_{-1}^{1} w(t) exp(-i pi m t) dt, real by evenness:
    a_m = sum b_theta [sinc(pi(2 theta - m)) + sinc(pi(2 theta + m))].
    """
    m = np.arange(m_max + 1, dtype=float)
    th = series.freqs[:, None]
    b = series.coeffs
    # S(theta -+ m/2) is sinc(pi (2 theta -+ m)) bit for bit (x2 is exact)
    return b @ (kernel_s(th - 0.5 * m) + kernel_s(th + 0.5 * m))


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

    I1 and I2 are integral_jet's at order 0.  It holds the guards of rho:
    the zero series has no rho, a non-finite A-upper (a frequency too large
    to square, or past the kernels' domain, where I2 is NaN too) no finite-N
    bound, and an I2 that is not a positive finite double (coefficients too
    small or too large for it) a meaningless rho.  All raise DomainError.
    """
    if series.is_zero():
        raise DomainError("rho is undefined for the identically zero series")
    # overflows, and the NaN they turn into, are reported just below
    with np.errstate(over="ignore", invalid="ignore"):
        i1, i2 = integral_jet(series.coeffs, series.freqs, 0)[0]
        a_upper = curvature_bound(series)
    if not math.isfinite(a_upper):
        raise DomainError(
            "A-upper overflows double precision; a frequency is too large"
        )
    if not 0.0 < i2 < math.inf:
        raise DomainError(
            f"I2 = {i2!r} is not a positive finite double; the coefficients "
            "are too small or too large for double precision"
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
