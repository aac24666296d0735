"""The (2M+1)-parameter cosine family and its box-constrained optimizer.

Family members are

    w(t) = cos((y_0 + pi) t) + sum_{j=1}^{M} (c_j / j) cos((y_j + (2j+1) pi) t)

with y_j in (0, pi) and c_j in (0, 1).  In series form the j-th term has
coefficient 1 (j = 0) or c_j/j, and frequency (y_j + (2j+1) pi)/(2 pi), so all
coefficients are positive and the series is admissible by construction.

The objective is rho = I1^2 / I2 (to be maximized; the asymptotic constant is
2(1 - rho)).  Both I1 and I2 are closed forms in the kernel S, so the gradient
and the Hessian are analytic:

    dI1/dtheta_i = b_i S'(theta_i)          dI1/db_i = S(theta_i)
    dI2/dtheta_i = b_i ((S'(D) + S'(P)) b)_i
    dI2/db_i     = ((S(D) + S(P)) b)_i
    drho = (2 I1 I2 dI1 - I1^2 dI2) / I2^2

chained through theta_j = (y_j + (2j+1) pi)/(2 pi) and b_j = c_j / j; the
second derivatives add S''(D) and S''(P) (see rho_grad_hess).

Optimization is projected trust-region Newton on the closed box
[eps, pi - eps] x [eps, 1 - eps] (eps = 1e-9): variables held at a face by
the gradient are fixed, and each step solves the trust-region subproblem on
the free variables exactly from one symmetric eigendecomposition of the
dense (2M+1)^2 Hessian (Moré & Sorensen 1983; Nocedal & Wright, Numerical
Optimization, ch. 4).  From the tabulated start it converges in a handful
of iterations up to M = 400.  The method is deterministic for a fixed start,
so runs are reproducible.  Convergence is judged by the final
projected-gradient infinity norm, and the result names why the run stopped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .series import CosineSeries, kernel_dds, kernel_ds, kernel_s

BOX_EPS = 1e-9
EPS = float(np.finfo(float).eps)
# Trust-region constants: initial radius in the packed (y, c) coordinates,
# least actual/predicted gain ratio that accepts a step, and the predicted
# gain (relative to |rho|) below which the ratio is rounding noise.
TR_RADIUS0 = 1.0
TR_ACCEPT = 1e-4
ROUNDING = 64.0 * EPS
# Default stopping rule of optimize, also the defaults of b2g optimize's
# --max-iter and --grad-tol: iteration cap and projected-gradient tolerance.
MAX_ITER = 20000
GRAD_TOL = 1e-10

# Reference optimum prefix: first 51 y-values and 50 c-values of a converged
# M=400 run of this optimizer (tabulated to 15 digits).  Used by the "paper"
# initialization mode and by regression tests; beyond index 50 that mode
# falls back to the flat profile below.
REF_C = (
    0.448668493767477, 0.575146465019734, 0.634139353767643, 0.668206769165044,
    0.690373909392123, 0.705944152178521, 0.717479053644182, 0.726366349898625,
    0.733423759607086, 0.739163465377496, 0.743922783065952, 0.747933037687434,
    0.751358473065359, 0.754318115226197, 0.756900829824045, 0.759174482613027,
    0.761190238930946, 0.762988657959701, 0.764605831570057, 0.766063873483719,
    0.767398988945215, 0.768616037123302, 0.769721510942451, 0.770739989883381,
    0.771678878036841, 0.772543457251216, 0.773353319988327, 0.774096401927810,
    0.774802358105814, 0.775461565599078, 0.776070438424819, 0.776640535845029,
    0.777213408942223, 0.777688024987857, 0.778162522583045, 0.778618081806088,
    0.779075729278605, 0.779444959637105, 0.779857433648994, 0.780247031029276,
    0.780579370448116, 0.780921813816887, 0.781221129831046, 0.781554783493105,
    0.781870431056320, 0.782110198962599, 0.782361619824327, 0.782643557927602,
    0.782885035586508, 0.783100192717692,
)
REF_Y = (
    1.69023069423400, 1.62455004938005, 1.60400691427448, 1.59374507362384,
    1.58739065526372, 1.58292851285127, 1.57952428074446, 1.57677070519547,
    1.57444556939989, 1.57241834643895, 1.57060466311460, 1.56895032673690,
    1.56741998541706, 1.56598348343700, 1.56462349022195, 1.56332531960606,
    1.56207725583259, 1.56086642851363, 1.55969722035216, 1.55855788286864,
    1.55745188656436, 1.55638570641239, 1.55528462446397, 1.55421905033814,
    1.55318764446397, 1.55213468181519, 1.55113576643217, 1.55011416521470,
    1.54911054412942, 1.54815575459570, 1.54715785448177, 1.54615472793709,
    1.54518383791521, 1.54424768835177, 1.54324227742403, 1.54234694571695,
    1.54139048590958, 1.54036349157331, 1.53942606099970, 1.53850611740410,
    1.53758211330524, 1.53663231603874, 1.53567473396147, 1.53474740944525,
    1.53383628504159, 1.53290791051452, 1.53193597506582, 1.53097247735348,
    1.53007947174410, 1.52921326776155, 1.52829122078524,
)
# Flat tail profile: converged coefficients hover near these values, so they
# are a good start for indices without tabulated data.
FLAT_Y = 1.55
FLAT_C = 0.75


@dataclass(frozen=True)
class FamilyParams:
    """y_0..y_M in (0, pi) and c_1..c_M in (0, 1)."""

    y: tuple
    c: tuple

    def __post_init__(self):
        y = tuple(float(v) for v in self.y)
        c = tuple(float(v) for v in self.c)
        if len(y) != len(c) + 1:
            raise ValidationError(
                f"need len(y) == len(c) + 1, got {len(y)} and {len(c)}"
            )
        for v in y:
            if not (0.0 < v < math.pi):
                raise ValidationError(f"y value {v!r} outside (0, pi)")
        for v in c:
            if not (0.0 < v < 1.0):
                raise ValidationError(f"c value {v!r} outside (0, 1)")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class OptimizeResult:
    params: FamilyParams
    rho: float
    constant: float  # 2 * (1 - rho), the bound coefficient this family attains
    iterations: int  # trust-region iterations, rejected trial steps included
    converged: bool
    pg_norm: float  # final projected-gradient infinity norm
    stop_reason: str  # "converged", "max_iter" or "stalled"


def to_series(params: FamilyParams) -> CosineSeries:
    """Expand params into the explicit M+1 term admissible series."""
    b, theta = _series_arrays(np.array(params.y), np.array(params.c))
    return CosineSeries(list(zip(b, theta)))


def _series_arrays(y: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = len(c)
    j = np.arange(m + 1, dtype=float)
    theta = (y + (2.0 * j + 1.0) * math.pi) / (2.0 * math.pi)
    b = np.concatenate([[1.0], c / np.arange(1, m + 1)]) if m else np.array([1.0])
    return b, theta


def _pack(params: FamilyParams) -> np.ndarray:
    return np.array(list(params.y) + list(params.c), dtype=float)


def _unpack(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    return x[: m + 1], x[m + 1 :]


class _FirstOrder(NamedTuple):
    """I1, I2, rho and their gradients in the series coordinates (theta, b)."""

    b: np.ndarray
    th: np.ndarray
    diff: np.ndarray  # D_jk = theta_j - theta_k
    summ: np.ndarray  # P_jk = theta_j + theta_k
    a_matrix: np.ndarray  # S(D) + S(P)
    da_matrix: np.ndarray  # S'(D) + S'(P)
    dab: np.ndarray  # (S'(D) + S'(P)) b
    ds_th: np.ndarray  # S'(theta)
    i1: float
    i2: float
    di1: np.ndarray  # [dI1/dtheta, dI1/db]
    di2: np.ndarray  # [dI2/dtheta, dI2/db]
    rho: float
    grad: np.ndarray  # [drho/dtheta, drho/db], b_0 included


def _first_order(x: np.ndarray, m: int) -> _FirstOrder:
    y, c = _unpack(np.asarray(x, dtype=float), m)
    b, th = _series_arrays(y, c)
    s_th = kernel_s(th)
    ds_th = kernel_ds(th)
    i1 = float(b @ s_th)
    diff = th[:, None] - th[None, :]
    summ = th[:, None] + th[None, :]
    a_matrix = kernel_s(diff) + kernel_s(summ)
    ab = a_matrix @ b
    i2 = 0.5 * float(b @ ab)
    da_matrix = kernel_ds(diff) + kernel_ds(summ)
    dab = da_matrix @ b
    di1 = np.concatenate([b * ds_th, s_th])
    di2 = np.concatenate([b * dab, ab])
    rho = i1 * i1 / i2
    grad = (2.0 * i1 / i2) * di1 - (i1 * i1 / (i2 * i2)) * di2
    return _FirstOrder(
        b, th, diff, summ, a_matrix, da_matrix, dab, ds_th, i1, i2, di1, di2, rho, grad
    )


def _chain_divisor(m: int) -> np.ndarray:
    """d(y, c)/d(theta, b_1..b_M): theta_j = (y_j + (2j+1) pi)/(2 pi), b_j = c_j/j."""
    return np.concatenate([np.full(m + 1, 2.0 * math.pi), np.arange(1.0, m + 1)])


def rho_and_grad(x: np.ndarray, m: int) -> tuple[float, np.ndarray]:
    """rho and its gradient wrt the packed vector [y_0..y_M, c_1..c_M]."""
    f = _first_order(x, m)
    # b_0 = 1 is not a parameter: drop its entry
    return f.rho, np.delete(f.grad, m + 1) / _chain_divisor(m)


def rho_grad_hess(x: np.ndarray, m: int) -> tuple[float, np.ndarray, np.ndarray]:
    """rho, its gradient and its dense (2M+1)^2 Hessian wrt [y_0..y_M, c_1..c_M].

    In the series coordinates (theta, b) the blocks are

        I1:  d2/dtheta_i^2 = b_i S''(theta_i),  d2/dtheta_i db_i = S'(theta_i)
        I2:  d2/dtheta dtheta = diag(b (S''(D) + S''(P)) b)
                                + b b^T * (S''(P) - S''(D))
             d2/dtheta db     = diag((S'(D) + S'(P)) b) + diag(b) (S'(D) + S'(P))
             d2/db db         = S(D) + S(P)

    (the elementwise b b^T * (S''(P) - S''(D)) term carries the diagonal
    b_i^2 S''(2 theta_i) - b_i^2 S''(0)), combined by the quotient rule for
    rho = I1^2 / I2 and chained linearly into (y, c).
    """
    f = _first_order(x, m)
    b, n = f.b, m + 1
    sdd_d = kernel_dds(f.diff)
    sdd_p = kernel_dds(f.summ)
    h1 = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    h1[idx, idx] = b * kernel_dds(f.th)
    h1[idx, n + idx] = h1[n + idx, idx] = f.ds_th
    h2 = np.empty((2 * n, 2 * n))
    h2[:n, :n] = np.outer(b, b) * (sdd_p - sdd_d)
    h2[idx, idx] += b * ((sdd_d + sdd_p) @ b)
    h2[:n, n:] = b[:, None] * f.da_matrix
    h2[idx, n + idx] += f.dab
    h2[n:, :n] = h2[:n, n:].T
    h2[n:, n:] = f.a_matrix

    i1, i2 = f.i1, f.i2
    g1, g2 = f.di1, f.di2
    cross = np.outer(g1, g2)
    hess = (
        (2.0 / i2) * np.outer(g1, g1)
        - (2.0 * i1 / (i2 * i2)) * (cross + cross.T)
        + (2.0 * i1 * i1 / (i2 * i2 * i2)) * np.outer(g2, g2)
        + (2.0 * i1 / i2) * h1
        - (i1 * i1 / (i2 * i2)) * h2
    )
    d = _chain_divisor(m)
    hess = np.delete(np.delete(hess, m + 1, axis=0), m + 1, axis=1)
    return f.rho, np.delete(f.grad, m + 1) / d, hess / d[:, None] / d[None, :]


def objective(params: FamilyParams) -> float:
    """rho at params; warns (does not fail) when I1 >= 0 there, so an
    optimizer path may traverse sign changes while the caller still learns
    the asymptotic-constant hypothesis is violated at this point."""
    f = _first_order(_pack(params), params.m)
    if f.i1 >= 0:
        warnings.warn(
            "I1 >= 0 at these parameters; the asymptotic constant hypothesis "
            "fails here",
            stacklevel=2,
        )
    return f.rho


def gradient(params: FamilyParams) -> np.ndarray:
    """Analytic gradient of rho, ordered [d/dy_0..d/dy_M, d/dc_1..d/dc_M]."""
    _, grad = rho_and_grad(_pack(params), params.m)
    return grad


def initial_params(m: int, init: FamilyParams | str, seed=None) -> FamilyParams:
    """Resolve an initialization choice to concrete parameters.

    "yu-like": flat profile y = 1.55, c = 0.75 (where converged coefficients
    cluster).  "paper": the tabulated reference prefix for indices <= 50,
    flat profile beyond.  "random": uniform interior draw from the given
    seed.  A FamilyParams instance passes through (order must match m).
    """
    if isinstance(init, FamilyParams):
        if init.m != m:
            raise ValidationError(f"init has order {init.m}, expected {m}")
        return init
    if init == "yu-like":
        return FamilyParams(y=(FLAT_Y,) * (m + 1), c=(FLAT_C,) * m)
    if init == "paper":
        y = [FLAT_Y] * (m + 1)
        c = [FLAT_C] * m
        for j in range(min(m + 1, len(REF_Y))):
            y[j] = REF_Y[j]
        for j in range(min(m, len(REF_C))):
            c[j] = REF_C[j]
        return FamilyParams(y=tuple(y), c=tuple(c))
    if init == "random":
        if seed is not None and seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        return FamilyParams(
            y=tuple(rng.uniform(0.05, math.pi - 0.05, m + 1)),
            c=tuple(rng.uniform(0.05, 0.95, m)),
        )
    raise ValidationError(f"unknown init {init!r}")


def _box(m: int) -> tuple[np.ndarray, np.ndarray]:
    lo = np.full(2 * m + 1, BOX_EPS)
    hi = np.concatenate(
        [np.full(m + 1, math.pi - BOX_EPS), np.full(m, 1.0 - BOX_EPS)]
    )
    return lo, hi


def projected_gradient_norm(x: np.ndarray, grad_min: np.ndarray, m: int) -> float:
    """Infinity norm of x - proj_box(x - grad) for the minimization problem."""
    lo, hi = _box(m)
    step = np.clip(x - grad_min, lo, hi)
    return float(np.max(np.abs(x - step)))


def _trust_region_step(
    lam: np.ndarray, q: np.ndarray, g: np.ndarray, delta: float
) -> np.ndarray:
    """Exact minimizer of g.p + p.H.p / 2 over |p| <= delta, given H = q diag(lam) q^T.

    Moré & Sorensen (1983): p = -(H + sigma I)^-1 g with sigma >= max(0,
    -lam_min), and sigma = 0 only for an interior Newton step.  In eigen
    coordinates |p(sigma)| is explicit, so the secular equation
    1/|p(sigma)| = 1/delta (nearly linear in sigma) is solved by Newton's
    method safeguarded by bisection.  In the hard case g has no component on
    the lowest eigenspace and |p(-lam_min)| < delta; the step is then
    completed to the boundary along the lowest eigenvector.
    """
    a = q.T @ g
    lam_min = float(lam[0])
    if lam_min > 0.0:
        p = -a / lam
        if np.linalg.norm(p) <= delta:
            return q @ p
    sigma_lo = max(0.0, -lam_min)
    lowest = lam <= lam_min + 1e-12 * max(1.0, float(np.max(np.abs(lam))))
    a_norm = float(np.linalg.norm(a))
    if np.linalg.norm(a[lowest]) <= 1e-12 * a_norm and lam_min <= 0.0:
        p = np.zeros_like(a)
        p[~lowest] = -a[~lowest] / (lam[~lowest] + sigma_lo)
        rest = float(np.linalg.norm(p))
        if rest <= delta:
            # lowest eigenvector, the first column of q
            p[0] = math.sqrt(delta * delta - rest * rest)
            return q @ p
    lo, hi = sigma_lo, sigma_lo + a_norm / delta
    sigma = 0.0 if lam_min > 0.0 else sigma_lo + 1e-12 * max(1.0, hi)
    for _ in range(100):
        shifted = lam + sigma
        p = -a / shifted
        norm = float(np.linalg.norm(p))
        if abs(norm - delta) <= 1e-10 * delta:
            break
        if norm > delta:
            lo = sigma
        else:
            hi = sigma
        # Newton step on phi(sigma) = 1/|p(sigma)| - 1/delta
        dphi = float(np.sum(a * a / shifted**3)) / norm**3
        sigma += (1.0 / delta - 1.0 / norm) / dphi
        if not lo < sigma < hi:
            sigma = 0.5 * (lo + hi)
    return q @ p


def optimize(
    m: int,
    init: FamilyParams | str = "yu-like",
    *,
    max_iter: int = MAX_ITER,
    grad_tol: float = GRAD_TOL,
    seed=None,
    callback=None,
) -> OptimizeResult:
    """Maximize rho over the order-m family within the eps-shrunk closed box.

    Projected trust-region Newton on f = -rho.  A variable at a box face
    whose gradient points out of the box is fixed; the trust-region
    subproblem on the free variables is solved exactly from one eigh of the
    free block of the Hessian (_trust_region_step).  The trial point is
    clipped to the box and accepted on the ratio of actual to predicted
    gain; once the predicted gain is at rounding level, it is accepted when
    the projected-gradient norm falls instead.  The run stops when that norm
    is below grad_tol ("converged"), after max_iter iterations
    ("max_iter"), or when the trust radius can no longer move x
    ("stalled").

    Deterministic for fixed (init, seed, options).  callback(x) runs after
    every iteration.  Exhausting max_iter is not an error: the result
    reports converged=False, and passing its params as init continues the
    run.
    """
    if m < 0:
        raise ValidationError(f"family order must be >= 0, got {m}")
    if max_iter < 0:
        raise ValidationError(f"max_iter must be >= 0, got {max_iter}")
    if not grad_tol >= 0:
        raise ValidationError(f"grad_tol must be >= 0, got {grad_tol}")
    start = initial_params(m, init, seed)

    lo, hi = _box(m)
    x = np.clip(_pack(start), lo, hi)
    rho, grad, hess = rho_grad_hess(x, m)
    pg_norm = projected_gradient_norm(x, -grad, m)
    delta = TR_RADIUS0
    eig = None  # eigen-decomposition of the free block at x, kept across rejections
    iteration = 0
    stop_reason = "max_iter"
    while True:
        if pg_norm < grad_tol:
            stop_reason = "converged"
            break
        if iteration >= max_iter:
            break
        if delta <= EPS * (1.0 + float(np.max(np.abs(x)))):
            stop_reason = "stalled"
            break
        if eig is None:
            # maximizing rho: grad points uphill, so it points out of the
            # box at a lower face when negative and at an upper face when positive
            fixed = ((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0))
            free = np.flatnonzero(~fixed)
            eig = free, *np.linalg.eigh(-hess[np.ix_(free, free)])
        free, lam, q = eig
        trial = x.copy()
        trial[free] += _trust_region_step(lam, q, -grad[free], delta)
        trial = np.clip(trial, lo, hi)
        step = trial - x
        predicted = float(grad @ step + 0.5 * step @ (hess @ step))
        rho_t, grad_t, hess_t = rho_grad_hess(trial, m)
        pg_t = projected_gradient_norm(trial, -grad_t, m)
        step_norm = float(np.linalg.norm(step))
        if predicted <= ROUNDING * abs(rho):
            accept = pg_t < pg_norm
            if not accept:
                delta = 0.25 * step_norm
        else:
            ratio = (rho_t - rho) / predicted
            accept = ratio > TR_ACCEPT
            if ratio < 0.25:
                delta = 0.25 * step_norm
            elif ratio > 0.75 and step_norm >= 0.99 * delta:
                delta *= 2.0
        if accept:
            x, rho, grad, hess, pg_norm = trial, rho_t, grad_t, hess_t, pg_t
            eig = None
        iteration += 1
        if callback is not None:
            callback(x.copy())

    y, c = _unpack(x, m)
    params = FamilyParams(y=tuple(y), c=tuple(c))
    return OptimizeResult(
        params=params,
        rho=rho,
        constant=2.0 * (1.0 - rho),
        iterations=iteration,
        converged=stop_reason == "converged",
        pg_norm=pg_norm,
        stop_reason=stop_reason,
    )
