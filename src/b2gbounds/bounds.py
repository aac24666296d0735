"""Explicit finite-N upper bounds on the size of B2[g] sets.

For an admissible series w with functionals (I1, I2, w0, A+) and a candidate
set size s, the central finite-N estimate majorizes b0*s^2 by

    (I1 + A+/(4N^2)) s^2  +  (w0 - I1) s
        + (sqrt(2(I2 - I1^2)) + A+/(2 N^{3/2})) * sqrt((2g-1) N s^2 - s^4/2 + s^3)

where b0 is the series coefficient at frequency zero.  A negative radicand
(2g-1) N s^2 - s^4/2 + s^3 < 0 is impossible for a real B2[g] set of size s,
so such sizes are infeasible outright.

A size s survives when its radicand is nonnegative and the margin
h(s) = majorant - b0 s^2 is nonnegative.  The survivors are exactly the sizes
1 .. s*: with a = (2g-1)N, beta the factor in front of the square root and
q = I1 + A+/(4N^2) - b0,

    h(s)/s = q s + (w0 - I1) + beta * sqrt(a + s - s^2/2)

is a linear function plus the square root of a concave function, so for any
sign of q it is concave on the interval where a + s - s^2/2 >= 0 (outside it
every size is infeasible).  Its nonnegative set is therefore an interval,
and it contains s = 1 because h(1) >= 0.  max_size_bound finds s* by
bisection over [1, scan_limit], in O(log N) evaluations of the majorant.
As N grows the normalized bound max_size / sqrt((2g-1) N) converges to
sqrt(2 (1 - I1^2/I2)) whenever I1 < 0.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ValidationError
from .series import CosineSeries, FunctionalSummary, summarize

# Display-only comparison value: the best previously recorded coefficient in
# front of (2g-1)N (1.74217) against the g^2-regime bound 3.1694 g^2 for
# |A|^2, reported per unit (2g-1)N resp. per g.  Never used in computation.
REFERENCE_COEFF_PER_G = 3.1694
REFERENCE_COEFF_PER_2G1 = 1.74217
# Every integer up to 2**53 is an exact double; above it float(size) rounds
# and the bound would be silently inexact.
MAX_EXACT_SIZE = 2**53


def reference_min(g: int) -> float:
    """min(3.1694 g, 1.74217 (2g-1)): previously recorded comparison value."""
    return min(REFERENCE_COEFF_PER_G * g, REFERENCE_COEFF_PER_2G1 * (2 * g - 1))


class BoundReport(
    namedtuple("BoundReport", "n g max_size coefficient reference_min summary")
):
    """Outcome of the finite-N bound for one (series, N, g) triple;
    coefficient is max_size / sqrt((2g-1) N)."""

    __slots__ = ()

    def to_obj(self) -> dict:
        obj = self._asdict()
        obj["summary"] = self.summary.to_obj()
        return obj


def _check_np(n: int, g: int) -> None:
    if not (isinstance(n, int) and n >= 1):
        raise ValidationError(f"N must be a positive integer, got {n!r}")
    if not (isinstance(g, int) and g >= 1):
        raise ValidationError(f"g must be a positive integer, got {g!r}")


def radicand(n: int, g: int, size: int) -> float:
    """(2g-1) N s^2 - s^4/2 + s^3; negative means size s is infeasible."""
    s = float(size)
    return (2 * g - 1) * n * s * s - 0.5 * s**4 + s**3


def finite_majorant(
    summary: FunctionalSummary, n: int, g: int, size: int
) -> float | None:
    """Right-hand side of the finite-N estimate, or None when the size is
    infeasible (negative radicand).
    """
    _check_np(n, g)
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    rad = radicand(n, g, size)
    if rad < 0:
        return None
    s = float(size)
    # I2 - I1^2 >= 0 always (variance); clamp the float dust for degenerate
    # series like a single constant term where the difference is exactly 0.
    variance = max(summary.i2 - summary.i1 * summary.i1, 0.0)
    beta = math.sqrt(2.0 * variance) + summary.a_upper / (2.0 * n**1.5)
    quad = (summary.i1 + summary.a_upper / (4.0 * n * n)) * s * s
    linear = (summary.w0 - summary.i1) * s
    return quad + linear + beta * math.sqrt(rad)


def scan_limit(n: int, g: int) -> int:
    """Largest size the bound must consider: floor(sqrt(2(2g-1)N)) + 2, the
    upper end of max_size_bound's bisection bracket.

    Beyond this every radicand is negative, so no feasible size is missed.
    """
    return math.isqrt(2 * (2 * g - 1) * n) + 2


def max_size_bound(
    series: CosineSeries, n: int, g: int, stats: dict | None = None
) -> BoundReport:
    """Largest set size not excluded by the finite-N estimate.

    A size survives when its radicand is nonnegative and
    b0 * s^2 <= finite_majorant(s), with b0 the coefficient at frequency 0
    (0 if the series has no constant term, in which case the estimate is the
    trivial one and every feasible size survives).  The survivors are
    exactly 1 .. max_size (the concavity lemma in the module docstring), so
    bisection over [1, scan_limit] finds max_size after at most
    1 + ceil(log2(scan_limit)) sizes, each judged by that same float test.
    If stats is a dict, its "sizes_evaluated" entry receives the count.

    Raises ValidationError when scan_limit exceeds 2**53, past which sizes
    are no longer exact doubles.
    """
    _check_np(n, g)
    limit = scan_limit(n, g)
    if limit > MAX_EXACT_SIZE:
        raise ValidationError(
            f"N = {n}, g = {g} needs sizes up to {limit}, beyond 2**53 where "
            "sizes are no longer exact doubles"
        )
    summary = summarize(series)
    b0 = float(series.coeffs[series.freqs == 0.0].sum())
    evaluated = 0

    def survives(s: int) -> bool:
        nonlocal evaluated
        evaluated += 1
        rhs = finite_majorant(summary, n, g, s)
        return rhs is not None and b0 * s * s <= rhs

    if not survives(1):
        # cannot happen: s = 1 always survives (rhs >= w0 >= b0)
        raise AssertionError("size bound excluded s = 1")
    # invariant: lo survives and hi does not (every size above limit is
    # infeasible), so the largest survivor lies in [lo, hi)
    lo, hi = 1, limit + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if survives(mid):
            lo = mid
        else:
            hi = mid
    if stats is not None:
        stats["sizes_evaluated"] = evaluated
    return BoundReport(
        n=n,
        g=g,
        max_size=lo,
        coefficient=lo / math.sqrt((2 * g - 1) * n),
        reference_min=reference_min(g),
        summary=summary,
    )
