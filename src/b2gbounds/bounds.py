"""Explicit finite-N upper bounds on the size of B2[g] sets.

For an admissible series w with functionals (I1, I2, w0, A+) and a candidate
set size s, the central finite-N estimate majorizes b0*s^2 by

    (I1 + A+/(4N^2)) s^2  +  (w0 - I1) s
        + (sqrt(2(I2 - I1^2)) + A+/(2 N^{3/2})) * sqrt((2g-1) N s^2 - s^4/2 + s^3)

where b0 is the series coefficient at frequency zero.  A negative radicand
(2g-1) N s^2 - s^4/2 + s^3 < 0 is impossible for a real B2[g] set of size s,
so such sizes are infeasible outright.

max_size_bound scans all candidate sizes and reports the largest one not
excluded; as N grows the normalized bound max_size / sqrt((2g-1) N) converges
to sqrt(2 (1 - I1^2/I2)) whenever I1 < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .series import CosineSeries, FunctionalSummary, summarize

# Display-only comparison value: the best previously recorded coefficient in
# front of (2g-1)N (1.74217) against the g^2-regime bound 3.1694 g^2 for
# |A|^2, reported per unit (2g-1)N resp. per g.  Never used in computation.
REFERENCE_COEFF_PER_G = 3.1694
REFERENCE_COEFF_PER_2G1 = 1.74217


def reference_min(g: int) -> float:
    """min(3.1694 g, 1.74217 (2g-1)): previously recorded comparison value."""
    return min(REFERENCE_COEFF_PER_G * g, REFERENCE_COEFF_PER_2G1 * (2 * g - 1))


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a finite-N scan for one (series, N, g) triple."""

    n: int
    g: int
    max_size: int
    coefficient: float  # max_size / sqrt((2g-1) N)
    reference_min: float
    summary: FunctionalSummary

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "g": self.g,
            "max_size": self.max_size,
            "coefficient": self.coefficient,
            "reference_min": self.reference_min,
            "summary": self.summary.to_obj(),
        }


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
    """Largest size the scan must consider: floor(sqrt(2(2g-1)N)) + 2.

    Beyond this every radicand is negative, so no feasible size is missed.
    """
    return math.isqrt(2 * (2 * g - 1) * n) + 2


def max_size_bound(series: CosineSeries, n: int, g: int) -> BoundReport:
    """Largest set size not excluded by the finite-N estimate.

    The scan over s = 1 .. scan_limit is exhaustive (no monotonicity in s is
    assumed); a size survives when its radicand is nonnegative and
    b0 * s^2 <= finite_majorant(s), with b0 the coefficient at frequency 0
    (0 if the series has no constant term, in which case the estimate is the
    trivial one and every feasible size survives).
    """
    _check_np(n, g)
    summary = summarize(series)
    b0 = float(series.coeffs[series.freqs == 0.0].sum())
    best = 0
    for s in range(1, scan_limit(n, g) + 1):
        rhs = finite_majorant(summary, n, g, s)
        if rhs is None:
            continue
        if b0 * s * s <= rhs:
            best = s
    if best < 1:
        # cannot happen: s = 1 always survives (rhs >= w0 >= b0)
        raise AssertionError("size scan excluded s = 1")
    return BoundReport(
        n=n,
        g=g,
        max_size=best,
        coefficient=best / math.sqrt((2 * g - 1) * n),
        reference_min=reference_min(g),
        summary=summary,
    )
