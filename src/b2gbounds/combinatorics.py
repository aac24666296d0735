"""Exact combinatorics for B2[g] sets in [0, N].

A set A is B2[g] when every integer has at most g representations a + b with
a <= b, both in A.  For the spectral side, with f(t) = sum_{a in A} e^{2 pi i a t}:

    d(n)     = #{(a, b) in A^2 : a - b = n}            (representation counts)
    s_comb   = sum_{n != 0} d(n)^2                     (solutions of a-b = c-d, a != b)
    s_dft    = (1/2N) sum_{n=-N}^{N-1} (|f(n/2N)|^2 - |A|)^2

The two are linked exactly by s_dft = s_comb + 2 d(N)^2: the discrete grid
over 2N points folds the difference residues +N and -N together, which adds a
wraparound term absent from the pure solution count.  The bound pipeline
consumes s_dft, which for every B2[g] set satisfies s_dft <= (2g-1) |A|^2.

F(g, N), the largest B2[g] subset of [0, N], is computed by one sequential
depth-first branch and bound over increasing elements.  Each node holds its
set as a bitmask and its pairwise sums as g bitmask layers (see _extend, the
one B2[g] test here), or N // 2 + 1 layers when g is larger: no sum in
[0, N] has more representations.  A table is one g: its rows F(g, 0),
F(g, 1), ... are built in turn, and each row prunes with the ones before
it: the elements >= x of a B2[g] set, shifted down by x, are a B2[g] set in
[0, N - x].  Once a set of F(g, N - 1) elements is found, only a set that
contains N can be larger, so a node whose set cannot take N is dropped.
Ties are broken toward the lexicographically smallest maximal witness.

The s_dft lemma scan, the library's one walk over every B2[g] set, keeps the
same bitmask state once for every N, with s_dft in integers (see
sdft_inequality_scan).
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._numpy import np
from .errors import BudgetError, ValidationError, check_addressable
from .series import CosineSeries, eval_w


class IntSet(namedtuple("IntSet", "elems n")):
    """Strictly increasing integers inside the ambient interval [0, n]."""

    __slots__ = ()

    def __new__(cls, elems, n):
        elems = tuple(int(e) for e in elems)
        n = int(n)
        if n < 0:
            raise ValidationError(f"ambient endpoint must be >= 0, got {n}")
        if any(e2 <= e1 for e1, e2 in zip(elems, elems[1:])):
            raise ValidationError("elements must be strictly increasing")
        if elems and not (0 <= elems[0] and elems[-1] <= n):
            raise ValidationError(f"elements must lie in [0, {n}], got {elems}")
        return super().__new__(cls, elems, n)

    @property
    def size(self) -> int:
        return len(self.elems)


def _extend(layers, mask, x):
    """The sum layers of the set mask plus a new element x, or None if some
    sum would then have more than g = len(layers) representations.

    Bit a of mask is set for each element a, and bit s of layers[k] when s
    has more than k representations a + b, a <= b.  Adding x gives each of
    the distinct sums a + x and 2x one more representation, so layer k gains
    those of them in layer k - 1, and layer 0 gains them all: the bitmask
    technique of Golomb-ruler search, with g layers.  The layers passed in
    are left as they are.
    """
    sums = mask << x | 1 << 2 * x
    if sums & layers[-1]:
        return None
    grown, below = [], -1
    for layer in layers:
        grown.append(layer | below & sums)
        below = layer
    return grown


def diff_profile(a: IntSet) -> dict:
    """Exact d(n) table {n: d(n)}, zero entries omitted; d(-n) = d(n),
    d(0) = |A|, total mass |A|^2."""
    counts = {}
    for x in a.elems:
        for y in a.elems:
            counts[x - y] = counts.get(x - y, 0) + 1
    return counts


def s_comb(a: IntSet) -> int:
    """sum_{n != 0} d(n)^2, the count of solutions to a - b = c - d, a != b."""
    return sum(v * v for n, v in diff_profile(a).items() if n != 0)


def _exp_sum(elems, points):
    """f(t) = sum_a exp(2 pi i a t) evaluated at an array of points."""
    if not elems:
        return np.zeros(len(points), dtype=complex)
    return np.exp(2j * np.pi * np.outer(points, np.array(elems))).sum(axis=1)


def s_dft(a: IntSet) -> float:
    """(1/2N) sum_{n=-N}^{N-1} (|f(n/2N)|^2 - |A|)^2 by direct evaluation."""
    if a.n < 1:
        raise ValidationError("s_dft needs ambient N >= 1")
    two_n = 2 * a.n
    points = np.arange(-a.n, a.n) / two_n
    f_abs2 = np.abs(_exp_sum(a.elems, points)) ** 2
    return float(np.sum((f_abs2 - a.size) ** 2) / two_n)


def d_identity_residual(a: IntSet, series: CosineSeries) -> float:
    """|lhs - rhs| / (1 + |lhs|), lhs = sum_n d(n) w(n/N) and
    rhs = sum_theta b_theta |f(theta/N)|^2.

    Both sides equal the weighted difference sum D_A(b); they are computed
    independently (counts vs exponential sums), so the residual certifies
    the spectral identity at floating accuracy, relative to the sum's size.
    """
    if a.n < 1:
        raise ValidationError("identity residual needs ambient N >= 1")
    lhs = 0.0
    for diff, count in sorted(diff_profile(a).items()):
        lhs += count * eval_w(series, diff / a.n)
    f_abs2 = np.abs(_exp_sum(a.elems, series.freqs / a.n)) ** 2
    rhs = float(series.coeffs @ f_abs2)
    return abs(lhs - rhs) / (1.0 + abs(lhs))


class _BudgetHit(Exception):
    """Node budget reached; args: best size, its witness, nodes visited."""


def _search_row(g, n, sizes, nodes, limit):
    """F(g, n), its lex-first maximal witness and the running node count.

    sizes[m] = F(g, m) for every m < n.  Every extension of cur by elements
    >= x has at most len(cur) + F(g, n - x) elements, and F(g, n - 1) + 1
    caps F(g, n) itself.  The cap cannot grow with x, so the first
    candidate that cannot beat the best ends the loop.

    Once the best has F(g, n - 1) elements, only a set of F(g, n - 1) + 1
    can gain, and such a set contains n, since otherwise it would lie in
    [0, n - 1].  So a node whose set cannot take n (the test of _extend,
    inline) is a dead end.  Prefixes are visited in lexicographic order and
    the best is replaced only on a strict gain, so the first maximal set
    found is the lexicographically smallest.
    """
    prev = sizes[-1] if sizes else 0
    cap = sizes + [prev + 1]
    best, best_wit = 1, (0,)  # {0}: the lex-smallest set of size 1

    def dfs(start, cur, mask, layers):
        nonlocal nodes, best, best_wit
        nodes += 1
        if nodes > limit:
            raise _BudgetHit(best, best_wit, nodes)
        size = len(cur)
        if size > best:
            best, best_wit = size, cur
        if best >= prev and (mask << n | 1 << 2 * n) & layers[-1]:
            return
        for x in range(start, n + 1):
            if size + cap[n - x] <= best:
                break
            grown = _extend(layers, mask, x)
            if grown is not None:
                dfs(x + 1, cur + (x,), mask | 1 << x, grown)

    # a sum of two elements of [0, n] has at most n // 2 + 1 representations,
    # so any larger g admits the same sets: more layers would only cost time
    dfs(0, (), 0, [0] * min(g, n // 2 + 1))
    return best, best_wit, nodes


def exhaustive_f(
    g: int,
    n: int,
    budget: int | None = None,
    stats: dict | None = None,
) -> tuple[int, IntSet]:
    """Exact F(g, N) with the lexicographically smallest maximal witness.

    The last row of f_table(g, n, budget, stats), as (size, IntSet).
    """
    _, _, size, elems = f_table(g, n, budget=budget, stats=stats)[-1]
    return size, IntSet(elems=elems, n=n)


def f_table(g: int, n_max: int, budget: int | None = None, stats: dict | None = None):
    """Rows (g, N, F(g, N), lex-first maximal witness) for N = 0..n_max.

    One table search by sequential branch and bound (see _search_row).
    budget caps the nodes visited over all rows; exceeding it raises
    BudgetError with the largest set found so far, a B2[g] subset of
    [0, n_max] whose size is a lower bound, explicitly not exact.  A stats
    dict receives the "nodes" visited.
    """
    if g < 1:
        raise ValidationError(f"g must be >= 1, got {g}")
    if n_max < 0:
        raise ValidationError(f"n must be >= 0, got {n_max}")
    if budget is not None and budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    limit = math.inf if budget is None else int(budget)
    rows, sizes, nodes = [], [], 0
    for n in range(n_max + 1):
        try:
            size, wit, nodes = _search_row(g, n, sizes, nodes, limit)
        except _BudgetHit as hit:
            size, wit, nodes = hit.args
            if sizes and sizes[-1] > size:
                size, wit = sizes[-1], rows[-1][3]
            raise BudgetError(
                f"node budget {budget} exhausted at F({g},{n_max}) >= {size}; "
                f"best-so-far is a lower bound, NOT exact",
                size=size,
                witness=IntSet(elems=wit, n=n_max),
                nodes=nodes,
            ) from None
        sizes.append(size)
        rows.append((g, n, size, wit))
    if stats is not None:
        stats["nodes"] = nodes
    return rows


class ScanReport(namedtuple("ScanReport", "checked violations max_ratio")):
    """Outcome of an exhaustive inequality scan; max_ratio is the max over
    nonempty sets of s_dft / |A|^2."""

    __slots__ = ()


def sdft_inequality_scan(g: int, n_max: int) -> ScanReport:
    """Check s_dft(A) <= (2g-1) |A|^2 for every B2[g] set, every N <= n_max.

    One walk over every B2[g] subset of [0, n_max] with the sum layers of
    the search (_extend), plus the positive difference counts d and
    s = s_comb in integers: adding x adds 4 d(x - a) + 2 to s for each a in
    the set.  A set with largest element m lies in [0, N] for every N from
    max(m, 1) to n_max, and there, by s_dft = s_comb + 2 d(N)^2, its s_dft
    is s, or s + 2 at N = m when 0 is in it.  So the check is exact, and the
    max ratio a fraction top / bottom until the report.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    if g < 1:
        raise ValidationError(f"g must be >= 1, got {g}")
    check_addressable(n_max + 1, f"n_max = {n_max}")
    d = [0] * (n_max + 1)
    checked = violations = top = 0
    bottom = 1

    def dfs(elems, mask, layers, s):
        nonlocal checked, violations, top, bottom
        m = elems[-1] if elems else 0
        count = n_max - max(m, 1) + 1
        peak = s + 2 if m and elems[0] == 0 else s  # s_dft at N = m
        size2 = len(elems) ** 2
        rhs = (2 * g - 1) * size2
        checked += count
        violations += count if s > rhs else int(peak > rhs)
        if size2 and peak * bottom > top * size2:
            top, bottom = peak, size2
        for x in range(m + 1 if elems else 0, n_max + 1):
            grown = _extend(layers, mask, x)
            if grown is not None:
                step = 0
                for a in elems:
                    step += 4 * d[x - a] + 2
                    d[x - a] += 1
                dfs(elems + (x,), mask | 1 << x, grown, s + step)
                for a in elems:
                    d[x - a] -= 1

    dfs((), 0, [0] * min(g, n_max // 2 + 1), 0)  # as in _search_row
    return ScanReport(checked=checked, violations=violations, max_ratio=top / bottom)
