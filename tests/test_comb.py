"""Combinatorial side: counts, spectral identities, exact search."""

import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b2gbounds import (
    BudgetError,
    IntSet,
    ValidationError,
    d_identity_residual,
    diff_profile,
    exhaustive_f,
    f_table,
    s_comb,
    s_dft,
    sdft_inequality_scan,
)

from b2gbounds import checks, combinatorics
from b2gbounds.checks import difference_identity, random_pairs
from b2gbounds.combinatorics import ScanReport, _extend

from conftest import make_series


def brute_b2g(elems, g):
    """Reference predicate straight from the definition."""
    counts = {}
    elems = list(elems)
    for i, a in enumerate(elems):
        for b in elems[i:]:
            counts[a + b] = counts.get(a + b, 0) + 1
    return all(v <= g for v in counts.values())


def brute_sets(g, n):
    """Every B2[g] subset of [0, n] in lexicographic order, by brute force."""
    subsets = (c for k in range(n + 2) for c in combinations(range(n + 1), k))
    return sorted(c for c in subsets if brute_b2g(c, g))


def extend_b2g(elems, g):
    """The library's test: _extend folded over the elements, never refused."""
    layers, mask = [0] * g, 0
    for x in elems:
        layers = _extend(layers, mask, x)
        if layers is None:
            return False
        mask |= 1 << x
    return True


def test_intset_validation():
    with pytest.raises(ValidationError):
        IntSet(elems=(3, 1), n=5)
    with pytest.raises(ValidationError):
        IntSet(elems=(1, 1), n=5)
    with pytest.raises(ValidationError):
        IntSet(elems=(0, 6), n=5)
    with pytest.raises(ValidationError):
        IntSet(elems=(0,), n=-1)
    assert IntSet(elems=(), n=0).size == 0


def test_extend_known_cases():
    for elems, g, admissible in [
        ((0, 1, 3), 1, True),
        ((0, 1, 2, 3), 1, False),  # 0+3 = 1+2
        ((0, 1, 2, 3), 2, True),
        ((0, 1, 2, 3, 4), 2, False),  # 0+4 = 1+3 = 2+2
    ]:
        assert extend_b2g(elems, g) == brute_b2g(elems, g) == admissible, elems


def test_diff_profile_explicit():
    profile = diff_profile(IntSet((0, 1, 3), 3))
    assert profile == {0: 3, 1: 1, -1: 1, 2: 1, -2: 1, 3: 1, -3: 1}
    assert s_comb(IntSet((0, 1, 3), 3)) == 6


def test_s_dft_explicit_values():
    # ambient N matters: the +-N residues fold together on the 2N grid
    assert s_dft(IntSet((0, 1, 3), 3)) == pytest.approx(8.0, abs=1e-9)
    assert s_dft(IntSet((0, 1, 3), 5)) == pytest.approx(6.0, abs=1e-9)
    with pytest.raises(ValidationError):
        s_dft(IntSet((), 0))


def test_wraparound_identity(rng):
    for _ in range(200):
        n = int(rng.integers(1, 28))
        mask = rng.random(n + 1) < 0.5
        elems = tuple(int(i) for i in range(n + 1) if mask[i])
        a = IntSet(elems, n)
        d_n = diff_profile(a).get(n, 0)
        assert s_dft(a) == pytest.approx(s_comb(a) + 2 * d_n * d_n, abs=1e-9)


def test_identity_residual_small(rng):
    pairs = random_pairs(rng, 100, n_max=24, p=0.5, k_max=6, fmax=12.0)
    _, passed, detail = difference_identity(pairs)
    assert passed, detail
    with pytest.raises(ValidationError):
        d_identity_residual(IntSet((), 0), make_series(rng))


def test_difference_identity_evaluates_w_once_per_difference(monkeypatch):
    calls = []
    for module in (checks, combinatorics):
        if hasattr(module, "eval_w"):

            def counted(*args, _eval_w=module.eval_w):
                calls.append(args)
                return _eval_w(*args)

            monkeypatch.setattr(module, "eval_w", counted)
    pairs = random_pairs(np.random.default_rng(0), 5)
    _, passed, detail = difference_identity(pairs)
    assert passed, detail
    distinct = sum(len(profile) for _, _, profile in pairs)
    assert len(calls) == distinct == 127


def test_exhaustive_small_cases():
    assert exhaustive_f(1, 7) == (4, IntSet((0, 1, 3, 7), 7))
    size, wit = exhaustive_f(1, 3)
    assert size == 3 and wit.elems == (0, 1, 3)
    assert exhaustive_f(1, 0)[0] == 1
    assert exhaustive_f(2, 1)[0] == 2


def test_exhaustive_matches_enumeration_oracle():
    for g in (1, 2):
        for n in (1, 3, 6, 9, 11):
            sets = brute_sets(g, n)
            best_size = max(len(s) for s in sets)
            lex_first = min(s for s in sets if len(s) == best_size)
            size, wit = exhaustive_f(g, n)
            assert size == best_size, (g, n)
            assert wit.elems == lex_first, (g, n)


# Optimal Golomb ruler lengths G(k) for k = 1..9 marks (OEIS A003022).
GOLOMB_LENGTHS = (0, 1, 3, 6, 11, 17, 25, 34, 44)


def test_f_table_matches_golomb_rulers():
    # a Sidon set in [0, N] is a Golomb ruler of length <= N, so F(1, N) is
    # the largest k with G(k) <= N
    stats = {}
    rows = f_table(1, 44, stats=stats)
    assert [n for _, n, _, _ in rows] == list(range(45))
    for g, n, size, wit in rows:
        assert size == sum(length <= n for length in GOLOMB_LENGTHS), n
        assert len(wit) == size and brute_b2g(wit, 1), (n, wit)
    assert stats["nodes"] > 0


def test_f_table_matches_enumeration_oracle():
    # g = 1 and every g the paper improves on (2..5), N <= 12: the B2[g]
    # subsets of [0, N] are those of [0, 12] that end at or below N
    for g in range(1, 6):
        sets = brute_sets(g, 12)
        rows = f_table(g, 12)
        assert len(rows) == 13
        for _, n, size, wit in rows:
            inside = [s for s in sets if not s or s[-1] <= n]
            best_size = max(len(s) for s in inside)
            assert size == best_size, (g, n)
            assert wit == min(s for s in inside if len(s) == best_size), (g, n)


def test_search_tree_node_counts():
    # the benchmark's two table searches visit exactly these nodes; the
    # visit order and the pruning fix them, so only a deliberate pruning
    # change moves these pins
    for g, n_max, nodes in ((1, 29, 8703), (2, 21, 21450)):
        stats = {}
        f_table(g, n_max, stats=stats)
        assert stats["nodes"] == nodes, (g, n_max)


def test_g_past_half_n_adds_no_layer_cost():
    # no sum in [0, 12] has more than 12 // 2 + 1 = 7 representations, so
    # any g >= 7 admits the same sets with the same 7 sum layers
    small, huge = {}, {}
    rows = f_table(7, 12, stats=small)
    assert [r[1:] for r in f_table(10**20, 12, stats=huge)] == [r[1:] for r in rows]
    assert huge["nodes"] == small["nodes"] > 0
    assert sdft_inequality_scan(10**20, 12) == sdft_inequality_scan(7, 12)


def test_known_sidon_values():
    # perfect difference rulers: F(1, N) along classical milestones
    for n, f in [(3, 3), (6, 4), (11, 5), (17, 6), (25, 7)]:
        assert exhaustive_f(1, n)[0] == f


def test_budget_error_carries_lower_bound():
    with pytest.raises(BudgetError) as info:
        exhaustive_f(2, 14, budget=50)
    err = info.value
    assert err.nodes > 50
    assert err.size == err.witness.size >= 1
    assert brute_b2g(err.witness.elems, 2)
    assert "NOT exact" in str(err)
    # the budget counts every node, the smaller rows of the bound included,
    # and the witness is the best set found so far, inside [0, 14]
    assert err.nodes == 51
    assert err.witness.n == 14
    stats = {}
    exact, _ = exhaustive_f(2, 14, stats=stats)
    assert stats["nodes"] > 50
    assert err.size <= exact
    with pytest.raises(BudgetError) as info:
        exhaustive_f(2, 14, budget=stats["nodes"] - 1)
    assert info.value.nodes == stats["nodes"]
    assert brute_b2g(info.value.witness.elems, 2) and info.value.witness.n == 14
    assert exhaustive_f(2, 14, budget=stats["nodes"])[0] == exact


@pytest.mark.parametrize("budget", [500, 490])
def test_budget_falls_back_to_the_previous_row(budget):
    # at 490 the budget runs out early in row N = 13, before that row matches
    # F(2, 12) = 7, so the size and witness are row 12's
    with pytest.raises(BudgetError) as info:
        f_table(2, 14, budget=budget)
    err = info.value
    assert "F(2,14) >= 7" in str(err)
    assert err.nodes == budget + 1
    assert err.witness == IntSet((0, 1, 2, 3, 5, 7, 11), 14)
    assert brute_b2g(err.witness.elems, 2)


def test_budget_large_enough_is_silent():
    size, _ = exhaustive_f(1, 8, budget=10**7)
    assert size == 4
    with pytest.raises(ValidationError):
        exhaustive_f(1, 8, budget=-1)
    # n is checked before the budget
    with pytest.raises(ValidationError, match="n must be >= 0"):
        f_table(1, -1, budget=-5)


def greedy_lower(g, n):
    """Greedy B2[g] witness scanning 0..n: keep x unless some pairwise sum
    would then have more than g representations.  A lower bound for F(g, n)."""
    counts, elems = Counter(), []
    for x in range(n + 1):
        sums = [a + x for a in elems] + [2 * x]  # distinct, as every a < x
        if all(counts[s] < g for s in sums):
            counts.update(sums)
            elems.append(x)
    return IntSet(elems=tuple(elems), n=n)


def test_greedy_is_valid_and_dominated():
    for g in (1, 2):
        for n in (5, 9, 12):
            lower = greedy_lower(g, n)
            assert brute_b2g(lower.elems, g)
            assert lower.size <= exhaustive_f(g, n)[0]
    # greedy g=1 from 0 reproduces the classical greedy non-averaging prefix
    assert greedy_lower(1, 20).elems == (0, 1, 3, 7, 12, 20)


def test_f_table_shape_and_monotonicity():
    rows = [row for g in (1, 2) for row in f_table(g, 10)]
    assert len(rows) == 22
    by_g = {1: [], 2: []}
    for g, n, size, wit in rows:
        by_g[g].append(size)
        assert IntSet(wit, n).size == size
    for g, sizes in by_g.items():
        assert all(a <= b for a, b in zip(sizes, sizes[1:])), (g, sizes)
    for f1, f2 in zip(by_g[1], by_g[2]):
        assert f1 <= f2


def test_inequality_scan_small():
    report = sdft_inequality_scan(1, 8)
    assert report.violations == 0
    assert report.max_ratio <= 1.0 + 1e-12
    expected = sum(len(brute_sets(1, n)) for n in range(1, 9))
    assert report.checked == expected
    with pytest.raises(ValidationError):
        sdft_inequality_scan(1, 0)  # would check no set at all
    with pytest.raises(ValidationError):
        sdft_inequality_scan(0, 8)


def test_inequality_scan_matches_float_oracle():
    # the report rebuilt set by set, from one enumeration per N and the
    # float DFT s_dft, independently of the walk's integer counts
    for g in (1, 2, 3):
        checked = violations = 0
        max_ratio = 0.0
        for n in range(1, 9):
            for elems in brute_sets(g, n):
                value = s_dft(IntSet(elems, n))
                checked += 1
                violations += value > (2 * g - 1) * len(elems) ** 2 + 1e-9
                if elems:
                    max_ratio = max(max_ratio, value / len(elems) ** 2)
            report = sdft_inequality_scan(g, n)
            assert report[:2] == (checked, violations), (g, n)
            assert report.max_ratio == pytest.approx(max_ratio, abs=1e-12), (g, n)
    # by hand: for g = 2 in [0, 3] the ratio peaks at A = {0, 1, 2, 3},
    # N = 3, where d(1), d(2), d(3) = 3, 2, 1 give s_comb = 2 (9 + 4 + 1) =
    # 28 and d(N) = 1 adds 2, so the walk's integer s_dft is 30 over 16
    a = IntSet((0, 1, 2, 3), 3)
    assert s_comb(a) + 2 * diff_profile(a)[3] ** 2 == 30
    assert s_dft(a) == pytest.approx(30.0, abs=1e-9)
    assert sdft_inequality_scan(2, 3) == ScanReport(28, 0, 30 / 16)


def test_inequality_scan_frozen_reports():
    # the reports of the verify suite's scans (N <= 14) and of acceptance
    # criterion 6 (N <= 18), with max ratios exact to the last bit
    assert sdft_inequality_scan(1, 14) == ScanReport(4355, 0, 1.0)
    assert sdft_inequality_scan(2, 14) == ScanReport(26565, 0, 16 / 7)
    assert sdft_inequality_scan(1, 18) == ScanReport(17669, 0, 1.0)
    assert sdft_inequality_scan(2, 18) == ScanReport(202968, 0, 194 / 81)
    # the other g the paper improves on, at N <= 12
    assert sdft_inequality_scan(3, 12) == ScanReport(14300, 0, 34 / 9)
    assert sdft_inequality_scan(4, 12) == ScanReport(16063, 0, 123 / 25)
    assert sdft_inequality_scan(5, 12) == ScanReport(16354, 0, 736 / 121)


def test_inequality_scan_memory_is_one_batch():
    # the walk holds one root-to-leaf path of sets and counts, so there are
    # no batches; it peaks at about 2 kB
    tracemalloc.start()
    try:
        sdft_inequality_scan(2, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


subset_strategy = st.lists(
    st.integers(min_value=0, max_value=24), min_size=0, max_size=12, unique=True
)


@settings(max_examples=150, deadline=None)
@given(elems=subset_strategy, g=st.integers(min_value=1, max_value=3))
def test_b2g_is_monotone_in_g_and_subsets(elems, g):
    elems = tuple(sorted(elems))
    if extend_b2g(elems, g):
        assert extend_b2g(elems, g + 1)
        if elems:
            assert extend_b2g(elems[:-1], g)
    assert extend_b2g(elems, g) == brute_b2g(elems, g)


@settings(max_examples=100, deadline=None)
@given(elems=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=10, unique=True))
def test_sdft_dominates_scomb(elems):
    a = IntSet(tuple(sorted(elems)), 15)
    assert s_dft(a) >= s_comb(a) - 1e-9
