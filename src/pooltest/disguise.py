"""Disguise probabilities: exact counts and correlation-based lower bounds.

An item is disguised in a test when some *other* member of that test is
defective, and totally disguised when that holds for every test containing
it; a totally disguised item's own status leaves no trace in the outcomes.
The exact probability comes from counting, by size, the defectivity patterns
of the item's co-items that disguise it, for every item of a design in one
batched pass (`_pattern_counts`): by inclusion-exclusion over the item's own
tests, or by walking every pattern, all items of one co-item count together,
when its minimal own-test co-sets outnumber its co-items.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .design import TestDesign
from .errors import BudgetExceededError
from .model import CHUNK_ELEMENTS, Prior

CO_ITEM_BUDGET = 25
# Fills a slot of a row of co-set masks that holds no co-set.  Above every
# mask over at most CO_ITEM_BUDGET co-items, so it sorts after them and holds
# none of them.
_NO_SET = np.uint32(0xFFFFFFFF)


@dataclass(frozen=True)
class ItemDisguise:
    """Per-item disguise numbers: log bound, its exponential, optional exact value."""

    item: int
    log_bound: float
    fkg_bound: float
    exact_prob: float | None


@dataclass(frozen=True)
class DisguiseReport:
    """All per-item disguise bounds plus the averaged-bound inequality chain.

    ``mean_log_bound`` averages the per-item log bounds; the same quantity
    recomputed test-by-test is kept alongside as a cross-check.  When the
    chain applies (1 <= T <= n, all weights >= 2) the values satisfy
    mean >= scaled_min_term >= min_weight_term >= l_star.
    """

    items: tuple[ItemDisguise, ...]
    mean_log_bound: float
    mean_log_bound_by_test: float
    min_weight_term: float | None
    scaled_min_term: float | None
    l_star: float
    chain_applicable: bool


def _check_item(design: TestDesign, i: int) -> None:
    if not 0 <= i < design.n:
        raise ValueError(f"item index {i} outside [0, {design.n})")


def co_items(design: TestDesign, i: int) -> tuple[int, ...]:
    """Items sharing at least one test with item ``i``."""
    _check_item(design, i)
    inc = design.incidence
    own = inc.item_tests[i]
    found = np.zeros(design.n + 1, dtype=bool)
    found[inc.test_items[own[own < design.T]]] = True
    found[[i, design.n]] = False
    return tuple(np.flatnonzero(found).tolist())


def _log_bounds(design: TestDesign, prior: Prior, items: np.ndarray) -> list[float]:
    """Each item's log product bound: ln(1 - q^(w-1)) summed over its own tests.

    The terms are added one column of `item_tests` at a time, so each item's
    tests in increasing order, from 0.0; the padding test T adds 0.0, which
    changes no sum.  Each sum is the float a per-item loop would give.
    """
    per_test = np.array([bounds._log_disguise_term(prior, w) for w in design.weights] + [0.0])
    total = np.zeros(len(items))
    for column in design.incidence.item_tests[items].T:
        total += per_test[column]
    return total.tolist()


def disguise_bound(design: TestDesign, i: int, prior: Prior) -> tuple[float, float]:
    """Log product bound and its exponential for item i being totally disguised.

    Disguise events across tests are increasing in the defective set, so they
    are positively correlated (FKG), which makes the product of the per-test
    probabilities 1 - q^(w-1) a lower bound on the joint probability.  A
    weight-1 test contributes ln(0) = -inf, i.e. a bound of exactly 0.
    """
    _check_item(design, i)
    (total,) = _log_bounds(design, prior, np.array([i]))
    return total, math.exp(total)


def _co_sets(members: np.ndarray, tests: np.ndarray, items: np.ndarray, budget: int):
    """The rows of ``items`` with at most ``budget`` co-items, their co-item
    counts m, and their own-test co-sets as uint32 masks over the ranks of
    their co-items (`_NO_SET` for a padding test).

    Row r of ``tests`` lists the own tests of item ``items[r]``, padded with
    T, the last row of ``members``; the gather ``members[tests]`` lists their
    members, padded with n.  Each row's members, less the item itself, are
    sorted with the rows kept apart, and a co-item's rank is the number of
    distinct co-items before its first position in the sorted row.
    """
    T, n = len(members) - 1, int(members[-1, 0])
    gathered = members[tests]
    gathered[gathered == items[:, None, None]] = n
    flat = gathered.reshape(len(items), -1)
    keys = np.arange(len(items))[:, None] * (n + 1) + flat
    ordered = np.sort(keys, axis=None)
    distinct = np.empty(ordered.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    distinct &= ordered % (n + 1) < n
    before = (np.cumsum(distinct) - distinct).reshape(flat.shape)
    m = distinct.reshape(flat.shape).sum(axis=1)
    fit = np.flatnonzero(m <= budget)
    rank = before.ravel()[np.searchsorted(ordered, keys[fit])] - before[fit, :1]
    bits = np.where(flat[fit] < n, np.uint32(1) << rank.astype(np.uint32), np.uint32(0))
    sets = np.bitwise_or.reduce(bits.reshape(*tests[fit].shape, members.shape[1]), axis=2)
    sets[tests[fit] == T] = _NO_SET
    return fit, m[fit], sets


def _minimal_co_sets(sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's distinct minimal co-sets (masks containing no other mask of
    the row), in increasing order and then `_NO_SET`, and their number d'."""
    sets = np.sort(sets, axis=1)
    sets[:, 1:][sets[:, 1:] == sets[:, :-1]] = _NO_SET
    inner = np.zeros(sets.shape, dtype=bool)
    step = max(1, CHUNK_ELEMENTS // max(sets.size, 1))
    for lo in range(0, sets.shape[1], step):
        smaller = sets[:, None, lo:lo + step]
        within = (smaller & ~sets[:, :, None]) == 0
        inner |= (within & (smaller != sets[:, :, None])).any(axis=2)
    sets[inner] = _NO_SET
    sets.sort(axis=1)
    return sets, (sets != _NO_SET).sum(axis=1)


def _unions(sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the unions of the 2^k subsets A of the k columns of ``sets``,
    and the parity of |A|: doubling, each subset of the first t columns is
    followed by the same subset with column t added."""
    unions = np.zeros((len(sets), 1), dtype=np.uint32)
    odd = np.zeros(1, dtype=np.intp)
    for column in sets.T:
        unions = np.hstack([unions, unions | column[:, None]])
        odd = np.concatenate([odd, odd ^ 1])
    return unions, odd


def _signed_union_sizes(sets: np.ndarray, bins: int) -> np.ndarray:
    """Row r, column u: the sum of (-1)^|A| over the subsets A of row r's
    co-sets (the d' columns of ``sets``) whose union has u members.

    No pass holds more than `CHUNK_ELEMENTS` unions: each takes a block of
    rows with the unions of its low co-sets, and one union of the high ones.
    """
    rows, d = sets.shape
    low = min(d, CHUNK_ELEMENTS.bit_length() - 1)
    per_pass = max(1, CHUNK_ELEMENTS >> low)
    out = np.empty((rows, bins), dtype=np.int64)
    for start in range(0, rows, per_pass):
        block = sets[start:start + per_pass]
        low_unions, low_odd = _unions(block[:, :low])
        high_unions, high_odd = _unions(block[:, low:])
        offsets = np.arange(len(block))[:, None] * (2 * bins)
        hist = np.zeros(2 * bins * len(block), dtype=np.int64)
        for h, odd in enumerate(high_odd.tolist()):
            sizes = np.bitwise_count(low_unions | high_unions[:, h:h + 1])
            keys = offsets + (low_odd ^ odd) * bins + sizes
            hist += np.bincount(keys.ravel(), minlength=hist.size)
        hist = hist.reshape(len(block), 2, bins)
        out[start:start + len(block)] = hist[:, 0] - hist[:, 1]
    return out


def _walk(sets: np.ndarray, m: int) -> np.ndarray:
    """Row r, column j: how many of the 2^m patterns of j of m co-items meet
    every co-set of row r of ``sets`` (a `_NO_SET` slot is no co-set).

    No pass holds more than `CHUNK_ELEMENTS` values: each tests a block of
    at most `CHUNK_ELEMENTS` // rows patterns against every row, and one
    offset `bincount` tallies the patterns that meet them.
    """
    rows = len(sets)
    step = max(1, CHUNK_ELEMENTS // max(rows, 1))
    offsets = np.arange(rows)[:, None] * (m + 1)
    counts = np.zeros(rows * (m + 1), dtype=np.int64)
    for start in range(0, 1 << m, step):
        patterns = np.arange(start, min(start + step, 1 << m), dtype=np.uint32)
        met = np.ones((rows, patterns.size), dtype=bool)
        for column in sets.T[:, :, None]:
            met &= ((patterns & column) != 0) | (column == _NO_SET)
        keys = offsets + np.bitwise_count(patterns)
        counts += np.bincount(keys[met], minlength=counts.size)
    return counts.reshape(rows, m + 1)


@functools.cache
def _binomials() -> np.ndarray:
    """C(a, j) for a, j up to `CO_ITEM_BUDGET` (0 for j > a), read-only and
    built on first use."""
    table = np.array(
        [[math.comb(a, j) for j in range(CO_ITEM_BUDGET + 1)] for a in range(CO_ITEM_BUDGET + 1)],
        dtype=np.int64,
    )
    table.flags.writeable = False
    return table


def _pattern_counts(
    design: TestDesign, items: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each of ``items`` with at most ``budget`` (at most `CO_ITEM_BUDGET`)
    co-items, count by defective count j the co-item patterns that totally
    disguise it.  Returns, per item, whether it was counted, its co-item count
    m and its counts, one row of ``budget + 1`` columns (0 past m): the table
    `Prior.probability` weighs.  A skipped item has m = 0 and a row of zeros.

    Only the m items sharing a test with item i can affect the event, which
    holds when every test containing i holds a defective other than i, that
    is, when the pattern meets each test's co-set (the test without i).  A
    co-set containing another is met whenever the smaller one is, so only the
    d' distinct minimal co-sets matter.  When d' < m the counts come by
    inclusion-exclusion, sum over every choice A of co-sets of (-1)^|A|
    C(m - |union A|, j), 2^d' terms, for all items of one d' together.
    Otherwise (more minimal co-sets than co-items, where 2^d' could far
    exceed 2^m) all 2^m patterns are walked by `_walk`, for all items of one
    m together.  Both methods fill one table of counts per block.

    All items are done at once, each co-set becoming a uint32 mask over the
    ranks of its item's co-items.  A test of weight w gives each member w - 1
    co-items, so an item in a test heavier than budget + 1 is skipped before
    any co-item is gathered.  The other items' own tests are gathered in
    blocks of at most `CHUNK_ELEMENTS` members; one item always fits, as the
    design size budget keeps T * n within it.
    """
    inc = design.incidence
    counted = np.zeros(len(items), dtype=bool)
    sizes = np.zeros(len(items), dtype=np.intp)
    counts = np.zeros((len(items), budget + 1), dtype=np.int64)
    tests = inc.item_tests[items]
    weights = np.array(design.weights + (0,))
    eligible = np.flatnonzero((weights[tests] <= budget + 1).all(axis=1))
    width = min(inc.test_items.shape[1], budget + 1)
    members = np.vstack([inc.test_items[:, :width], np.full((1, width), design.n, dtype=np.int32)])
    per_pass = max(1, CHUNK_ELEMENTS // (tests.shape[1] * width))
    for start in range(0, eligible.size, per_pass):
        block = eligible[start:start + per_pass]
        fit, m, sets = _co_sets(members, tests[block], items[block], budget)
        block = block[fit]
        sets, d = _minimal_co_sets(sets)
        by_terms = d < m
        table = np.zeros((len(block), budget + 1), dtype=np.int64)
        for size in set(d[by_terms].tolist()):
            rows = np.flatnonzero(by_terms & (d == size))
            table[rows] = _signed_union_sizes(sets[rows, :size], budget + 1)
        for size in set(m[by_terms].tolist()):
            rows = np.flatnonzero(by_terms & (m == size))
            table[rows, :size + 1] = table[rows, :size + 1] @ _binomials()[size::-1, :size + 1]
        for size in set(m[~by_terms].tolist()):
            rows = np.flatnonzero(~by_terms & (m == size))
            table[rows, :size + 1] = _walk(sets[rows, :d[rows].max()], size)
        counted[block] = True
        sizes[block] = m
        counts[block] = table
    return counted, sizes, counts


def exact_disguise_prob(design: TestDesign, i: int, prior: Prior) -> float:
    """Exact probability that item i is totally disguised, from exact pattern counts."""
    _check_item(design, i)
    counted, m, counts = _pattern_counts(design, np.array([i]), CO_ITEM_BUDGET)
    if not counted[0]:
        raise BudgetExceededError(
            f"item {i} shares tests with more than {CO_ITEM_BUDGET} items, "
            "the enumeration budget"
        )
    return float(prior.probability(counts[0], m[0]))


def mean_log_bound(
    design: TestDesign, prior: Prior, exact_budget: int | None = None
) -> DisguiseReport:
    """Per-item disguise bounds plus the averaged-bound chain values.

    The item-averaged log bound is also recomputed by summing over tests
    (weight w contributes w * ln(1 - q^(w-1))); the two must agree.  When
    ``exact_budget`` is given, items whose co-item count fits the budget also
    get their exact disguise probability, all counted and weighed in one pass
    each; a negative budget raises ValueError.
    """
    if exact_budget is not None and exact_budget < 0:
        raise ValueError(f"exact budget must be nonnegative, got {exact_budget}")
    n = design.n
    everyone = np.arange(n)
    exact: list[float | None] = [None] * n
    if exact_budget is not None:
        counted, m, counts = _pattern_counts(design, everyone, min(exact_budget, CO_ITEM_BUDGET))
        values = prior.probability(counts, m).tolist()
        exact = [value if c else None for value, c in zip(values, counted.tolist())]
    items = [
        ItemDisguise(item=i, log_bound=log_b, fkg_bound=math.exp(log_b), exact_prob=e)
        for i, (log_b, e) in enumerate(zip(_log_bounds(design, prior, everyone), exact))
    ]

    mean_items = sum(it.log_bound for it in items) / n if n else 0.0
    per_test = [bounds.weight_log_term(prior, w) for w in design.weights if w >= 1]
    mean_tests = sum(per_test) / n if n else 0.0
    min_term = min(per_test) if per_test else None
    scaled = (design.T / n) * min_term if (min_term is not None and n) else None
    ls, _ = bounds.l_star(prior)
    applicable = 1 <= design.T <= n and all(w >= 2 for w in design.weights)
    return DisguiseReport(
        items=tuple(items),
        mean_log_bound=mean_items,
        mean_log_bound_by_test=mean_tests,
        min_weight_term=min_term,
        scaled_min_term=scaled,
        l_star=ls,
        chain_applicable=applicable,
    )
