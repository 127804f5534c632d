"""Disguise probabilities: exact counts and correlation-based lower bounds.

An item is disguised in a test when some *other* member of that test is
defective, and totally disguised when that holds for every test containing
it; a totally disguised item's own status leaves no trace in the outcomes.
The exact probability comes from counting, by size, the defectivity patterns
of the item's co-items that disguise it: by inclusion-exclusion over the
item's own tests, or by walking every pattern when its minimal own-test
co-sets outnumber its co-items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .design import TestDesign, _bit_positions, _reindex_masks
from .errors import BudgetExceededError
from .model import Prior, count_by_size, subset_blocks

CO_ITEM_BUDGET = 25


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
    chain applies (T <= n, all weights >= 2) the values satisfy
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


def _own_tests(design: TestDesign, i: int) -> list[int]:
    """The tests holding item ``i``, in increasing order, from the design's incidence lists."""
    return [t for t in design.incidence.item_tests[i].tolist() if t < design.T]


def co_items(design: TestDesign, i: int) -> tuple[int, ...]:
    """Items sharing at least one test with item ``i``."""
    _check_item(design, i)
    union = 0
    for t in _own_tests(design, i):
        union |= design.row_masks[t]
    return _bit_positions(union & ~(1 << i))


def disguise_bound(design: TestDesign, i: int, prior: Prior) -> tuple[float, float]:
    """Log product bound and its exponential for item i being totally disguised.

    Disguise events across tests are increasing in the defective set, so they
    are positively correlated (FKG), which makes the product of the per-test
    probabilities 1 - q^(w-1) a lower bound on the joint probability.  A
    weight-1 test contributes ln(0) = -inf, i.e. a bound of exactly 0.
    """
    _check_item(design, i)
    total = 0.0
    for t in _own_tests(design, i):
        total += bounds._log_disguise_term(prior, design.weights[t])
    return total, math.exp(total)


def _minimal_sets(masks: list[int]) -> list[int]:
    """The distinct masks that contain no other mask of the list."""
    minimal: list[int] = []
    for mask in sorted(set(masks), key=int.bit_count):
        if all(kept & ~mask for kept in minimal):
            minimal.append(mask)
    return minimal


def _inclusion_exclusion_counts(m: int, sets: list[int]) -> tuple[int, ...]:
    """Count, by size j, the subsets of m items that meet every one of ``sets``.

    The subsets missing all of the sets in A number C(m - |union A|, j), so
    the count is the sum over every A of (-1)^|A| C(m - |union A|, j).  The
    2^len(sets) choices of A are walked as bitmasks by `subset_blocks` and
    histogrammed by the parity of |A| and by |union A|; the binomials are
    then applied in exact integers.
    """
    hist = np.zeros(2 * (m + 1), dtype=np.int64)
    for choices in subset_blocks(len(sets)):
        union = np.zeros(choices.size, dtype="<u4")
        for t, s in enumerate(sets):
            union |= s * (choices >> t & 1)
        parity = np.bitwise_count(choices) & 1
        hist += np.bincount(parity * (m + 1) + np.bitwise_count(union), minlength=2 * (m + 1))
    by_union = hist.tolist()
    counts = [0] * (m + 1)
    for u, (even, odd) in enumerate(zip(by_union[: m + 1], by_union[m + 1 :])):
        if even != odd:
            for j in range(m - u + 1):
                counts[j] += (even - odd) * math.comb(m - u, j)
    return tuple(counts)


def _pattern_counts(design: TestDesign, i: int) -> tuple[int, ...]:
    """Count, by defective count j, the co-item patterns that totally disguise i.

    Only the m items sharing a test with item i can affect the event, which
    holds when every test containing i holds a defective other than i, that
    is, when the pattern meets each test's co-set (the test without i).  A
    co-set containing another is met whenever the smaller one is, so only the
    d' distinct minimal co-sets matter.  When d' < m the counts come by
    inclusion-exclusion over those co-sets, 2^d' terms.  Otherwise (more
    minimal co-sets than co-items, where 2^d' could far exceed 2^m) all 2^m
    patterns are walked by `count_by_size`.
    """
    co = co_items(design, i)
    m = len(co)
    if m > CO_ITEM_BUDGET:
        raise BudgetExceededError(
            f"item {i} shares tests with {m} items, over the enumeration budget of {CO_ITEM_BUDGET}"
        )
    own_tests = (design.row_masks[t] & ~(1 << i) for t in _own_tests(design, i))
    sets = _minimal_sets(_reindex_masks(own_tests, co))
    if len(sets) < m:
        return _inclusion_exclusion_counts(m, sets)

    def disguised(patterns: np.ndarray) -> np.ndarray:
        ok = np.ones(patterns.size, dtype=bool)
        for sub in sets:
            ok &= (patterns & sub) != 0
        return ok

    return count_by_size(m, disguised)


def exact_disguise_prob(design: TestDesign, i: int, prior: Prior) -> float:
    """Exact probability that item i is totally disguised, from exact pattern counts."""
    _check_item(design, i)
    return prior.probability(_pattern_counts(design, i))


def mean_log_bound(
    design: TestDesign, prior: Prior, exact_budget: int | None = None
) -> DisguiseReport:
    """Per-item disguise bounds plus the averaged-bound chain values.

    The item-averaged log bound is also recomputed by summing over tests
    (weight w contributes w * ln(1 - q^(w-1))); the two must agree.  When
    ``exact_budget`` is given, items whose co-item count fits the budget also
    get their exact disguise probability.
    """
    n = design.n
    items = []
    for i in range(n):
        log_b, fkg_b = disguise_bound(design, i, prior)
        exact = None
        if exact_budget is not None and len(co_items(design, i)) <= min(
            exact_budget, CO_ITEM_BUDGET
        ):
            exact = exact_disguise_prob(design, i, prior)
        items.append(ItemDisguise(item=i, log_bound=log_b, fkg_bound=fkg_b, exact_prob=exact))

    mean_items = sum(it.log_bound for it in items) / n if n else 0.0
    per_test = [bounds.weight_log_term(prior, w) for w in design.weights if w >= 1]
    mean_tests = sum(per_test) / n if n else 0.0
    min_term = min(per_test) if per_test else None
    scaled = (design.T / n) * min_term if (min_term is not None and n) else None
    ls, _ = bounds.l_star(prior)
    applicable = design.T <= n and all(w >= 2 for w in design.weights)
    return DisguiseReport(
        items=tuple(items),
        mean_log_bound=mean_items,
        mean_log_bound_by_test=mean_tests,
        min_weight_term=min_term,
        scaled_min_term=scaled,
        l_star=ls,
        chain_applicable=applicable,
    )
