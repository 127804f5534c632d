"""Decoders for pooled test outcomes: COMP, DD, and exact MAP."""

from __future__ import annotations

import enum

import numpy as np

from .design import TestDesign
from .errors import BudgetExceededError, InconsistentOutcomeError
from .model import DefectiveSet, OutcomeVector, Prior, fold_lanes, lane_columns

MAP_ITEM_BUDGET = 30


class DecoderId(enum.Enum):
    COMP = "comp"
    DD = "dd"
    MAP = "map"


def _check_length(design: TestDesign, y: OutcomeVector) -> None:
    if len(y) != design.T:
        raise ValueError(f"outcome vector has {len(y)} bits but the design has {design.T} tests")


def _survivors(design: TestDesign, y_sig: int) -> tuple[int, list[int]]:
    """The COMP survivors (items in no negative test) and each positive test's survivors."""
    positive = []
    negative_union = 0
    for t, mask in enumerate(design.row_masks):
        if y_sig >> t & 1:
            positive.append(mask)
        else:
            negative_union |= mask
    pd = ((1 << design.n) - 1) & ~negative_union
    return pd, [mask & pd for mask in positive]


def _sole_survivors(tests: list[int]) -> int:
    """The items that are the sole survivor of some positive test; they must be defective."""
    forced = 0
    for survivors in tests:
        if survivors & (survivors - 1) == 0:
            forced |= survivors
    return forced


def comp_block(design: TestDesign, positive: np.ndarray) -> np.ndarray:
    """COMP on a block of outcomes held in bit lanes, one row per test (T x W uint64).

    Returns the lanes of the estimates, one row per item (n x W): an item's
    lane is the AND of its tests' lanes, so it keeps the trials in which no
    test of the item is negative.  Trial r equals `decode_mask` with COMP of
    trial r's outcome.  An item in no test is all ones, padding bits included.
    """
    return fold_lanes(positive, design.incidence.item_tests, np.bitwise_and)


def dd_block(design: TestDesign, positive: np.ndarray, survivors: np.ndarray | None = None) -> np.ndarray:
    """DD on a block of outcomes held in bit lanes, one row per test (T x W uint64).

    Returns the lanes of the estimates, one row per item (n x W): the COMP
    survivors that are the sole survivor of some positive test.  Each test
    ORs its survivors' lanes into ``once``, and into ``twice`` where ``once``
    was already set, so ``once & ~twice`` marks the trials in which it holds
    exactly one survivor; a negative test holds none.  Trial r equals
    `decode_mask` with DD of trial r's outcome.  A caller that already holds
    the block's `comp_block` lanes passes them as ``survivors``.
    """
    test_items, item_tests = design.incidence
    if survivors is None:
        survivors = comp_block(design, positive)
    columns = lane_columns(survivors, test_items, 0)
    once = next(columns)
    twice = np.zeros_like(once)
    for rows in columns:
        twice |= once & rows
        once |= rows
    return survivors & fold_lanes(once & ~twice, item_tests, np.bitwise_or)


def _check_map_budget(n: int) -> None:
    if n > MAP_ITEM_BUDGET:
        raise BudgetExceededError(
            f"MAP search over {n} items exceeds the budget of {MAP_ITEM_BUDGET}"
        )


def _packing_bound(tests: list[int]) -> int:
    """Size of a greedy packing of pairwise disjoint tests: a hitting set needs one item for each."""
    packed = used = 0
    for t in tests:
        if not t & used:
            used |= t
            packed += 1
    return packed


def _hitting_set(tests: list[int], budget: int) -> int | None:
    """A mask of at most ``budget`` items that meets every mask in ``tests``, or None.

    Branch and bound: prune when the packing bound exceeds the budget, else
    branch on the test with the fewest items, trying its items lowest first
    and excluding each tried item from the later branches.
    """
    if not tests:
        return 0
    if 0 in tests or _packing_bound(tests) > budget:
        return None
    branch = min(tests, key=int.bit_count)
    while branch:
        low = branch & -branch
        found = _hitting_set([t for t in tests if not t & low], budget - 1)
        if found is not None:
            return found | low
        branch ^= low
        tests = [t & ~low for t in tests]
    return None


def map_mask(design: TestDesign, y_sig: int, prior: Prior) -> int:
    """Exact MAP: the consistent set of maximal prior weight.

    Consistent sets live inside the COMP survivors and must cover every
    positive test.  For p > 1/2 the survivor set itself is the unique maximal
    answer.  Otherwise prior weight is nonincreasing in size, so MAP is the
    smallest satisfying set: the items forced by a positive test with a single
    survivor, plus a minimum hitting set of the positive tests they leave
    uncovered, ties broken toward the smallest bitmask.  The minimum size k is
    found by iterative deepening from the packing bound (`_hitting_set`); then
    the items of a size-k witness are decided from the highest down, dropping
    each one whenever a size-k hitting set avoids it and every higher dropped
    item.
    """
    _check_map_budget(design.n)
    pd, tests = _survivors(design, y_sig)
    if 0 in tests:
        raise InconsistentOutcomeError(
            "a positive test contains only items cleared by negative tests"
        )
    if prior.p > 0.5:
        return pd

    forced = _sole_survivors(tests)
    tests = sorted((t for t in tests if not t & forced), key=int.bit_count)

    size = _packing_bound(tests)
    while (witness := _hitting_set(tests, size)) is None:
        size += 1
    estimate = forced
    while witness:
        top = 1 << (witness.bit_length() - 1)
        below = [t & (top - 1) for t in tests]
        other = _hitting_set(below, size)
        if other is None:  # every smallest completion holds this item
            estimate |= top
            size -= 1
            witness ^= top
            tests = [t for t in tests if not t & top]
        else:
            tests, witness = below, other
    return estimate


def decode_mask(design: TestDesign, y_sig: int, decoder: DecoderId, prior: Prior | None = None) -> int:
    """Decode one outcome signature with the chosen decoder; MAP requires a prior.

    COMP declares defective the survivors, the items in no negative test; DD
    declares the survivors that are the sole survivor of some positive test.
    """
    if decoder is DecoderId.MAP:
        if prior is None:
            raise ValueError("MAP decoding requires a prior")
        return map_mask(design, y_sig, prior)
    survivors, tests = _survivors(design, y_sig)
    return survivors if decoder is DecoderId.COMP else _sole_survivors(tests)


def decode(
    design: TestDesign, y: OutcomeVector, decoder: DecoderId, prior: Prior | None = None
) -> DefectiveSet:
    """Decode an outcome vector with the chosen decoder; MAP requires a prior."""
    _check_length(design, y)
    return DefectiveSet(n=design.n, mask=decode_mask(design, y.signature, decoder, prior))
