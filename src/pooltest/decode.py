"""Decoders for pooled test outcomes: COMP, DD, and exact MAP."""

from __future__ import annotations

import enum

import numpy as np

from .design import TestDesign
from .errors import BudgetExceededError, InconsistentOutcomeError
from .model import Prior, fold_lanes, from_lanes, lane_columns

MAP_ITEM_BUDGET = 30


class DecoderId(enum.Enum):
    COMP = "comp"
    DD = "dd"
    MAP = "map"


def comp_block(design: TestDesign, positive: np.ndarray) -> np.ndarray:
    """COMP on a block of outcomes held in bit lanes, one row per test (T x W uint64).

    Returns the lanes of the estimates, one row per item (n x W): an item's
    lane is the AND of its tests' lanes, so it keeps the trials in which no
    test of the item is negative.  An item in no test is all ones, padding
    bits included.  `decode_mask` runs it on a block of one trial.
    """
    return fold_lanes(positive, design.incidence.item_tests, np.bitwise_and)


def dd_block(design: TestDesign, positive: np.ndarray, survivors: np.ndarray | None = None) -> np.ndarray:
    """DD on a block of outcomes held in bit lanes, one row per test (T x W uint64).

    Returns the lanes of the estimates, one row per item (n x W): the COMP
    survivors that are the sole survivor of some positive test.  Each test
    ORs its survivors' lanes into ``once``, and into ``twice`` where ``once``
    was already set, so ``once & ~twice`` marks the trials in which it holds
    exactly one survivor; a negative test holds none.  A caller that already
    holds the block's `comp_block` lanes passes them as ``survivors``.
    `decode_mask` runs it on a block of one trial.
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


def _least_completion(tests: list[int]) -> int:
    """The hitting set of ``tests`` of least (size, bitmask), given none is empty.

    The minimum size k is found by iterative deepening from the packing bound
    (`_hitting_set`); then the items of a size-k witness are decided from the
    highest down, dropping each one whenever a size-k hitting set avoids it
    and every higher dropped item.
    """
    tests = sorted(tests, key=int.bit_count)
    size = _packing_bound(tests)
    while (witness := _hitting_set(tests, size)) is None:
        size += 1
    completion = 0
    while witness:
        top = 1 << (witness.bit_length() - 1)
        below = [t & (top - 1) for t in tests]
        other = _hitting_set(below, size)
        if other is None:  # every smallest completion holds this item
            completion |= top
            size -= 1
            witness ^= top
            tests = [t for t in tests if not t & top]
        else:
            tests, witness = below, other
    return completion


def _trial_mask(lanes: np.ndarray) -> int:
    """The bitmask of the rows of a one-trial block of lanes (k x 1) that hold the trial."""
    bits = from_lanes(lanes, 1)[0]
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def decode_mask(design: TestDesign, y_sig: int, decoder: DecoderId, prior: Prior | None = None) -> int:
    """Decode one outcome signature with the chosen decoder; MAP requires a prior.

    The outcome goes through the block kernels as a block of one trial (T x 1
    lanes): COMP returns `comp_block`'s row and DD `dd_block`'s.  Exact MAP
    (budget: `MAP_ITEM_BUDGET` items) returns the consistent set of maximal
    prior weight.  Consistent sets live inside the COMP survivors and must
    cover every positive test, so an outcome with a positive test of no
    survivor raises `InconsistentOutcomeError`.  For p > 1/2 the survivor set
    itself is the unique maximal answer.  Otherwise prior weight is
    nonincreasing in size, so MAP is the smallest satisfying set: DD's set,
    the items some positive test holds as its sole survivor, ORed with the
    least completion (`_least_completion`) of the positive tests it leaves
    uncovered, cut down to the survivors.  A signature outside [0, 2^T)
    raises ValueError.
    """
    if not 0 <= y_sig < 1 << design.T:
        raise ValueError(f"outcome signature {y_sig} lies outside [0, 2^{design.T})")
    if decoder is DecoderId.MAP:
        if prior is None:
            raise ValueError("MAP decoding requires a prior")
        _check_map_budget(design.n)
    positive = np.array([y_sig >> t & 1 for t in range(design.T)], dtype=np.uint64)[:, None]
    comp = comp_block(design, positive)
    if decoder is DecoderId.COMP:
        return _trial_mask(comp)
    dd = _trial_mask(dd_block(design, positive, comp))
    if decoder is DecoderId.DD:
        return dd
    survivors = _trial_mask(comp)
    tests = [
        mask & survivors
        for t, mask in enumerate(design.row_masks)
        if y_sig >> t & 1 and not mask & dd
    ]
    if 0 in tests:
        raise InconsistentOutcomeError(
            "a positive test contains only items cleared by negative tests"
        )
    return survivors if prior.p > 0.5 else dd | _least_completion(tests)
