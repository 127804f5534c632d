"""Decoders for pooled test outcomes: COMP, DD, and exact MAP."""

from __future__ import annotations

import enum
from typing import Iterator

import numpy as np

from .design import TestDesign, _bit_positions, _reindex_masks
from .errors import BudgetExceededError, InconsistentOutcomeError
from .model import DefectiveSet, OutcomeVector, Prior

MAP_ITEM_BUDGET = 30


class DecoderId(enum.Enum):
    COMP = "comp"
    DD = "dd"
    MAP = "map"


def _check_length(design: TestDesign, y: OutcomeVector) -> None:
    if len(y) != design.T:
        raise ValueError(f"outcome vector has {len(y)} bits but the design has {design.T} tests")


def _split_tests(design: TestDesign, y_sig: int) -> tuple[list[int], int]:
    positive = []
    negative_union = 0
    for t, mask in enumerate(design.row_masks):
        if y_sig >> t & 1:
            positive.append(mask)
        else:
            negative_union |= mask
    return positive, negative_union


def comp_mask(design: TestDesign, y_sig: int) -> int:
    """COMP: clear every item seen in a negative test, declare the rest defective."""
    _, negative_union = _split_tests(design, y_sig)
    return ((1 << design.n) - 1) & ~negative_union


def dd_mask(design: TestDesign, y_sig: int) -> int:
    """DD: declare the items that are the sole COMP survivor in some positive test."""
    pd = comp_mask(design, y_sig)
    estimate = 0
    for t, mask in enumerate(design.row_masks):
        if y_sig >> t & 1:
            survivors = mask & pd
            if survivors and survivors & (survivors - 1) == 0:
                estimate |= survivors
    return estimate


def comp_block(design: TestDesign, positive: np.ndarray) -> np.ndarray:
    """COMP on a block of outcomes, one per row of the boolean ``positive`` (s x T).

    Returns the s x n boolean estimates: the items in no negative test.  Row r
    equals `comp_mask` of row r's outcome.
    """
    return (~positive).astype(np.float32) @ design.matrix == 0


def dd_block(design: TestDesign, positive: np.ndarray) -> np.ndarray:
    """DD on a block of outcomes, one per row of the boolean ``positive`` (s x T).

    Returns the s x n boolean estimates: the COMP survivors that are the sole
    survivor of some positive test.  Row r equals `dd_mask` of row r's outcome.
    The survivor count of each test is a float32 sum of at most its weight
    ones, so it is exact, and ``== 1`` is safe, while every test weight is
    below 2^24; the simulator's callers keep n itself at most 2^22.
    """
    X = design.matrix
    survivors = comp_block(design, positive)
    sole = positive & (survivors.astype(np.float32) @ X.T == 1)
    return survivors & (sole.astype(np.float32) @ X > 0)


def _masks_of_weight(width: int, weight: int) -> Iterator[int]:
    # Gosper's hack: same-popcount masks in increasing numeric order.
    if weight == 0:
        yield 0
        return
    v = (1 << weight) - 1
    limit = 1 << width
    while v < limit:
        yield v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


def map_mask(design: TestDesign, y_sig: int, prior: Prior) -> int:
    """Exact MAP: the consistent set of maximal prior weight.

    Consistent sets live inside the COMP survivors and must cover every
    positive test.  For p > 1/2 the survivor set itself is the unique maximal
    answer.  Otherwise candidates are enumerated in increasing size (prior
    weight is nonincreasing in size for p <= 1/2) and, within a size, in
    increasing bitmask order, which realises the tie-break "fewest defectives,
    then smallest bit pattern"; items forced by a positive test with a single
    survivor are fixed up front to shrink the search.
    """
    n = design.n
    if n > MAP_ITEM_BUDGET:
        raise BudgetExceededError(
            f"MAP enumeration over {n} items exceeds the budget of {MAP_ITEM_BUDGET}"
        )
    positive, negative_union = _split_tests(design, y_sig)
    pd = ((1 << n) - 1) & ~negative_union
    for mask in positive:
        if mask & pd == 0:
            raise InconsistentOutcomeError(
                "a positive test contains only items cleared by negative tests"
            )
    if prior.p > 0.5:
        return pd

    forced = 0
    for mask in positive:
        survivors = mask & pd
        if survivors & (survivors - 1) == 0:
            forced |= survivors
    uncovered = (mask & pd & ~forced for mask in positive if mask & forced == 0)
    free_items = _bit_positions(pd & ~forced)
    width = len(free_items)
    compact_tests = _reindex_masks(uncovered, free_items)

    for size in range(width + 1):
        for candidate in _masks_of_weight(width, size):
            if all(candidate & sub for sub in compact_tests):
                estimate = forced
                for j in _bit_positions(candidate):
                    estimate |= 1 << free_items[j]
                return estimate
    raise InconsistentOutcomeError("no defective set reproduces the outcomes")


def decode_mask(design: TestDesign, y_sig: int, decoder: DecoderId, prior: Prior | None = None) -> int:
    """Dispatch on decoder id; MAP requires a prior."""
    if decoder is DecoderId.COMP:
        return comp_mask(design, y_sig)
    if decoder is DecoderId.DD:
        return dd_mask(design, y_sig)
    if prior is None:
        raise ValueError("MAP decoding requires a prior")
    return map_mask(design, y_sig, prior)


def decode(
    design: TestDesign, y: OutcomeVector, decoder: DecoderId, prior: Prior | None = None
) -> DefectiveSet:
    """Decode an outcome vector with the chosen decoder; MAP requires a prior."""
    _check_length(design, y)
    return DefectiveSet(n=design.n, mask=decode_mask(design, y.signature, decoder, prior))
