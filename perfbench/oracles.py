"""Error oracles that share no code with pooltest.

Only a design's row bitmasks are taken from the library.  ``comp_dd_error``
and ``map_error`` enumerate all 2^n defective sets at once with vectorised
bit operations; ``map_error_interval`` does so for the small sets and bounds
what the rest can add; ``comp_dd_rates`` is a vectorised simulation of its own.
"""

from __future__ import annotations

import math

import numpy as np


def _enumerate(row_masks, n: int):
    sets = np.arange(1 << n, dtype=np.int64)
    masks = np.asarray(row_masks, dtype=np.int64).reshape(1, -1)
    positive = (sets[:, None] & masks) != 0
    sizes = np.bitwise_count(sets).astype(np.intp)
    return sets, masks, positive, sizes


def _weighted(error_sizes: np.ndarray, n: int, p: float) -> float:
    counts = np.bincount(error_sizes, minlength=n + 1)
    q = 1.0 - p
    return float(sum(int(c) * (p**j * q ** (n - j)) for j, c in enumerate(counts) if c))


def comp_dd_error(row_masks, n: int, p: float) -> tuple[float, float]:
    """Average error of COMP and of DD under an i.i.d. Bernoulli(p) prior."""
    sets, masks, positive, sizes = _enumerate(row_masks, n)
    cleared = np.bitwise_or.reduce(np.where(positive, 0, masks), axis=1)
    comp = ((1 << n) - 1) & ~cleared
    survivors = comp[:, None] & masks
    sole = positive & (survivors != 0) & ((survivors & (survivors - 1)) == 0)
    dd = np.bitwise_or.reduce(np.where(sole, survivors, 0), axis=1)
    return _weighted(sizes[comp != sets], n, p), _weighted(sizes[dd != sets], n, p)


def map_error(row_masks, n: int, p: float) -> float:
    """Minimal average error: one minus the summed best weight of every outcome fiber."""
    _, _, positive, sizes = _enumerate(row_masks, n)
    signatures = positive @ (np.int64(1) << np.arange(positive.shape[1], dtype=np.int64))
    weights = p**sizes * (1.0 - p) ** (n - sizes)
    fibers, inverse = np.unique(signatures, return_inverse=True)
    best = np.zeros(fibers.size)
    np.maximum.at(best, inverse, weights)
    return 1.0 - float(best.sum())


def _small_sets(n: int, max_size: int) -> np.ndarray:
    """Every subset of n items with at most max_size members, in order of size."""
    levels = [np.zeros(1, dtype=np.int64)]
    tops = [np.full(1, -1)]
    for _ in range(max_size):
        grown, grown_tops = [], []
        for i in range(n):
            base = levels[-1][tops[-1] < i]
            grown.append(base | (np.int64(1) << i))
            grown_tops.append(np.full(base.size, i))
        levels.append(np.concatenate(grown))
        tops.append(np.concatenate(grown_tops))
    return np.concatenate(levels)


def map_error_interval(row_masks, n: int, p: float, max_size: int) -> tuple[float, float]:
    """Interval holding the minimal average error, from the sets of at most max_size items.

    For p <= 1/2 a fiber's heaviest set is its smallest, so every outcome
    produced by some set of at most max_size items gets its exact best
    weight.  The outcomes left out can add at most P(|K| > max_size) to the
    probability of a correct decode.
    """
    if not 0.0 < p <= 0.5:
        raise ValueError("the truncated MAP oracle needs 0 < p <= 1/2")
    sets = _small_sets(n, max_size)
    signatures = np.zeros(sets.size, dtype=np.int64)
    for t, mask in enumerate(row_masks):
        signatures |= ((sets & mask) != 0).astype(np.int64) << t
    _, first = np.unique(signatures, return_index=True)
    sizes = np.bitwise_count(sets[first]).astype(np.intp)
    q = 1.0 - p
    correct = float(np.sum(p**sizes * q ** (n - sizes)))
    left_out = 1.0 - sum(math.comb(n, k) * p**k * q ** (n - k) for k in range(max_size + 1))
    high = 1.0 - correct
    return max(0.0, high - max(left_out, 0.0)), high


def comp_dd_rates(row_masks, n: int, p: float, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo COMP and DD error rates from an independent simulation."""
    X = np.array([[(mask >> i) & 1 for i in range(n)] for mask in row_masks], dtype=np.float32)
    rng = np.random.default_rng(seed)
    comp_errors = dd_errors = 0
    for start in range(0, trials, 4096):
        size = min(4096, trials - start)
        defective = rng.random((size, n)) < p
        positive = defective.astype(np.float32) @ X.T > 0.5
        comp = ~((~positive).astype(np.float32) @ X > 0.5)
        survivors_per_test = comp.astype(np.float32) @ X.T
        sole = positive & (np.abs(survivors_per_test - 1.0) < 0.5)
        dd = comp & (sole.astype(np.float32) @ X > 0.5)
        comp_errors += int(np.count_nonzero((comp != defective).any(axis=1)))
        dd_errors += int(np.count_nonzero((dd != defective).any(axis=1)))
    return comp_errors / trials, dd_errors / trials
