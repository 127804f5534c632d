"""Defectivity prior and bit lanes of trials and subsets.

A block of s trials is held in bit lanes: a k x ceil(s/64) uint64 array whose
row r belongs to one item (or test) and whose bit b of word w is trial
64w + b.  Bits past trial s in the last word are padding, which no count reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

BLOCK_TRIALS = 4096
# Most values one pass over a design may hold: a decoded chunk of trials, or in
# MAP's completion pass in `sim` a chunk of outcomes' deepest level or of rows
# tested against every item; a gather of the items' own tests, a block of
# co-set unions or of walked patterns in `disguise`.
CHUNK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class Prior:
    """Independent per-item defectivity probability ``p``, with ``q = 1 - p``."""

    p: float
    q: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0 or 1.0 - self.p == 1.0:  # q rounds to 1 for p below ~5.6e-17
            raise ValueError(f"defectivity probability must lie in (0, 1) with q < 1, got {self.p}")
        object.__setattr__(self, "q", 1.0 - self.p)

    def weight(self, defectives: int, n: int) -> float:
        """Prior probability of one particular defective set of the given size."""
        return self.p**defectives * self.q ** (n - defectives)

    def probability(self, counts: np.ndarray, m: np.ndarray | int) -> np.ndarray:
        """Prior probability of each row's event: the row counts[r] (r any index
        of counts' leading axes, or none for one row) holds on counts[r][j] sets
        of j of its m[r] items, so its probability is the sum over j of
        counts[r][j] p^j q^(m[r]-j).  Columns past m[r] weigh 0.

        One pass for any number of rows: `np.add.accumulate` (`np.cumsum`) adds
        each row's terms as floats from j = 0 up, as a plain loop (and the
        built-in `sum` up to Python 3.11) adds them, never pairwise as `np.sum`
        does; a zero count adds 0.0, which changes no sum.
        """
        weights = _weights(self, counts.shape[-1]).take(m, axis=0)
        return np.add.accumulate(counts * weights, axis=-1)[..., -1]


@functools.lru_cache(maxsize=128)
def _weights(prior: Prior, width: int) -> np.ndarray:
    """Row m holds `Prior.weight` of each set size j = 0 .. m of m items, and 0
    past m, for m below ``width``; read-only."""
    table = np.zeros((width, width))
    for m in range(width):
        table[m, :m + 1] = [prior.weight(j, m) for j in range(m + 1)]
    table.flags.writeable = False
    return table


@functools.cache
def _block_patterns() -> np.ndarray:
    """Rows 0 .. log2(`BLOCK_TRIALS`) - 1 of the lanes of the subsets
    0 .. `BLOCK_TRIALS` - 1: bit b of word w of row i is bit i of 64w + b.

    Built on first use, from uint16 trial indices: built at import, it raised
    the peak RSS of every process, whether it walks subsets or not, by 0.3 to
    0.8 MB, and from int64 indices, that of an exact run by 0.5 MB.
    """
    trials = np.arange(BLOCK_TRIALS, dtype=np.uint16)
    rows = trials >> np.arange(BLOCK_TRIALS.bit_length() - 1, dtype=np.uint16)[:, None] & 1
    table = np.packbits(rows, axis=1, bitorder="little").view("<u8")
    table.flags.writeable = False
    return table


def subset_lanes(m: int, start: int) -> np.ndarray:
    """The bit lanes (m x W) of the block of at most `BLOCK_TRIALS` subsets
    of m items, as bitmasks, from ``start`` on: row i holds item i in each.

    Nothing is packed.  As a block starts at a multiple of `BLOCK_TRIALS`, a
    power of two, its rows below log2(`BLOCK_TRIALS`) are the same in every
    block (`_block_patterns`), and each higher row i is all ones or all
    zeros, as bit i of ``start``.  A block of under 64 subsets (m < 6) keeps
    its padding bits 0.
    """
    if not 0 <= m <= 32:
        raise ValueError(f"cannot walk the subsets of {m} items in lanes of at most 32 rows")
    if start % BLOCK_TRIALS or not 0 <= start < 1 << m:
        raise ValueError(f"no block of the subsets of {m} items starts at {start}")
    s = min(BLOCK_TRIALS, (1 << m) - start)
    patterns = _block_patterns()
    low = min(m, len(patterns))
    lanes = np.empty((m, -(-s // 64)), dtype=np.uint64)
    lanes[:low] = patterns[:low, :lanes.shape[1]]
    if s < 64:
        lanes &= np.uint64((1 << s) - 1)
    high = np.array([start >> i & 1 for i in range(low, m)], dtype=np.uint64)
    lanes[low:] = (np.uint64(0) - high)[:, None]
    return lanes


def to_lanes(rows: np.ndarray) -> np.ndarray:
    """The bit lanes of a boolean block of trials, one trial per row of ``rows`` (s x k).

    Row r of the k x ceil(s/64) result holds column r; its padding bits are 0.
    """
    s, k = rows.shape
    bits = np.zeros((k, -(-s // 64) * 64), dtype=bool)
    bits[:, :s] = rows.T
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def from_lanes(lanes: np.ndarray, s: int) -> np.ndarray:
    """The s x k boolean block of the first s trials held in ``lanes`` (k x W); inverts `to_lanes`."""
    bits = np.unpackbits(lanes.view(np.uint8), axis=1, count=s, bitorder="little")
    return np.ascontiguousarray(bits.view(bool).T)


def lane_columns(lanes: np.ndarray, table: np.ndarray, fill) -> Iterator[np.ndarray]:
    """Yield, for each column of the padded index ``table``, the rows of ``lanes`` it lists.

    The padding index len(lanes) reads a row of ``fill`` words.
    """
    padded = np.empty((len(lanes) + 1, lanes.shape[1]), dtype=lanes.dtype)
    padded[:-1] = lanes
    padded[-1] = fill
    for column in table.T:
        yield padded.take(column, axis=0)


def fold_lanes(lanes: np.ndarray, table: np.ndarray, op: np.ufunc) -> np.ndarray:
    """Row r folds by ``op`` (``np.bitwise_or``, ``np.bitwise_and`` or ``np.add``)
    the rows of ``lanes`` listed in row r of the padded index ``table``, which
    has at least one column; a row of padding alone gives op's identity (all
    zeros for OR and add, all ones for AND).  ``lanes`` may also hold one
    boolean or integer column per trial."""
    columns = lane_columns(lanes, table, np.array(op.identity).astype(lanes.dtype))
    out = next(columns)
    for rows in columns:
        op(out, rows, out=out)
    return out
