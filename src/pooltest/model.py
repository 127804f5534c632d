"""Defectivity prior, defective sets, the OR test channel, and subset counting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .design import TestDesign, _bit_positions, _mask_from_indices, _pack_row

BLOCK_TRIALS = 4096


@dataclass(frozen=True)
class Prior:
    """Independent per-item defectivity probability ``p``, with ``q = 1 - p``."""

    p: float
    q: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"defectivity probability must lie strictly in (0, 1), got {self.p}")
        object.__setattr__(self, "q", 1.0 - self.p)

    def weight(self, defectives: int, n: int) -> float:
        """Prior probability of one particular defective set of the given size."""
        return self.p**defectives * self.q ** (n - defectives)

    def probability(self, counts: Sequence[int]) -> float:
        """Prior probability of an event over m = len(counts) - 1 items that holds
        on counts[j] sets of size j: the sum of counts[j] p^j q^(m-j)."""
        m = len(counts) - 1
        return float(sum(c * self.weight(j, m) for j, c in enumerate(counts) if c))


@dataclass(frozen=True)
class DefectiveSet:
    """A subset of the n items, stored as a bitmask (bit ``i`` <-> item ``i``)."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"universe size must be nonnegative, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError("defective-set mask has bits outside the universe")

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> DefectiveSet:
        return cls(n=n, mask=_mask_from_indices(indices, n))

    @classmethod
    def empty(cls, n: int) -> DefectiveSet:
        return cls(n=n, mask=0)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(_bit_positions(self.mask))

    @property
    def indices(self) -> tuple[int, ...]:
        return _bit_positions(self.mask)

    def __contains__(self, item: int) -> bool:
        return 0 <= item < self.n and bool(self.mask >> item & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class OutcomeVector:
    """The T test results, in test order."""

    bits: tuple[bool, ...]

    @classmethod
    def from_string(cls, text: str) -> OutcomeVector:
        if set(text) - {"0", "1"}:
            raise ValueError(f"outcome string must contain only 0/1, got {text!r}")
        return cls(tuple(c == "1" for c in text))

    @classmethod
    def from_signature(cls, signature: int, T: int) -> OutcomeVector:
        return cls(tuple(bool(signature >> t & 1) for t in range(T)))

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    @property
    def signature(self) -> int:
        sig = 0
        for t, b in enumerate(self.bits):
            if b:
                sig |= 1 << t
        return sig

    def __len__(self) -> int:
        return len(self.bits)


def sample_defective_set(n: int, prior: Prior, seed: int) -> DefectiveSet:
    """Draw each item defective independently with probability p, seeded."""
    if n < 1:
        raise ValueError("universe must contain at least one item")
    rng = np.random.default_rng(seed)
    return DefectiveSet(n=n, mask=_pack_row(rng.random(n) < prior.p))


def outcomes(design: TestDesign, defectives: DefectiveSet) -> OutcomeVector:
    """Test t is positive iff it contains at least one defective item."""
    if defectives.n != design.n:
        raise ValueError(
            f"defective set is over {defectives.n} items but the design has {design.n}"
        )
    k = defectives.mask
    return OutcomeVector(tuple(bool(m & k) for m in design.row_masks))


def subset_blocks(m: int) -> Iterator[np.ndarray]:
    """Yield the 2^m subsets of m items in increasing order, as uint32 bitmasks
    (bit ``i`` <-> item ``i``), in blocks of `BLOCK_TRIALS`."""
    if not 0 <= m <= 32:
        raise ValueError(f"cannot enumerate the subsets of {m} items as uint32 bitmasks")
    for start in range(0, 1 << m, BLOCK_TRIALS):
        yield np.arange(start, min(start + BLOCK_TRIALS, 1 << m), dtype="<u4")


def count_by_size(m: int, event: Callable[[np.ndarray], np.ndarray]) -> tuple[int, ...]:
    """Count, by size j, the subsets of m items on which ``event`` holds.

    The subsets are walked by `subset_blocks`; ``event`` maps a block of
    bitmasks to one boolean per bitmask.
    """
    counts = np.zeros(m + 1, dtype=np.int64)
    for ks in subset_blocks(m):
        counts += np.bincount(np.bitwise_count(ks[event(ks)]), minlength=m + 1)
    return tuple(int(c) for c in counts)
