"""Construction, reduction, and text serialization of nonadaptive test designs."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import BudgetExceededError, DesignFormatError, DesignGenerationError

STUB_RETRY_BUDGET = 1000
# Largest design accepted: items, and entries T * n.  Each of the two cached
# incidence tables holds at most one 4-byte entry per T * n entry, so at most
# 32 MB together at the budget.
DESIGN_ITEM_BUDGET = 1 << 16
DESIGN_ENTRY_BUDGET = 1 << 22
# Most characters of design text read at once: a row of the largest design
# plus room for surrounding whitespace and its line ending.
LINE_CHAR_BUDGET = DESIGN_ITEM_BUDGET + 64


def _check_size(T: int, n: int) -> None:
    """Raise `BudgetExceededError` when a T x n design is over the size budget."""
    if n > DESIGN_ITEM_BUDGET or T * n > DESIGN_ENTRY_BUDGET:
        raise BudgetExceededError(
            f"a design of {T} tests x {n} items is over the size budget of "
            f"{DESIGN_ITEM_BUDGET} items and {DESIGN_ENTRY_BUDGET} entries T*n"
        )


class Incidence(NamedTuple):
    """A design's incidence lists as read-only padded int32 tables.

    Row t of ``test_items`` lists the items of test t in increasing order,
    padded with n to the largest test weight; row i of ``item_tests`` lists
    the tests holding item i in increasing order, padded with T to the most
    tests any item is in.  Each table has at least one column.
    """

    test_items: np.ndarray
    item_tests: np.ndarray


@dataclass(frozen=True)
class TestDesign:
    """A T x n binary inclusion matrix.

    Rows are stored as integer bitmasks (bit ``i`` set means item ``i`` is in
    the test), with per-test weights cached at construction and the incidence
    lists built on first use.  Instances are immutable and hashable, so they
    can be used as cache keys.  A design over the size budget
    (`DESIGN_ITEM_BUDGET`, `DESIGN_ENTRY_BUDGET`) raises `BudgetExceededError`.
    """

    __test__ = False  # keep pytest from collecting the Test* name

    n: int
    row_masks: tuple[int, ...]
    weights: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"item count must be nonnegative, got {self.n}")
        masks = tuple(int(m) for m in self.row_masks)
        _check_size(len(masks), self.n)
        full = (1 << self.n) - 1
        for t, m in enumerate(masks):
            if not 0 <= m <= full:
                raise ValueError(f"test {t} references items outside [0, {self.n})")
        object.__setattr__(self, "row_masks", masks)
        object.__setattr__(self, "weights", tuple(m.bit_count() for m in masks))

    @property
    def T(self) -> int:
        return len(self.row_masks)

    @cached_property
    def incidence(self) -> Incidence:
        """The incidence lists of each test and each item (see `Incidence`).

        Not a dataclass field, so equality, hashing, ``repr`` and serialization
        ignore it.
        """
        nbytes = (self.n + 7) // 8
        packed = np.frombuffer(
            b"".join(m.to_bytes(nbytes, "little") for m in self.row_masks), dtype=np.uint8
        ).reshape(self.T, nbytes)
        member = np.unpackbits(packed, axis=1, count=self.n, bitorder="little").view(bool)
        return Incidence(_padded_lists(member, self.n), _padded_lists(member.T, self.T))


def _padded_lists(member: np.ndarray, pad: int) -> np.ndarray:
    """Row r lists, in increasing order, the columns set in row r of the boolean
    ``member``, padded with ``pad`` to the longest list and to at least one
    entry; the table is read-only."""
    counts = np.count_nonzero(member, axis=1)
    table = np.full((len(member), max(counts.max(initial=0), 1)), pad, dtype=np.int32)
    columns = np.broadcast_to(np.arange(member.shape[1], dtype=np.int32), member.shape)
    # The first counts[r] slots of each row, filled in row-major order, take
    # the set columns of that row in increasing order.
    table[np.arange(table.shape[1]) < counts[:, None]] = columns[member]
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class ReductionLog:
    """Record of what `reduce_design` removed, sufficient to map results back.

    ``item_map[j]`` / ``test_map[t]`` give the original index of reduced item
    ``j`` / reduced test ``t``.  ``resolved_items`` lists ``(item, test)``
    pairs in removal order; each test had weight exactly 1 when removed.
    """

    removed_empty_tests: tuple[int, ...]
    resolved_items: tuple[tuple[int, int], ...]
    item_map: tuple[int, ...]
    test_map: tuple[int, ...]


def _bit_positions(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _reindex_masks(masks: Iterable[int], items: Sequence[int]) -> list[int]:
    """Re-pack each mask onto ``items``: bit j of the result is bit ``items[j]``.

    Every set bit of every mask must be one of ``items``.
    """
    positions = {item: j for j, item in enumerate(items)}
    out = []
    for mask in masks:
        sub = 0
        for item in _bit_positions(mask):
            sub |= 1 << positions[item]
        out.append(sub)
    return out


def _items_mask(indices: Iterable[int], n: int) -> int:
    mask = 0
    for i in indices:
        i = int(i)
        if not 0 <= i < n:
            raise ValueError(f"item index {i} outside [0, {n})")
        mask |= 1 << i
    return mask


def new_design(rows: Iterable[Iterable[int]], n: int) -> TestDesign:
    """Build a design from an iterable of item-index collections."""
    if n < 1:
        raise ValueError("a design needs at least one item")
    _check_size(0, n)
    masks = tuple(_items_mask(row, n) for row in rows)
    return TestDesign(n=n, row_masks=masks)


def gen_individual(n: int) -> TestDesign:
    """The identity design: test t contains exactly item t."""
    if n < 1:
        raise ValueError("a design needs at least one item")
    _check_size(n, n)
    return TestDesign(n=n, row_masks=tuple(1 << i for i in range(n)))


def gen_bernoulli(n: int, T: int, nu: float, seed: int) -> TestDesign:
    """Each entry set independently with probability ``nu``, seeded."""
    if n < 1:
        raise ValueError("a design needs at least one item")
    if T < 0:
        raise ValueError("test count must be nonnegative")
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"inclusion probability must lie in [0, 1], got {nu}")
    _check_size(T, n)
    rng = np.random.default_rng(seed)
    entries = rng.random((T, n)) < nu
    return TestDesign(n=n, row_masks=tuple(_pack_row(row) for row in entries))


def gen_doubly_regular(n: int, l: int, r: int, seed: int) -> TestDesign:
    """Sample a design with every column weight l and every row weight r.

    Uses configuration-model stub matching: the n*l item stubs are matched to
    the T*r test slots by one seeded permutation, and the whole matching is
    rejected and resampled whenever an item lands twice in the same test.
    """
    if n < 1:
        raise ValueError("a design needs at least one item")
    if l < 1 or r < 1:
        raise ValueError("tests-per-item and items-per-test must be at least 1")
    if r > n:
        raise ValueError(f"a test of {r} distinct items needs at least {r} items")
    if (n * l) % r != 0:
        raise ValueError(f"n*l = {n * l} is not divisible by items-per-test r = {r}")
    T = n * l // r
    _check_size(T, n)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), l)
    for _ in range(STUB_RETRY_BUDGET):
        matched = rng.permutation(stubs).reshape(T, r)
        srt = np.sort(matched, axis=1)
        if r == 1 or bool((srt[:, 1:] != srt[:, :-1]).all()):
            masks = tuple(_items_mask(row, n) for row in matched)
            return TestDesign(n=n, row_masks=masks)
    raise DesignGenerationError(
        f"no collision-free stub matching found in {STUB_RETRY_BUDGET} attempts"
    )


def _pack_row(row: np.ndarray) -> int:
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def reduce_design(design: TestDesign) -> tuple[TestDesign, ReductionLog]:
    """Strip weight-0 tests and resolve weight-1 tests until all weights >= 2.

    Weight-0 tests are dropped outright.  While any weight-1 test remains, the
    lowest-indexed one is removed together with the single item it tests, and
    weights are re-checked (removals can create new weight-0/1 tests).  The
    returned log carries the original indices of everything removed plus the
    reduced-to-original index maps.
    """
    tests: list[tuple[int, int]] = list(enumerate(design.row_masks))
    removed_empty: list[int] = []
    resolved: list[tuple[int, int]] = []
    alive = [True] * design.n
    while True:
        kept = []
        for orig_t, mask in tests:
            if mask == 0:
                removed_empty.append(orig_t)
            else:
                kept.append((orig_t, mask))
        tests = kept
        hit = next((k for k, (_, m) in enumerate(tests) if m.bit_count() == 1), None)
        if hit is None:
            break
        orig_t, mask = tests.pop(hit)
        item = mask.bit_length() - 1
        resolved.append((item, orig_t))
        alive[item] = False
        clear = ~mask
        tests = [(o, m & clear) for o, m in tests]

    item_map = tuple(i for i in range(design.n) if alive[i])
    reduced_masks = _reindex_masks((mask for _, mask in tests), item_map)
    reduced = TestDesign(n=len(item_map), row_masks=tuple(reduced_masks))
    log = ReductionLog(
        removed_empty_tests=tuple(removed_empty),
        resolved_items=tuple(resolved),
        item_map=item_map,
        test_map=tuple(orig_t for orig_t, _ in tests),
    )
    return reduced, log


def format_design(design: TestDesign) -> str:
    """Render the text format: a `T n` header then one 0/1 row per test."""
    lines = [f"{design.T} {design.n}"]
    for mask in design.row_masks:
        # bit i is character i, so the row is the mask's binary form reversed
        lines.append(format(mask, f"0{design.n}b")[::-1])
    return "\n".join(lines) + "\n"


def _content_lines(stream: TextIO) -> Iterator[str]:
    """Yield the stripped lines of ``stream`` that are neither blank nor ``#`` comments.

    At most `LINE_CHAR_BUDGET` characters are read at once: a longer comment
    line is skipped piece by piece, and a longer line of any other kind
    raises `DesignFormatError`.
    """
    while piece := stream.readline(LINE_CHAR_BUDGET):
        line = piece.strip()
        if line.startswith("#"):
            while len(piece) == LINE_CHAR_BUDGET and not piece.endswith("\n"):
                piece = stream.readline(LINE_CHAR_BUDGET)
        elif len(piece) == LINE_CHAR_BUDGET and not piece.endswith("\n"):
            raise DesignFormatError(f"a line is longer than {LINE_CHAR_BUDGET} characters")
        elif line:
            yield line


def parse_design(source: str | TextIO) -> TestDesign:
    """Parse the text format from a string or a text stream; lines starting with ``#`` are ignored.

    A stream is read line by line: the header is checked against the size
    budget before any row is read, and the first bad row raises at once.
    """
    lines = _content_lines(io.StringIO(source) if isinstance(source, str) else source)
    header = next(lines, None)
    if header is None:
        raise DesignFormatError("missing `T n` header line")
    head = header.split()
    if len(head) != 2:
        raise DesignFormatError(f"header must be two integers `T n`, got {header!r}")
    try:
        T, n = int(head[0]), int(head[1])
    except ValueError as exc:
        raise DesignFormatError(f"header must be two integers `T n`, got {header!r}") from exc
    if T < 0 or n < 0 or (T and not n):
        raise DesignFormatError(f"need T, n >= 0 and n >= 1 when T >= 1, got T={T} n={n}")
    _check_size(T, n)
    masks = []
    for row in lines:
        if len(masks) == T:
            raise DesignFormatError(f"expected {T} test rows, found more")
        if len(row) != n or set(row) - {"0", "1"}:
            raise DesignFormatError(f"test row {len(masks)} must be exactly {n} characters of 0/1")
        masks.append(int(row[::-1], 2))
    if len(masks) != T:
        raise DesignFormatError(f"expected {T} test rows, found {len(masks)}")
    return TestDesign(n=n, row_masks=tuple(masks))


def load_design(path: str) -> TestDesign:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_design(fh)


def save_design(design: TestDesign, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_design(design))
