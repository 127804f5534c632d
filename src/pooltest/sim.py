"""Exact and Monte Carlo average error, plus floor verification on concrete designs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, disguise
from .decode import (
    MAP_ITEM_BUDGET, DecoderId, _check_map_budget, comp_block, dd_block, decode_mask,
)
from .design import TestDesign
from .errors import BudgetExceededError
from .model import (
    BLOCK_TRIALS, CHUNK_ELEMENTS, Prior, fold_lanes, from_lanes, subset_lanes, to_lanes,
)

_Z95 = 1.959963984540054
EXACT_ITEM_BUDGET = {DecoderId.COMP: 20, DecoderId.DD: 20, DecoderId.MAP: 14}
FLOOR_TOLERANCE = 1e-12
# Lane words one piece of the draw covers.  A piece takes its random words in
# order, digit by digit, so this fixes the stream; it bounds the draw's
# temporaries at 512 KiB each, whatever the design size.
DRAW_WORDS = 1 << 16
# Most items MAP's block decoder adds to DD's set in numpy (`_small_completions`);
# an outcome that needs more goes to `decode_mask`'s search.  Over 64 mc_map
# jobs (16 doubly regular 30/2/3 designs, p = 0.05, 16,384 trials) depths 2, 3,
# 4, 5 and 8 left 9,031, 2,089, 422, 70 and 0 searches, and 160 paired jobs on a
# 2-vCPU host took 0.80, 0.74, 0.72 and 0.78 of depth 2's median time at depths
# 3, 4, 5 and 8.  Depth 4 leaves a few searches a job for perfbench's tracer,
# which counts them at `decode_mask`.
COMPLETION_ITEMS = 4


@dataclass(frozen=True)
class SimResult:
    """Outcome of a seeded Monte Carlo error run.

    ``errors`` counts the decoder's mistakes; the interval is Wilson 95%.
    """

    trials: int
    errors: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int
    decoder: DecoderId


@dataclass(frozen=True)
class LemmaCheck:
    """One item's exact disguise probability against its product bound."""

    item: int
    exact: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Floor check for one design and prior.

    ``theorem_pass`` is None when the floor does not apply (T >= n); otherwise
    it records observed_error >= epsilon_floor (within tolerance), where the
    observed error is exact when feasible and a Monte Carlo lower confidence
    bound otherwise.
    """

    design_summary: str
    p: float
    epsilon_floor: float
    observed_error: float
    method: str
    applicable: bool
    theorem_pass: bool | None
    lemma_checks: tuple[LemmaCheck, ...]
    lemma_skipped: tuple[int, ...]


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval; exactly [0, ...] at zero hits."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= hits <= trials:
        raise ValueError("hits must lie in [0, trials]")
    phat = hits / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    low = max(0.0, min(center - half, phat))
    high = min(1.0, max(center + half, phat))
    return low, high


def _check_run(trials: int, seed: int, workers: int = 1) -> None:
    if trials < 1:
        raise ValueError("trials must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def _sim_result(hits: int, trials: int, seed: int, decoder: DecoderId) -> SimResult:
    low, high = wilson_interval(hits, trials)
    return SimResult(trials, hits, hits / trials, low, high, seed, decoder)


def _or_channel(design: TestDesign, sets: np.ndarray) -> np.ndarray:
    """The outcome lanes (T x W) of a block of defective sets in lanes (n x W):
    each test ORs the lanes of its items."""
    return fold_lanes(sets, design.incidence.test_items, np.bitwise_or)


def _differs(a: np.ndarray, b: np.ndarray, s: int) -> np.ndarray:
    """One flag for each of the s trials in two blocks of lanes: whether any row differs."""
    return from_lanes(np.bitwise_or.reduce(a ^ b, axis=0, keepdims=True), s)[:, 0]


def _gather(lanes: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """The bits of the given trials in ``lanes`` (k x W), as a boolean k x len(trials) array.

    Each bit is read from the lanes' bytes, by byte and bit index, so the
    gather holds one byte per row and trial.
    """
    return (lanes.view(np.uint8)[:, trials >> 3] >> (trials & 7).astype(np.uint8) & 1).view(bool)


def _write_back(lanes: np.ndarray, trials: np.ndarray, masks: np.ndarray) -> None:
    """OR into ``lanes`` (n x W), in place, bit i of ``masks[j]`` at trial ``trials[j]``.

    ``trials`` ascend and ``masks`` are uint64, so one ``reduceat`` ORs
    together the bits of the trials in each lane word; no other bit changes.
    """
    word = trials >> 6
    starts = np.flatnonzero(np.diff(word, prepend=-1))
    bits = masks[:, None] >> np.arange(len(lanes), dtype=np.uint64)
    bits &= np.uint64(1)
    bits <<= (trials & 63).astype(np.uint64)[:, None]
    lanes[:, word[starts]] |= np.bitwise_or.reduceat(bits, starts, axis=0).T


def _small_completions(
    design: TestDesign, item_words: np.ndarray, uncovered: np.ndarray, survivor: np.ndarray
) -> np.ndarray:
    """For each of m outcomes, the mask of the completion of at most `COMPLETION_ITEMS` items
    `decode_mask`'s MAP adds to DD's set, or 0.

    ``uncovered`` (T x m) marks each outcome's positive tests that hold no item
    of DD's estimate, at least one per outcome, and ``survivor`` (n x m) its
    COMP survivors; ``item_words`` holds each item's tests as packed words
    (n x ceil(T/64)).  A completion is a set of survivors that meets every
    uncovered test.  The pass deepens one item a level: a row is an outcome
    and the items chosen so far, and it fits when some survivor lies in every
    uncovered test those items miss; its candidate adds the lowest such
    survivor.  An outcome is settled at the first level where a row fits,
    with its least candidate; otherwise each row branches on the survivors
    of the first test it misses.  That candidate is the completion of least
    (size, bitmask), which `decode_mask` adds: a smallest completion C has an
    item x1 in the first uncovered test, x2 in the first test x1 misses, and
    so on, and the row of those items takes a last item no higher than C's.
    An outcome holds at most w^(j-1) rows at level j, w being the most items
    of a test, so outcomes go in chunks that keep their last level within
    `CHUNK_ELEMENTS` values, and each level tests its rows in chunks that do
    the same for their test against every item.
    """
    n = design.n
    test_items = design.incidence.test_items
    words = to_lanes(uncovered)  # m x ceil(T/64): each outcome's uncovered tests
    m, W = words.shape
    live = np.zeros((m, n + 1), dtype=bool)  # the padding item n is never a survivor
    live[:, :n] = survivor.T
    missing = ~item_words
    bit = np.uint64(1) << np.arange(n, dtype=np.uint64)
    none = ~np.uint64(0)
    found = np.full(m, none)
    depth = COMPLETION_ITEMS - 1
    step = max(1, CHUNK_ELEMENTS // (depth * test_items.shape[1] ** depth))
    fit_rows = max(1, CHUNK_ELEMENTS // ((n + 1) * W))
    for start in range(0, m, step):
        owner = np.arange(start, min(start + step, m))
        chosen = np.empty((len(owner), 0), dtype=test_items.dtype)
        for size in range(1, COMPLETION_ITEMS + 1):
            fit = np.empty(len(owner), dtype=np.intp)  # the lowest fitting survivor, n if none
            first = np.empty(len(owner), dtype=np.intp)  # the first uncovered test the row misses
            for r in range(0, len(owner), fit_rows):
                rows = slice(r, r + fit_rows)
                rest = words[owner[rows]]
                for items in chosen[rows].T:
                    rest &= missing[items]
                fits = live.take(owner[rows], axis=0)
                fits[:, :n] &= ~np.any(rest[:, None, :] & missing, axis=2)
                fits[:, n] = True  # so a row that no survivor fits takes n
                fit[rows] = fits.argmax(axis=1)
                lead = (rest != 0).argmax(axis=1)
                word = rest[np.arange(len(rest)), lead]
                first[rows] = 64 * lead + np.bitwise_count(word ^ (word - np.uint64(1))) - 1
            hit = fit < n
            masks = bit[fit[hit]]
            for items in chosen[hit].T:
                masks |= bit[items]
            np.minimum.at(found, owner[hit], masks)  # one size a level: least bitmask
            if size == COMPLETION_ITEMS:
                break
            keep = found[owner] == none
            owner, chosen, first = owner[keep], chosen[keep], first[keep]
            if not len(owner):
                break
            branches = test_items[first]
            row, column = np.nonzero(live[owner[:, None], branches])
            owner = owner[row]
            chosen = np.column_stack([chosen[row], branches[row, column]])
    return np.where(found == none, np.uint64(0), found)


def _map_block(design: TestDesign, prior: Prior):
    """Return ``decode_block(positive, s)``: MAP for p <= 1/2 on s outcomes in lanes (T x W).

    Like `dd_block`, it returns the estimates' lanes (n x W), and it starts
    from DD's: a trial whose estimate reproduces its outcome keeps it, since
    `decode_mask` returns that set there (DD's set is its forced set and leaves
    no positive test to cover).  So does a trial whose COMP survivors do not
    reproduce its outcome: no set produces that outcome, and DD's estimate,
    like any set, does not reproduce it.  Only the other trials are gathered
    from the lanes, by byte and bit index (`_gather`), and each of their
    distinct outcomes is decoded once across all calls, through one cache
    keyed by the packed outcome.  An outcome new to the cache that at most
    `COMPLETION_ITEMS` items complete caches the completion `decode_mask` would
    add to DD's set (`_small_completions`); the rest cache `decode_mask`'s
    estimate.  MAP's estimate holds DD's set, its forced items, so either,
    ORed into the DD lanes in place, gives it (`_write_back`).
    """
    n, T = design.n, design.T
    member = np.zeros((T, n + 1), dtype=bool)
    member[np.arange(T)[:, None], design.incidence.test_items] = True
    item_words = to_lanes(member[:, :n])  # each item's tests as packed words
    cache: dict[bytes, int] = {}

    def decode_block(positive: np.ndarray, s: int) -> np.ndarray:
        survivors = comp_block(design, positive)
        estimates = dd_block(design, positive, survivors)
        images = _or_channel(design, estimates)
        flagged = np.flatnonzero(_differs(images, positive, s))
        if len(flagged):
            produced = ~_differs(_or_channel(design, survivors), positive, s)
            flagged = flagged[produced[flagged]]
        if not len(flagged):
            return estimates
        outcomes = _gather(positive, flagged)
        words = to_lanes(outcomes)  # each trial's outcome as packed words over the T tests
        rows = words.view(np.dtype((np.void, words.shape[1] * 8))).ravel()
        keys, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        keys = keys.tolist()
        new = [k for k, key in enumerate(keys) if key not in cache]
        if new:
            pick = flagged[first[new]]
            uncovered = outcomes[:, first[new]] & ~_gather(images, pick)
            found = _small_completions(design, item_words, uncovered, _gather(survivors, pick))
            for k, mask in zip(new, found.tolist()):
                sig = int.from_bytes(keys[k], "little")
                cache[keys[k]] = mask or decode_mask(design, sig, DecoderId.MAP, prior)
        masks = np.array([cache[key] for key in keys], dtype=np.uint64)
        _write_back(estimates, flagged, masks[inverse])
        return estimates

    return decode_block


def _block_decoder(design: TestDesign, prior: Prior, decoder: DecoderId):
    """Return ``decode_block(positive, s)``: the decoder on s outcomes in lanes, T x W to n x W.

    Any outcome may be given; on one that no set produces, the estimate's
    channel image differs from it, as no set reproduces it.  COMP and DD
    decode by word operations over the incidence lists (`comp_block`,
    `dd_block`).  MAP checks its item budget at once; for p > 1/2 it decodes
    as COMP, since `decode_mask` returns the COMP survivors of every outcome some
    set produces, and for p <= 1/2 through its outcome cache (`_map_block`).
    """
    if decoder is DecoderId.MAP:
        _check_map_budget(design.n)
        if prior.p <= 0.5:
            return _map_block(design, prior)
        decoder = DecoderId.COMP
    block = comp_block if decoder is DecoderId.COMP else dd_block
    return lambda positive, s: block(design, positive)


def _misses(design: TestDesign, decode_block, sets: np.ndarray, s: int) -> np.ndarray:
    """One flag for each of the s defective sets in lanes (n x W): whether
    ``decode_block`` does not return the set from its outcome."""
    return _differs(decode_block(_or_channel(design, sets), s), sets, s)


def _success_counts(design: TestDesign, prior: Prior, decoder: DecoderId) -> list[int]:
    """Count, by size, the defective sets the decoder gets right, in one walk of 2^m blocks.

    With m = T < n the walk is over the outcomes: each block of them is built
    in lanes (`subset_lanes`) and decoded whole, and an estimate is right
    where the channel maps it back to its outcome.  A set K is decoded right
    exactly when it is the estimate of some outcome y that it reproduces, so
    each outcome adds at most one set, and one that no set produces adds
    none.  Otherwise m = n and the walk is over the sets, each right where
    the decoder returns it from its outcome (`_misses`).  Each right set's
    size is the sum over the items of its bits, unpacked along the trial axis.
    """
    n, T = design.n, design.T
    m = min(n, T)
    decode_block = _block_decoder(design, prior, decoder)
    success = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, 1 << m, BLOCK_TRIALS):
        s = min(BLOCK_TRIALS, (1 << m) - start)
        lanes = subset_lanes(m, start)
        if T < n:
            sets = decode_block(lanes, s)
            right = ~_differs(_or_channel(design, sets), lanes, s)
        else:
            sets = lanes
            right = ~_misses(design, decode_block, sets, s)
        bits = np.unpackbits(sets.view(np.uint8), axis=1, count=s, bitorder="little")
        sizes = bits.sum(axis=0, dtype=np.uint8)  # n is within EXACT_ITEM_BUDGET, far below 256
        success += np.bincount(sizes[right], minlength=n + 1)
    return success.tolist()


def exact_average_error(design: TestDesign, prior: Prior, decoder: DecoderId) -> float:
    """Exact prior-weighted error probability, from integer error counts by set size.

    One walk (`_success_counts`) counts the successes by size, over the 2^T
    outcomes when T < n and over the 2^n sets otherwise; the errors of size j
    are the C(n, j) sets of that size less the successes.
    """
    budget = EXACT_ITEM_BUDGET[decoder]
    if design.n > budget:
        raise BudgetExceededError(
            f"exact error with {decoder.value} is limited to {budget} items; n = {design.n}"
        )
    success = _success_counts(design, prior, decoder)
    errors = [math.comb(design.n, j) - s for j, s in enumerate(success)]
    return float(prior.probability(np.array(errors), design.n))


def _draw_lanes(bitgen: np.random.BitGenerator, p: float, n: int, s: int) -> np.ndarray:
    """s defective sets over n items in lanes (n x W), each bit 1 with probability p.

    Every bit compares its own uniform U with p, digit by digit along p's
    binary expansion from the first: a lane word takes one raw word of
    ``bitgen`` per digit while it has undecided bits.  Where the digit of p is
    1, an undecided bit whose random bit is 0 has U < p and is defective; where
    it is 0, one whose random bit is 1 has U > p and is clean.  Bits still
    undecided after p's last 1-digit have U >= p and are clean, so each bit is
    exactly Bernoulli(p) for the double p, and about 7 raw words are drawn per
    lane word at any p.  Padding bits past trial s start decided, so they stay
    0.  The n x W words, in row order, are drawn in pieces of `DRAW_WORDS`;
    within a piece, each digit takes its raw words in word order.
    """
    numerator, denominator = p.as_integer_ratio()
    digits = [numerator >> k & 1 for k in reversed(range(denominator.bit_length() - 1))]
    W = -(-s // 64)
    lanes = np.zeros(n * W, dtype=np.uint64)
    last = np.uint64((1 << (s - 64 * (W - 1))) - 1)  # the trials of each row's last word
    for start in range(0, n * W, DRAW_WORDS):
        piece = lanes[start:start + DRAW_WORDS]
        undecided = np.full(len(piece), ~np.uint64(0))
        undecided[(W - 1 - start) % W::W] = last
        live = slice(None)  # the piece's words with undecided bits, in order
        for digit in digits:
            bits = bitgen.random_raw(len(undecided))
            if digit:
                kept = undecided & bits
                piece[live] |= undecided ^ kept
                undecided = kept
            else:
                undecided &= ~bits
            keep = np.flatnonzero(undecided != 0)
            if not len(keep):
                break
            if len(keep) < len(undecided):
                live = keep if isinstance(live, slice) else live[keep]
                undecided = undecided[keep]
    return lanes.reshape(n, W)


def _sampler(design: TestDesign, p: float):
    """Return ``sample(rng, size)``, which draws ``size`` defective sets and yields them in chunks.

    The ``size`` sets, at most a block of `BLOCK_TRIALS`, are drawn at once in
    lanes from ``rng``'s bit generator (`_draw_lanes`), so no float is drawn and
    the sets depend only on the design's n, p, ``size`` and the stream.  Each
    chunk is ``(sets, s)``: s of the sets in lanes (n x W), sliced from the
    block in whole lane words, at most `CHUNK_ELEMENTS` values over max(n, T)
    columns but never under 64 trials.  A design with no items and no tests
    gets whole blocks of empty sets.  Raises `BudgetExceededError` at once,
    before anything is drawn, when a single trial is over the budget.
    """
    width = max(design.n, design.T)
    if width > CHUNK_ELEMENTS:
        raise BudgetExceededError(
            f"one trial over {design.n} items and {design.T} tests spans {width} values, "
            f"over the chunk budget of {CHUNK_ELEMENTS}"
        )
    # Each block is drawn whole before chunks slice it in whole lane words, so
    # the draws do not depend on the chunk size.  Designs with n and T up to
    # 1024 fit a whole block of BLOCK_TRIALS in one chunk.
    rows = max(64, min(BLOCK_TRIALS, CHUNK_ELEMENTS // max(width, 1)) // 64 * 64)

    def sample(rng: np.random.Generator, size: int):
        lanes = _draw_lanes(rng.bit_generator, p, design.n, size)
        for start in range(0, size, rows):
            yield lanes[:, start // 64:(start + rows) // 64], min(rows, size - start)

    return sample


def monte_carlo_error(
    design: TestDesign,
    prior: Prior,
    decoder: DecoderId,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> SimResult:
    """Estimate the average error probability by seeded simulation.

    Trials are pre-partitioned into fixed blocks of `BLOCK_TRIALS`; block b
    belongs to worker b mod workers, and worker w draws from its own
    substream seeded by (master_seed, w).  ``workers`` is thus the number of
    random substreams the blocks are dealt over; the workers that own a block
    run one after another on the calling thread.  The result is a
    deterministic function of (inputs, master_seed, workers).  Each block is
    drawn whole, straight into bit lanes from the substream's raw 64-bit words,
    each item defective with probability exactly p, and decoded in chunks (see
    `_sampler`): each chunk goes through the OR channel, and the decoder
    estimates its whole block of outcomes at once (`_block_decoder`, `_misses`).
    """
    _check_run(trials, master_seed, workers)
    sample = _sampler(design, prior.p)
    nblocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    decode_block = _block_decoder(design, prior, decoder)
    total = 0
    for w in range(min(workers, nblocks)):
        rng = np.random.default_rng([master_seed, w])
        for b in range(w, nblocks, workers):
            size = trials - (nblocks - 1) * BLOCK_TRIALS if b == nblocks - 1 else BLOCK_TRIALS
            for sets, s in sample(rng, size):
                total += int(np.count_nonzero(_misses(design, decode_block, sets, s)))
    return _sim_result(total, trials, master_seed, decoder)


def verify_theorem(
    design: TestDesign,
    prior: Prior,
    trials: int = 100_000,
    seed: int = 0,
) -> VerificationReport:
    """Check the observed error of a design against the floor epsilon(p).

    The floor applies only when T < n.  Observed error is the exact MAP error
    for small n, otherwise a Monte Carlo lower confidence bound (MAP when the
    decoding budget allows, COMP beyond it).  Per-item disguise bounds are
    checked exactly wherever the enumeration budget allows.
    """
    _check_run(trials, seed)
    floor = bounds.epsilon_bound(prior).epsilon
    applicable = design.T < design.n
    if design.n <= EXACT_ITEM_BUDGET[DecoderId.MAP]:
        observed = exact_average_error(design, prior, DecoderId.MAP)
        method = "exact-map"
    elif design.n <= MAP_ITEM_BUDGET:
        observed = monte_carlo_error(design, prior, DecoderId.MAP, trials, seed).ci_low
        method = "mc-map"
    else:
        observed = monte_carlo_error(design, prior, DecoderId.COMP, trials, seed).ci_low
        method = "mc-comp"

    items = disguise.mean_log_bound(design, prior, exact_budget=disguise.CO_ITEM_BUDGET).items
    checks = [
        LemmaCheck(
            item=it.item,
            exact=it.exact_prob,
            bound=it.fkg_bound,
            passed=it.exact_prob >= it.fkg_bound - FLOOR_TOLERANCE,
        )
        for it in items
        if it.exact_prob is not None
    ]
    skipped = [it.item for it in items if it.exact_prob is None]
    theorem_pass = observed >= floor - FLOOR_TOLERANCE if applicable else None
    return VerificationReport(
        design_summary=f"{design.T} tests x {design.n} items",
        p=prior.p,
        epsilon_floor=floor,
        observed_error=observed,
        method=method,
        applicable=applicable,
        theorem_pass=theorem_pass,
        lemma_checks=tuple(checks),
        lemma_skipped=tuple(skipped),
    )
