"""Independent oracles and generators shared across the test suite.

Everything here recomputes quantities from first principles (plain loops over
the matrix entries, exhaustive scans, full map enumeration) so that library
results are checked against code that shares none of their shortcuts.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math

import numpy as np

from pooltest import DecoderId, Prior, TestDesign, new_design
from pooltest.decode import decode_mask
from pooltest.model import BLOCK_TRIALS

# Lane words per piece of the Monte Carlo draw; `sim.DRAW_WORDS` must agree.
DRAW_WORDS = 1 << 16


def design_from_masks(masks, n: int) -> TestDesign:
    return TestDesign(n=n, row_masks=tuple(masks))


def all_designs(n: int, T: int):
    """Every 0/1 matrix with T tests over n items."""
    for masks in itertools.product(range(1 << n), repeat=T):
        yield design_from_masks(masks, n)


def outcome_signature(design: TestDesign, k_mask: int) -> int:
    """Reference OR-channel: bit t set iff test t holds a defective."""
    sig = 0
    for t, mask in enumerate(design.row_masks):
        if mask & k_mask:
            sig |= 1 << t
    return sig


def mask_of_row(row) -> int:
    """Bitmask of a boolean row: bit i set iff row[i]."""
    return sum(1 << int(i) for i in np.flatnonzero(row))


def comp_reference(design: TestDesign, sig: int) -> int:
    """COMP's estimate of one outcome: the items of no negative test (the survivors)."""
    cleared = 0
    for t, mask in enumerate(design.row_masks):
        if not sig >> t & 1:
            cleared |= mask
    return ((1 << design.n) - 1) & ~cleared


def dd_reference(design: TestDesign, sig: int) -> int:
    """DD's estimate of one outcome: each survivor that a positive test holds as its only survivor."""
    survivors = comp_reference(design, sig)
    estimate = 0
    for t, mask in enumerate(design.row_masks):
        if sig >> t & 1 and (mask & survivors).bit_count() == 1:
            estimate |= mask & survivors
    return estimate


def dd_explains(design: TestDesign, sig: int) -> bool:
    """Whether DD's estimate of an outcome reproduces the outcome."""
    return outcome_signature(design, dd_reference(design, sig)) == sig


def reference_decoder(design: TestDesign, sig: int, decoder, prior: Prior) -> int:
    """One outcome decoded by `comp_reference`/`dd_reference`, or by the library's MAP search."""
    if decoder is DecoderId.COMP:
        return comp_reference(design, sig)
    if decoder is DecoderId.DD:
        return dd_reference(design, sig)
    return decode_mask(design, sig, decoder, prior)


def set_weight(p: float, k_mask: int, n: int) -> float:
    k = bin(k_mask).count("1")
    return p**k * (1.0 - p) ** (n - k)


def prior_probability_reference(p: float, counts) -> float:
    """Sum of counts[j] p^j q^(m-j) over m = len(counts) - 1 items, one term at a
    time from j = 0 up, skipping zero counts."""
    q, m = 1.0 - p, len(counts) - 1
    total = 0.0
    for j, c in enumerate(counts):
        if c:
            total += c * (p**j * q ** (m - j))
    return total


def to_dict_reference(report) -> dict:
    """`serialize.to_dict` as `dataclasses.asdict` gives it, deep copies included."""

    def enum_values(pairs):
        return {k: v.value if isinstance(v, enum.Enum) else v for k, v in pairs}

    return dataclasses.asdict(report, dict_factory=enum_values)


def json_reference(report):
    """`to_dict_reference` as JSON reads it back: every tuple a list."""

    def lists(value):
        if isinstance(value, dict):
            return {k: lists(v) for k, v in value.items()}
        if isinstance(value, tuple):
            return [lists(v) for v in value]
        return value

    return lists(to_dict_reference(report))


def scan_l_star(p: float, w_max: int = 10**4) -> tuple[float, int]:
    """Exhaustive-scan oracle for the integer-weight minimum, no certification."""
    q = 1.0 - p
    best, best_w = None, None
    for w in range(2, w_max + 1):
        value = w * math.log(1.0 - q ** (w - 1))
        if best is None or value < best:
            best, best_w = value, w
    return best, best_w


def grouped_map_error(design: TestDesign, p: float) -> float:
    """Exact MAP error via per-signature best weight, independent of the decoder.

    A MAP decoder gets exactly one defective set right per distinct outcome:
    a consistent one of maximal prior weight.  So the minimal error equals
    1 - sum over signatures of the maximal weight in that signature's fiber.
    """
    best: dict[int, float] = {}
    for k in range(1 << design.n):
        sig = outcome_signature(design, k)
        w = set_weight(p, k, design.n)
        if w > best.get(sig, -1.0):
            best[sig] = w
    return 1.0 - sum(best.values())


def map_reference(design: TestDesign, sig: int, p: float) -> int | None:
    """MAP estimate of one outcome by a walk over subsets of the COMP survivors.

    The survivors are the items in no negative test, so a subset of them
    reproduces the outcome iff it meets every positive test.  For p > 1/2 the
    answer is the survivors themselves; otherwise the smallest consistent
    subset, ties broken toward the smallest bitmask, taken size by size with
    ``itertools.combinations``.  None when no set reproduces the outcome.
    """
    positive, negative = [], 0
    for t, mask in enumerate(design.row_masks):
        if sig >> t & 1:
            positive.append(mask)
        else:
            negative |= mask
    bits = [1 << i for i in range(design.n) if not negative >> i & 1]
    sizes = [len(bits)] if p > 0.5 else range(len(bits) + 1)
    for size in sizes:
        consistent = [
            k for k in map(sum, itertools.combinations(bits, size)) if all(k & t for t in positive)
        ]
        if consistent:
            return min(consistent)
    return None


def map_search_needed(design: TestDesign, sig: int) -> bool:
    """Whether a MAP block decoder for p <= 1/2 must search this outcome.

    It must when DD's estimate leaves some positive test uncovered and no set
    of at most four COMP survivors meets every uncovered test, so that no
    completion of at most four items exists; checked with
    ``itertools.combinations`` over the survivors.
    """
    estimate = dd_reference(design, sig)
    uncovered = [
        mask for t, mask in enumerate(design.row_masks) if sig >> t & 1 and not mask & estimate
    ]
    survivors = comp_reference(design, sig)
    bits = [1 << i for i in range(design.n) if survivors >> i & 1]
    completions = (
        sum(items) for size in range(1, 5) for items in itertools.combinations(bits, size)
    )
    return bool(uncovered) and not any(all(k & t for t in uncovered) for k in completions)


def exact_error_reference(design: TestDesign, p: float, decoder) -> float:
    """Exact average error by a per-set loop: OR channel, decode, tally by set size.

    Each distinct outcome is decoded once.  Errors are counted per
    defective-set size and summed in increasing size, so the float agrees
    exactly with a correct batched enumeration.
    """
    prior = Prior(p)
    n = design.n
    decoded: dict[int, int] = {}
    errors_by_size = [0] * (n + 1)
    for k in range(1 << n):
        sig = outcome_signature(design, k)
        if sig not in decoded:
            decoded[sig] = reference_decoder(design, sig, decoder, prior)
        if decoded[sig] != k:
            errors_by_size[bin(k).count("1")] += 1
    return float(sum(c * (p**j * (1.0 - p) ** (n - j)) for j, c in enumerate(errors_by_size) if c))


def monte_carlo_sets_reference(
    design: TestDesign, p: float, trials: int, seed: int, workers: int, piece_words: int = DRAW_WORDS
) -> list[int]:
    """Defective sets a Monte Carlo run samples, as bitmasks, one raw random word at a time.

    Trials split into blocks of BLOCK_TRIALS, block b drawn by worker b mod
    workers from the substream seeded by (seed, w), the workers one after
    another.  A block of s trials is n rows of W = ceil(s/64) words, bit j of
    word w of row i telling whether item i is defective in trial 64w + j.  Its
    n*W words, in row order, are drawn in pieces of ``piece_words``.  In a
    piece each bit compares a uniform with p, one binary digit of p at a time
    from the first: for each digit, every word of the piece with an undecided
    bit takes the stream's next 64-bit word, in word order, and an undecided
    bit becomes defective where the digit is 1 and the random bit 0, clean
    where the digit is 0 and the random bit 1.  After p's last 1-digit the
    undecided bits are clean.  Bits past trial s are never defective.
    """
    numerator, denominator = p.as_integer_ratio()
    length = denominator.bit_length() - 1
    digits = [numerator >> (length - k) & 1 for k in range(1, length + 1)]
    n = design.n
    nblocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    sets = []
    for w in range(workers):
        bitgen = np.random.default_rng([seed, w]).bit_generator
        for b in range(w, nblocks, workers):
            size = trials - (nblocks - 1) * BLOCK_TRIALS if b == nblocks - 1 else BLOCK_TRIALS
            words = (size + 63) // 64
            lanes = [0] * (n * words)
            for start in range(0, n * words, piece_words):
                undecided = {}
                for j in range(start, min(start + piece_words, n * words)):
                    trials_in_word = size - 64 * (j % words) if j % words == words - 1 else 64
                    undecided[j] = (1 << trials_in_word) - 1
                for digit in digits:
                    for j in list(undecided):
                        bits = int(bitgen.random_raw())
                        if digit:
                            lanes[j] |= undecided[j] & ~bits
                            undecided[j] &= bits
                        else:
                            undecided[j] &= ~bits
                        if not undecided[j]:
                            del undecided[j]
                    if not undecided:
                        break
            block = [0] * size
            for j, word in enumerate(lanes):
                item, offset = divmod(j, words)
                while word:
                    low = word & -word
                    block[64 * offset + low.bit_length() - 1] |= 1 << item
                    word ^= low
            sets.extend(block)
    return sets


def monte_carlo_errors_reference(design: TestDesign, p: float, decoder, sets: list[int]) -> int:
    """Monte Carlo error count over the sampled ``sets`` (`monte_carlo_sets_reference`),
    decoding one set at a time."""
    prior = Prior(p)
    decoded: dict[int, int] = {}
    errors = 0
    for k in sets:
        sig = outcome_signature(design, k)
        if sig not in decoded:
            decoded[sig] = reference_decoder(design, sig, decoder, prior)
        if decoded[sig] != k:
            errors += 1
    return errors


def brute_force_optimal_error(design: TestDesign, p: float) -> float:
    """Minimum average error over ALL deterministic outcome-to-estimate maps.

    Literal enumeration: every assignment of an estimate (any of the 2^n
    subsets) to every achievable outcome signature.  Tiny instances only.
    """
    n = design.n
    fibers: dict[int, list[int]] = {}
    for k in range(1 << n):
        fibers.setdefault(outcome_signature(design, k), []).append(k)
    sigs = sorted(fibers)
    best_correct = -1.0
    for estimates in itertools.product(range(1 << n), repeat=len(sigs)):
        correct = 0.0
        for sig, est in zip(sigs, estimates):
            if outcome_signature(design, est) == sig:
                correct += set_weight(p, est, n)
        if correct > best_correct:
            best_correct = correct
    return 1.0 - best_correct


def exact_disguise_oracle(design: TestDesign, i: int, p: float) -> float:
    """Disguise probability by direct sum over all patterns of the other items."""
    own_tests = [mask & ~(1 << i) for mask in design.row_masks if mask >> i & 1]
    total = 0.0
    for k in range(1 << design.n):
        if k >> i & 1:
            continue  # item i's own status does not enter the event
        if all(mask & k for mask in own_tests):
            total += set_weight(p, k, design.n - 1)
    return total


def disguise_counts_reference(design: TestDesign, i: int) -> tuple[int, ...]:
    """Disguising patterns of item i's co-items, tallied by size, one pattern at a time.

    Entry j counts the defectivity patterns of the items sharing a test with
    i that have j defectives and put a defective other than i in every test
    containing i.
    """
    own_tests = [mask & ~(1 << i) for mask in design.row_masks if mask >> i & 1]
    co = sorted({j for mask in own_tests for j in range(design.n) if mask >> j & 1})
    counts = [0] * (len(co) + 1)
    for pattern in itertools.product((0, 1), repeat=len(co)):
        k = sum(1 << j for j, bit in zip(co, pattern) if bit)
        if all(mask & k for mask in own_tests):
            counts[sum(pattern)] += 1
    return tuple(counts)


def random_min2_design(rng: np.random.Generator, n: int, T: int) -> TestDesign:
    """Random design with every test weight >= 2."""
    rows = []
    for _ in range(T):
        w = int(rng.integers(2, n + 1))
        rows.append(set(rng.choice(n, size=w, replace=False).tolist()))
    return new_design(rows, n)


def random_messy_design(rng: np.random.Generator, n: int, T: int) -> TestDesign:
    """Random design that may contain weight-0 and weight-1 tests."""
    rows = []
    for _ in range(T):
        w = int(rng.integers(0, n + 1))
        rows.append(set(rng.choice(n, size=w, replace=False).tolist()))
    return new_design(rows, n)
