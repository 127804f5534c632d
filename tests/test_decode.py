"""Tests for COMP, DD, and MAP decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pooltest import (
    BudgetExceededError,
    DecoderId,
    InconsistentOutcomeError,
    Prior,
    TestDesign,
    gen_doubly_regular,
    new_design,
)

from pooltest import decode as decode_module
from pooltest.decode import _least_completion, comp_block, dd_block, decode_mask
from pooltest.model import from_lanes, to_lanes

import helpers


# Signatures and estimates are bitmasks: bit t of a signature is test t, bit i
# of an estimate is item i.
class TestComp:
    def test_negative_test_clears(self):
        d = new_design([{0, 1}, {1, 2}], 3)
        assert decode_mask(d, 0b10, DecoderId.COMP) == 0b100

    def test_all_positive_clears_nothing(self):
        d = new_design([{0, 1}, {1, 2}], 3)
        assert decode_mask(d, 0b11, DecoderId.COMP) == 0b111

    def test_all_negative_keeps_untested(self):
        d = new_design([{0, 1}], 3)
        assert decode_mask(d, 0, DecoderId.COMP) == 0b100

    def test_length_mismatch(self):
        # A two-test outcome (second test positive) on a one-test design.
        d = new_design([{0}], 2)
        with pytest.raises(ValueError):
            decode_mask(d, 0b10, DecoderId.COMP)


class TestSignatureRange:
    # Bits of a signature past test T - 1, or a negative one, name no outcome
    # of the design: every decoder refuses them rather than decode a wrong one.
    @pytest.mark.parametrize("decoder", list(DecoderId))
    @pytest.mark.parametrize("sig", [-1, 4, 1 << 64])
    def test_outside_range_rejected(self, decoder, sig):
        d = new_design([{0, 1}, {1, 2}], 3)
        with pytest.raises(ValueError, match="outside"):
            decode_mask(d, sig, decoder, Prior(0.3))


class TestDd:
    def test_unique_survivor_declared(self):
        d = new_design([{0, 1}, {1, 2}, {2}], 3)
        assert decode_mask(d, 0b110, DecoderId.DD) == 0b100

    def test_all_negative_empty(self):
        d = new_design([{0, 1}, {1, 2}], 3)
        assert decode_mask(d, 0, DecoderId.DD) == 0

    def test_ambiguous_positive_declares_nothing(self):
        d = new_design([{0, 1}], 2)
        assert decode_mask(d, 1, DecoderId.DD) == 0


class TestMap:
    def test_tie_break_prefers_lowest_item(self):
        d = new_design([{0, 1}], 2)
        assert decode_mask(d, 1, DecoderId.MAP, Prior(0.3)) == 0b1

    def test_high_prior_prefers_large_sets(self):
        d = new_design([{0, 1}], 2)
        assert decode_mask(d, 1, DecoderId.MAP, Prior(0.7)) == 0b11

    def test_unique_consistent_set(self):
        d = new_design([{0}], 1)
        for p in (0.1, 0.5, 0.9):
            assert decode_mask(d, 1, DecoderId.MAP, Prior(p)) == 0b1

    def test_identity_all_negative(self):
        d = new_design([{0}, {1}, {2}], 3)
        assert decode_mask(d, 0, DecoderId.MAP, Prior(0.3)) == 0

    def test_inconsistent_outcomes_rejected(self):
        d = new_design([{0}, {0}], 1)
        with pytest.raises(InconsistentOutcomeError):
            decode_mask(d, 0b01, DecoderId.MAP, Prior(0.5))

    def test_budget(self):
        d = new_design([set(range(31))], 31)
        with pytest.raises(BudgetExceededError):
            decode_mask(d, 1, DecoderId.MAP, Prior(0.5))

    def test_untested_items_follow_prior(self):
        # item 2 untested: excluded when p < 1/2, included when p > 1/2
        d = new_design([{0, 1}], 3)
        assert decode_mask(d, 1, DecoderId.MAP, Prior(0.3)) == 0b1
        assert decode_mask(d, 1, DecoderId.MAP, Prior(0.7)) == 0b111

    def test_half_prior_smallest_then_lowest(self):
        d = new_design([{0, 1, 2}], 3)
        assert decode_mask(d, 1, DecoderId.MAP, Prior(0.5)) == 0b1

    def test_dispatcher(self):
        d = new_design([{0, 1}], 2)
        assert decode_mask(d, 1, DecoderId.COMP) == helpers.comp_reference(d, 1)
        assert decode_mask(d, 1, DecoderId.DD) == helpers.dd_reference(d, 1)
        assert decode_mask(d, 1, DecoderId.MAP, Prior(0.3)) == helpers.map_reference(d, 1, 0.3)
        with pytest.raises(ValueError, match="requires a prior"):
            decode_mask(d, 1, DecoderId.MAP)

    def test_one_comp_pass_per_call(self, monkeypatch):
        # Every decoder runs comp_block once on its block of one trial: DD and
        # MAP take their survivors from that pass.
        comp, calls = decode_module.comp_block, []

        def counting(design, positive):
            calls.append(positive.shape)
            return comp(design, positive)

        monkeypatch.setattr(decode_module, "comp_block", counting)
        d = new_design([{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {1, 3}], 10)
        for decoder, prior in ((DecoderId.COMP, None), (DecoderId.DD, None),
                               (DecoderId.MAP, Prior(0.3)), (DecoderId.MAP, Prior(0.7))):
            calls.clear()
            decode_mask(d, 0b111111, decoder, prior)
            assert calls == [(d.T, 1)]


def _least_hitting_set(tests, n):
    """The hitting set of least (size, bitmask) of ``tests`` over n items, by a walk of all 2^n sets."""
    return min(
        (k for k in range(1 << n) if all(k & t for t in tests)),
        key=lambda k: (k.bit_count(), k),
    )


def test_least_completion_matches_brute_force():
    assert _least_completion([]) == 0
    rng = np.random.default_rng(63)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        tests = [int(t) for t in rng.integers(1, 1 << n, size=int(rng.integers(0, 7)))]
        assert _least_completion(tests) == _least_hitting_set(tests, n)


@st.composite
def design_and_set(draw):
    n = draw(st.integers(1, 6))
    T = draw(st.integers(1, 5))
    masks = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(T))
    k = draw(st.integers(0, (1 << n) - 1))
    p = draw(st.sampled_from([0.2, 0.5, 0.8]))
    return helpers.design_from_masks(masks, n), k, p


@settings(max_examples=200, deadline=None)
@given(design_and_set())
def test_map_reproduces_outcomes(case):
    design, k, p = case
    sig = helpers.outcome_signature(design, k)
    estimate = decode_mask(design, sig, DecoderId.MAP, Prior(p))
    assert 0 <= estimate < 1 << design.n
    assert helpers.outcome_signature(design, estimate) == sig


@settings(max_examples=200, deadline=None)
@given(design_and_set())
def test_dd_subset_of_comp(case):
    design, k, _ = case
    sig = helpers.outcome_signature(design, k)
    dd = decode_mask(design, sig, DecoderId.DD)
    comp = decode_mask(design, sig, DecoderId.COMP)
    assert 0 <= comp < 1 << design.n
    assert dd & comp == dd


@settings(max_examples=200, deadline=None)
@given(design_and_set())
def test_comp_superset_of_truth_when_all_items_tested(case):
    design, k, _ = case
    if any(sum(m >> i & 1 for m in design.row_masks) == 0 for i in range(design.n)):
        return  # guarantee only holds when every item appears in some test
    comp = decode_mask(design, helpers.outcome_signature(design, k), DecoderId.COMP)
    assert k & comp == k


class TestBlockKernels:
    """`comp_block`/`dd_block` and `decode_mask` agree outcome by outcome with
    `helpers.comp_reference`/`dd_reference`."""

    @staticmethod
    def _check(design, signatures):
        s = len(signatures)
        positive = to_lanes(np.array(
            [[bool(sig >> t & 1) for t in range(design.T)] for sig in signatures], dtype=bool
        ).reshape(s, design.T))
        for block, decoder, reference in (
            (comp_block, DecoderId.COMP, helpers.comp_reference),
            (dd_block, DecoderId.DD, helpers.dd_reference),
        ):
            estimates = block(design, positive)
            assert estimates.dtype == np.uint64 and estimates.shape == (design.n, -(-s // 64))
            for row, sig in zip(from_lanes(estimates, s), signatures):
                expected = reference(design, sig)
                assert helpers.mask_of_row(row) == expected
                assert decode_mask(design, sig, decoder) == expected

    def test_block_sizes_at_word_edges(self):
        # Padding bits of the last word never reach a trial: items in no test
        # make COMP's lanes all ones there.
        rng = np.random.default_rng(54)
        d = helpers.random_messy_design(rng, 9, 6)
        d = TestDesign(n=11, row_masks=d.row_masks + (0,))  # items 9, 10 in no test
        for s in (1, 63, 64, 65):
            self._check(d, [int(sig) for sig in rng.integers(0, 1 << d.T, size=s)])

    def test_every_outcome_of_small_messy_designs(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            n, T = int(rng.integers(1, 10)), int(rng.integers(0, 7))
            d = helpers.random_messy_design(rng, n, T) if T else TestDesign(n=n, row_masks=())
            self._check(d, list(range(1 << d.T)))

    def test_random_outcomes_of_wider_designs(self):
        rng = np.random.default_rng(52)
        for n, T in ((40, 25), (70, 12), (130, 60)):
            d = helpers.random_messy_design(rng, n, T)
            d = TestDesign(n=n + 3, row_masks=d.row_masks + (0,))  # items in no test
            sigs = [helpers.mask_of_row(rng.random(d.T) < 0.5) for _ in range(40)]
            sets = [helpers.mask_of_row(rng.random(d.n) < 0.1) for _ in range(40)]
            sigs += [helpers.outcome_signature(d, k) for k in sets]
            self._check(d, sigs + [0, (1 << d.T) - 1])

    def test_doubly_regular_outcomes_of_sampled_sets(self):
        d = gen_doubly_regular(600, 2, 4, seed=3)
        rng = np.random.default_rng(53)
        sets = rng.random((64, d.n)) < 0.02
        self._check(d, [helpers.outcome_signature(d, helpers.mask_of_row(row)) for row in sets])


class TestMapOptimality:
    def test_matches_brute_force_on_tiny_designs(self):
        from pooltest import exact_average_error

        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            T = int(rng.integers(1, 3))
            masks = tuple(int(rng.integers(0, 1 << n)) for _ in range(T))
            d = helpers.design_from_masks(masks, n)
            for p in (0.3, 0.5):
                map_error = exact_average_error(d, Prior(p), DecoderId.MAP)
                assert map_error == pytest.approx(
                    helpers.brute_force_optimal_error(d, p), abs=1e-12
                )


class TestMapSearch:
    """MAP's `decode_mask` against the subset walk `helpers.map_reference`, outcome by outcome."""

    # The reference walks up to 2^m subsets of m survivors.
    REFERENCE_SURVIVORS = 20

    @staticmethod
    def _check(design, signatures, p):
        for sig in signatures:
            expected = helpers.map_reference(design, sig, p)
            if expected is None:
                with pytest.raises(InconsistentOutcomeError):
                    decode_mask(design, sig, DecoderId.MAP, Prior(p))
            else:
                assert decode_mask(design, sig, DecoderId.MAP, Prior(p)) == expected

    def test_every_outcome_of_small_messy_designs(self):
        rng = np.random.default_rng(61)
        for case in range(200):
            n, T = int(rng.integers(1, 10)), int(rng.integers(0, 7))
            d = helpers.random_messy_design(rng, n, T) if T else TestDesign(n=n, row_masks=())
            if case % 2:
                d = TestDesign(n=n + 1, row_masks=d.row_masks)  # item n is in no test
            for p in (0.2, 0.5, 0.8):
                self._check(d, range(1 << d.T), p)

    def test_sampled_outcomes_of_doubly_regular_designs(self):
        rng = np.random.default_rng(62)
        for n, l, r in ((30, 2, 3), (24, 3, 4)):
            d = gen_doubly_regular(n, l, r, seed=1)
            for p in (0.05, 0.1, 0.3, 0.5, 0.7):
                signatures = []
                while len(signatures) < 20:
                    sig = helpers.outcome_signature(d, helpers.mask_of_row(rng.random(n) < p))
                    if p > 0.5 or helpers.comp_reference(d, sig).bit_count() <= self.REFERENCE_SURVIVORS:
                        signatures.append(sig)
                self._check(d, signatures, p)
