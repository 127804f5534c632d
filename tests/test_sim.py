"""Tests for exact/Monte Carlo error evaluation and floor verification."""

import functools
import json
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pooltest import (
    BudgetExceededError,
    DecoderId,
    DefectiveSet,
    InconsistentOutcomeError,
    OutcomeVector,
    Prior,
    SimResult,
    TestDesign,
    VerificationReport,
    co_items,
    epsilon_bound,
    exact_average_error,
    from_dict,
    gen_doubly_regular,
    gen_individual,
    monte_carlo_error,
    new_design,
    outcomes,
    reduce_design,
    to_dict,
    verify_theorem,
    wilson_interval,
)
from pooltest import decode as decode_module, sim
from pooltest.decode import decode, decode_mask
from pooltest.disguise import CO_ITEM_BUDGET
from pooltest.model import from_lanes, to_lanes

import helpers

P_GRID = [0.1, 0.3, 0.5, 0.7, 0.9]
# Eleven tests over 12 items, the first eight in equal pairs, so that only 76
# of the 2^11 outcomes are images of a set.
DOUBLED_TESTS = [{0, 1, 2}, {0, 1, 2}, {2, 3, 4}, {2, 3, 4}, {4, 5, 6}, {4, 5, 6}, {6, 7, 0},
                 {6, 7, 0}, {1, 8}, {8, 9}, {9, 3}]
# Five disjoint two-item tests: with all five positive and no item cleared,
# MAP's estimate takes one item of each, {0, 2, 4, 6, 8}.
FIVE_PAIRS = [{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}]
# Eight tests over 12 items: of the 210 images, DD leaves 113 unexplained, and
# MAP adds 1 item to 29 of them, 2 to 54, 3 to 18, 4 to 10 and 5 to 2.
PAIRED_TESTS = FIVE_PAIRS + [{1, 3, 10}, {5, 7, 11}, {9, 10, 11}]


class TestWilson:
    def test_zero_hits_pins_low_end(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0
        assert 0.0 < high < 0.01

    def test_all_hits(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert low < 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10_000), st.data())
    def test_interval_orders(self, trials, data):
        hits = data.draw(st.integers(0, trials))
        low, high = wilson_interval(hits, trials)
        estimate = hits / trials
        assert 0.0 <= low <= estimate <= high <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestExactAverageError:
    def test_identity_is_perfect(self):
        for n in (1, 3, 6):
            for p in (0.2, 0.5, 0.8):
                assert exact_average_error(gen_individual(n), Prior(p), DecoderId.MAP) == 0.0

    def test_single_pool_hand_value(self):
        d = new_design([{0, 1}], 2)
        assert exact_average_error(d, Prior(0.3), DecoderId.MAP) == pytest.approx(0.30, abs=1e-12)

    def test_no_tests_forces_constant_guess(self):
        d = TestDesign(n=1, row_masks=())
        assert exact_average_error(d, Prior(0.3), DecoderId.MAP) == pytest.approx(0.3, abs=1e-12)
        assert exact_average_error(d, Prior(0.8), DecoderId.MAP) == pytest.approx(0.2, abs=1e-12)

    def test_matches_grouped_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            T = int(rng.integers(0, 7))
            d = helpers.random_messy_design(rng, n, T) if T else TestDesign(n=n, row_masks=())
            for p in (0.2, 0.5, 0.8):
                got = exact_average_error(d, Prior(p), DecoderId.MAP)
                assert got == pytest.approx(helpers.grouped_map_error(d, p), abs=1e-12)

    def test_map_beats_comp_and_dd(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            T = int(rng.integers(1, 6))
            d = helpers.random_messy_design(rng, n, T)
            for p in (0.3, 0.5, 0.7):
                pr = Prior(p)
                map_err = exact_average_error(d, pr, DecoderId.MAP)
                assert map_err <= exact_average_error(d, pr, DecoderId.COMP) + 1e-12
                assert map_err <= exact_average_error(d, pr, DecoderId.DD) + 1e-12

    def test_matches_per_set_loop(self):
        rng = np.random.default_rng(45)
        cases = [(int(rng.integers(1, 9)), int(rng.integers(0, 7))) for _ in range(25)]
        # With T < n, (13, 6) walks 2^6 outcomes; with T >= n, the 2^13 sets of
        # (13, 14) span two blocks of the set walk.
        for n, T in cases + [(13, 6), (13, 14)]:
            d = helpers.random_messy_design(rng, n, T) if T else TestDesign(n=n, row_masks=())
            for p in (0.2, 0.5, 0.8):
                for decoder in DecoderId:
                    got = exact_average_error(d, Prior(p), decoder)
                    assert got == helpers.exact_error_reference(d, p, decoder)

    def test_outcome_walk_matches_per_set_loop(self):
        # Every design here has fewer tests than items, so the 2^T outcomes
        # are walked; the last one's 2^13 outcomes span two blocks.
        rng = np.random.default_rng(47)
        designs = [TestDesign(n=n, row_masks=()) for n in (1, 4, 9)]
        designs.append(new_design([{0, 1}, {1, 2}, set(), {2, 3}], 6))  # items 4, 5 untested
        for _ in range(12):
            n = int(rng.integers(2, 11))
            designs.append(helpers.random_messy_design(rng, n, int(rng.integers(1, n))))
        designs.append(new_design(
            [{0, 1, 2}, {3, 4}, {5, 6, 7}, {0, 8}, {9, 10}, {11, 12}, {1, 13}, {2, 3},
             {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}], 14))
        for d in designs:
            assert d.T < d.n
            for p in (0.2, 0.5, 0.8):
                for decoder in DecoderId:
                    got = exact_average_error(d, Prior(p), decoder)
                    assert got == helpers.exact_error_reference(d, p, decoder)

    def test_outcome_walk_of_four_blocks(self):
        # 2^14 outcomes: blocks whose lanes take bits 12 and 13 from the block index.
        d = helpers.random_messy_design(np.random.default_rng(48), 15, 14)
        for p in (0.2, 0.8):
            for decoder in (DecoderId.COMP, DecoderId.DD):
                got = exact_average_error(d, Prior(p), decoder)
                assert got == helpers.exact_error_reference(d, p, decoder)

    def test_block_decoder_gets_every_block_whole(self, monkeypatch):
        # One walk: with T < n the block decoder gets all 2^T outcomes, images
        # or not, and with T >= n the outcomes of all 2^n sets, in order, one
        # call per block of BLOCK_TRIALS.  Both designs span two blocks.
        choose, calls = sim._block_decoder, []

        def recording_choose(*args):
            decode_block = choose(*args)

            def recorded(positive, s):
                calls.append(from_lanes(positive, s))
                return decode_block(positive, s)

            return recorded

        monkeypatch.setattr(sim, "_block_decoder", recording_choose)
        few = new_design(
            [{0, 1, 2}, {3, 4}, {5, 6, 7}, {0, 8}, {9, 10}, {11, 12}, {1, 13}, {2, 3},
             {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}], 14)
        many = helpers.random_messy_design(np.random.default_rng(46), 13, 13)
        sets_outcomes = [helpers.outcome_signature(many, k) for k in range(1 << many.n)]
        for d, sigs in ((few, range(1 << few.T)), (many, sets_outcomes)):
            expected = np.array(sigs)[:, None] >> np.arange(d.T) & 1 == 1
            for decoder in DecoderId:
                for p in (0.3, 0.7):
                    calls.clear()
                    exact_average_error(d, Prior(p), decoder)
                    assert [len(rows) for rows in calls] == [sim.BLOCK_TRIALS] * 2
                    assert np.array_equal(np.concatenate(calls), expected)

    def test_walk_chosen_by_shape(self, monkeypatch):
        # With T < n the block decoder gets all 2^T outcomes, images or not,
        # though some are none; with T >= n it gets the outcomes of all 2^n
        # sets.  Each design fits in one block.
        choose, decoded = sim._block_decoder, []

        def recording_choose(*args):
            decode_block = choose(*args)

            def recorded(positive, s):
                decoded.append(s)
                return decode_block(positive, s)

            return recorded

        monkeypatch.setattr(sim, "_block_decoder", recording_choose)
        few = new_design([{0, 1, 2}, {2, 3}, {4, 5, 6}, {6, 7, 8}, {8, 9}, {1, 9}], 10)
        many = new_design([{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {1, 3}], 5)
        images = {helpers.outcome_signature(few, k) for k in range(1 << few.n)}
        assert len(images) < 1 << few.T
        for decoder in DecoderId:
            decoded.clear()
            exact_average_error(few, Prior(0.3), decoder)
            assert decoded == [1 << few.T]
            decoded.clear()
            exact_average_error(many, Prior(0.3), decoder)
            assert decoded == [1 << many.n]

    def test_one_comp_pass_per_block(self, monkeypatch):
        # Each block of outcomes goes through comp_block once, whichever the
        # decoder: DD takes its survivors from that pass, and MAP at 1/2 and
        # below hands them to DD and checks against them which outcomes some
        # set produces.  The 2^13 outcomes are two blocks.
        d = new_design(
            [{0, 1, 2}, {3, 4}, {5, 6, 7}, {0, 8}, {9, 10}, {11, 12}, {1, 13}, {2, 3},
             {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}], 14)
        comp, calls = sim.comp_block, []

        def counting(design, positive):
            calls.append(positive.shape[1])
            return comp(design, positive)

        monkeypatch.setattr(sim, "comp_block", counting)
        monkeypatch.setattr(decode_module, "comp_block", counting)
        for decoder in DecoderId:
            for p in (0.3, 0.5, 0.7):
                calls.clear()
                exact_average_error(d, Prior(p), decoder)
                assert calls == [sim.BLOCK_TRIALS // 64] * 2

    def test_mostly_non_images_match_per_set_loop(self):
        # The outcome walk hands the block decoders mostly outcomes no set
        # produces (all but 76 of 2^11), and none may count as a success.
        d = new_design(DOUBLED_TESTS, 12)
        assert len({helpers.outcome_signature(d, k) for k in range(1 << d.n)}) == 76
        for p in (0.2, 0.5, 0.8):
            for decoder in DecoderId:
                got = exact_average_error(d, Prior(p), decoder)
                assert got == helpers.exact_error_reference(d, p, decoder)

    def test_exact_map_searches_only_consistent_outcomes(self, monkeypatch):
        # MAP searches go through the module attribute sim.decode_mask, and
        # only for outcomes some set produces that DD's estimate does not
        # explain and that no four items complete; for p > 1/2 COMP's
        # estimate explains every such outcome.
        d = new_design(PAIRED_TESTS, 12)
        images = {helpers.outcome_signature(d, k) for k in range(1 << d.n)}
        unexplained = {s for s in images if not helpers.dd_explains(d, s)}
        searches = {s for s in images if helpers.map_search_needed(d, s)}
        assert searches < unexplained and searches and len(images) < 1 << d.T
        original = sim.decode_mask
        searched = []

        def recording(design, sig, *args):
            searched.append(sig)
            return original(design, sig, *args)

        monkeypatch.setattr(sim, "decode_mask", recording)
        for p in (0.1, 0.3, 0.5):
            searched.clear()
            assert exact_average_error(d, Prior(p), DecoderId.MAP) == helpers.exact_error_reference(
                d, p, DecoderId.MAP
            )
            assert sorted(searched) == sorted(searches)
        for p in (0.6, 0.9):
            searched.clear()
            exact_average_error(d, Prior(p), DecoderId.MAP)
            assert searched == []

    def test_budgets_enforced(self):
        big = TestDesign(n=15, row_masks=(1,))
        with pytest.raises(BudgetExceededError):
            exact_average_error(big, Prior(0.5), DecoderId.MAP)
        bigger = TestDesign(n=21, row_masks=(1,))
        with pytest.raises(BudgetExceededError):
            exact_average_error(bigger, Prior(0.5), DecoderId.COMP)


def _completion_size(design, sig):
    """How many items MAP's estimate of an outcome adds to DD's, by the reference oracles."""
    added = helpers.map_reference(design, sig, 0.5) & ~helpers.dd_reference(design, sig)
    return added.bit_count()


@functools.cache
def _heavy_case():
    """A first test of 20 items and 12 light ones over 24 items, the distinct
    outcomes of 400 sampled sets, their MAP estimates for p <= 1/2 by the
    reference, and the outcomes the oracle says need a search."""
    rng = np.random.default_rng(53)
    rows = [set(range(20))]
    rows += [set(rng.choice(24, int(rng.integers(2, 5)), replace=False).tolist()) for _ in range(12)]
    d = new_design(rows, 24)
    sets = rng.random((400, d.n)) < 0.2
    sigs = sorted({helpers.outcome_signature(d, helpers.mask_of_row(row)) for row in sets})
    expected = [helpers.map_reference(d, sig, 0.5) for sig in sigs]
    needed = [sig for sig in sigs if helpers.map_search_needed(d, sig)]
    return d, sigs, expected, needed


class TestMapBlock:
    """MAP's block decoder, built by `sim._block_decoder`: `sim._map_block` for
    p <= 1/2 and COMP's block for p > 1/2."""

    @staticmethod
    def _map_decoder(design, p):
        return sim._block_decoder(design, Prior(p), DecoderId.MAP)

    def test_rows_match_one_outcome_decoder(self):
        rng = np.random.default_rng(48)
        designs = [
            TestDesign(n=3, row_masks=()),
            new_design([{0, 1}, {0, 1}, {1, 2}, set()], 4),  # duplicate tests; item 3 in none
        ]
        for _ in range(10):
            n, T = int(rng.integers(1, 11)), int(rng.integers(1, 9))
            designs.append(helpers.random_messy_design(rng, n, T))
        for d in designs:
            for p in (0.1, 0.5, 0.7):
                sets = rng.random((60, d.n)) < p
                sigs = [helpers.outcome_signature(d, helpers.mask_of_row(row)) for row in sets]
                positive = np.array([[sig >> t & 1 for t in range(d.T)] for sig in sigs], dtype=bool)
                decode = self._map_decoder(d, p)
                for rows in (slice(0, 40), slice(20, 60)):  # the second call repeats 20 rows
                    got = decode(to_lanes(positive[rows]), 40)
                    assert got.shape == (d.n, 1) and got.dtype == np.uint64
                    for row, sig in zip(from_lanes(got, 40), sigs[rows]):
                        expected = decode_mask(d, sig, DecoderId.MAP, Prior(p))
                        assert helpers.mask_of_row(row) == expected

    def test_budget_checked_on_creation(self):
        for p in (0.1, 0.7):
            with pytest.raises(BudgetExceededError):
                self._map_decoder(gen_individual(31), p)

    @staticmethod
    def _decode_outcomes(decode, design, sigs):
        """Run one block of outcome signatures through ``decode``; return the estimate masks."""
        positive = np.array([[sig >> t & 1 for t in range(design.T)] for sig in sigs], dtype=bool)
        got = decode(to_lanes(positive), len(sigs))
        return [helpers.mask_of_row(row) for row in from_lanes(got, len(sigs))]

    @staticmethod
    def _record_searches(monkeypatch):
        searched = []
        original = sim.decode_mask

        def recording(design, sig, *args):
            searched.append(sig)
            return original(design, sig, *args)

        monkeypatch.setattr(sim, "decode_mask", recording)
        return searched

    def test_explained_block_never_searches(self, monkeypatch):
        # When DD's estimate explains every trial the block returns it as is.
        # An outcome that needs a search, decoded in two later blocks beside
        # the explained ones, is searched once (for p > 1/2 COMP explains it).
        # The design is FIVE_PAIRS beside a doubly regular design on items
        # 10 to 29; the hard outcome has just the five pairs positive.
        regular = gen_doubly_regular(20, 3, 3, seed=5)
        shifted = [{10 + i for i in range(20) if mask >> i & 1} for mask in regular.row_masks]
        d = new_design(FIVE_PAIRS + shifted, 30)
        hard = 0b11111
        assert helpers.map_search_needed(d, hard)
        assert helpers.map_reference(d, hard, 0.5) == 0b101010101
        assert _completion_size(d, hard) >= 5
        rng = np.random.default_rng(49)
        sets = rng.random((400, d.n)) < 0.05
        sigs = [helpers.outcome_signature(d, helpers.mask_of_row(row)) for row in sets]
        sigs = [sig for sig in sigs if helpers.dd_explains(d, sig)][:150]
        assert len(set(sigs)) > 20
        searched = self._record_searches(monkeypatch)
        for p in (0.05, 0.5, 0.7):
            searched.clear()
            decode = self._map_decoder(d, p)
            got = self._decode_outcomes(decode, d, sigs)
            assert got == [helpers.map_reference(d, sig, p) for sig in sigs]
            assert searched == []
            mixed = sigs[:40] + [hard] + sigs[40:]
            for _ in range(2):
                got = self._decode_outcomes(decode, d, mixed)
                assert got == [helpers.map_reference(d, sig, p) for sig in mixed]
            assert searched == ([hard] if p <= 0.5 else [])

    def test_completions_of_up_to_four_items_match_reference(self, monkeypatch):
        # Every outcome that DD leaves unexplained and at most four items
        # complete is decoded without a search, to the reference's set; p = 0.5
        # takes the DD side, where a COMP shortcut would keep every survivor.
        rng = np.random.default_rng(50)
        designs = [gen_doubly_regular(12, 2, 3, seed=2)]
        designs += [new_design(PAIRED_TESTS, 12)]
        designs += [helpers.random_messy_design(rng, int(rng.integers(3, 10)), 6) for _ in range(30)]
        searched = self._record_searches(monkeypatch)
        sizes = {1: 0, 2: 0, 3: 0, 4: 0}
        for d in designs:
            images = sorted({helpers.outcome_signature(d, k) for k in range(1 << d.n)})
            unexplained = [s for s in images if not helpers.dd_explains(d, s)]
            settled = [s for s in unexplained if not helpers.map_search_needed(d, s)]
            for s in settled:
                sizes[_completion_size(d, s)] += 1
            for p in (0.1, 0.5):
                searched.clear()
                got = self._decode_outcomes(self._map_decoder(d, p), d, images)
                expected = [helpers.map_reference(d, sig, p) for sig in images]
                assert got == expected
                assert sorted(searched) == [s for s in unexplained if s not in settled]
            if settled:
                comp = [helpers.comp_reference(d, s) for s in settled]
                assert comp != [helpers.map_reference(d, s, 0.5) for s in settled]
        assert sizes[1] > 100 and sizes[2] > 50 and sizes[3] > 20 and sizes[4] > 10

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_pair_tie_break_and_lower_item_outside_first_test(self, p, monkeypatch):
        # All tests positive and none with a sole survivor, so DD's estimate is
        # empty and every test is uncovered.  In the first design {0, 5} and
        # {1, 2} complete it, and map_mask's smallest bitmask takes {1, 2}, not
        # the pair with the lowest item.  In the second the pair {0, 3} wins,
        # and its lower item 0 is not in the first uncovered test {3, 4}.  The
        # next two take one item of each disjoint test, and their last test
        # rules out item 0: {1, 2, 3} and {1, 2, 3, 4} beat every completion
        # that takes the lowest item first.  In the last two the winner's low
        # items 0, 1 (and 2) lie outside the first uncovered test {5, 6}.
        cases = [
            (new_design([{0, 1}, {2, 5}, {1, 5}], 6), 0b110),
            (new_design([{3, 4}, {0, 5}, {0, 6}], 7), 0b1001),
            (new_design([{0, 1}, {2, 5}, {3, 6}, {1, 5, 6}], 7), 0b1110),
            (new_design([{0, 1}, {2, 7}, {3, 8}, {4, 9}, {1, 7, 8, 9}], 10), 0b11110),
            (new_design([{5, 6}, {0, 7}, {0, 8}, {1, 9}, {1, 10}], 11), 0b100011),
            (new_design([{5, 6}, {0, 7}, {0, 8}, {1, 9}, {1, 10}, {2, 11}, {2, 12}], 13), 0b100111),
        ]
        searched = self._record_searches(monkeypatch)
        for d, expected in cases:
            sig = (1 << d.T) - 1
            assert helpers.dd_reference(d, sig) == 0
            assert helpers.map_reference(d, sig, p) == expected
            assert self._decode_outcomes(self._map_decoder(d, p), d, [sig]) == [expected]
        assert searched == []

    def test_pair_completions_over_64_tests(self, monkeypatch):
        # Nine random tests over 10 items, repeated 8 times to 72 tests, so
        # each uncovered test has copies on both sides of test 64: outcomes
        # that a pair completes are settled to the reference's set, and the
        # rest are searched exactly as the oracle says.
        rng = np.random.default_rng(51)
        searched = self._record_searches(monkeypatch)
        wide_pairs = 0
        for _ in range(4):
            weights = rng.integers(2, 4, 9).tolist()
            d = new_design([set(rng.choice(10, w, replace=False).tolist()) for w in weights] * 8, 10)
            images = sorted({helpers.outcome_signature(d, k) for k in range(1 << d.n)})
            for p in (0.1, 0.5):
                searched.clear()
                got = self._decode_outcomes(self._map_decoder(d, p), d, images)
                assert got == [helpers.map_reference(d, sig, p) for sig in images]
                assert sorted(searched) == [s for s in images if helpers.map_search_needed(d, s)]
            for sig in images:
                estimate = helpers.dd_reference(d, sig)
                uncovered = [t for t, row in enumerate(d.row_masks) if sig >> t & 1 and not row & estimate]
                if uncovered and uncovered[0] < 64 <= uncovered[-1] and _completion_size(d, sig) == 2:
                    wide_pairs += 1
        assert wide_pairs > 20

    def test_three_and_four_item_completions_over_64_tests(self, monkeypatch):
        # PAIRED_TESTS at tests 62 to 69, after 62 copies of a one-item test
        # on item 12, so the uncovered tests of most outcomes lie on both
        # sides of test 64: they are decoded to the reference's sets and
        # searched exactly as the oracle says.
        d = new_design([{12}] * 62 + PAIRED_TESTS, 13)
        images = sorted({helpers.outcome_signature(d, k) for k in range(1 << d.n)})
        searched = self._record_searches(monkeypatch)
        for p in (0.1, 0.5):
            searched.clear()
            got = self._decode_outcomes(self._map_decoder(d, p), d, images)
            assert got == [helpers.map_reference(d, sig, p) for sig in images]
            assert sorted(searched) == [s for s in images if helpers.map_search_needed(d, s)]
        wide = {3: 0, 4: 0, 5: 0}
        for sig in images:
            estimate = helpers.dd_reference(d, sig)
            uncovered = [t for t, row in enumerate(d.row_masks) if sig >> t & 1 and not row & estimate]
            size = _completion_size(d, sig)
            if uncovered and uncovered[0] < 64 <= uncovered[-1] and size in wide:
                wide[size] += 1
        assert wide[3] > 20 and wide[4] > 10 and wide[5] > 0

    @pytest.mark.parametrize("chunk", [1, 7, 1000, 1 << 22])
    def test_heavy_test_completions_in_chunks_of_any_size(self, chunk, monkeypatch):
        # An outcome whose first uncovered test is the 20-item one may hold
        # 20^3 rows at the last level, so the pass takes one outcome a chunk
        # below the default budget and 174 at it.  Any chunk size gives the
        # reference's sets on the sampled outcomes and searches the same ones.
        d, sigs, expected, needed = _heavy_case()
        deep = 0
        for sig, estimate in zip(sigs, expected):
            forced = helpers.dd_reference(d, sig)
            if sig & 1 and not d.row_masks[0] & forced and (estimate & ~forced).bit_count() in (3, 4):
                deep += 1
        assert deep > 5 and needed
        monkeypatch.setattr(sim, "CHUNK_ELEMENTS", chunk)
        searched = self._record_searches(monkeypatch)
        for p in (0.1, 0.5):
            searched.clear()
            assert self._decode_outcomes(self._map_decoder(d, p), d, sigs) == expected
            assert sorted(searched) == needed

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_completions_in_chunks_of_any_size(self, chunk, monkeypatch):
        # The completion pass splits the new outcomes of a block, and the rows
        # of each level, into chunks sized from CHUNK_ELEMENTS; any chunk size
        # gives the reference's sets and searches the same outcomes.
        rng = np.random.default_rng(52)
        designs = [gen_doubly_regular(12, 2, 3, seed=3), new_design(DOUBLED_TESTS, 12)]
        designs += [helpers.random_messy_design(rng, int(rng.integers(2, 10)), 7) for _ in range(8)]
        monkeypatch.setattr(sim, "CHUNK_ELEMENTS", chunk)
        searched = self._record_searches(monkeypatch)
        for d in designs:
            images = sorted({helpers.outcome_signature(d, k) for k in range(1 << d.n)})
            for p in (0.1, 0.5):
                searched.clear()
                got = self._decode_outcomes(self._map_decoder(d, p), d, images)
                assert got == [helpers.map_reference(d, sig, p) for sig in images]
                assert sorted(searched) == [s for s in images if helpers.map_search_needed(d, s)]

    @pytest.mark.parametrize("s", [1, 63, 64, 65, 4095, 4096])
    def test_write_back_changes_only_flagged_trials(self, s):
        # Trials in the first word, in the last word and many in one word take
        # their masks ORed into DD's lanes; every other trial keeps DD's bits
        # and the padding bits stay 0.
        rng = np.random.default_rng(s)
        n = 30
        rows = rng.random((s, n)) < 0.1
        many = range(s // 2, min(s, s // 2 + 40))  # consecutive trials, most in one word
        trials = np.array(sorted({0, s - 1, *many, *rng.integers(0, s, 20).tolist()}))
        masks = rng.integers(0, 1 << n, len(trials), dtype=np.uint64)
        lanes = to_lanes(rows)
        assert np.array_equal(sim._gather(lanes, trials), rows[trials].T)
        sim._write_back(lanes, trials, masks)
        expected = rows.copy()
        for trial, mask in zip(trials.tolist(), masks.tolist()):
            expected[trial] |= [bool(mask >> i & 1) for i in range(n)]
        assert np.array_equal(lanes, to_lanes(expected))  # padding bits included

    def test_outcome_no_set_produces(self, monkeypatch):
        # Given an outcome no set produces, MAP's block decoder returns a set
        # that does not reproduce it and never searches it, beside outcomes
        # some set produces, which decode as map_mask does; the one-outcome
        # decoder still refuses it.
        cases = [
            (TestDesign(n=0, row_masks=(0,)), [1]),
            (new_design([{0, 1}, {0}, {1}, {2}], 3), [0b1000, 0b1001]),  # test 0 keeps no survivor
            (new_design(DOUBLED_TESTS, 12), range(1 << len(DOUBLED_TESTS))),
        ]
        searched = self._record_searches(monkeypatch)
        for d, sigs in cases:
            images = {helpers.outcome_signature(d, k) for k in range(1 << d.n)}
            others = [sig for sig in sigs if sig not in images]
            assert others
            for sig in others:
                y = OutcomeVector(tuple(bool(sig >> t & 1) for t in range(d.T)))
                with pytest.raises(InconsistentOutcomeError):
                    decode(d, y, DecoderId.MAP, Prior(0.5))
            for p in (0.1, 0.5, 0.7):
                searched.clear()
                decode_block = self._map_decoder(d, p)
                for _ in range(2):  # the second call is served from the cache
                    got = self._decode_outcomes(decode_block, d, sigs)
                    for sig, estimate in zip(sigs, got):
                        if sig in images:
                            assert estimate == helpers.map_reference(d, sig, p)
                        else:
                            assert helpers.outcome_signature(d, estimate) != sig
                needed = [sig for sig in sigs if sig in images and helpers.map_search_needed(d, sig)]
                assert sorted(searched) == (needed if p <= 0.5 else [])

    def test_above_half_is_comp_block(self, monkeypatch):
        # For p > 1/2 MAP's block decoder returns comp_block's lanes on
        # sampled images, which are map_mask's survivors, and never searches.
        rng = np.random.default_rng(47)
        designs = [gen_doubly_regular(30, 2, 3, seed=5)]
        designs += [helpers.random_messy_design(rng, int(rng.integers(1, 13)), 8) for _ in range(10)]
        searched = self._record_searches(monkeypatch)
        for d in designs:
            sets = rng.random((150, d.n)) < 0.7
            sigs = [helpers.outcome_signature(d, helpers.mask_of_row(row)) for row in sets]
            positive = to_lanes(np.array([[sig >> t & 1 for t in range(d.T)] for sig in sigs], bool))
            got = self._map_decoder(d, 0.7)(positive, len(sigs))
            assert np.array_equal(got, sim.comp_block(d, positive))
            rows = [helpers.mask_of_row(row) for row in from_lanes(got, len(sigs))]
            assert rows == [helpers.map_reference(d, sig, 0.7) for sig in sigs]
        assert searched == []

    def test_keys_over_64_tests(self, monkeypatch):
        # 64 copies of one test, then tests that alone tell the outcomes apart:
        # keys that kept only their first word would merge those outcomes.
        rows = [{0, 1, 2, 3}] * 64 + [{0, 4}, {1, 4}, {2, 5}, {3, 5}, {4, 6}, {5, 7}, {6, 7}]
        d = new_design(rows, 8)
        images = sorted({helpers.outcome_signature(d, k) for k in range(1 << d.n)})
        searched = self._record_searches(monkeypatch)
        for p in (0.1, 0.5, 0.7):
            searched.clear()
            decode = self._map_decoder(d, p)
            for _ in range(2):  # the second call is served from the cache
                got = self._decode_outcomes(decode, d, images)
                assert got == [helpers.map_reference(d, sig, p) for sig in images]
            assert len(searched) == len(set(searched))
        unexplained = [s for s in images if not helpers.dd_explains(d, s)]
        high = {s >> 64 for s in unexplained if s & (1 << 64) - 1 == (1 << 64) - 1}
        assert len(high) > 1  # outcomes agree on the first 64 tests but not after


def _drawn(design, p, size, seed):
    """The lanes (n x W) of one block of ``size`` sets the library draws from substream (seed, 0)."""
    chunks = sim._sampler(design, p)(np.random.default_rng([seed, 0]), size)
    return np.concatenate([sets for sets, _ in chunks], axis=1)


class TestLaneDraw:
    """`sim._sampler` draws each block straight into lanes from raw 64-bit words."""

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.02, 1e-6, 1 - 2**-53])
    def test_matches_reference_across_pieces(self, p, monkeypatch):
        assert sim.DRAW_WORDS == helpers.DRAW_WORDS
        d = TestDesign(n=9, row_masks=())
        size = sim.BLOCK_TRIALS - 37  # 9 rows of 64 words, the last one partly filled
        for piece_words in (helpers.DRAW_WORDS, 100, 7):  # pieces that end inside rows
            monkeypatch.setattr(sim, "DRAW_WORDS", piece_words)
            rows = from_lanes(_drawn(d, p, size, 5), size)
            got = [helpers.mask_of_row(row) for row in rows]
            assert got == helpers.monte_carlo_sets_reference(d, p, size, 5, 1, piece_words)

    @pytest.mark.parametrize("size", [1, 63, 64, 65, 1000, sim.BLOCK_TRIALS])
    def test_padding_bits_stay_zero(self, size):
        # At p = 1 - 2^-53 every trial's bit is 1 but for chance 2^-53 each.
        lanes = _drawn(TestDesign(n=5, row_masks=()), 1 - 2**-53, size, 2)
        expected = np.zeros((5, -(-size // 64) * 64), dtype=bool)
        expected[:, :size] = True
        assert np.array_equal(lanes, np.packbits(expected, axis=1, bitorder="little").view("<u8"))

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.02, 1e-6, 1 - 2**-53])
    def test_bit_frequency_within_five_sigma(self, p):
        n = 256
        bits = np.unpackbits(_drawn(TestDesign(n=n, row_masks=()), p, sim.BLOCK_TRIALS, 4)
                             .view(np.uint8), bitorder="little").reshape(-1, 64)
        assert abs(bits.sum() - bits.size * p) <= 5 * math.sqrt(bits.size * p * (1 - p))
        if min(p, 1 - p) >= 0.01:  # each of the 64 bit positions of a word, 16,384 bits each
            deviations = np.abs(bits.sum(axis=0) - len(bits) * p)
            assert np.all(deviations <= 5 * math.sqrt(len(bits) * p * (1 - p)))

    @pytest.mark.parametrize("p", [0.3, 0.02])
    def test_neighbours_uncorrelated(self, p):
        # Neighbouring items in one trial, and one item in neighbouring trials
        # (across word boundaries too): correlation within 5 standard errors of 0.
        rows = from_lanes(_drawn(TestDesign(n=256, row_masks=()), p, sim.BLOCK_TRIALS, 6),
                          sim.BLOCK_TRIALS).astype(float)
        for a, b in ((rows[:, :-1], rows[:, 1:]), (rows[:-1], rows[1:])):
            r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
            assert abs(r) <= 5 / math.sqrt(a.size)

    def test_error_within_wilson_interval_of_exact(self):
        # The exact error lies in the Monte Carlo estimate's Wilson score
        # interval at z = 5: |estimate - exact| <= 5 sqrt(exact (1 - exact) / trials).
        rng = np.random.default_rng(48)
        designs = [gen_doubly_regular(12, 2, 3, seed=2), new_design([{0, 1}, {1, 2}], 3)]
        designs += [helpers.random_messy_design(rng, n, n - 3) for n in (8, 11, 14)]
        trials = 20_000
        for case, d in enumerate(designs):
            for p in (0.1, 0.3, 0.7):
                for decoder in DecoderId:
                    exact = exact_average_error(d, Prior(p), decoder)
                    got = monte_carlo_error(d, Prior(p), decoder, trials, case)
                    assert abs(got.estimate - exact) <= 5 * math.sqrt(exact * (1 - exact) / trials)


class TestMonteCarlo:
    def test_identity_never_errs(self):
        result = monte_carlo_error(gen_individual(5), Prior(0.3), DecoderId.MAP, 10_000, 3)
        assert result.errors == 0
        assert result.estimate == 0.0
        assert result.ci_low == 0.0

    def test_estimate_near_exact(self):
        d = new_design([{0, 1}], 2)
        result = monte_carlo_error(d, Prior(0.3), DecoderId.MAP, 100_000, 17)
        stderr = math.sqrt(0.3 * 0.7 / 100_000)
        assert abs(result.estimate - 0.30) <= 4 * stderr
        assert result.ci_low <= 0.30 <= result.ci_high

    def test_bit_identical_reruns(self):
        d = new_design([{0, 1}, {1, 2}], 3)
        for workers in (1, 2, 8):
            a = monte_carlo_error(d, Prior(0.3), DecoderId.MAP, 10_000, 5, workers)
            b = monte_carlo_error(d, Prior(0.3), DecoderId.MAP, 10_000, 5, workers)
            assert a == b

    def test_trials_partitioned_exactly(self):
        d = new_design([{0, 1}], 2)
        result = monte_carlo_error(d, Prior(0.4), DecoderId.COMP, 10_001, 2, workers=3)
        assert result.trials == 10_001
        assert result.estimate == result.errors / 10_001

    def test_matches_per_row_loop(self):
        rng = np.random.default_rng(46)
        designs = []
        for _ in range(6):
            n, T = int(rng.integers(1, 13)), int(rng.integers(0, 9))
            designs.append(helpers.random_messy_design(rng, n, T) if T else TestDesign(n=n, row_masks=()))
        # Skewed: one test holds every item, beside weight-1 and empty tests.
        designs.append(new_design([range(12), {3}, set(), {0, 5}, {11}, set()], 12))
        for case, d in enumerate(designs):
            for trials, workers in ((5_000, 1), (13_000, 3)):
                sets = helpers.monte_carlo_sets_reference(d, 0.3, trials, case, workers)
                for decoder in DecoderId:
                    got = monte_carlo_error(d, Prior(0.3), decoder, trials, case, workers)
                    assert got.errors == helpers.monte_carlo_errors_reference(d, 0.3, decoder, sets)

    def test_n600_matches_per_row_loop(self):
        d = gen_doubly_regular(600, 2, 4, seed=8)  # rows span 75 packed bytes
        trials = sim.BLOCK_TRIALS + 300  # one full block and a partial one
        for p in (0.02, 0.1):
            sets = helpers.monte_carlo_sets_reference(d, p, trials, 6, 1)
            for decoder in (DecoderId.COMP, DecoderId.DD):
                got = monte_carlo_error(d, Prior(p), decoder, trials, 6)
                assert got.errors == helpers.monte_carlo_errors_reference(d, p, decoder, sets)

    def test_chunks_leave_counts_unchanged(self, monkeypatch):
        d = new_design([{0, 1}, {1, 2, 3}, {3, 4}, set()], 6)
        trials = 2 * sim.BLOCK_TRIALS + 5
        whole = {dec: monte_carlo_error(d, Prior(0.3), dec, trials, 9, 2) for dec in DecoderId}
        chunks = []
        original = sim._error_tally

        def recording(*args):
            wrong = original(*args)

            def recorded(sets, s):
                chunks.append(s)
                return wrong(sets, s)

            return recorded

        monkeypatch.setattr(sim, "_error_tally", recording)
        monkeypatch.setattr(sim, "CHUNK_ELEMENTS", 6 * 1000 + 5)  # 960 rows (15 words) of 6 items
        for decoder in DecoderId:
            chunks.clear()
            assert monte_carlo_error(d, Prior(0.3), decoder, trials, 9, 2) == whole[decoder]
            assert sum(chunks) == trials and max(chunks) == 960

    def test_row_over_chunk_budget_raises(self, monkeypatch):
        monkeypatch.setattr(sim, "CHUNK_ELEMENTS", 6)
        for d in (TestDesign(n=7, row_masks=()), new_design([{0}] * 7, 2)):
            for decoder in DecoderId:
                with pytest.raises(BudgetExceededError, match="chunk budget of 6"):
                    monte_carlo_error(d, Prior(0.3), decoder, 10, 0)
        monte_carlo_error(TestDesign(n=6, row_masks=()), Prior(0.3), DecoderId.COMP, 10, 0)

    def test_surplus_workers_change_nothing_and_start_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("monte_carlo_error started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        d = new_design([{0, 1}, {1, 2}], 3)
        trials = 5 * sim.BLOCK_TRIALS - 7  # five blocks
        for decoder in DecoderId:
            runs = {
                w: monte_carlo_error(d, Prior(0.3), decoder, trials, 4, workers=w)
                for w in (1, 2, 5, 10_000)
            }
            assert runs[10_000] == runs[5]
            assert runs[1] != runs[2]  # the substreams differ

    def test_each_outcome_decoded_once_across_blocks(self, monkeypatch):
        # No outcome is decoded twice, and only the distinct outcomes that DD's
        # estimate leaves unexplained and no four items complete reach
        # decode_mask; for p > 1/2 COMP's estimate explains every outcome, so
        # decode_mask is never called.
        d = gen_doubly_regular(30, 2, 3, seed=5)
        trials = 4 * sim.BLOCK_TRIALS
        original = sim.decode_mask
        decoded = []

        def counting(design, sig, *args):
            decoded.append(sig)
            return original(design, sig, *args)

        def signature(k):
            return outcomes(d, DefectiveSet(n=d.n, mask=k)).signature

        monkeypatch.setattr(sim, "decode_mask", counting)
        for p in (0.1, 0.7):
            sets = helpers.monte_carlo_sets_reference(d, p, trials, 3, 2)
            distinct = {signature(k) for k in sets}
            unexplained = {s for s in distinct if p <= 0.5 and not helpers.dd_explains(d, s)}
            searches = {s for s in unexplained if helpers.map_search_needed(d, s)}
            assert searches < unexplained or p > 0.5
            decoded.clear()
            monte_carlo_error(d, Prior(p), DecoderId.MAP, trials, 3, workers=2)
            assert sorted(decoded) == sorted(searches)
            assert len(distinct) < trials
            assert bool(decoded) == (p <= 0.5)

    def test_map_search_finishes_on_a_dense_outcome_mix(self):
        # At p = 0.3 a subset enumeration spent seconds on single outcomes of
        # this design (about 40 s for these 200 trials).
        d = gen_doubly_regular(30, 2, 3, seed=4)
        start = time.perf_counter()
        monte_carlo_error(d, Prior(0.3), DecoderId.MAP, 200, 2)
        assert time.perf_counter() - start < 10.0

    def test_map_budget_holds_when_no_outcome_needs_a_search(self):
        # Every outcome of an identity design is explained by DD and COMP.
        d = gen_individual(31)
        for p in (0.1, 0.7):
            with pytest.raises(BudgetExceededError):
                monte_carlo_error(d, Prior(p), DecoderId.MAP, 100, 0)

    def test_validation(self):
        d = new_design([{0}], 1)
        with pytest.raises(ValueError):
            monte_carlo_error(d, Prior(0.5), DecoderId.MAP, 0, 1)
        with pytest.raises(ValueError):
            monte_carlo_error(d, Prior(0.5), DecoderId.MAP, 10, 1, workers=0)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            monte_carlo_error(d, Prior(0.5), DecoderId.MAP, 10, -1)

    def test_zero_item_design_never_errs(self):
        # reduce_design resolves every item of an identity design
        empty, _ = reduce_design(gen_individual(3))
        assert empty.n == 0 and empty.T == 0
        for decoder in DecoderId:
            for p in (0.3, 0.7):
                assert exact_average_error(empty, Prior(p), decoder) == 0.0
                result = monte_carlo_error(empty, Prior(p), decoder, sim.BLOCK_TRIALS + 5, 1, 2)
                assert result.errors == 0 and result.trials == sim.BLOCK_TRIALS + 5

    def test_json_round_trip(self):
        d = new_design([{0, 1}], 2)
        result = monte_carlo_error(d, Prior(0.3), DecoderId.MAP, 5_000, 11, workers=2)
        parsed = from_dict(SimResult, json.loads(json.dumps(to_dict(result))))
        assert parsed == result


class TestVerifyTheorem:
    def test_single_pool_passes(self):
        report = verify_theorem(new_design([{0, 1}], 2), Prior(0.3))
        assert report.applicable
        assert report.epsilon_floor == pytest.approx(0.027, rel=1e-12)
        assert report.observed_error == pytest.approx(0.30, abs=1e-12)
        assert report.theorem_pass is True
        assert report.method == "exact-map"
        assert all(c.passed for c in report.lemma_checks)

    def test_identity_not_applicable(self):
        report = verify_theorem(gen_individual(3), Prior(0.5))
        assert not report.applicable
        assert report.theorem_pass is None
        assert report.observed_error == 0.0

    def test_no_tests_single_item(self):
        d = TestDesign(n=1, row_masks=())
        for p in (0.2, 0.8):
            report = verify_theorem(d, Prior(p))
            assert report.applicable
            assert report.observed_error == pytest.approx(min(p, 1 - p), abs=1e-12)
            assert report.theorem_pass is True

    def test_monte_carlo_fallback(self):
        d = helpers.random_min2_design(np.random.default_rng(2), 16, 8)
        report = verify_theorem(d, Prior(0.3), trials=4_000, seed=1)
        assert report.method == "mc-map"
        assert report.theorem_pass is True

    def test_comp_fallback_beyond_map_budget(self):
        d = helpers.random_min2_design(np.random.default_rng(3), 32, 10)
        report = verify_theorem(d, Prior(0.3), trials=2_000, seed=1)
        assert report.method == "mc-comp"

    def test_co_item_budget_skip_path(self):
        # items 0-26 share tests with 26 or 27 others, item 27 with exactly
        # CO_ITEM_BUDGET, items 28-31 with one; n = 32 is over the MAP budget
        d = new_design([set(range(27)), {27, *range(1, 26)}, {28, 29}, {30, 31}], 32)
        report = verify_theorem(d, Prior(0.1), trials=300, seed=0)
        assert report.method == "mc-comp"
        assert len(co_items(d, 27)) == CO_ITEM_BUDGET
        over = tuple(i for i in range(d.n) if len(co_items(d, i)) > CO_ITEM_BUDGET)
        assert over == tuple(range(27))
        assert report.lemma_skipped == over
        assert [c.item for c in report.lemma_checks] == [27, 28, 29, 30, 31]
        assert report.lemma_checks[0].exact == pytest.approx(1 - 0.9**25, rel=1e-12)
        assert all(c.passed for c in report.lemma_checks)

    def test_run_arguments_checked_on_every_path(self):
        # n = 2 takes the exact-map path, which uses none of the run arguments
        mc_map_design = helpers.random_min2_design(np.random.default_rng(2), 16, 8)
        for d in (new_design([{0, 1}], 2), mc_map_design):
            for kwargs, message in (
                ({"trials": 0}, "trials must be positive"),
                ({"seed": -1}, "seed must be nonnegative"),
                ({"trials": -1, "seed": -3}, "trials must be positive"),
            ):
                with pytest.raises(ValueError, match=message):
                    verify_theorem(d, Prior(0.3), **kwargs)

    def test_json_round_trip(self):
        report = verify_theorem(new_design([{0, 1}], 2), Prior(0.3))
        parsed = from_dict(VerificationReport, json.loads(json.dumps(to_dict(report))))
        assert parsed == report


class TestReductionErrorMonotone:
    def test_reduced_error_never_worse(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            T = int(rng.integers(1, 7))
            d = helpers.random_messy_design(rng, n, T)
            reduced, _ = reduce_design(d)
            for p in (0.3, 0.5):
                pr = Prior(p)
                original = exact_average_error(d, pr, DecoderId.MAP)
                lifted = exact_average_error(reduced, pr, DecoderId.MAP)
                assert lifted <= original + 1e-12

    def test_worked_example(self):
        # original: item 0 contaminates the pool {0,1,2}, so per outcome the MAP
        # decoder is right for exactly K in {empty, {1}, {0}}: 1 - (q^3 + 2pq^2).
        # reduced: clean pool over {1,2}, error 0.30.  Reduction strictly helps.
        d = new_design([set(), {0}, {0, 1, 2}], 3)
        reduced, _ = reduce_design(d)
        pr = Prior(0.3)
        original = 1 - (0.7**3 + 2 * 0.3 * 0.7**2)
        assert exact_average_error(d, pr, DecoderId.MAP) == pytest.approx(original, abs=1e-12)
        assert exact_average_error(reduced, pr, DecoderId.MAP) == pytest.approx(0.30, abs=1e-12)
        assert 0.30 <= original


class TestFloorOnSmallDesigns:
    def test_floor_holds_exhaustively_below_individual(self):
        # every design with fewer tests than items, up to n = 3 (n = 4 runs in
        # the acceptance suite)
        for p in P_GRID:
            floor = epsilon_bound(Prior(p)).epsilon
            for n in (1, 2, 3):
                for T in range(n):
                    for d in helpers.all_designs(n, T):
                        err = exact_average_error(d, Prior(p), DecoderId.MAP)
                        assert err >= floor - 1e-12
