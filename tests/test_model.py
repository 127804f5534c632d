"""Tests for the prior, bit lanes, and the OR outcome channel (`sim._or_channel`),
which works on defective sets in lanes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pooltest import (
    Prior,
    new_design,
    sim,
)
from pooltest.model import BLOCK_TRIALS, from_lanes, subset_lanes, to_lanes

import helpers


class TestPrior:
    def test_q_cached(self):
        pr = Prior(0.3)
        assert pr.q == pytest.approx(0.7, abs=0)

    # q = 1 - p rounds to 1 for p <= 2^-54, where the floor's q/p and log(q) break down
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, 1e-17, 2.0**-54, 5e-324])
    def test_boundaries_rejected(self, bad):
        with pytest.raises(ValueError):
            Prior(bad)

    def test_smallest_p_with_q_below_one(self):
        assert Prior(2.0**-53).q < 1.0

    def test_weight(self):
        pr = Prior(0.3)
        assert pr.weight(1, 2) == pytest.approx(0.21)
        assert pr.weight(0, 2) == pytest.approx(0.49)

    PROBABILITY_GRID = (1e-3, 0.05, 0.3, 0.5, 0.7, 0.999)

    @staticmethod
    def random_counts(rng, m):
        """Counts c_j <= C(m, j), a quarter of them 0, for j = 0 .. m."""
        return [int(rng.integers(0, math.comb(m, j) + 1)) * int(rng.random() < 0.75)
                for j in range(m + 1)]

    def test_probability_row_by_row(self):
        rng = np.random.default_rng(40)
        for p in self.PROBABILITY_GRID:
            prior = Prior(p)
            for m in range(26):
                rows = [self.random_counts(rng, m) for _ in range(4)]
                rows += [[math.comb(m, j) for j in range(m + 1)], [0] * (m + 1)]
                for counts in rows:
                    value = float(prior.probability(np.array(counts), m))
                    assert repr(value) == repr(helpers.prior_probability_reference(p, counts))

    def test_probability_mixed_table_in_one_call(self):
        rng = np.random.default_rng(41)
        m = rng.integers(0, 26, size=300)
        rows = [self.random_counts(rng, size) for size in m.tolist()]
        table = np.zeros((len(rows), 26), dtype=np.int64)
        for r, counts in enumerate(rows):
            table[r, :len(counts)] = counts
        for p in self.PROBABILITY_GRID:
            values = Prior(p).probability(table, m).tolist()
            assert [repr(v) for v in values] == [
                repr(helpers.prior_probability_reference(p, counts)) for counts in rows
            ]

    def test_probability_empty_table_and_no_items(self):
        prior = Prior(0.3)
        empty = prior.probability(np.zeros((0, 26), dtype=np.int64), np.zeros(0, dtype=np.intp))
        assert empty.shape == (0,)
        # over m = 0 items the event holds on the empty set or on nothing
        assert prior.probability(np.array([[1], [0]]), np.array([0, 0])).tolist() == [1.0, 0.0]
        assert float(prior.probability(np.array([1]), 0)) == 1.0


def channel(design, sets):
    """The outcome signatures of defective sets (bitmasks), pushed through
    `sim._or_channel` as one block of trials in lanes."""
    rows = np.array([[bool(k >> i & 1) for i in range(design.n)] for k in sets], dtype=bool)
    images = from_lanes(sim._or_channel(design, to_lanes(rows)), len(sets))
    return [helpers.mask_of_row(row) for row in images]


class TestOutcomes:
    """Test t is positive iff it contains at least one defective item."""

    def test_definition_cases(self):
        d = new_design([{0, 1}, {2}], 3)
        assert channel(d, [0b010]) == [0b01]
        d2 = new_design([{0, 1}, {1, 2}, {2}], 3)
        assert channel(d2, [0b100]) == [0b110]

    def test_empty_set_all_negative(self):
        d = new_design([{0, 1}, {1, 2}, set()], 3)
        assert channel(d, [0]) == [0]

    def test_identity_decodes_itself(self):
        d = new_design([{0}, {1}, {2}], 3)
        assert channel(d, [0b010]) == [0b010]

    def test_weight_zero_test_never_fires(self):
        d = new_design([set(), {0}], 1)
        assert channel(d, [0b1]) == [0b10]


@st.composite
def design_and_masks(draw):
    n = draw(st.integers(1, 6))
    T = draw(st.integers(0, 5))
    masks = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(T))
    a = draw(st.integers(0, (1 << n) - 1))
    b = draw(st.integers(0, (1 << n) - 1))
    return helpers.design_from_masks(masks, n), a, b


@settings(max_examples=150, deadline=None)
@given(design_and_masks())
def test_outcomes_monotone_and_or(case):
    design, a, b = case
    ya, yb, yab, sub = channel(design, [a, b, a | b, a & b])
    assert [ya, yb] == [helpers.outcome_signature(design, k) for k in (a, b)]
    # union outcome is bitwise OR
    assert yab == ya | yb
    # monotone: subset gives bitwise-smaller outcomes
    assert sub & ya == sub


class TestSubsetWalk:
    def test_width_checked(self):
        for m in (-1, 33):
            with pytest.raises(ValueError):
                subset_lanes(m, 0)

    def test_lanes_match_packed_blocks(self):
        # m < 6 leaves a partly filled word; m >= 13 takes rows from the block's start.
        for m in range(16):
            for start in range(0, 1 << m, BLOCK_TRIALS):
                ks = np.arange(start, min(start + BLOCK_TRIALS, 1 << m))
                rows = (ks[:, None] >> np.arange(m) & 1).astype(bool)
                lanes = subset_lanes(m, start)
                assert lanes.dtype == np.uint64 and (lanes == to_lanes(rows)).all()
                for r in range(m):  # padding bits are 0
                    assert int.from_bytes(lanes[r].tobytes(), "little") >> len(ks) == 0

    def test_lanes_start_checked(self):
        for m, start in ((13, 1), (13, BLOCK_TRIALS * 2), (4, 16), (4, -BLOCK_TRIALS)):
            with pytest.raises(ValueError):
                subset_lanes(m, start)


class TestLanes:
    def test_round_trip_at_word_edges(self):
        rng = np.random.default_rng(50)
        for s in (1, 63, 64, 65, 130):
            for k in (0, 1, 7):
                rows = rng.random((s, k)) < 0.5
                lanes = to_lanes(rows)
                assert lanes.dtype == np.uint64 and lanes.shape == (k, -(-s // 64))
                assert (from_lanes(lanes, s) == rows).all()
                for r in range(k):  # bit b of word w is trial 64w + b; padding bits are 0
                    assert int.from_bytes(lanes[r].tobytes(), "little") == helpers.mask_of_row(rows[:, r])
