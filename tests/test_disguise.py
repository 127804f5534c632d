"""Tests for disguise probabilities: product bounds, exact enumeration, chain values."""

import gc
import json
import math
import weakref

import numpy as np
import pytest

from pooltest import (
    BudgetExceededError,
    DisguiseReport,
    Prior,
    co_items,
    disguise_bound,
    exact_disguise_prob,
    from_dict,
    gen_doubly_regular,
    gen_individual,
    l_star,
    mean_log_bound,
    new_design,
    to_dict,
)
from pooltest import disguise

import helpers

P_GRID = [0.1, 0.3, 0.5, 0.7, 0.9]


class TestDisguiseBound:
    def test_two_disjoint_tests(self):
        d = new_design([{0, 1}, {0, 2}], 3)
        log_b, bound = disguise_bound(d, 0, Prior(0.5))
        assert log_b == pytest.approx(2 * math.log(0.5), rel=1e-12)
        assert bound == pytest.approx(0.25, rel=1e-12)

    def test_untested_item_vacuously_disguised(self):
        d = new_design([{1, 2}], 3)
        log_b, bound = disguise_bound(d, 0, Prior(0.3))
        assert log_b == 0.0 and bound == 1.0

    def test_solo_test_kills_bound(self):
        d = new_design([{0}, {0, 1}], 2)
        log_b, bound = disguise_bound(d, 0, Prior(0.3))
        assert log_b == float("-inf") and bound == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            disguise_bound(new_design([{0}], 1), 1, Prior(0.5))


class TestExactDisguiseProb:
    def test_repeated_test_same_co_item(self):
        d = new_design([{0, 1}, {0, 1}], 2)
        assert exact_disguise_prob(d, 0, Prior(0.5)) == pytest.approx(0.5, rel=1e-12)

    def test_disjoint_co_items_equals_bound(self):
        d = new_design([{0, 1}, {0, 2}], 3)
        assert exact_disguise_prob(d, 0, Prior(0.5)) == pytest.approx(0.25, rel=1e-12)

    def test_untested_item(self):
        d = new_design([{1, 2}], 3)
        assert exact_disguise_prob(d, 0, Prior(0.2)) == 1.0

    def test_matches_full_enumeration_oracle(self):
        rng = np.random.default_rng(21)
        cases = []
        for _ in range(40):
            n = int(rng.integers(2, 9))
            T = int(rng.integers(1, 7))
            d = helpers.random_messy_design(rng, n, T)
            cases.append((d, int(rng.integers(0, n))))
        # 13 and 14 co-items: the 2^m patterns span two and four enumeration blocks
        wide = [
            (new_design([{0, *range(1, 8)}, {0, *range(6, 14)}, {2, 9, 14}, {0, 3, 11}], 15), 0),
            (new_design([{*range(6), 7}, {5, 6, *range(8, 12)}, {5, 12, 13, 14}, {1, 15}], 16), 5),
        ]
        assert [len(co_items(d, i)) for d, i in wide] == [13, 14]
        for d, i in cases + wide:
            for p in (0.2, 0.5, 0.8):
                expected = helpers.exact_disguise_oracle(d, i, p)
                assert exact_disguise_prob(d, i, Prior(p)) == pytest.approx(
                    expected, rel=1e-10, abs=1e-12
                )

    def test_budget_exceeded(self):
        # item 0 co-occurs with 26 items
        d = new_design([set(range(27))], 27)
        with pytest.raises(BudgetExceededError):
            exact_disguise_prob(d, 0, Prior(0.5))

    def test_co_items(self):
        d = new_design([{0, 1}, {0, 2}, {3, 4}], 5)
        assert co_items(d, 0) == (1, 2)
        assert co_items(d, 3) == (4,)


class TestPatternCounts:
    # co-set {1} inside {1, 2} and {1, 3}: one minimal co-set over three co-items
    NESTED = (new_design([{0, 1}, {0, 1, 2}, {0, 1, 3}], 4), 0)
    SOLO = (new_design([{0}, {0, 1, 2}], 3), 0)
    UNTESTED = (new_design([{1, 2}], 3), 0)
    # six minimal co-sets over four co-items: only the walk is feasible
    PAIRS = (new_design([{0, a, b} for a in range(1, 5) for b in range(a + 1, 5)], 5), 0)
    # 14 minimal co-sets over 15 co-items: 2^14 terms span four blocks
    CHAIN = (new_design([{0, a, a + 1} for a in range(1, 15)], 16), 0)
    REGULAR = gen_doubly_regular(144, 2, 9, seed=1)

    def test_match_per_pattern_reference(self):
        rng = np.random.default_rng(26)
        cases = [(new_design([], 3), i) for i in range(3)]
        cases += [(new_design([{0, 1}, {0, 1}, {1, 2}, {0, 1}], 3), i) for i in range(3)]
        for _ in range(40):
            n = int(rng.integers(1, 9))
            d = helpers.random_messy_design(rng, n, int(rng.integers(0, 7)))
            cases += [(d, i) for i in range(n)]
        cases += [self.NESTED, self.SOLO, self.UNTESTED, self.PAIRS, self.CHAIN]
        cases += [(self.REGULAR, i) for i in (0, 71, 143)]
        assert [len(co_items(self.REGULAR, i)) for i in (0, 71, 143)] == [16, 16, 16]
        for d, i in cases:
            assert disguise._pattern_counts(d, i) == helpers.disguise_counts_reference(d, i)
        assert disguise._pattern_counts(*self.SOLO) == (0, 0, 0)
        assert disguise._pattern_counts(*self.UNTESTED) == (1,)

    def test_walk_only_when_minimal_co_sets_outnumber_co_items(self, monkeypatch):
        walked, walk = [], disguise.count_by_size

        def recording(m, event):
            walked.append(m)
            return walk(m, event)

        monkeypatch.setattr(disguise, "count_by_size", recording)
        for d, i in [self.NESTED, self.SOLO, self.CHAIN, (self.REGULAR, 0)]:
            disguise._pattern_counts(d, i)
        assert walked == []
        disguise._pattern_counts(*self.PAIRS)
        assert walked == [4]

    def test_no_reference_kept_to_design(self):
        d = gen_doubly_regular(36, 2, 6, seed=2)
        ref = weakref.ref(d)
        exact_disguise_prob(d, 0, Prior(0.3))
        mean_log_bound(d, Prior(0.3), exact_budget=25)
        del d
        gc.collect()
        assert ref() is None


class TestFkgInequality:
    def test_exact_dominates_bound_on_random_designs(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            T = int(rng.integers(1, 8))
            d = helpers.random_min2_design(rng, n, T)
            for p in P_GRID:
                pr = Prior(p)
                for i in range(n):
                    _, bound = disguise_bound(d, i, pr)
                    assert exact_disguise_prob(d, i, pr) >= bound - 1e-12

    def test_strict_gap_when_tests_overlap(self):
        # shared co-item 1 across both tests: positive correlation is strict
        d = new_design([{0, 1, 2}, {0, 1, 3}], 4)
        pr = Prior(0.4)
        _, bound = disguise_bound(d, 0, pr)
        assert exact_disguise_prob(d, 0, pr) > bound + 1e-6


class TestMeanLogBound:
    def test_hand_computed_example(self):
        d = new_design([{0, 1}, {0, 1}], 2)
        report = mean_log_bound(d, Prior(0.5))
        assert report.mean_log_bound == pytest.approx(2 * math.log(0.5), rel=1e-12)
        assert report.mean_log_bound_by_test == pytest.approx(2 * math.log(0.5), rel=1e-12)
        assert report.chain_applicable

    def test_empty_design(self):
        d = new_design([], 4)
        report = mean_log_bound(d, Prior(0.3))
        assert report.mean_log_bound == 0.0
        assert report.mean_log_bound_by_test == 0.0
        assert report.min_weight_term is None
        assert all(it.log_bound == 0.0 for it in report.items)

    def test_identity_design_flagged(self):
        report = mean_log_bound(gen_individual(3), Prior(0.4))
        assert not report.chain_applicable
        assert all(it.log_bound == float("-inf") for it in report.items)
        assert all(it.fkg_bound == 0.0 for it in report.items)
        assert report.mean_log_bound == float("-inf")
        assert report.mean_log_bound_by_test == float("-inf")

    def test_formulas_agree_on_random_designs(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            T = int(rng.integers(0, 8))
            d = helpers.random_messy_design(rng, n, T)
            report = mean_log_bound(d, Prior(0.35))
            if math.isinf(report.mean_log_bound):
                assert math.isinf(report.mean_log_bound_by_test)
            else:
                assert report.mean_log_bound == pytest.approx(
                    report.mean_log_bound_by_test, rel=1e-10, abs=1e-12
                )

    def test_mean_bounded_by_max(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            d = helpers.random_min2_design(rng, 8, 5)
            report = mean_log_bound(d, Prior(0.25))
            assert max(it.log_bound for it in report.items) >= report.mean_log_bound - 1e-12

    def test_chain_inequalities(self):
        rng = np.random.default_rng(25)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            T = int(rng.integers(1, n + 1))
            d = helpers.random_min2_design(rng, n, T)
            for p in P_GRID:
                report = mean_log_bound(d, Prior(p))
                assert report.chain_applicable
                assert report.mean_log_bound >= report.scaled_min_term - 1e-12
                assert report.scaled_min_term >= report.min_weight_term - 1e-12
                assert report.min_weight_term >= report.l_star - 1e-12
                assert report.l_star == l_star(Prior(p))[0]

    def test_exact_budget_controls_exact_column(self):
        d = new_design([{0, 1}, {1, 2}], 3)
        without = mean_log_bound(d, Prior(0.5))
        assert all(it.exact_prob is None for it in without.items)
        with_exact = mean_log_bound(d, Prior(0.5), exact_budget=25)
        assert all(it.exact_prob is not None for it in with_exact.items)
        for it in with_exact.items:
            assert it.exact_prob >= it.fkg_bound - 1e-12
            assert it.fkg_bound == pytest.approx(math.exp(it.log_bound), rel=1e-12)

    def test_json_round_trip_with_infinities(self):
        report = mean_log_bound(gen_individual(2), Prior(0.4), exact_budget=25)
        parsed = from_dict(DisguiseReport, json.loads(json.dumps(to_dict(report))))
        assert parsed == report
