"""Tests for disguise probabilities: product bounds, exact enumeration, chain values."""

import gc
import json
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from pooltest import (
    BudgetExceededError,
    Prior,
    TestDesign,
    co_items,
    disguise_bound,
    exact_disguise_prob,
    gen_doubly_regular,
    gen_individual,
    l_star,
    mean_log_bound,
    new_design,
    to_dict,
)
from pooltest import disguise
from pooltest.disguise import CO_ITEM_BUDGET

import helpers

P_GRID = [0.1, 0.3, 0.5, 0.7, 0.9]


def pattern_counts(design, items):
    """`disguise._pattern_counts` per item of ``items``: its counts for j = 0 .. m
    as a tuple, or None where it was skipped; every count past m must be 0."""
    counted, m, table = disguise._pattern_counts(design, np.array(items), CO_ITEM_BUDGET)
    assert table.shape == (len(items), CO_ITEM_BUDGET + 1)
    out = []
    for c, size, row in zip(counted.tolist(), m.tolist(), table.tolist()):
        assert not any(row[size + 1:]) and (c or size == 0)
        out.append(tuple(row[:size + 1]) if c else None)
    return out


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
    # 13 minimal co-sets over 13 co-items: item 0 walks all 2^13 patterns
    CYCLE = (new_design([{0, 1 + k, 1 + (k + 1) % 13} for k in range(13)], 14), 0)
    # item 0 is untested (d' = 0) and item 1 tested alone (d' = 1): both walk with m = 0
    ALONE = new_design([{1}], 2)
    # items 0, 5 and 10 walk with m = 4 and d' = 5, 4 and 6; items 6 to 9 with m = d' = 1
    SHARED_M = new_design(
        [{0, a, b} for a in range(1, 5) for b in range(a + 1, 5) if (a, b) != (3, 4)]
        + [{5, a} for a in range(6, 10)]
        + [{10, a, b} for a in range(11, 15) for b in range(a + 1, 15)],
        15,
    )

    def test_match_per_pattern_reference(self):
        rng = np.random.default_rng(26)
        cases = [(new_design([], 3), range(3))]
        cases += [(new_design([{0, 1}, {0, 1}, {1, 2}, {0, 1}], 3), range(3))]
        for _ in range(40):
            n = int(rng.integers(1, 9))
            d = helpers.random_messy_design(rng, n, int(rng.integers(0, 7)))
            cases += [(d, range(n))]
        named = (self.NESTED, self.SOLO, self.UNTESTED, self.PAIRS, self.CHAIN, self.CYCLE)
        cases += [(d, range(d.n)) for d, _ in named]
        cases += [(self.ALONE, range(2)), (self.SHARED_M, range(15))]
        cases += [(self.REGULAR, (0, 71, 143))]
        assert [len(co_items(self.REGULAR, i)) for i in (0, 71, 143)] == [16, 16, 16]
        for d, items in cases:
            expected = [helpers.disguise_counts_reference(d, i) for i in items]
            assert pattern_counts(d, items) == expected
        assert pattern_counts(self.SOLO[0], [0]) == [(0, 0, 0)]
        assert pattern_counts(self.UNTESTED[0], [0]) == [(1,)]

    def test_walk_only_when_minimal_co_sets_outnumber_co_items(self, monkeypatch):
        walked, walk = [], disguise._walk

        def recording(sets, m):
            walked.append((m, len(sets)))
            return walk(sets, m)

        monkeypatch.setattr(disguise, "_walk", recording)
        for d, i in [self.NESTED, self.SOLO, self.CHAIN, (self.REGULAR, 0)]:
            disguise._pattern_counts(d, np.array([i]), CO_ITEM_BUDGET)
        disguise._pattern_counts(self.REGULAR, np.arange(self.REGULAR.n), CO_ITEM_BUDGET)
        assert walked == []
        disguise._pattern_counts(self.PAIRS[0], np.array([self.PAIRS[1]]), CO_ITEM_BUDGET)
        assert walked == [(4, 1)]
        # one walk per distinct m, over every item of the design that walks with it
        for d, walks in [(self.CYCLE[0], [(13, 1)]), (self.ALONE, [(0, 2)]),
                         (self.SHARED_M, [(1, 4), (4, 3)])]:
            walked.clear()
            disguise._pattern_counts(d, np.arange(d.n), CO_ITEM_BUDGET)
            assert sorted(walked) == walks

    def test_same_counts_in_passes_of_any_size(self, monkeypatch):
        # CHAIN's 2^14 inclusion-exclusion terms, REGULAR's gather of
        # 144 x 2 x 9 members and CYCLE's walk of 2^13 patterns, against one
        # pass each
        designs = [self.CHAIN[0], self.PAIRS[0], self.REGULAR, self.CYCLE[0], self.SHARED_M]
        whole = [pattern_counts(d, range(d.n)) for d in designs]
        for chunk in (1, 7, 1000):
            monkeypatch.setattr(disguise, "CHUNK_ELEMENTS", chunk)
            for d, counts in zip(designs, whole):
                assert pattern_counts(d, range(d.n)) == counts

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

    def test_chain_not_applicable_without_tests(self):
        # no test leaves two chain links None, so there is no chain to compare
        for d in (new_design([], 3), TestDesign(n=0, row_masks=())):
            report = mean_log_bound(d, Prior(0.3), exact_budget=25)
            assert report.min_weight_term is None and report.scaled_min_term is None
            assert not report.chain_applicable
        assert mean_log_bound(new_design([{0, 1}], 3), Prior(0.3)).chain_applicable

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

    def test_negative_exact_budget_refused(self):
        d = new_design([{0, 1}, {1, 2}], 3)
        for budget in (-1, -3):
            with pytest.raises(ValueError, match=f"exact budget must be nonnegative, got {budget}"):
                mean_log_bound(d, Prior(0.3), exact_budget=budget)

    def test_exact_column_matches_per_item_and_reference(self):
        rng = np.random.default_rng(27)
        designs = [
            helpers.random_messy_design(rng, int(rng.integers(1, 10)), int(rng.integers(0, 9)))
            for _ in range(42)
        ]
        designs += [d for d, _ in (TestPatternCounts.NESTED, TestPatternCounts.SOLO,
                                   TestPatternCounts.UNTESTED, TestPatternCounts.PAIRS,
                                   TestPatternCounts.CHAIN)]
        designs += [TestDesign(n=0, row_masks=())]
        # items 0-26 have 26 or 27 co-items; item 27 has exactly 25, in one
        # test, so its counts are C(25, j) for every j >= 1
        skip = new_design([set(range(27)), {27, *range(1, 26)}, {28, 29}, {30, 31}], 32)
        designs += [skip]
        references = {}

        def reference(d, i):
            if d is skip and i == 27:
                return (0,) + tuple(math.comb(25, j) for j in range(1, 26))
            if (id(d), i) not in references:
                references[id(d), i] = helpers.disguise_counts_reference(d, i)
            return references[id(d), i]

        for d in designs:
            m = [len(co_items(d, i)) for i in range(d.n)]
            for budget in (0, 3, 20, 25, None):
                for p in (0.3, 0.8):
                    prior = Prior(p)
                    report = mean_log_bound(d, prior, exact_budget=budget)
                    assert [it.item for it in report.items] == list(range(d.n))
                    for i, it in enumerate(report.items):
                        if budget is None or m[i] > min(budget, CO_ITEM_BUDGET):
                            assert it.exact_prob is None
                            continue
                        assert repr(it.exact_prob) == repr(exact_disguise_prob(d, i, prior))
                        assert repr(it.exact_prob) == repr(
                            helpers.prior_probability_reference(p, reference(d, i)))
        assert [len(co_items(skip, i)) for i in (26, 27)] == [26, CO_ITEM_BUDGET]

    def test_no_per_item_calls(self, monkeypatch):
        calls = []
        for name in ("co_items", "disguise_bound", "exact_disguise_prob"):
            original = getattr(disguise, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(disguise, name, counted)
        report = mean_log_bound(TestPatternCounts.REGULAR, Prior(0.3), exact_budget=25)
        assert all(it.exact_prob is not None for it in report.items)
        assert calls == []

    def test_heavy_test_skipped_before_co_items(self):
        # one all-items test and n/2 pair tests: every item has n - 1 co-items
        n = 2048
        d = new_design([set(range(n))] + [{2 * k, 2 * k + 1} for k in range(n // 2)], n)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = mean_log_bound(d, Prior(0.3), exact_budget=25)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(it.exact_prob is None for it in report.items)
        assert elapsed < 2.0
        assert peak < 16 * 2**20

    def test_json_round_trip_with_infinities(self):
        report = mean_log_bound(gen_individual(2), Prior(0.4), exact_budget=25)
        assert json.loads(json.dumps(to_dict(report))) == helpers.json_reference(report)
