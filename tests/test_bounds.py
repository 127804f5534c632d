"""Tests for the scalar floors: certified minimum, epsilon, entropy, and the product
bound on doubly regular designs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pooltest import (
    Prior,
    ScanLimitError,
    bounds,
    counting_bound,
    epsilon_bound,
    epsilon_bound_delta,
    gen_doubly_regular,
    l_star,
    mean_log_bound,
    to_dict,
    weight_log_term,
)

import helpers

P_GRID = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]


class TestLStar:
    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_exhaustive_scan(self, p):
        value, w = l_star(Prior(p))
        oracle_value, oracle_w = helpers.scan_l_star(p)
        assert value == pytest.approx(oracle_value, abs=1e-12)
        assert w == oracle_w

    def test_half(self):
        value, w = l_star(Prior(0.5))
        assert value == pytest.approx(2 * math.log(0.5), rel=1e-12)
        assert w == 2

    def test_tenth(self):
        value, w = l_star(Prior(0.1))
        assert value == pytest.approx(-5.3569, abs=1e-3)
        assert w == 6
        # neighbours lose, per direct evaluation
        assert weight_log_term(Prior(0.1), 5) > value
        assert weight_log_term(Prior(0.1), 7) > value

    def test_three_tenths(self):
        value, w = l_star(Prior(0.3))
        assert value == pytest.approx(2 * math.log(0.3), rel=1e-12)
        assert w == 2
        assert weight_log_term(Prior(0.3), 3) == pytest.approx(3 * math.log(0.51), rel=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_certified_against_wide_scan(self, p):
        value, _ = l_star(Prior(p))
        pr = Prior(p)
        assert all(value <= weight_log_term(pr, w) + 1e-12 for w in range(2, 2000))

    def test_tiny_p_hits_cap(self):
        with pytest.raises(ScanLimitError):
            l_star(Prior(1e-7))

    def test_scan_past_cap_refused_before_any_weight(self, monkeypatch):
        # The scan may stop only past weight q/p, which is 10^7 - 1 here.
        def refuse(prior, w):
            raise AssertionError("l_star evaluated a weight")

        monkeypatch.setattr(bounds, "weight_log_term", refuse)
        with pytest.raises(ScanLimitError, match="q/p"):
            l_star(Prior(1e-7))

    def test_scan_below_cap_still_runs_to_it(self):
        # q/p = 999,999 lies under the cap, so the scan runs and then hits it.
        with pytest.raises(ScanLimitError, match="not terminated"):
            l_star(Prior(1e-6))


class TestEpsilon:
    def test_half_exact(self):
        report = epsilon_bound(Prior(0.5))
        assert report.epsilon == pytest.approx(0.125, abs=1e-15)
        assert report.w_star == 2

    def test_three_tenths_exact(self):
        assert epsilon_bound(Prior(0.3)).epsilon == pytest.approx(0.027, rel=1e-12)

    def test_tenth(self):
        # from the scan oracle: 0.1 * exp(L*(0.1))
        oracle_value, _ = helpers.scan_l_star(0.1)
        report = epsilon_bound(Prior(0.1))
        assert report.epsilon == pytest.approx(0.1 * math.exp(oracle_value), rel=1e-12)
        assert report.epsilon == pytest.approx(4.72e-4, rel=2e-3)

    def test_epsilon_consistent_with_l_star(self):
        for p in P_GRID:
            r = epsilon_bound(Prior(p))
            assert r.epsilon == pytest.approx(min(p, 1 - p) * math.exp(r.l_star), rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.001, 0.999))
    def test_range_property(self, p):
        eps = epsilon_bound(Prior(p)).epsilon
        assert 0.0 < eps <= min(p, 1.0 - p)


class TestEpsilonDelta:
    def test_zero_delta_reduces(self):
        assert epsilon_bound_delta(Prior(0.5), 0.0) == pytest.approx(0.125, abs=1e-15)

    def test_half_delta(self):
        assert epsilon_bound_delta(Prior(0.5), 0.5) == pytest.approx(0.25, rel=1e-12)

    def test_limit_toward_one(self):
        for p in (0.2, 0.5, 0.8):
            assert epsilon_bound_delta(Prior(p), 1 - 1e-12) == pytest.approx(
                min(p, 1 - p), rel=1e-9
            )

    def test_monotone_in_delta(self):
        for p in (0.1, 0.5, 0.8):
            grid = np.linspace(0.0, 0.99, 34)
            values = [epsilon_bound_delta(Prior(p), d) for d in grid]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_range_errors(self, bad):
        with pytest.raises(ValueError):
            epsilon_bound_delta(Prior(0.5), bad)


class TestCountingBound:
    def test_half(self):
        assert counting_bound(Prior(0.5), 100) == pytest.approx(100.0, rel=1e-12)
        assert counting_bound(Prior(0.5), 1) == pytest.approx(1.0, rel=1e-12)

    def test_entropy_evaluation(self):
        # direct entropy evaluation: H(0.11) * 1000
        h = -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89)
        assert counting_bound(Prior(0.11), 1000) == pytest.approx(1000 * h, rel=1e-12)
        assert counting_bound(Prior(0.11), 1000) == pytest.approx(499.9, abs=0.1)

    def test_bad_n(self):
        for n in (0, 10**400):  # 10**400 does not convert to a float
            with pytest.raises(ValueError):
                counting_bound(Prior(0.5), n)


class TestDoublyRegularBound:
    """On a doubly regular design (l tests per item, r items per test) every
    item's FKG product bound is (1 - q^(r-1))^l."""

    @staticmethod
    def fkg_bounds(p, n, l, r):
        report = mean_log_bound(gen_doubly_regular(n, l, r, seed=0), Prior(p))
        return [item.fkg_bound for item in report.items]

    def test_direct_evaluation(self):
        for bound in self.fkg_bounds(0.5, 6, 2, 3):
            assert bound == pytest.approx(0.5625, rel=1e-12)
        for bound in self.fkg_bounds(0.3, 8, 2, 4):
            assert bound == pytest.approx((1 - 0.7**3) ** 2, rel=1e-12)

    def test_single_item_tests_never_disguise(self):
        for p in (0.1, 0.5, 0.9):
            assert self.fkg_bounds(p, 4, 3, 1) == [0.0] * 4

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_doubly_regular(6, 0, 3, seed=0)


class TestWeightLogTerm:
    def test_weight_one_is_minus_infinity(self):
        assert weight_log_term(Prior(0.4), 1) == float("-inf")

    def test_weight_zero_rejected(self):
        with pytest.raises(ValueError):
            weight_log_term(Prior(0.4), 0)

    def test_min_over_design_weights_at_least_l_star(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            T = int(rng.integers(1, n + 1))  # T <= n
            d = helpers.random_min2_design(rng, n, T)
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                pr = Prior(p)
                floor, _ = l_star(pr)
                assert min(weight_log_term(pr, w) for w in d.weights) >= floor - 1e-12


class TestBoundReportRoundTrip:
    def test_json_round_trip(self):
        import json

        report = epsilon_bound(Prior(0.41))
        assert json.loads(json.dumps(to_dict(report))) == helpers.json_reference(report)
