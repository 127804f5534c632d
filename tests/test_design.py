"""Tests for design construction, generators, reduction, and text I/O."""

import tracemalloc

import numpy as np
import pytest

from pooltest import (
    BudgetExceededError,
    DesignFormatError,
    DesignGenerationError,
    TestDesign,
    format_design,
    gen_bernoulli,
    gen_doubly_regular,
    gen_individual,
    new_design,
    parse_design,
    reduce_design,
    to_dict,
)
from pooltest.design import DESIGN_ENTRY_BUDGET, DESIGN_ITEM_BUDGET, LINE_CHAR_BUDGET, STUB_RETRY_BUDGET

import helpers


class TestNewDesign:
    def test_basic_counts(self):
        d = new_design([{0, 1}, {2}], 3)
        assert d.T == 2
        assert d.weights == (2, 1)

    def test_empty_design_is_valid(self):
        d = new_design([], 5)
        assert d.T == 0
        assert d.n == 5

    def test_repeated_rows_allowed(self):
        d = new_design([{0}, {0}, {0}], 1)
        assert d.T == 3
        assert d.weights == (1, 1, 1)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            new_design([{3}], 3)
        with pytest.raises(ValueError):
            new_design([{-1}], 3)

    def test_zero_items_rejected(self):
        with pytest.raises(ValueError):
            new_design([], 0)

    def test_weights_match_popcounts(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = helpers.random_messy_design(rng, 8, 5)
            assert d.weights == tuple(m.bit_count() for m in d.row_masks)


class TestGenerators:
    def test_individual_is_identity(self):
        d = gen_individual(3)
        assert d.T == 3
        assert d.row_masks == (1, 2, 4)
        assert d.weights == (1, 1, 1)

    def test_individual_single_item(self):
        assert gen_individual(1).row_masks == (1,)

    def test_individual_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_individual(0)

    def test_bernoulli_degenerate_zero(self):
        d = gen_bernoulli(6, 4, 0.0, seed=1)
        assert all(m == 0 for m in d.row_masks)

    def test_bernoulli_degenerate_one(self):
        d = gen_bernoulli(6, 4, 1.0, seed=1)
        assert d.weights == (6, 6, 6, 6)

    def test_bernoulli_deterministic(self):
        a = gen_bernoulli(100, 50, 0.1, seed=7)
        b = gen_bernoulli(100, 50, 0.1, seed=7)
        assert a == b
        assert a != gen_bernoulli(100, 50, 0.1, seed=8)

    @pytest.mark.parametrize("n, T, message", [(0, 2, "at least one item"), (3, -1, "nonnegative")])
    def test_bernoulli_rejects_bad_sizes(self, n, T, message):
        with pytest.raises(ValueError, match=message):
            gen_bernoulli(n, T, 0.5, 1)

    def test_bernoulli_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            gen_bernoulli(5, 2, 1.5, seed=0)
        with pytest.raises(ValueError):
            gen_bernoulli(5, 2, -0.1, seed=0)

    def test_doubly_regular_forced_shape(self):
        d = gen_doubly_regular(6, 2, 3, seed=0)
        assert d.T == 4
        assert d.weights == (3, 3, 3, 3)
        col = [sum(m >> i & 1 for m in d.row_masks) for i in range(6)]
        assert col == [2] * 6

    def test_doubly_regular_single_test(self):
        d = gen_doubly_regular(4, 1, 4, seed=0)
        assert d.T == 1
        assert d.row_masks == (0b1111,)

    @pytest.mark.parametrize("n, l, r, message", [
        (0, 1, 1, "at least one item"),
        (3, 1, 4, "a test of 4 distinct items needs at least 4 items"),
    ])
    def test_doubly_regular_rejects_bad_sizes(self, n, l, r, message):
        with pytest.raises(ValueError, match=message):
            gen_doubly_regular(n, l, r, 1)

    def test_doubly_regular_divisibility(self):
        with pytest.raises(ValueError):
            gen_doubly_regular(5, 2, 3, seed=0)

    def test_doubly_regular_no_collision_free_matching(self):
        # Twenty stubs per test out of 200 items of two stubs each: a matching
        # almost surely puts some item in one test twice, so every attempt fails.
        with pytest.raises(DesignGenerationError, match=f"{STUB_RETRY_BUDGET} attempts"):
            gen_doubly_regular(200, 2, 20, seed=0)

    def test_doubly_regular_deterministic(self):
        assert gen_doubly_regular(12, 3, 4, seed=5) == gen_doubly_regular(12, 3, 4, seed=5)

    @pytest.mark.parametrize("n,l,r", [(8, 2, 4), (12, 3, 4), (10, 4, 5), (9, 2, 3)])
    def test_doubly_regular_regularity(self, n, l, r):
        d = gen_doubly_regular(n, l, r, seed=11)
        assert d.T == n * l // r
        assert set(d.weights) == {r}
        assert all(sum(m >> i & 1 for m in d.row_masks) == l for i in range(n))


class TestRowWeights:
    def test_identity(self):
        assert gen_individual(4).weights == (1, 1, 1, 1)

    def test_all_ones(self):
        assert new_design([{0, 1, 2}, {0, 1, 2}], 3).weights == (3, 3)

    def test_mixed(self):
        assert new_design([{0, 1}, set(), {0, 1, 2}], 3).weights == (2, 0, 3)


class TestIncidence:
    def test_entries_match_row_masks(self):
        rng = np.random.default_rng(12)
        designs = [TestDesign(n=1, row_masks=()), new_design([{0, 2}, set(), {2}], 4)]  # item 3 in none
        for n, T in ((5, 3), (9, 6), (17, 4), (40, 7)):
            designs.append(helpers.random_messy_design(rng, n, T))
        for d in designs:
            test_items, item_tests = d.incidence
            assert test_items.dtype == item_tests.dtype == np.int32
            assert test_items.shape == (d.T, max([1, *d.weights]))
            for t in range(d.T):
                assert test_items[t].tolist() == sorted(
                    i for i in range(d.n) if d.row_masks[t] >> i & 1
                ) + [d.n] * (test_items.shape[1] - d.weights[t])
            tests_of = [[t for t in range(d.T) if d.row_masks[t] >> i & 1] for i in range(d.n)]
            assert item_tests.shape == (d.n, max([1, *map(len, tests_of)]))
            for i in range(d.n):
                assert item_tests[i].tolist() == tests_of[i] + [d.T] * (item_tests.shape[1] - len(tests_of[i]))

    def test_built_once_and_read_only(self):
        d = new_design([{0, 2}, {1}], 3)
        assert d.incidence is d.incidence
        for table in d.incidence:
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_not_part_of_value(self):
        d = new_design([{0, 2}, {1}], 3)
        fresh = new_design([{0, 2}, {1}], 3)
        d.incidence
        assert d == fresh and hash(d) == hash(fresh)
        assert repr(d) == repr(fresh) == "TestDesign(n=3, row_masks=(5, 2))"
        assert to_dict(d) == to_dict(fresh) and "incidence" not in to_dict(d)


class TestReduce:
    def test_hand_traced_example(self):
        d = new_design([set(), {0}, {0, 1, 2}], 3)
        reduced, log = reduce_design(d)
        assert reduced.n == 2
        assert reduced.row_masks == (0b11,)
        assert log.removed_empty_tests == (0,)
        assert log.resolved_items == ((0, 1),)
        assert log.item_map == (1, 2)
        assert log.test_map == (2,)

    def test_identity_reduces_to_nothing(self):
        reduced, log = reduce_design(gen_individual(3))
        assert reduced.T == 0 and reduced.n == 0
        assert log.resolved_items == ((0, 0), (1, 1), (2, 2))
        assert log.item_map == ()

    def test_already_reduced_untouched(self):
        d = new_design([{0, 1}, {1, 2}], 3)
        reduced, log = reduce_design(d)
        assert reduced == d
        assert log.removed_empty_tests == () and log.resolved_items == ()
        assert log.item_map == (0, 1, 2)

    def test_cascading_removals(self):
        # resolving item 0 drops test {0,1} to weight 1, which resolves item 1
        d = new_design([{0}, {0, 1}], 2)
        reduced, log = reduce_design(d)
        assert reduced.T == 0 and reduced.n == 0
        assert log.resolved_items == ((0, 0), (1, 1))

    def test_min_weight_after_reduce(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = helpers.random_messy_design(rng, 9, 7)
            reduced, _ = reduce_design(d)
            assert all(w >= 2 for w in reduced.weights)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = helpers.random_messy_design(rng, 8, 6)
            reduced, _ = reduce_design(d)
            again, log2 = reduce_design(reduced)
            assert again == reduced
            assert log2.resolved_items == () and log2.removed_empty_tests == ()

    def test_ratio_never_grows_when_t_below_n(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(80):
            T = int(rng.integers(1, 8))
            n = int(rng.integers(T + 1, 11))
            d = helpers.random_messy_design(rng, n, T)
            reduced, _ = reduce_design(d)
            if reduced.n:
                assert reduced.T / reduced.n <= d.T / d.n + 1e-12
                checked += 1
        assert checked > 20

    def test_maps_are_injective(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            d = helpers.random_messy_design(rng, 8, 8)
            _, log = reduce_design(d)
            assert len(set(log.item_map)) == len(log.item_map)
            assert len(set(log.test_map)) == len(log.test_map)


class TestTextFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = helpers.random_messy_design(rng, 9, 5)
            assert parse_design(format_design(d)) == d

    def test_known_rendering(self):
        d = new_design([{0, 1}, {2}], 3)
        assert format_design(d) == "2 3\n110\n001\n"

    def test_comments_ignored(self):
        text = "# a comment\n2 3\n110\n# another\n001\n"
        assert parse_design(text) == new_design([{0, 1}, {2}], 3)

    def test_missing_rows(self):
        with pytest.raises(DesignFormatError):
            parse_design("2 3\n110\n")

    def test_bad_characters(self):
        with pytest.raises(DesignFormatError):
            parse_design("1 3\n1x0\n")

    def test_bad_row_length(self):
        with pytest.raises(DesignFormatError):
            parse_design("1 3\n11\n")

    def test_bad_header(self):
        with pytest.raises(DesignFormatError, match="missing `T n` header line"):
            parse_design("# c\n")
        with pytest.raises(DesignFormatError, match="two integers"):
            parse_design("2 x\n")
        with pytest.raises(DesignFormatError):
            parse_design("3\n")
        with pytest.raises(DesignFormatError):
            parse_design("1 0\n\n")

    def test_empty_design_round_trip(self):
        # reduce_design leaves n = 0 when it resolves every item
        empty, _ = reduce_design(gen_individual(3))
        assert format_design(empty) == "0 0\n"
        assert parse_design("0 0\n") == empty == TestDesign(n=0, row_masks=())
        for text in ("1 0\n", "-1 2\n", "0 -1\n"):
            with pytest.raises(DesignFormatError):
                parse_design(text)

    def test_rows_match_per_bit_reference(self):
        rng = np.random.default_rng(11)
        for T, n in ((1, 1), (3, 7), (5, 64), (4, 65), (2, 5_000)):
            rows = rng.random((T, n)) < 0.3
            d = new_design([set(map(int, np.flatnonzero(row))) for row in rows], n)
            text = format_design(d)
            body = ["".join("1" if bit else "0" for bit in row) for row in rows]
            assert text == "\n".join([f"{T} {n}", *body]) + "\n"
            assert parse_design(text) == d
            assert d.row_masks == tuple(sum(1 << i for i, c in enumerate(r) if c == "1") for r in body)
        assert format_design(parse_design("0 0\n")) == "0 0\n"

    def test_no_trailing_newline(self):
        assert parse_design("1 2\n10") == new_design([{0}], 2)


class TestDesignType:
    def test_hashable_and_immutable(self):
        d = new_design([{0}], 2)
        assert hash(d) == hash(new_design([{0}], 2))
        with pytest.raises(AttributeError):
            d.n = 3

    def test_mask_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TestDesign(n=2, row_masks=(4,))

    def test_negative_item_count_rejected(self):
        with pytest.raises(ValueError, match="item count must be nonnegative, got -1"):
            TestDesign(n=-1, row_masks=())


class TestSizeBudget:
    def test_sizes_in_use_accepted(self):
        # n = 5,000 in the text-format test, n = 600 (T = 300) in Monte Carlo
        # tests, n = 144 in the verify benchmark.
        assert DESIGN_ITEM_BUDGET >= 5_000 and DESIGN_ENTRY_BUDGET >= 300 * 600
        assert parse_design(f"0 {DESIGN_ITEM_BUDGET}\n").n == DESIGN_ITEM_BUDGET
        assert gen_bernoulli(DESIGN_ENTRY_BUDGET // 1024, 1024, 0.0, seed=0).T == 1024

    @pytest.mark.parametrize("header", [
        "0 200000",
        f"0 {DESIGN_ITEM_BUDGET + 1}",
        f"{DESIGN_ENTRY_BUDGET // 64 + 1} 64",
        f"{10**12} {10**12}",
    ])
    def test_over_budget_header_rejected_before_any_row(self, header):
        # No row follows the header, so reading on would report missing rows.
        with pytest.raises(BudgetExceededError, match="size budget"):
            parse_design(f"# comment\n{header}\n")

    @pytest.mark.parametrize("build", [
        lambda: gen_individual(2_049),  # 2049^2 entries
        lambda: gen_bernoulli(DESIGN_ITEM_BUDGET + 1, 0, 0.1, seed=0),
        lambda: gen_bernoulli(2_048, 2_049, 0.1, seed=0),
        lambda: gen_bernoulli(10**12, 10**12, 0.1, seed=0),
        lambda: gen_doubly_regular(4_096, 2, 2, seed=0),  # T = 4096
        lambda: gen_doubly_regular(10**12, 2, 4, seed=0),
        lambda: new_design([], DESIGN_ITEM_BUDGET + 1),
        lambda: TestDesign(n=DESIGN_ITEM_BUDGET + 1, row_masks=()),
    ])
    def test_over_budget_arguments_rejected_before_building(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="size budget"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_over_budget_rows_rejected(self):
        rows = (0,) * (DESIGN_ENTRY_BUDGET // 64 + 1)
        with pytest.raises(BudgetExceededError, match="size budget"):
            TestDesign(n=64, row_masks=rows)
        assert TestDesign(n=64, row_masks=rows[1:]).T == DESIGN_ENTRY_BUDGET // 64


class _GuardedStream:
    """A text stream over ``lines`` that fails if asked for more than ``readable``
    of them, or for more than `LINE_CHAR_BUDGET` characters at once."""

    def __init__(self, lines, readable):
        self.lines, self.readable = list(lines), readable
        self.line = self.pos = 0

    def readline(self, limit):
        assert 0 < limit <= LINE_CHAR_BUDGET
        if self.line == len(self.lines):
            return ""
        assert self.line < self.readable, f"read line {self.line} past the allowed {self.readable}"
        text = self.lines[self.line]
        piece = text[self.pos : self.pos + limit]
        self.pos += len(piece)
        if self.pos == len(text):
            self.line, self.pos = self.line + 1, 0
        return piece


class TestStreamedParse:
    def test_header_checked_before_any_row_is_read(self):
        long_comment = "# " + "x" * (3 * LINE_CHAR_BUDGET) + "\n"  # skipped in bounded pieces
        for header in ("1 200000\n", f"{DESIGN_ENTRY_BUDGET // 64 + 1} 64\n"):
            stream = _GuardedStream([long_comment, "\n", header, "poison\n"], readable=3)
            with pytest.raises(BudgetExceededError, match="size budget"):
                parse_design(stream)

    def test_first_bad_row_fails_at_once(self):
        long_row = "0" * (2 * LINE_CHAR_BUDGET) + "\n"  # never read whole
        for bad in ("1x0\n", "11\n", long_row):
            lines = ["3 3\n", "110\n", bad]
            with pytest.raises(DesignFormatError):
                parse_design(_GuardedStream(lines + ["poison\n"], readable=len(lines)))
        lines = ["1 2\n", "10\n", "01\n"]  # one row too many
        with pytest.raises(DesignFormatError, match="expected 1 test rows"):
            parse_design(_GuardedStream(lines + ["poison\n"], readable=len(lines)))
