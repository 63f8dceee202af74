"""Unit tests for the history buffer and the statistics classifier."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.classifier import (
    Category,
    census_counters,
    classify,
    DEFAULT_RATIO1_THRESHOLD,
)
from repro.core.history import HistoryBuffer


class TestHistoryBuffer:
    def test_empty_lookup(self):
        assert HistoryBuffer().primary_mask(5) is None

    def test_record_and_lookup(self):
        buffer = HistoryBuffer()
        buffer.record(5, 0b0101)
        assert buffer.primary_mask(5) == 0b0101

    def test_first_write_wins(self):
        # "the result of the first division is used"
        buffer = HistoryBuffer()
        assert buffer.record(5, 0b0101)
        assert not buffer.record(5, 0b1111)
        assert buffer.primary_mask(5) == 0b0101

    def test_contains_and_len(self):
        buffer = HistoryBuffer()
        buffer.record(1, 1)
        buffer.record(2, 3)
        assert 1 in buffer and 2 in buffer and 3 not in buffer
        assert len(buffer) == 2


class TestCensus:
    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            census_counters([16], 0)

    def test_buckets(self):
        census = census_counters([16, 32, 48, 64, 17, 5], 16)
        assert census.regular == 4
        assert census.irregular == 2
        assert census.small_regular == 2   # 16, 32
        assert census.large_regular == 2   # 48, 64

    def test_zero_counters_ignored(self):
        census = census_counters([0, 0, 16], 16)
        assert census.total == 1

    def test_ratio1(self):
        census = census_counters([16, 16, 17], 16)
        assert census.ratio1 == pytest.approx(0.5)

    def test_ratio1_inf_when_no_regular(self):
        assert census_counters([5, 7], 16).ratio1 == math.inf

    def test_ratio1_zero_when_empty(self):
        assert census_counters([], 16).ratio1 == 0.0

    def test_ratio2(self):
        census = census_counters([16, 48, 48], 16)
        assert census.ratio2 == pytest.approx(2.0)

    def test_ratio2_inf_when_no_small(self):
        assert census_counters([48], 16).ratio2 == math.inf

    def test_multiple_of_five_times_size_is_regular_not_bucketed(self):
        # 5 x 16 = 80 is regular but neither small nor large; with the
        # saturating counter capped at 64 it cannot occur in practice,
        # but the census must not crash on it.
        census = census_counters([80], 16)
        assert census.regular == 1
        assert census.small_regular == census.large_regular == 0


class TestClassify:
    def test_regular(self):
        result = classify([16] * 95 + [17] * 5, 16)
        assert result.category is Category.REGULAR

    def test_irregular1_large_counters(self):
        result = classify([64] * 80 + [16] * 20, 16)
        assert result.category is Category.IRREGULAR_1

    def test_irregular2_indivisible_counters(self):
        result = classify([17] * 50 + [16] * 50, 16)
        assert result.category is Category.IRREGULAR_2

    def test_threshold_boundary(self):
        # ratio1 == threshold stays regular (<=)
        counters = [16] * 10 + [17] * 3
        result = classify(counters, 16, ratio1_threshold=0.3)
        assert result.category is Category.REGULAR

    def test_ratio2_boundary(self):
        # ratio2 == 2 -> irregular#1 (>=)
        counters = [16] * 2 + [48] * 4
        result = classify(counters, 16)
        assert result.category is Category.IRREGULAR_1

    def test_default_threshold_is_paper_value(self):
        assert DEFAULT_RATIO1_THRESHOLD == 0.3

    def test_comparisons_counted(self):
        result = classify([16] * 42, 16)
        assert result.comparisons == 42

    @given(counters=st.lists(st.integers(1, 64), max_size=200))
    def test_always_classifies(self, counters):
        result = classify(counters, 16)
        assert result.category in Category
        census = result.census
        assert census.regular + census.irregular == sum(
            1 for c in counters if c > 0
        )
