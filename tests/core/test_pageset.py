"""Unit tests for page-set chain entries."""

import pytest
from hypothesis import given, strategies as st

from repro.core.pageset import (
    COUNTER_CAP,
    PageSetEntry,
    SetPart,
    primary_key,
    secondary_key,
)


def entry(size=16, **kwargs):
    return PageSetEntry(tag=0x10, page_set_size=size, **kwargs)


class TestKeys:
    def test_primary_key(self):
        assert primary_key(5) == 5 << 1

    def test_secondary_key(self):
        assert secondary_key(5) == 5 << 1 | 1

    def test_entry_key_property(self):
        assert entry().key == primary_key(0x10)
        assert entry(part=SetPart.SECONDARY).key == secondary_key(0x10)


class TestCounter:
    def test_starts_at_zero(self):
        assert entry().counter == 0

    def test_touch_increments(self):
        e = entry()
        e.touch()
        e.touch(3)
        assert e.counter == 4

    def test_saturates_at_cap(self):
        e = entry()
        e.touch(100)
        assert e.counter == COUNTER_CAP
        e.touch()
        assert e.counter == COUNTER_CAP

    def test_cap_is_paper_value(self):
        assert COUNTER_CAP == 64

    def test_negative_touch_rejected(self):
        with pytest.raises(ValueError):
            entry().touch(-1)

    def test_saturated_property(self):
        e = entry()
        assert not e.saturated
        e.touch(COUNTER_CAP)
        assert e.saturated


class TestBitVector:
    def test_mark_faulted_sets_bit(self):
        e = entry()
        e.mark_faulted(3)
        assert e.bit_vector == 0b1000
        assert e.populated_count == 1

    def test_fully_populated(self):
        e = entry(size=4)
        for offset in range(4):
            assert not e.fully_populated
            e.mark_faulted(offset)
        assert e.fully_populated

    def test_out_of_range_offset_rejected(self):
        with pytest.raises(ValueError):
            entry(size=4).mark_faulted(4)

    def test_non_member_offset_rejected(self):
        e = entry(size=4, member_mask=0b0101)
        e.mark_faulted(0)
        with pytest.raises(ValueError):
            e.mark_faulted(1)

    def test_member_mask_defaults_to_full(self):
        assert entry(size=8).member_mask == 0xFF

    def test_fully_populated_respects_member_mask(self):
        e = entry(size=4, member_mask=0b0011)
        e.mark_faulted(0)
        e.mark_faulted(1)
        assert e.fully_populated


class TestResidency:
    def test_mark_resident_and_evicted(self):
        e = entry(size=4)
        e.mark_faulted(2)
        e.mark_resident(2)
        assert e.resident_count == 1
        e.mark_evicted(2)
        assert e.resident_count == 0

    def test_resident_offsets_in_address_order(self):
        e = entry(size=8)
        for offset in (5, 1, 7):
            e.mark_faulted(offset)
            e.mark_resident(offset)
        assert e.resident_offsets() == [1, 5, 7]

    def test_lowest_resident_offset(self):
        e = entry(size=8)
        for offset in (6, 2):
            e.mark_faulted(offset)
            e.mark_resident(offset)
        assert e.lowest_resident_offset() == 2

    def test_lowest_resident_offset_empty_raises(self):
        with pytest.raises(ValueError):
            entry().lowest_resident_offset()

    @given(offsets=st.sets(st.integers(0, 15)))
    def test_lowest_matches_min(self, offsets):
        e = entry(size=16)
        for offset in offsets:
            e.mark_faulted(offset)
            e.mark_resident(offset)
        if offsets:
            assert e.lowest_resident_offset() == min(offsets)
        else:
            with pytest.raises(ValueError):
                e.lowest_resident_offset()
