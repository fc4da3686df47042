"""Tests for counter-line packing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secure.counters import (
    COUNTER_LIMIT,
    COUNTERS_PER_LINE,
    counter_line_lanes,
    counter_line_payload_bytes,
    counter_parity,
    pack_counter_payload,
    unpack_counter_lanes,
)

counters_strategy = st.lists(
    st.integers(min_value=0, max_value=COUNTER_LIMIT - 1),
    min_size=8,
    max_size=8,
)


class TestPacking:
    def test_payload_length(self):
        assert len(pack_counter_payload([0] * 8)) == 56

    def test_counter_count_checked(self):
        with pytest.raises(ValueError):
            pack_counter_payload([0] * 7)

    def test_counter_width_checked(self):
        with pytest.raises(ValueError):
            pack_counter_payload([COUNTER_LIMIT] + [0] * 7)

    def test_lane_layout(self):
        counters = list(range(8))
        mac = bytes(range(8))
        lanes = counter_line_lanes(counters, mac)
        assert len(lanes) == COUNTERS_PER_LINE
        for index, lane in enumerate(lanes):
            assert int.from_bytes(lane[:7], "big") == index
            assert lane[7] == mac[index]

    def test_mac_length_checked(self):
        with pytest.raises(ValueError):
            counter_line_lanes([0] * 8, bytes(7))

    @settings(max_examples=40, deadline=None)
    @given(counters_strategy, st.binary(min_size=8, max_size=8))
    def test_lane_roundtrip(self, counters, mac):
        lanes = counter_line_lanes(counters, mac)
        recovered_counters, recovered_mac = unpack_counter_lanes(lanes)
        assert recovered_counters == counters
        assert recovered_mac == mac

    def test_unpack_validates(self):
        with pytest.raises(ValueError):
            unpack_counter_lanes([bytes(8)] * 7)
        with pytest.raises(ValueError):
            unpack_counter_lanes([bytes(7)] * 8)

    def test_parity_is_xor_of_lanes(self):
        lanes = counter_line_lanes(list(range(8)), bytes(8))
        parity = counter_parity(lanes)
        acc = bytes(8)
        for lane in lanes:
            acc = bytes(a ^ b for a, b in zip(acc, lane))
        assert parity == acc

    def test_payload_bytes_is_64(self):
        assert len(counter_line_payload_bytes([0] * 8, bytes(8))) == 64

