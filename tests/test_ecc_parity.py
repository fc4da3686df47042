"""RAID-3 parity tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.parity import (
    reconstruct_missing,
    xor_parity,
)

lane = st.binary(min_size=8, max_size=8)


class TestXorParity:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            xor_parity([])

    def test_single_contribution(self):
        assert xor_parity([b"\x01" * 8]) == b"\x01" * 8

    def test_pair_cancels(self):
        a = bytes(range(8))
        assert xor_parity([a, a]) == bytes(8)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(lane, min_size=1, max_size=9))
    def test_parity_of_all_plus_parity_is_zero(self, lanes):
        parity = xor_parity(lanes)
        assert xor_parity(lanes + [parity]) == bytes(8)


class TestReconstruction:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(lane, min_size=2, max_size=9), st.data())
    def test_reconstruct_any_position(self, lanes, data):
        parity = xor_parity(lanes)
        index = data.draw(st.integers(0, len(lanes) - 1))
        broken = list(lanes)
        broken[index] = bytes(8)  # placeholder, ignored
        assert reconstruct_missing(broken, parity, index) == lanes[index]

    def test_index_validated(self):
        with pytest.raises(ValueError):
            reconstruct_missing([b"\x00" * 8], b"\x00" * 8, 1)

