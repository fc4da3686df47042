"""Tests for the functional ECC-DIMM model (geometry, chips, faults)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dimm.chips import SimulatedChip
from repro.dimm.faults import ChipFault, FaultKind
from repro.dimm.geometry import (
    BEATS,
    DATA_CHIPS,
    ECC_CHIP,
    LANE_BYTES,
    TOTAL_CHIPS,
    beat_word,
    join_lanes,
    split_into_lanes,
)
from repro.dimm.module import EccDimm


class TestGeometry:
    def test_constants(self):
        assert DATA_CHIPS == 8
        assert TOTAL_CHIPS == 9
        assert ECC_CHIP == 8
        assert BEATS * DATA_CHIPS == 64

    def test_lane_roundtrip(self):
        data = bytes(range(64))
        ecc = bytes(range(100, 108))
        lanes = split_into_lanes(data, ecc)
        assert len(lanes) == TOTAL_CHIPS
        assert join_lanes(lanes) == (data, ecc)

    def test_chip_owns_one_byte_per_beat(self):
        data = bytes(range(64))
        lanes = split_into_lanes(data, bytes(8))
        for chip in range(DATA_CHIPS):
            for beat in range(BEATS):
                assert lanes[chip][beat] == data[beat * DATA_CHIPS + chip]

    def test_beat_word_extraction(self):
        data = bytes(range(64))
        ecc = bytes([0xAA] * 8)
        lanes = split_into_lanes(data, ecc)
        word, check = beat_word(lanes, 0)
        # Beat 0 carries data bytes 0..7, little-end chip 0 first.
        expected = int.from_bytes(bytes(range(8)), "little")
        assert word == expected
        assert check == 0xAA

    def test_beat_word_range_checked(self):
        lanes = split_into_lanes(bytes(64), bytes(8))
        with pytest.raises(ValueError):
            beat_word(lanes, 8)

    def test_split_validates_lengths(self):
        with pytest.raises(ValueError):
            split_into_lanes(bytes(63), bytes(8))
        with pytest.raises(ValueError):
            split_into_lanes(bytes(64), bytes(7))

    def test_join_validates(self):
        with pytest.raises(ValueError):
            join_lanes([bytes(8)] * 8)
        with pytest.raises(ValueError):
            join_lanes([bytes(7)] * 9)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=64, max_size=64), st.binary(min_size=8, max_size=8))
    def test_roundtrip_property(self, data, ecc):
        assert join_lanes(split_into_lanes(data, ecc)) == (data, ecc)


class TestSimulatedChip:
    def test_unwritten_reads_zero(self):
        assert SimulatedChip(0).read(5) == bytes(LANE_BYTES)

    def test_write_read(self):
        chip = SimulatedChip(0)
        chip.write(3, b"12345678")
        assert chip.read(3) == b"12345678"

    def test_lane_length_checked(self):
        with pytest.raises(ValueError):
            SimulatedChip(0).write(0, b"short")

    def test_fault_applies_on_read_not_store(self):
        chip = SimulatedChip(0)
        chip.write(0, bytes(8))
        chip.inject_fault(ChipFault(FaultKind.SINGLE_BIT, line_address=0, bit_index=0))
        assert chip.read(0) != bytes(8)
        assert chip.read_raw(0) == bytes(8)

    def test_clear_faults_restores(self):
        chip = SimulatedChip(0)
        chip.write(0, b"ABCDEFGH")
        chip.inject_fault(ChipFault(FaultKind.WHOLE_CHIP, seed=1))
        assert chip.read(0) != b"ABCDEFGH"
        chip.clear_faults()
        assert chip.read(0) == b"ABCDEFGH"

    def test_has_faults(self):
        chip = SimulatedChip(0)
        assert not chip.has_faults
        chip.inject_fault(ChipFault(FaultKind.WHOLE_CHIP))
        assert chip.has_faults


class TestChipFault:
    def test_bit_index_validated(self):
        with pytest.raises(ValueError):
            ChipFault(FaultKind.SINGLE_BIT, bit_index=64)

    def test_single_bit_flips_exactly_one_bit(self):
        fault = ChipFault(FaultKind.SINGLE_BIT, line_address=7, bit_index=13)
        lane = bytes(8)
        corrupted = fault.corrupt(7, lane)
        flipped = sum(
            bin(a ^ b).count("1") for a, b in zip(lane, corrupted)
        )
        assert flipped == 1

    def test_single_bit_only_its_address(self):
        fault = ChipFault(FaultKind.SINGLE_BIT, line_address=7, bit_index=13)
        assert fault.corrupt(8, bytes(8)) == bytes(8)

    def test_word_fault_scrambles_whole_lane(self):
        fault = ChipFault(FaultKind.SINGLE_WORD, line_address=3, seed=5)
        assert fault.corrupt(3, bytes(8)) != bytes(8)
        assert fault.corrupt(4, bytes(8)) == bytes(8)

    def test_row_fault_covers_row(self):
        fault = ChipFault(
            FaultKind.SINGLE_ROW, line_address=130, rows_per_bank=64
        )
        # Row of 130 with 64 lines/row: lines 128..191.
        assert fault.affects(128)
        assert fault.affects(191)
        assert not fault.affects(127)
        assert not fault.affects(192)

    def test_column_fault_strides(self):
        fault = ChipFault(
            FaultKind.SINGLE_COLUMN, line_address=5, bit_index=3, rows_per_bank=64
        )
        assert fault.affects(5)
        assert fault.affects(5 + 64)
        assert not fault.affects(6)

    def test_whole_chip_affects_everything(self):
        fault = ChipFault(FaultKind.WHOLE_CHIP, seed=2)
        assert fault.affects(0) and fault.affects(10**6)

    def test_scramble_deterministic_per_address(self):
        fault = ChipFault(FaultKind.WHOLE_CHIP, seed=2)
        lane = bytes(range(8))
        assert fault.corrupt(4, lane) == fault.corrupt(4, lane)

    def test_scramble_never_identity(self):
        fault = ChipFault(FaultKind.SINGLE_BANK, seed=3)
        for address in range(50):
            assert fault.corrupt(address, bytes(8)) != bytes(8)


class TestEccDimm:
    def test_write_read_line(self):
        dimm = EccDimm()
        lanes = [bytes([i] * 8) for i in range(9)]
        dimm.write_line(4, lanes)
        assert dimm.read_line(4) == lanes

    def test_lane_count_checked(self):
        with pytest.raises(ValueError):
            EccDimm().write_line(0, [bytes(8)] * 8)

    def test_write_lane(self):
        dimm = EccDimm()
        dimm.write_line(0, [bytes(8)] * 9)
        dimm.write_lane(0, 3, b"XXXXXXXX")
        assert dimm.read_line(0)[3] == b"XXXXXXXX"

    def test_faulty_chips_listing(self):
        dimm = EccDimm()
        dimm.inject_fault(2, ChipFault(FaultKind.WHOLE_CHIP))
        dimm.inject_fault(7, ChipFault(FaultKind.SINGLE_BIT))
        assert dimm.faulty_chips == [2, 7]
        dimm.clear_faults()
        assert dimm.faulty_chips == []

    def test_chip_index_validated(self):
        with pytest.raises(ValueError):
            EccDimm().inject_fault(9, ChipFault(FaultKind.WHOLE_CHIP))

    def test_blank_lane(self):
        assert EccDimm.blank_lane() == bytes(8)
