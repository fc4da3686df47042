"""Unit tests for the RAID-3 reconstruction engine (Fig. 5b)."""

import pytest

from repro.core.cacheline_codec import (
    data_line_parity,
    encode_counter_line,
    encode_data_line,
)
from repro.core.failure_tracker import FaultyChipTracker
from repro.core.reconstruction import (
    MAX_COUNTER_ATTEMPTS,
    MAX_DATA_ATTEMPTS,
    ReconstructionEngine,
)
from repro.secure.mac import LineMacCalculator


@pytest.fixture
def mac_calc(keys):
    return LineMacCalculator(keys.make_mac())


@pytest.fixture
def engine(mac_calc):
    return ReconstructionEngine(mac_calc)


def make_data_line(mac_calc, address=0, counter=1):
    ciphertext = bytes(range(64))
    mac = mac_calc.data_mac(address, counter, ciphertext)
    lanes = encode_data_line(ciphertext, mac)
    return lanes, data_line_parity(lanes)


def make_counter_line(mac_calc, address=100, parent=7):
    counters = [10 + i for i in range(8)]
    mac = mac_calc.counter_line_mac(address, parent, counters)
    return encode_counter_line(counters, mac)


class TestDataLineCorrection:
    @pytest.mark.parametrize("chip", range(9))
    def test_every_chip_recoverable(self, engine, mac_calc, chip):
        lanes, parity = make_data_line(mac_calc)
        corrupted = list(lanes)
        corrupted[chip] = b"\xff" * 8
        outcome = engine.correct_data_line(0, corrupted, 1, parity)
        assert outcome is not None
        assert outcome.faulty_chip == chip
        assert outcome.lanes == lanes

    def test_mac_chip_tried_first(self, engine, mac_calc):
        lanes, parity = make_data_line(mac_calc)
        corrupted = list(lanes)
        corrupted[8] = b"\x00" * 8
        outcome = engine.correct_data_line(0, corrupted, 1, parity)
        assert outcome.faulty_chip == 8
        assert outcome.attempts == 1

    def test_attempts_within_budget(self, engine, mac_calc):
        lanes, parity = make_data_line(mac_calc)
        corrupted = list(lanes)
        corrupted[7] = b"\x11" * 8
        outcome = engine.correct_data_line(0, corrupted, 1, parity)
        assert outcome.attempts <= MAX_DATA_ATTEMPTS

    def test_corrupt_parity_falls_to_rebuilt(self, engine, mac_calc):
        lanes, parity = make_data_line(mac_calc)
        corrupted = list(lanes)
        corrupted[2] = b"\x22" * 8
        garbage_parity = b"\x99" * 8
        outcome = engine.correct_data_line(
            0, corrupted, 1, garbage_parity, rebuilt_parity=parity, overlap_chip=2
        )
        assert outcome is not None
        assert outcome.used_rebuilt_parity
        assert outcome.lanes == lanes
        assert outcome.attempts <= MAX_DATA_ATTEMPTS

    def test_overlap_chip_prioritised_in_round_two(self, engine, mac_calc):
        lanes, parity = make_data_line(mac_calc)
        corrupted = list(lanes)
        corrupted[6] = b"\x33" * 8
        outcome = engine.correct_data_line(
            0, corrupted, 1, b"\x00" * 8, rebuilt_parity=parity, overlap_chip=6
        )
        # Round 1: 9 failed attempts; round 2 hits the overlap chip first.
        assert outcome.attempts == 10

    def test_unrecoverable_returns_none(self, engine, mac_calc):
        lanes, parity = make_data_line(mac_calc)
        corrupted = list(lanes)
        corrupted[1] = b"\x01" * 8
        corrupted[2] = b"\x02" * 8
        assert engine.correct_data_line(0, corrupted, 1, parity) is None

    def test_wrong_counter_unrecoverable(self, engine, mac_calc):
        lanes, parity = make_data_line(mac_calc, counter=1)
        corrupted = list(lanes)
        corrupted[0] = b"\x00" * 8
        assert engine.correct_data_line(0, corrupted, counter=2, parity=parity) is None

    def test_precorrect_known_chip(self, engine, mac_calc):
        lanes, parity = make_data_line(mac_calc)
        corrupted = list(lanes)
        corrupted[4] = b"\x44" * 8
        outcome = engine.precorrect_data_line(0, corrupted, 1, parity, 4)
        assert outcome is not None
        assert outcome.attempts == 1
        assert outcome.lanes == lanes

    def test_precorrect_wrong_chip_fails(self, engine, mac_calc):
        lanes, parity = make_data_line(mac_calc)
        corrupted = list(lanes)
        corrupted[4] = b"\x44" * 8
        assert engine.precorrect_data_line(0, corrupted, 1, parity, 3) is None


class TestCounterLineCorrection:
    @pytest.mark.parametrize("chip", range(8))
    def test_every_counter_chip_recoverable(self, engine, mac_calc, chip):
        lanes = make_counter_line(mac_calc)
        corrupted = list(lanes)
        corrupted[chip] = b"\x55" * 8
        outcome = engine.correct_counter_line(100, corrupted, parent_counter=7)
        assert outcome is not None
        assert outcome.faulty_chip == chip
        assert outcome.lanes[:8] == lanes[:8]
        assert outcome.attempts <= MAX_COUNTER_ATTEMPTS

    def test_wrong_parent_unrecoverable(self, engine, mac_calc):
        lanes = make_counter_line(mac_calc, parent=7)
        corrupted = list(lanes)
        corrupted[0] = b"\x66" * 8
        assert engine.correct_counter_line(100, corrupted, parent_counter=8) is None

    def test_two_chip_counter_error_unrecoverable(self, engine, mac_calc):
        lanes = make_counter_line(mac_calc)
        corrupted = list(lanes)
        corrupted[0] = b"\x01" * 8
        corrupted[1] = b"\x02" * 8
        assert engine.correct_counter_line(100, corrupted, parent_counter=7) is None

    def test_stats_recorded(self, engine, mac_calc):
        lanes = make_counter_line(mac_calc)
        corrupted = list(lanes)
        corrupted[3] = b"\x77" * 8
        engine.correct_counter_line(100, corrupted, parent_counter=7)
        assert engine.counter_corrections == 1


class TestFaultyChipTracker:
    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            FaultyChipTracker(0)

    def test_identifies_after_threshold(self):
        tracker = FaultyChipTracker(threshold=3)
        for _ in range(2):
            tracker.record_correction(5)
        assert tracker.known_faulty_chip is None
        tracker.record_correction(5)
        assert tracker.known_faulty_chip == 5

    def test_different_chip_resets_streak(self):
        tracker = FaultyChipTracker(threshold=3)
        tracker.record_correction(5)
        tracker.record_correction(5)
        tracker.record_correction(2)
        tracker.record_correction(5)
        assert tracker.known_faulty_chip is None

    def test_clean_access_resets_learning(self):
        tracker = FaultyChipTracker(threshold=2)
        tracker.record_correction(5)
        tracker.record_clean_access()
        tracker.record_correction(5)
        assert tracker.known_faulty_chip is None

    def test_clean_access_keeps_identified_chip(self):
        tracker = FaultyChipTracker(threshold=1)
        tracker.record_correction(3)
        tracker.record_clean_access()
        assert tracker.known_faulty_chip == 3

    def test_clear(self):
        tracker = FaultyChipTracker(threshold=1)
        tracker.record_correction(3)
        tracker.clear()
        assert tracker.known_faulty_chip is None
        assert tracker.blame_counts == {}

    def test_blame_counts_accumulate(self):
        tracker = FaultyChipTracker()
        tracker.record_correction(1)
        tracker.record_correction(1)
        tracker.record_correction(2)
        assert tracker.blame_counts == {1: 2, 2: 1}
