"""Functional IVEC memory tests (the paper's closest prior co-design)."""

import pytest

from reference.ivec_memory import IvecMemory
from repro.dimm.faults import ChipFault, FaultKind
from repro.secure.errors import AttackDetected


@pytest.fixture
def memory(keys):
    return IvecMemory(64, keys=keys)


class TestDataPath:
    def test_roundtrip(self, memory):
        memory.write(3, b"ivec data".ljust(64, b"\x00"))
        assert memory.read(3)[:9] == b"ivec data"

    def test_untouched_reads_zero(self, memory):
        assert memory.read(9) == bytes(64)

    def test_range_checked(self, memory):
        with pytest.raises(ValueError):
            memory.write(64, bytes(64))
        with pytest.raises(ValueError):
            memory.read(-1)

    def test_length_checked(self, memory):
        with pytest.raises(ValueError):
            memory.write(0, b"short")

    def test_data_at_rest_encrypted(self, memory):
        plaintext = b"cleartext secret".ljust(64, b"\x00")
        memory.write(0, plaintext)
        stored = b"".join(memory.dimm.read_line(0)[:8])
        assert plaintext[:16] not in stored


class TestCorrection:
    @pytest.mark.parametrize("chip", range(8))
    def test_data_chip_failure_corrected(self, keys, chip):
        memory = IvecMemory(64, keys=keys)
        memory.write(0, b"D" * 64)
        memory.dimm.inject_fault(
            chip, ChipFault(FaultKind.SINGLE_WORD, line_address=0, seed=chip)
        )
        assert memory.read(0) == b"D" * 64
        assert memory.corrections == 1

    def test_correction_scrubs(self, memory):
        memory.write(0, b"S" * 64)
        memory.dimm.inject_fault(
            2, ChipFault(FaultKind.SINGLE_WORD, line_address=0, seed=9)
        )
        memory.read(0)
        memory.dimm.clear_faults()
        assert memory.read(0) == b"S" * 64
        assert memory.mismatches == 1  # only once

    def test_two_chip_failure_is_attack(self, memory):
        memory.write(0, b"X" * 64)
        memory.dimm.inject_fault(
            1, ChipFault(FaultKind.SINGLE_WORD, line_address=0, seed=1)
        )
        memory.dimm.inject_fault(
            5, ChipFault(FaultKind.SINGLE_WORD, line_address=0, seed=2)
        )
        with pytest.raises(AttackDetected):
            memory.read(0)


class TestSecurity:
    def test_tamper_detected(self, memory):
        memory.write(4, b"T" * 64)
        lanes = [bytearray(lane) for lane in memory.dimm.read_line(4)]
        lanes[0][0] ^= 1
        lanes[3][0] ^= 1  # two chips: beyond parity correction
        memory.dimm.write_line(4, [bytes(lane) for lane in lanes])
        with pytest.raises(AttackDetected):
            memory.read(4)

    def test_leaf_replay_detected(self, memory):
        memory.write(4, b"old!".ljust(64, b"\x00"))
        old_lanes = memory.dimm.read_line(4)
        old_mac = memory.tree.leaf_mac(4)
        memory.write(4, b"new!".ljust(64, b"\x00"))
        memory.dimm.write_line(4, old_lanes)
        memory.tree.tamper_leaf(4, old_mac)
        with pytest.raises(AttackDetected):
            memory.read(4)

    def test_tree_depth_positive(self, memory):
        assert memory.tree_depth >= 1
