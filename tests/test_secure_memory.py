"""Baseline (SGX-like) functional secure memory tests."""

import pytest

from repro.dimm.faults import ChipFault, FaultKind
from repro.secure.counter_tree import MetadataCache
from repro.secure.errors import AttackDetected, UncorrectableError
from repro.secure.memory import BaselineSecureMemory


@pytest.fixture
def memory(keys):
    return BaselineSecureMemory(64, keys=keys)


class TestDataPath:
    def test_write_read_roundtrip(self, memory):
        memory.write(3, b"hello".ljust(64, b"\x00"))
        assert memory.read(3)[:5] == b"hello"

    def test_untouched_line_reads_zero(self, memory):
        assert memory.read(10) == bytes(64)

    def test_overwrites_visible(self, memory):
        memory.write(0, b"A" * 64)
        memory.write(0, b"B" * 64)
        assert memory.read(0) == b"B" * 64

    def test_independent_lines(self, memory):
        memory.write(1, b"1" * 64)
        memory.write(2, b"2" * 64)
        assert memory.read(1) == b"1" * 64
        assert memory.read(2) == b"2" * 64

    def test_length_validated(self, memory):
        with pytest.raises(ValueError):
            memory.write(0, b"short")

    def test_data_at_rest_is_ciphertext(self, memory):
        plaintext = b"plaintext secret".ljust(64, b"\x00")
        memory.write(5, plaintext)
        stored_lanes = memory.dimm.read_line(5)
        stored = b"".join(stored_lanes[:8])
        assert plaintext[:16] not in stored

    def test_counters_increment_on_write(self, memory):
        memory.write(0, b"x" * 64)
        counters = memory.fetch_verified_counters(memory.layout.counter_line(0))
        assert counters[0] == 1
        memory.write(0, b"y" * 64)
        counters = memory.fetch_verified_counters(memory.layout.counter_line(0))
        assert counters[0] == 2

    def test_root_increments_per_write(self, memory):
        before = memory.tree.root
        memory.write(0, b"x" * 64)
        memory.write(1, b"y" * 64)
        assert memory.tree.root == before + 2


class TestReliability:
    def test_single_bit_error_corrected_silently(self, memory):
        memory.write(0, b"A" * 64)
        memory.dimm.inject_fault(
            2, ChipFault(FaultKind.SINGLE_BIT, line_address=0, bit_index=5)
        )
        assert memory.read(0) == b"A" * 64
        assert memory.secded_corrections > 0

    def test_ecc_chip_single_bit_corrected(self, memory):
        memory.write(0, b"E" * 64)
        memory.dimm.inject_fault(
            8, ChipFault(FaultKind.SINGLE_BIT, line_address=0, bit_index=3)
        )
        assert memory.read(0) == b"E" * 64

    def test_chip_failure_uncorrectable(self, memory):
        memory.write(0, b"B" * 64)
        memory.dimm.inject_fault(4, ChipFault(FaultKind.WHOLE_CHIP, seed=1))
        memory.tree.cache.clear()
        with pytest.raises((UncorrectableError, AttackDetected)):
            memory.read(0)

    def test_counter_line_single_bit_corrected(self, memory):
        memory.write(0, b"C" * 64)
        counter_line = memory.layout.counter_line(0)
        memory.dimm.inject_fault(
            1, ChipFault(FaultKind.SINGLE_BIT, line_address=counter_line, bit_index=9)
        )
        memory.tree.cache.clear()
        assert memory.read(0) == b"C" * 64


class TestSecurity:
    def test_consistent_tamper_detected(self, memory):
        memory.write(9, b"C" * 64)
        memory.dimm.write_line(9, memory._encode_line(bytes(64)))
        with pytest.raises(AttackDetected):
            memory.read(9)

    def test_replay_detected(self, memory):
        memory.write(4, b"old!".ljust(64, b"\x00"))
        old_data = memory.dimm.read_line(4)
        mac_line = memory.layout.mac_line(4)
        old_mac = memory.dimm.read_line(mac_line)
        memory.write(4, b"new!".ljust(64, b"\x00"))
        memory.dimm.write_line(4, old_data)
        memory.dimm.write_line(mac_line, old_mac)
        memory.tree.cache.clear()
        with pytest.raises(AttackDetected):
            memory.read(4)

    def test_counter_tamper_detected(self, memory):
        memory.write(0, b"D" * 64)
        counter_line = memory.layout.counter_line(0)
        counters, mac = memory.load_counter_line(counter_line)
        counters[0] += 5
        memory.store_counter_line(counter_line, counters, mac)
        memory.tree.cache.clear()
        with pytest.raises(AttackDetected):
            memory.read(0)

    def test_tree_node_tamper_detected(self, memory):
        memory.write(0, b"T" * 64)
        tree_line = memory.layout.tree_line(0, 0)
        counters, mac = memory.load_counter_line(tree_line)
        counters[0] ^= 1
        memory.store_counter_line(tree_line, counters, mac)
        memory.tree.cache.clear()
        with pytest.raises(AttackDetected):
            memory.read(0)

    def test_mac_region_tamper_detected(self, memory):
        memory.write(7, b"M" * 64)
        mac_line = memory.layout.mac_line(7)
        payload = bytearray(memory._load_payload(mac_line))
        payload[(7 % 8) * 8] ^= 0xFF
        memory._store_payload(mac_line, bytes(payload))
        with pytest.raises(AttackDetected):
            memory.read(7)

    def test_cross_line_swap_detected(self, memory):
        # Moving line A's {data} to line B must fail (address binding).
        memory.write(1, b"1" * 64)
        memory.write(2, b"2" * 64)
        lanes_1 = memory.dimm.read_line(1)
        memory.dimm.write_line(2, lanes_1)
        with pytest.raises(AttackDetected):
            memory.read(2)


class TestMetadataCache:
    def test_lru_eviction(self):
        cache = MetadataCache(capacity=2)
        cache.insert(1, [0] * 8)
        cache.insert(2, [0] * 8)
        cache.lookup(1)  # make 1 MRU
        cache.insert(3, [0] * 8)  # evicts 2
        assert cache.lookup(2) is None
        assert cache.lookup(1) is not None
        assert cache.lookup(3) is not None

    def test_hit_miss_counters(self):
        cache = MetadataCache()
        cache.lookup(1)
        cache.insert(1, [1] * 8)
        cache.lookup(1)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            MetadataCache(capacity=0)

    def test_invalidate(self):
        cache = MetadataCache()
        cache.insert(5, [0] * 8)
        cache.invalidate(5)
        assert cache.lookup(5) is None

    def test_deep_walk_with_tiny_cache(self, keys):
        memory = BaselineSecureMemory(64, keys=keys, cache_capacity=1)
        memory.write(0, b"W" * 64)
        memory.write(63, b"Z" * 64)
        assert memory.read(0) == b"W" * 64
        assert memory.read(63) == b"Z" * 64
