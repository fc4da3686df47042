"""Secure timing-engine tests: metadata traffic expansion per design."""

import pytest

from repro.cache.hierarchy import CacheConfig, CacheHierarchy
from repro.dram.controller import MemoryController
from repro.dram.timing import MemoryConfig
from repro.secure.designs import (
    IVEC,
    LOTECC,
    LOTECC_COALESCED,
    NON_SECURE,
    SGX,
    SGX_O,
    SYNERGY,
)
from repro.secure.timing_engine import SecureTimingEngine


def make_engine(design, num_data_lines=1 << 20):
    controller = MemoryController(MemoryConfig())
    hierarchy = CacheHierarchy(CacheConfig(llc_bytes=512 * 64, metadata_bytes=64 * 64))
    engine = SecureTimingEngine(design, hierarchy, controller, num_data_lines)
    return engine, controller


def read_miss(engine, line, when=0):
    """Expand one LLC read miss and flush its epoch; returns the gating
    epoch-batch indices (traffic counts at enqueue)."""
    blocking = engine.expand_read_miss_deferred(line, when, 0)
    engine.flush_epoch()
    return blocking


def write_back(engine, victim):
    """Drain one evicted line through the writeback path and flush."""
    engine.writeback(victim, 0, 0)
    engine.flush_epoch()


class TestReadExpansion:
    def test_non_secure_single_request(self):
        engine, controller = make_engine(NON_SECURE)
        blocking = read_miss(engine, 0)
        assert len(blocking) == 1
        assert controller.traffic_by_category() == {"data_read": 1}

    def test_sgx_o_adds_counter_chain_and_mac(self):
        engine, controller = make_engine(SGX_O)
        read_miss(engine, 0)
        traffic = controller.traffic_by_category()
        assert traffic["data_read"] == 1
        assert traffic["mac_read"] == 1
        assert traffic["counter_read"] >= 1  # counter + cold tree walk

    def test_synergy_has_no_mac_traffic(self):
        engine, controller = make_engine(SYNERGY)
        read_miss(engine, 0)
        traffic = controller.traffic_by_category()
        assert "mac_read" not in traffic

    def test_mac_always_fetched_when_uncached(self):
        engine, controller = make_engine(SGX_O)
        read_miss(engine, 0)
        read_miss(engine, 0, when=1)
        assert controller.traffic_by_category()["mac_read"] == 2

    def test_counter_cached_after_first_access(self):
        engine, controller = make_engine(SGX_O)
        read_miss(engine, 0)
        first = controller.traffic_by_category().get("counter_read", 0)
        read_miss(engine, 1, when=1)  # same counter line
        second = controller.traffic_by_category().get("counter_read", 0)
        assert second == first

    def test_ivec_walks_mac_tree(self):
        engine, controller = make_engine(IVEC)
        read_miss(engine, 0)
        traffic = controller.traffic_by_category()
        # MAC line + at least one MAC-tree level on a cold walk.
        assert traffic["mac_read"] >= 2

    def test_ivec_cold_read_gates_on_every_mac_tree_level(self):
        engine, controller = make_engine(IVEC)
        blocking = read_miss(engine, 0)
        depth = engine.layout.tree_depth
        traffic = controller.traffic_by_category()
        # No Bonsai walk: the counter line alone, then the MAC and its
        # whole cold MAC-tree path, every request gating the read.
        assert traffic == {
            "data_read": 1,
            "counter_read": 1,
            "mac_read": 1 + depth,
        }
        assert len(blocking) == 2 + 1 + depth
        assert blocking[0] == 0


class TestWriteExpansion:
    def test_synergy_parity_write(self):
        engine, controller = make_engine(SYNERGY)
        write_back(engine, 0)
        traffic = controller.traffic_by_category()
        assert traffic["data_write"] == 1
        assert traffic["parity_write"] == 1

    def test_sgx_o_mac_update(self):
        engine, controller = make_engine(SGX_O)
        write_back(engine, 0)
        traffic = controller.traffic_by_category()
        assert traffic["mac_write"] == 1
        assert "parity_write" not in traffic

    def test_lotecc_parity_rmw(self):
        engine, controller = make_engine(LOTECC)
        write_back(engine, 0)
        traffic = controller.traffic_by_category()
        assert traffic["parity_read"] == 1
        assert traffic["parity_write"] == 1

    def test_lotecc_coalescing_drops_read(self):
        engine, controller = make_engine(LOTECC_COALESCED)
        write_back(engine, 0)
        traffic = controller.traffic_by_category()
        assert "parity_read" not in traffic
        assert traffic["parity_write"] == 1

    def test_counter_rmw_on_write_miss(self):
        engine, controller = make_engine(SGX_O)
        write_back(engine, 0)
        assert controller.traffic_by_category()["counter_read"] >= 1

    def test_non_secure_write_is_single(self):
        engine, controller = make_engine(NON_SECURE)
        write_back(engine, 0)
        assert controller.traffic_by_category() == {"data_write": 1}

    def test_ivec_cold_writeback_rmw_reads_every_mac_tree_level(self):
        engine, controller = make_engine(IVEC)
        write_back(engine, 0)
        traffic = controller.traffic_by_category()
        # A MAC-tree update re-hashes every level to the root: a cold
        # path is one read-modify-write fetch per level.
        assert traffic["mac_read"] == engine.layout.tree_depth
        assert traffic["mac_write"] == 1
        assert traffic["counter_read"] == 1  # counter RMW, no Bonsai walk
        stats = engine.stats.as_dict()
        assert stats["writeback_mac_read"] == engine.layout.tree_depth


class TestWritebackDispatch:
    def test_data_victim_gets_full_expansion(self):
        engine, controller = make_engine(SYNERGY)
        write_back(engine, 5)
        traffic = controller.traffic_by_category()
        assert traffic["data_write"] == 1
        assert traffic["parity_write"] == 1

    def test_metadata_victim_plain_write(self):
        engine, controller = make_engine(SYNERGY)
        counter_line = engine.layout.counter_line(0)
        write_back(engine, counter_line)
        assert controller.traffic_by_category() == {"counter_write": 1}

    def test_tree_victim_classified_as_counter(self):
        engine, controller = make_engine(SYNERGY)
        tree_line = engine.layout.tree_level_bases[0]
        write_back(engine, tree_line)
        assert controller.traffic_by_category() == {"counter_write": 1}

    def test_none_is_noop(self):
        engine, controller = make_engine(SYNERGY)
        write_back(engine, None)
        assert controller.traffic_by_category() == {}


class TestWarmPath:
    def test_warm_generates_no_traffic(self):
        engine, controller = make_engine(SGX_O)
        for line in range(50):
            engine.warm_miss_metadata(line, is_write=False)
        engine.flush_epoch()
        assert controller.traffic_by_category() == {}

    def test_warm_fills_caches(self):
        engine, controller = make_engine(SGX_O)
        engine.warm_miss_metadata(0, is_write=False)
        read_miss(engine, 8)  # shares nothing with line 0...
        # but line 0's counter line covers lines 0-7; line 8 differs.
        engine2, controller2 = make_engine(SGX_O)
        engine2.warm_miss_metadata(0, is_write=False)
        read_miss(engine2, 1)  # same counter line as 0
        t1 = controller2.traffic_by_category()
        assert t1.get("counter_read", 0) == 0  # warmed counter line hits

    def test_ivec_warm_walk_anchors_the_mac_tree(self):
        engine, controller = make_engine(IVEC)
        engine.warm_miss_metadata(0, is_write=False)
        read_miss(engine, 0)
        traffic = controller.traffic_by_category()
        # The warm walk cached the MAC tree's first level, so the read
        # pays the MAC fetch alone: no MAC-tree level is fetched.
        assert traffic["mac_read"] == 1
        assert "counter_read" not in traffic
