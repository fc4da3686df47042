"""The cache hierarchy of Table III: shared LLC + dedicated metadata cache.

The LLC (8MB, 8-way) holds program data and — in designs that allow it
(SGX_O, Synergy: counters; IVEC: MACs and tree nodes) — security metadata,
which then *competes with data for capacity*. The dedicated metadata cache
(128KB, 8-way) holds metadata only. Both are tag-only timing models.

The hierarchy tracks data-vs-metadata occupancy pressure so experiments can
observe the contention mechanism directly (the pr-web/cc-web/bc-web
anomaly in Fig. 8, where SGX_O loses to SGX because counters evict data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.setassoc import (
    HIT,
    MISS_CLEAN,
    CacheAccessResult,
    SetAssociativeCache,
)
from repro.telemetry import get_registry
from repro.util.units import CACHELINE_BYTES, KIB, MIB


@dataclass(frozen=True)
class CacheConfig:
    """Sizes/associativities of the two caches (Table III defaults)."""

    llc_bytes: int = 8 * MIB
    llc_associativity: int = 8
    metadata_bytes: int = 128 * KIB
    metadata_associativity: int = 8
    llc_hit_latency_cpu_cycles: int = 30
    metadata_hit_latency_cpu_cycles: int = 10


class CacheHierarchy:
    """Shared LLC plus dedicated metadata cache."""

    __slots__ = (
        "config",
        "llc",
        "metadata_cache",
        "metadata_llc_fills",
        "data_llc_fills",
        "_t_metadata_llc_fills",
        "_t_data_llc_fills",
    )

    def __init__(self, config: CacheConfig = CacheConfig()):
        self.config = config
        self.llc = SetAssociativeCache(
            config.llc_bytes // CACHELINE_BYTES, config.llc_associativity, "llc"
        )
        self.metadata_cache = SetAssociativeCache(
            config.metadata_bytes // CACHELINE_BYTES,
            config.metadata_associativity,
            "metadata",
        )
        self.metadata_llc_fills = 0
        self.data_llc_fills = 0
        registry = get_registry()
        self._t_metadata_llc_fills = registry.counter("cache.metadata_llc_fills")
        self._t_data_llc_fills = registry.counter("cache.data_llc_fills")

    # -- program data ----------------------------------------------------

    def access_data(self, line_address: int, is_write: bool) -> CacheAccessResult:
        """LLC access for program data (allocate on miss)."""
        result = self.llc.access(line_address, is_write)
        if not result.hit:
            self.data_llc_fills += 1
        return result

    # -- metadata ----------------------------------------------------------

    def access_metadata(
        self, line_address: int, is_write: bool, use_llc: bool
    ) -> CacheAccessResult:
        """Metadata access: dedicated cache first, optionally backed by LLC.

        A dedicated-cache hit never touches the LLC. On a dedicated miss,
        designs that cache this metadata type in the LLC look there next
        (counting an LLC fill on miss — the contention mechanism); other
        designs go straight to memory. The line is always (re)filled into
        the dedicated cache; victims spill to the LLC when ``use_llc``.
        """
        dedicated = self.metadata_cache.access(line_address, is_write)
        if dedicated.hit:
            return HIT
        if not use_llc:
            # Victim of the dedicated fill writes back to memory if dirty.
            if dedicated.writeback_address is None:
                return MISS_CLEAN
            return CacheAccessResult(
                hit=False, writeback_address=dedicated.writeback_address
            )
        # Dedicated miss: try the LLC.
        llc_result = self.llc.access(line_address, is_write)
        if not llc_result.hit:
            self.metadata_llc_fills += 1
        # Spill the dedicated victim into the LLC instead of memory.
        spill_writeback: Optional[int] = None
        if dedicated.writeback_address is not None:
            spill_writeback = self.llc.fill(dedicated.writeback_address, dirty=True)
        if llc_result.hit:
            if spill_writeback is None:
                return HIT
            return CacheAccessResult(hit=True, writeback_address=spill_writeback)
        # Miss in both: memory access needed; LLC eviction may add another.
        writeback = llc_result.writeback_address or spill_writeback
        if writeback is None:
            return MISS_CLEAN
        return CacheAccessResult(hit=False, writeback_address=writeback)

    # -- introspection ----------------------------------------------------

    def reset_fill_stats(self) -> None:
        """Zero the LLC-fill counters (the post-warmup reset)."""
        self.metadata_llc_fills = 0
        self.data_llc_fills = 0

    def record_telemetry(self) -> None:
        """End-of-run occupancy gauges for both caches.

        The metadata-cache occupancy here is the direct observable behind
        the paper's SGX-vs-Synergy metadata-pressure argument (Figs. 9/10).
        Hit/miss/fill telemetry is recorded deferred (plain ints on the hot
        path); this publishes the totals into the registry counters, once,
        after the run.
        """
        self.llc.sync_telemetry()
        self.metadata_cache.sync_telemetry()
        self._t_data_llc_fills.inc(self.data_llc_fills)
        self._t_metadata_llc_fills.inc(self.metadata_llc_fills)
        registry = get_registry()
        registry.gauge("cache.llc.occupancy").set(self.llc.occupancy)
        registry.gauge("cache.metadata.occupancy").set(
            self.metadata_cache.occupancy
        )
