"""System configuration (Table III of the paper).

4 cores at 3.2 GHz, 192-entry ROB, width 4; shared 8MB/8-way LLC; 128KB
8-way metadata cache; 2 DDR3 channels x 2 ranks x 8 banks at 800 MHz.
``accesses_per_core`` scales the synthetic trace length (the paper uses
1B-instruction slices; pure-Python runs use shorter ones — see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cache.hierarchy import CacheConfig
from repro.cpu.rob import CoreParams
from repro.dram.timing import MemoryConfig


@dataclass(frozen=True)
class SystemConfig:
    """Everything a system simulation needs besides design + workload."""

    num_cores: int = 4
    core: CoreParams = field(default_factory=CoreParams)
    caches: CacheConfig = field(default_factory=CacheConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: data region size (lines) shared by all cores' footprints; every
    #: trace line must lie in [0, num_data_lines), because the lines above
    #: it hold metadata (``SystemSimulator`` rejects a trace that does not)
    num_data_lines: int = 1 << 24
    #: per-core footprint offset spacing (lines)
    lines_per_core: int = 1 << 22
    #: memory ops per core in the synthetic trace
    accesses_per_core: int = 30_000
    #: fixed verification latency added to secure reads (CPU cycles):
    #: AES pad XOR + GMAC check once all fetches arrive
    verify_latency_cpu: int = 40
    #: LLC hit latency (CPU cycles)
    llc_latency_cpu: int = 30
    #: scaled simulation: caches, footprints and hot sets are all divided
    #: by this factor, preserving every capacity *ratio* the results depend
    #: on while letting short traces exercise full caches (see DESIGN.md)
    cache_scale: int = 16

    def scaled_caches(self) -> CacheConfig:
        """Cache configuration with the scale divisor applied.

        The metadata cache scales 4x more gently than the LLC: at the full
        divisor it would shrink to a few dozen lines, where conflict misses
        dominate in a way the real 2048-line cache never sees (calibrated
        against the paper's SGX-vs-SGX_O gap; see DESIGN.md).
        """
        metadata_divisor = max(1, self.cache_scale // 4)
        return replace(
            self.caches,
            llc_bytes=self.caches.llc_bytes // self.cache_scale,
            metadata_bytes=self.caches.metadata_bytes // metadata_divisor,
        )

    def with_channels(self, channels: int) -> "SystemConfig":
        """Copy with a different channel count (Fig. 12 sweep)."""
        return replace(self, memory=replace(self.memory, channels=channels))

    def with_accesses(self, accesses_per_core: int) -> "SystemConfig":
        """Copy with a different trace length (scale knob)."""
        return replace(self, accesses_per_core=accesses_per_core)
