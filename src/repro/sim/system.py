"""The full-system simulator: cores -> LLC -> secure engine -> DRAM.

Data reads look up the shared LLC; misses go through the secure timing
engine, which adds the design's metadata traffic. A read completes when the
data *and* all verification metadata have returned, plus a fixed
verification latency. Data writes allocate dirty in the LLC (write-validate,
no fetch); dirty evictions become memory writes with their own metadata
traffic — writes never block the cores.

Time units: cores run in CPU cycles (floats), the controller in memory
cycles; ``cpu_clock_multiplier`` converts at the boundary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.setassoc import ABSENT
from repro.cpu.multicore import MulticoreDriver
from repro.cpu.rob import AccessHandle, CoreModel
from repro.cpu.trace import Trace
from repro.dram.controller import MemoryController
from repro.secure.designs import SecureDesign
from repro.secure.timing_engine import SecureTimingEngine
from repro.sim.config import SystemConfig
from repro.telemetry import get_registry
from repro.util.stats import StatGroup

#: CPU-cycle buckets for end-to-end read-miss latency (LLC miss -> usable).
MISS_LATENCY_EDGES = (64, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 4096)


def _check_data_region(traces: List[Trace], num_data_lines: int) -> None:
    """Reject a trace that touches a line outside the data region.

    The secure engine maps every line at or above ``num_data_lines`` to
    metadata, so such an access would silently read or write counters,
    MACs or tree nodes. One max per core's line column, not a per-access
    test.
    """
    for core, trace in enumerate(traces):
        lines = trace.lines
        if not len(lines):
            continue
        highest = int(np.max(lines))
        if highest >= num_data_lines:
            raise ValueError(
                "core %d: trace line %#x is outside the data region "
                "(num_data_lines = %#x)" % (core, highest, num_data_lines)
            )


class SystemSimulator:
    """One design running one set of per-core traces to completion."""

    def __init__(
        self,
        design: SecureDesign,
        traces: List[Trace],
        config: SystemConfig = SystemConfig(),
    ):
        if not traces:
            raise ValueError("need at least one trace")
        _check_data_region(traces, config.num_data_lines)
        self.design = design
        self.config = config
        memory_config = config.memory
        if design.chipkill_lockstep:
            # Lock-step pairs of channels (Fig. 1b): every access occupies
            # two physical channels, so the system behaves like one with
            # half the channels for scheduling purposes.
            from dataclasses import replace as _replace

            memory_config = _replace(
                memory_config, channels=max(1, memory_config.channels // 2)
            )
        self.controller = MemoryController(memory_config)
        self.hierarchy = CacheHierarchy(config.scaled_caches())
        # The engine buffers every emission of an epoch and flushes once
        # at the resolve boundary; blocking sets are tracked as indices
        # into that epoch batch (see _resolve).
        self.engine = SecureTimingEngine(
            design, self.hierarchy, self.controller, config.num_data_lines
        )
        self.stats = StatGroup("system")
        self._traces: Optional[List[Trace]] = list(traces)
        self._unresolved: List[Tuple[AccessHandle, List[int], float]] = []
        self.num_cores = len(traces)
        #: Totals ``run`` leaves behind: instructions retired across all
        #: cores, and wall-clock CPU cycles (the slowest core's retirement).
        self.total_instructions = 0
        self.cpu_cycles = 0.0
        self._mult = config.memory.cpu_clock_multiplier
        self._t_miss_latency = get_registry().histogram(
            "system.read_miss_latency_cpu", MISS_LATENCY_EDGES
        )
        # Hot-path bindings: one attribute fetch per access instead of a
        # per-event StatGroup name lookup.
        self._c_data_reads = self.stats.counter("data_reads")
        self._c_data_writes = self.stats.counter("data_writes")
        self._c_llc_hits = self.stats.counter("llc_hits")
        self._c_llc_misses = self.stats.counter("llc_misses")
        self._llc_latency = config.llc_latency_cpu
        self._access_data = self.hierarchy.access_data
        # LLC internals, bound once: _read/_write run per data access and
        # inline the set-dict probe (same ops as SetAssociativeCache.access,
        # same stat bumps — see that class for the LRU idiom).
        llc = self.hierarchy.llc
        self._llc = llc
        self._llc_sets = llc._sets
        self._llc_mask = llc._set_mask
        self._llc_shift = llc._set_shift
        self._llc_assoc = llc.associativity
        self._expand_miss = self.engine.expand_read_miss_deferred
        self._writeback = self.engine.writeback

    # ------------------------------------------------------------------
    # Core-facing memory interface
    # ------------------------------------------------------------------

    def _read(self, line_address: int, cpu_time: float, core: int) -> AccessHandle:
        # Unit increments bump the counter slots directly (no method call).
        self._c_data_reads.value += 1
        set_index = line_address & self._llc_mask
        tag = line_address >> self._llc_shift
        ways = self._llc_sets[set_index]
        prev = ways.pop(tag, ABSENT)
        if prev is not ABSENT:
            self._llc.hits += 1
            ways[tag] = prev
            self._c_llc_hits.value += 1
            return AccessHandle(cpu_time + self._llc_latency)
        llc = self._llc
        llc.misses += 1
        writeback = None
        if len(ways) >= self._llc_assoc:
            victim_tag = next(iter(ways))
            victim_dirty = ways.pop(victim_tag)
            llc.evictions += 1
            if victim_dirty:
                llc.dirty_evictions += 1
                writeback = (victim_tag << self._llc_shift) | set_index
        ways[tag] = False
        self.hierarchy.data_llc_fills += 1
        self._c_llc_misses.value += 1
        mem_time = int(cpu_time // self._mult)
        if writeback is not None:
            self._writeback(writeback, mem_time, core)
        blocking = self._expand_miss(line_address, mem_time, core)
        handle = AccessHandle(None)
        self._unresolved.append((handle, blocking, cpu_time))
        return handle

    def _write(self, line_address: int, cpu_time: float, core: int) -> None:
        self._c_data_writes.value += 1
        set_index = line_address & self._llc_mask
        tag = line_address >> self._llc_shift
        ways = self._llc_sets[set_index]
        prev = ways.pop(tag, ABSENT)
        if prev is not ABSENT:
            self._llc.hits += 1
            ways[tag] = True
            return
        llc = self._llc
        llc.misses += 1
        writeback = None
        if len(ways) >= self._llc_assoc:
            victim_tag = next(iter(ways))
            victim_dirty = ways.pop(victim_tag)
            llc.evictions += 1
            if victim_dirty:
                llc.dirty_evictions += 1
                writeback = (victim_tag << self._llc_shift) | set_index
        ways[tag] = True
        self.hierarchy.data_llc_fills += 1
        if writeback is not None:
            mem_time = int(cpu_time // self._mult)
            self._writeback(writeback, mem_time, core)
        # Write-validate allocation: the store itself needs no memory fetch.

    # ------------------------------------------------------------------

    def _resolve(self) -> None:
        """Flush the epoch batch, schedule DRAM, fill in completions.

        The engine buffered this epoch's emissions; one ``flush_epoch``
        hands them to the controller (same order as immediate enqueues),
        ``process`` fills the returned completion slots, and the blocking
        indices recorded at ``_read`` resolve against those slots.
        """
        completions = self.engine.flush_epoch()
        self.controller.process()
        verify = (
            self.config.verify_latency_cpu if self.design.encrypted else 0
        )
        if self.design.serial_tree_verification:
            # Non-Bonsai Merkle tree: one serial hash per level up to the
            # root before the data may be consumed (Fig. 16 mechanism).
            verify *= 1 + self.engine.layout.tree_depth
        speculative = self.design.speculative_verification
        llc_latency = self._llc_latency
        mult = self._mult
        record_latency = self._t_miss_latency.record
        for handle, blocking, issue_cpu in self._unresolved:
            if speculative:
                # PoisonIvy-style: data usable on arrival; verification
                # (and its metadata fetches) retire off the critical path.
                # blocking[0] is always the data read itself.
                last_mem = completions[blocking[0]]
                latency_tail = llc_latency
            elif len(blocking) == 1:
                # Counter-hit majority: only the data read gates.
                last_mem = completions[blocking[0]]
                latency_tail = llc_latency + verify
            else:
                last_mem = max([completions[index] for index in blocking])
                latency_tail = llc_latency + verify
            completion = last_mem * mult
            if issue_cpu > completion:
                completion = issue_cpu
            completion += latency_tail
            handle.completion_cpu = completion
            record_latency(completion - issue_cpu)
        self._unresolved.clear()

    # ------------------------------------------------------------------

    def warmup(self, traces: List[Trace]) -> None:
        """Replay warmup traces through the caches, then reset stats.

        Warmup traces must share the measured traces' address distribution
        but not their exact addresses (different seed salt), so the caches
        reach steady-state occupancy without pre-loading the measured
        accesses themselves.
        """
        _check_data_region(traces, self.config.num_data_lines)
        # Fused replay: the LLC probe is inlined with every stat bump
        # skipped — legal only here, because reset_stats/reset_fill_stats
        # below zero every counter warmup would have touched. Metadata
        # walks (the miss minority) still run through the engine.
        llc_sets = self._llc_sets
        llc_mask = self._llc_mask
        llc_shift = self._llc_shift
        llc_assoc = self._llc_assoc
        encrypted = self.design.encrypted
        warm_metadata = self.engine.warm_miss_metadata
        absent = ABSENT
        for trace in traces:
            # Columnar iteration: plain (is_write, line) ints from typed
            # buffers — no TraceRecord and no list of any column.
            for is_write, line in trace.iter_accesses():
                ways = llc_sets[line & llc_mask]
                tag = line >> llc_shift
                prev = ways.pop(tag, absent)
                if prev is not absent:
                    ways[tag] = True if is_write else prev
                    continue
                if len(ways) >= llc_assoc:
                    ways.pop(next(iter(ways)))
                ways[tag] = is_write != 0
                if encrypted:
                    warm_metadata(line, is_write != 0)
        self.hierarchy.llc.reset_stats()
        self.hierarchy.metadata_cache.reset_stats()
        self.hierarchy.reset_fill_stats()

    def run(self, warmup_traces: Optional[List[Trace]] = None) -> "SystemSimulator":
        """Drive the simulation to completion; returns self for chaining.

        The cores and the driver live only for this call. Each core holds
        the simulator's ``_read``/``_write`` and the driver its
        ``_resolve``, so keeping them on ``self`` would make every finished
        simulator a reference cycle that only the cyclic collector frees.
        Left behind are plain totals: ``total_instructions``,
        ``cpu_cycles`` and ``num_cores``. A simulator runs once.
        """
        traces = self._traces
        if traces is None:
            raise RuntimeError("SystemSimulator.run called twice")
        self._traces = None
        if self.config.warm_caches and warmup_traces:
            self.warmup(warmup_traces)
        cores = [
            CoreModel(core_id, trace, self._read, self._write, self.config.core)
            for core_id, trace in enumerate(traces)
        ]
        driver = MulticoreDriver(cores, self._resolve)
        driver.run()
        self._resolve()  # flush any trailing posted writes
        self.total_instructions = driver.total_instructions
        self.cpu_cycles = driver.finish_time_cpu
        self.hierarchy.record_telemetry()
        self.controller.record_telemetry()
        self.engine.sync_telemetry()
        return self

    # -- results -----------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Aggregate instructions per CPU cycle (the paper's metric)."""
        cycles = self.cpu_cycles
        return self.total_instructions / cycles if cycles else 0.0

    def traffic(self) -> Dict[str, int]:
        """Memory accesses keyed '<category>_<read|write>'."""
        return self.controller.traffic_by_category()

    def accesses_per_kilo_instruction(self) -> float:
        """Total memory accesses per 1000 retired instructions."""
        total = sum(self.traffic().values())
        instructions = self.total_instructions
        return 1000.0 * total / instructions if instructions else 0.0
