"""The functional plane as the oracle of the timing plane's metadata traffic.

The functional memories (``BaselineSecureMemory`` for SGX and SGX_O,
``SynergyMemory``) move real bytes through an ``EccDimm``; the timing
engine only emits request specs. Both take every metadata address from one
``MetadataLayout``. This test replays one access sequence through both
planes and compares the lines each one touches, counted per layout region.
A functional ``read`` is an LLC read miss of the timing engine, and a
functional ``write`` is a dirty data eviction.

The counts are compared at two settings where cache policy cannot matter:

* ``fits``: the functional metadata cache is unbounded, and the timing
  caches are fully associative and hold the whole layout. Only compulsory
  traffic remains.
* ``minimal``: the smallest caching both planes accept, one line each. No
  two consecutive accesses share a counter line, so every walk goes to the
  root in both planes.

Where the planes differ by design (DESIGN.md, "Model decisions"), the test
checks the documented gap instead of equality:

* Counter and tree writes are not compared. The functional plane writes
  its chain through on every data write; the timing caches write dirty
  lines back only when they evict them.
* An SGX/SGX_O MAC update is a read and a write of the MAC line in the
  functional plane, which stores whole lines, and one masked write in the
  timing plane.
* A Synergy parity update reads the parity line in the functional plane,
  because ParityP covers all eight parities; the timing plane counts one
  parity write per data write, as the paper does.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.cache.hierarchy import CacheConfig, CacheHierarchy
from repro.core.synergy import SynergyMemory
from repro.dram.controller import MemoryController
from repro.dram.timing import MemoryConfig
from repro.secure.designs import SGX, SGX_O, SYNERGY, MacLocation
from repro.secure.memory import BaselineSecureMemory
from repro.secure.metadata_layout import MetadataLayout, Region
from repro.secure.timing_engine import SecureTimingEngine
from repro.util.units import CACHELINE_BYTES

#: 64 counter lines under a two-level tree.
NUM_DATA_LINES = 512
LAYOUT = MetadataLayout(NUM_DATA_LINES)

#: setting -> (functional cache capacity, timing cache lines)
SETTINGS = {
    "fits": (None, 1024),
    "minimal": (1, 1),
}


def _sequence(count: int = 48, seed: int = 7):
    """(is_write, data_line) pairs over a 64-line working set, so lines
    repeat, with no two consecutive accesses under one counter line."""
    rng = random.Random(seed)
    working_set = rng.sample(range(NUM_DATA_LINES), 64)
    ops = []
    previous = None
    while len(ops) < count:
        line = rng.choice(working_set)
        counter_line = LAYOUT.counter_line(line)
        if counter_line == previous:
            continue
        ops.append((rng.random() < 0.4, line))
        previous = counter_line
    return ops


OPS = _sequence()
WRITES = sum(1 for is_write, _line in OPS if is_write)


class _Tally:
    """Line reads and writes by (region, kind); ``paused`` skips counting."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.paused = False

    def add(self, line: int, kind: str) -> None:
        if not self.paused:
            self.counts[(LAYOUT.region_of(line), kind)] += 1


class _UncountedChainCheck:
    """Sanitizer stand-in whose ``check_counter_chain`` re-reads the
    stored chain with counting paused: checker reads are not traffic."""

    def __init__(self, sanitizer, tally: _Tally) -> None:
        self._sanitizer = sanitizer
        self._tally = tally

    def check_counter_chain(self, *args) -> None:
        self._tally.paused = True
        try:
            self._sanitizer.check_counter_chain(*args)
        finally:
            self._tally.paused = False


def _functional_traffic(memory_cls, capacity, keys) -> Counter:
    memory = memory_cls(NUM_DATA_LINES, keys=keys, cache_capacity=capacity)
    assert _geometry(memory.layout) == _geometry(LAYOUT)
    # Every touched line exists before the replay, so no read materialises
    # one; the replay then starts from an empty metadata cache.
    for _is_write, line in OPS:
        memory.write(line, bytes(CACHELINE_BYTES))
    memory.tree.cache.clear()
    tally = _Tally()
    dimm = memory.dimm
    read_line, write_line = dimm.read_line, dimm.write_line

    def counted_read(address):
        tally.add(address, "read")
        return read_line(address)

    def counted_write(address, lanes):
        tally.add(address, "write")
        return write_line(address, lanes)

    dimm.read_line, dimm.write_line = counted_read, counted_write
    if memory.tree._sanitizer is not None:
        memory.tree._sanitizer = _UncountedChainCheck(memory.tree._sanitizer, tally)
    for index, (is_write, line) in enumerate(OPS):
        if is_write:
            memory.write(line, bytes([index % 256]) * CACHELINE_BYTES)
        else:
            memory.read(line)
    return tally.counts


class _CountingController(MemoryController):
    """A controller that tallies every enqueued spec by region and kind."""

    def __init__(self) -> None:
        super().__init__(MemoryConfig())
        self.tally = _Tally()

    def enqueue_batch(self, specs):
        for kind, line, _when, _category, _core in specs:
            self.tally.add(line, kind.value)
        return super().enqueue_batch(specs)


def _timing_traffic(design, cache_lines) -> Counter:
    controller = _CountingController()
    caches = CacheConfig(
        llc_bytes=cache_lines * CACHELINE_BYTES,
        llc_associativity=cache_lines,
        metadata_bytes=cache_lines * CACHELINE_BYTES,
        metadata_associativity=cache_lines,
    )
    engine = SecureTimingEngine(
        design, CacheHierarchy(caches), controller, NUM_DATA_LINES
    )
    assert _geometry(engine.layout) == _geometry(LAYOUT)
    for when, (is_write, line) in enumerate(OPS):
        if is_write:
            engine.writeback(line, when, 0)
        else:
            engine.expand_read_miss_deferred(line, when, 0)
        engine.flush_epoch()
    return controller.tally.counts


def _geometry(layout):
    return (
        layout.counter_base,
        layout.mac_base,
        layout.parity_base,
        layout.tree_level_bases,
        layout.total_lines,
    )


def _comparable(counts) -> dict:
    """Nonzero counts, without counter and tree writes (write-through in
    the functional plane, write-back in the timing plane)."""
    skipped = {(Region.COUNTER, "write"), (Region.TREE, "write")}
    return {key: n for key, n in counts.items() if n and key not in skipped}


@pytest.fixture(scope="module")
def functional(keys):
    """Functional traffic per (memory class, setting), computed once."""
    runs = {}

    def traffic(memory_cls, setting):
        key = (memory_cls, setting)
        if key not in runs:
            runs[key] = _functional_traffic(memory_cls, SETTINGS[setting][0], keys)
        return runs[key]

    return traffic


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("design", [SGX_O, SGX, SYNERGY], ids=lambda d: d.name)
def test_timing_traffic_matches_functional(design, setting, functional):
    memory_cls = SynergyMemory if design is SYNERGY else BaselineSecureMemory
    expected = Counter(functional(memory_cls, setting))
    timing = _timing_traffic(design, SETTINGS[setting][1])

    # The documented gaps: per data write, one functional read of the MAC
    # line (SGX, SGX_O) or of the parity line (Synergy).
    if design.mac_location is MacLocation.SEPARATE:
        expected[(Region.MAC, "read")] -= WRITES
    if design.parity_write_on_data_write:
        expected[(Region.PARITY, "read")] -= WRITES
    assert _comparable(timing) == _comparable(expected)

    # The setting's premise, read off the timing plane.
    counter_reads = timing[(Region.COUNTER, "read")]
    tree_reads = timing[(Region.TREE, "read")]
    if setting == "minimal":
        assert counter_reads == len(OPS)
        assert tree_reads == len(OPS) * LAYOUT.tree_depth
    else:
        leaves = {line // LAYOUT.counter_coverage for _is_write, line in OPS}
        assert counter_reads == len(leaves)
        assert tree_reads == len(
            {node for leaf in leaves for node in LAYOUT.tree_path(leaf)}
        )
