"""Randomized scalar-vs-fused equivalence for the secure timing plane.

The production engine (fused closures, one epoch batch) must be
bit-identical to the scalar oracle in ``tests/reference/secure_oracle.py``
for *every* design in ``secure/designs.py`` — not just the golden grid's
subset. These tests drive one scalar and one production engine with the
same pseudo-random access stream (an LCG, so failures reproduce exactly)
and compare every observable:

* the controller's pending epoch — every buffered spec (kind, line,
  arrival, category, core) in enqueue order, i.e. with its **sequence
  number**;
* the blocking sets of every expansion (resolved to (line, sequence));
* the engine's accounting stats (``StatGroup`` insertion order included);
* both cache's full set dictionaries — entry order *is* LRU state;
* the per-engine telemetry snapshot.

The warm phase exercises both engines' ``warm_miss_metadata`` under the
same post-warmup reset contract the system simulator applies.

A second class pins the Monte-Carlo shard kernel
(``simulate_shards_batched``): one pass over every shard equals any
slicing of the shard list, per-shard telemetry payloads included.
"""

import pytest

from repro.cache.hierarchy import CacheConfig, CacheHierarchy
from repro.dram.controller import MemoryController
from repro.dram.timing import MemoryConfig
from repro.reliability.montecarlo import MonteCarloConfig, simulate_shards_batched
from repro.reliability.schemes import (
    CHIPKILL_SCHEME,
    IVEC_SCHEME,
    SECDED_SCHEME,
    SYNERGY_SCHEME,
)
from repro.secure.designs import ALL_DESIGNS
from repro.secure.timing_engine import SecureTimingEngine
from repro.telemetry import cell_scope

from reference.secure_oracle import ScalarSecureTimingEngine

#: Small caches so a short stream still produces evictions, dirty spills
#: and metadata-cache misses (the interesting transitions).
_CACHES = CacheConfig(llc_bytes=64 * 1024, metadata_bytes=8 * 1024)
_NUM_DATA_LINES = 4096
_WARM_EVENTS = 300
_MEASURED_EVENTS = 600
_FLUSH_EVERY = 64


def _lcg_stream(seed):
    state = seed & 0x7FFFFFFF
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


def _drive(design, deferred, seed, num_data_lines=_NUM_DATA_LINES):
    """Run one engine over the shared stream; return its observables."""
    with cell_scope(cell="equiv:%s:%s" % (design.name, deferred)) as registry:
        controller = MemoryController(MemoryConfig())
        hierarchy = CacheHierarchy(_CACHES)
        engine_class = (
            SecureTimingEngine if deferred else ScalarSecureTimingEngine
        )
        engine = engine_class(design, hierarchy, controller, num_data_lines)
        if deferred:
            expand = engine.expand_read_miss_deferred
        else:
            expand = engine.expand_read_miss
        handle_writeback = engine.writeback
        warm = engine.warm_miss_metadata

        stream = _lcg_stream(seed)

        def resolve(base, indices):
            """(line, sequence) of batch-relative request indices."""
            specs = controller._specs
            return [(specs[base + i][1], base + i) for i in indices]

        # Warm phase: metadata walks only (the system simulator handles
        # the data-cache side), then the same resets warmup applies.
        if design.encrypted:
            for index in range(_WARM_EVENTS):
                value = next(stream)
                warm(value % num_data_lines, index % 3 == 0)
        hierarchy.llc.reset_stats()
        hierarchy.metadata_cache.reset_stats()
        hierarchy.reset_fill_stats()

        # Measured phase: read-miss expansions with a writeback every
        # fifth event; the deferred engine flushes every _FLUSH_EVERY
        # events, mirroring the system's resolve boundary.
        blocking_log = []
        pending = []  # (event_index, indices) awaiting this epoch's flush
        for index in range(_MEASURED_EVENTS):
            value = next(stream)
            line = value % num_data_lines
            when = 2 + index * 3
            core = value % 4
            if index % 5 == 4:
                handle_writeback(line, when, core)
            elif deferred:
                pending.append((index, expand(line, when, core)))
            else:
                # The controller never processes here, so its pending
                # epoch holds every spec and a spec's position in it is
                # its sequence number.
                base = controller.sequence
                access = expand(line, when, core)
                blocking_log.append((index, resolve(base, access.blocking)))
            if deferred and (index + 1) % _FLUSH_EVERY == 0:
                base = controller.sequence
                engine.flush_epoch()
                for event, indices in pending:
                    blocking_log.append((event, resolve(base, indices)))
                pending = []
        if deferred:
            base = controller.sequence
            engine.flush_epoch()
            for event, indices in pending:
                blocking_log.append((event, resolve(base, indices)))
        engine.sync_telemetry()

        observables = {
            "specs": list(controller._specs),
            "blocking": sorted(blocking_log),
            "stats": list(engine.stats.as_dict().items()),
            "metadata_accesses": engine._counts.metadata_accesses,
            "md_sets": [
                list(ways.items())
                for ways in hierarchy.metadata_cache._sets
            ],
            "llc_sets": [list(ways.items()) for ways in hierarchy.llc._sets],
            "cache_stats": [
                (
                    cache.hits,
                    cache.misses,
                    cache.evictions,
                    cache.dirty_evictions,
                )
                for cache in (hierarchy.llc, hierarchy.metadata_cache)
            ],
            "fills": (
                hierarchy.data_llc_fills,
                hierarchy.metadata_llc_fills,
            ),
            "telemetry": registry.snapshot().deterministic().to_payload(),
        }
    return observables


@pytest.mark.parametrize(
    "design", ALL_DESIGNS, ids=[d.name for d in ALL_DESIGNS]
)
def test_deferred_engine_matches_scalar_oracle(design):
    """Every design: production (fused) run == scalar run, bit for bit."""
    scalar = _drive(design, deferred=False, seed=0xC0FFEE)
    vector = _drive(design, deferred=True, seed=0xC0FFEE)
    for key in scalar:
        assert vector[key] == scalar[key], (
            "%s diverged for %s" % (key, design.name)
        )


@pytest.mark.parametrize("seed", [1, 2018, 0x5EED])
def test_deferred_equivalence_seed_sweep(seed):
    """Each walk shape stays equivalent across seeds: Bonsai with an
    uncached MAC, ECC-chip MAC, parity RMW, IVEC's MAC tree and split
    counters."""
    from repro.secure.designs import IVEC, LOTECC, SGX_O, SGX_O_SPLIT, SYNERGY

    for design in (SGX_O, SYNERGY, LOTECC, IVEC, SGX_O_SPLIT):
        scalar = _drive(design, deferred=False, seed=seed)
        vector = _drive(design, deferred=True, seed=seed)
        assert vector == scalar, design.name


@pytest.mark.parametrize("design_name", ["IVEC", "SGX_O", "SGX"])
def test_deep_walks_match_scalar_oracle(design_name):
    """A footprint far beyond the caches: most walks miss several tree
    levels (demand MAC-tree reads for IVEC, deep Bonsai walks otherwise)
    and most writebacks fetch several levels for their RMW."""
    from repro.secure.designs import design_by_name

    design = design_by_name(design_name)
    scalar = _drive(design, deferred=False, seed=7, num_data_lines=1 << 20)
    vector = _drive(design, deferred=True, seed=7, num_data_lines=1 << 20)
    assert vector == scalar, design.name
    stats = dict(vector["stats"])
    reads = stats["demand_data_read"]
    if design is design_by_name("IVEC"):
        assert stats["demand_mac_read"] > 2 * reads
        assert stats["writeback_mac_read"] > stats["writeback_data_write"]
    else:
        assert stats["demand_counter_read"] > 2 * reads


def _sliced(scheme, config, shards, pieces):
    """The kernel over ``pieces`` contiguous slices of ``shards``, joined."""
    bounds = [len(shards) * index // pieces for index in range(pieces + 1)]
    return [
        result
        for low, high in zip(bounds, bounds[1:])
        for result in simulate_shards_batched(scheme, config, shards[low:high])
    ]


class TestMonteCarloBatched:
    def test_batched_shards_match_reference(self):
        config = MonteCarloConfig(
            devices=120_000, shard_devices=50_000, seed=77
        )
        shards = config.shards()
        for scheme in (
            SECDED_SCHEME,
            CHIPKILL_SCHEME,
            SYNERGY_SCHEME,
            IVEC_SCHEME,
        ):
            one_pass = simulate_shards_batched(scheme, config, shards)
            assert len(one_pass) == len(shards)
            assert one_pass == _sliced(scheme, config, shards, len(shards))
            assert one_pass == _sliced(scheme, config, shards, 2), scheme.name

    def test_batched_handles_ragged_final_shard(self):
        config = MonteCarloConfig(devices=70_001, shard_devices=30_000, seed=5)
        shards = config.shards()
        assert [size for _sid, size in shards] == [30_000, 30_000, 10_001]
        one_pass = simulate_shards_batched(SECDED_SCHEME, config, shards)
        assert one_pass == _sliced(SECDED_SCHEME, config, shards, len(shards))
        assert one_pass == _sliced(SECDED_SCHEME, config, shards, 2)
        # The payload of the ragged shard counts exactly its own devices.
        ragged = one_pass[-1][1]
        assert ragged["mc.devices"]["value"] == 10_001
