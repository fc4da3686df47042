"""Telemetry subsystem: metric primitives, merging, determinism.

The load-bearing contracts: snapshot merging is order-independent (so
worker completion order can never change an aggregate), telemetry is
invisible to simulation results (jobs=1/jobs=4 produce the same numbers),
and per-cell snapshots survive the run cache round-trip.
"""

import dataclasses
import json

import pytest

from repro.parallel import ExecutionStats
from repro.reliability.montecarlo import (
    MonteCarloConfig,
    simulate_failure_probability,
)
from repro.reliability.schemes import SYNERGY_SCHEME
from repro.secure.designs import SGX, SGX_O, SYNERGY
from repro.sim import runner
from repro.sim.config import SystemConfig
from repro.sim.runner import run_suite, run_workload
from repro.sim.system import SystemSimulator
from repro.telemetry import (
    TELEMETRY_AGGREGATE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    TelemetryAggregate,
    get_registry,
    merge_payloads,
    scoped_registry,
)

TINY = SystemConfig(accesses_per_core=600)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Aggregate empty before and after every test."""
    TELEMETRY_AGGREGATE.reset()
    yield
    TELEMETRY_AGGREGATE.reset()


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_and_payload(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.to_payload() == {"kind": "counter", "value": 5}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_tracks_count_sum_min_max(self):
        gauge = Gauge("g")
        for value in (3, 1, 2):
            gauge.set(value)
        payload = gauge.to_payload()
        assert payload["count"] == 3
        assert payload["sum"] == 6
        assert payload["min"] == 1
        assert payload["max"] == 3
        assert gauge.mean == 2.0


class TestHistogram:
    def test_bucket_edges(self):
        histo = Histogram("h", edges=(1, 2, 4))
        histo.record(0)  # below first edge -> bucket 0
        histo.record(1)  # exactly on an edge -> that edge's bucket
        histo.record(2)
        histo.record(3)  # 2 < v <= 4 -> bucket of edge 4
        histo.record(4)
        histo.record(5)  # above last edge -> overflow bucket
        assert histo.buckets == [2, 1, 2, 1]
        assert histo.count == 6
        assert histo.minimum == 0 and histo.maximum == 5

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=(1, 1, 2))
        with pytest.raises(ValueError):
            Histogram("h", edges=())

    def test_weighted_record(self):
        histo = Histogram("h", edges=(10,))
        histo.record(3, weight=5)
        assert histo.buckets == [5, 0]
        assert histo.count == 5
        assert histo.total == 15.0


class TestMergePayloads:
    def test_counter_merge_commutes(self):
        a = Counter("c")
        a.inc(2)
        b = Counter("c")
        b.inc(5)
        left = merge_payloads(a.to_payload(), b.to_payload())
        right = merge_payloads(b.to_payload(), a.to_payload())
        assert left == right
        assert left["value"] == 7

    def test_histogram_merge(self):
        a = Histogram("h", edges=(1, 2))
        b = Histogram("h", edges=(1, 2))
        a.record(0)
        b.record(2)
        b.record(9)
        merged = merge_payloads(a.to_payload(), b.to_payload())
        assert merged["buckets"] == [1, 1, 1]
        assert merged["count"] == 3
        assert merged["min"] == 0 and merged["max"] == 9

    def test_histogram_edge_mismatch_raises(self):
        a = Histogram("h", edges=(1, 2))
        b = Histogram("h", edges=(1, 4))
        with pytest.raises(ValueError):
            merge_payloads(a.to_payload(), b.to_payload())

    def test_kind_mismatch_raises(self):
        with pytest.raises(ValueError):
            merge_payloads(Counter("c").to_payload(), Gauge("g").to_payload())


# ---------------------------------------------------------------------------
# Registry and snapshots
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_same_name_same_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_scoped_registry_isolates(self):
        with scoped_registry() as outer:
            get_registry().counter("n").inc()
            with scoped_registry() as inner:
                get_registry().counter("n").inc(10)
                assert inner.snapshot().value("n") == 10
            assert outer.snapshot().value("n") == 1


class TestSnapshot:
    def _snap(self, **counts):
        registry = MetricsRegistry()
        for name, value in counts.items():
            registry.counter(name).inc(value)
        return registry.snapshot()

    def test_merge_order_independent(self):
        snaps = [self._snap(a=1, b=2), self._snap(a=10), self._snap(b=5, c=1)]
        forward = MetricsSnapshot().merge(*snaps)
        backward = MetricsSnapshot().merge(*reversed(snaps))
        assert forward.to_payload() == backward.to_payload()
        assert forward.value("a") == 11
        assert forward.value("c") == 1

    def test_payload_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h", edges=(1, 2)).record(2)
        registry.gauge("g").set(7)
        snapshot = registry.snapshot()
        revived = MetricsSnapshot.from_payload(
            json.loads(json.dumps(snapshot.to_payload()))
        )
        assert revived.to_payload() == snapshot.to_payload()

    def test_ratio_and_headline(self):
        registry = MetricsRegistry()
        registry.counter("dram.row_hits").inc(3)
        registry.counter("dram.row_misses").inc(1)
        snapshot = registry.snapshot()
        assert snapshot.ratio("dram.row_hits", "dram.row_misses") == 0.75
        assert snapshot.headline()["row_buffer_hit_rate"] == 0.75

    def test_aggregate_groups(self):
        aggregate = TelemetryAggregate()
        aggregate.add("a", self._snap(x=1))
        aggregate.add("a", self._snap(x=2).to_payload())  # payload form
        assert list(aggregate.groups()) == ["a"]
        assert aggregate.overall().value("x") == 3


# ---------------------------------------------------------------------------
# ExecutionStats (plain fields) keeps its public contract
# ---------------------------------------------------------------------------


class TestExecutionStats:
    def test_api_and_as_dict_keys(self):
        stats = ExecutionStats()
        stats.cache_hits += 1
        stats.cache_misses += 1
        stats.record_cell("a", 2.0)
        stats.record_cell("b", 1.0)
        stats.record_map(2, 2.0)
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert stats.cells_executed == 2
        assert stats.busy_seconds == 3.0
        assert stats.span_seconds == 2.0
        assert stats.worker_utilisation == 0.75
        assert stats.slowest_cells(1) == [("a", 2.0)]
        payload = stats.as_dict()
        assert set(payload) == {
            "cache_hits",
            "cache_misses",
            "cache_corrupt",
            "cache_evictions",
            "cache_write_errors",
            "pool_spawns",
            "pool_maps",
            "pool_spawn_seconds",
            "cell_retries",
            "cells_executed",
            "busy_seconds",
            "span_seconds",
            "worker_utilisation",
            "peak_rss_mib",
            "sanitizer_checks",
            "slowest_cells",
        }
        assert payload["peak_rss_mib"] > 0
        assert payload["sanitizer_checks"] == 0

    def test_reset(self):
        stats = ExecutionStats()
        stats.record_cell("a", 1.0, peak_kib=2048)
        stats.record_map(1, 1.0)
        stats.pool_spawns += 1
        stats.reset()
        after, fresh = stats.as_dict(), ExecutionStats().as_dict()
        del after["peak_rss_mib"], fresh["peak_rss_mib"]  # this process's
        assert after == fresh
        assert stats.cell_peak_rss_mib == 0.0
        assert not stats.cell_times and not stats.map_spans

    def test_absorb_adds_counts_and_keeps_the_larger_peak(self):
        first, second, total = ExecutionStats(), ExecutionStats(), ExecutionStats()
        first.record_cell("a", 2.0, peak_kib=1024, checks=5)
        first.record_map(2, 2.0)
        first.cache_hits += 1
        second.record_cell("b", 1.0, peak_kib=3072, checks=2)
        second.pool_spawns += 1
        second.pool_spawn_seconds += 0.5
        total.absorb(first)
        total.absorb(second)
        assert total.cells_executed == 2
        assert total.sanitizer_checks == 7
        assert total.busy_seconds == 3.0
        assert total.cache_hits == 1 and total.pool_spawns == 1
        assert total.pool_spawn_seconds == 0.5
        assert total.worker_utilisation == 0.75
        assert total.cell_times == [("a", 2.0), ("b", 1.0)]
        assert total.map_spans == [(2, 2.0)]
        assert total.cell_peak_rss_mib == 3.0


# ---------------------------------------------------------------------------
# End-to-end determinism guards
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_cell_snapshot_has_no_timers(self):
        # Only simulated quantities: no host wall clock in a cell snapshot.
        result = run_workload(SGX, "lbm", TINY)
        kinds = {payload["kind"] for payload in result.telemetry.values()}
        assert kinds <= {"counter", "gauge", "histogram"}

    def test_jobs_do_not_change_results_or_aggregate(self, one_pool_map):
        TELEMETRY_AGGREGATE.reset()
        serial = run_suite([SGX, SYNERGY], ["lbm"], TINY, jobs=1, cache=False)
        serial_agg = {
            name: snap.to_payload()
            for name, snap in TELEMETRY_AGGREGATE.groups().items()
        }
        TELEMETRY_AGGREGATE.reset()
        with one_pool_map(2):
            pooled = run_suite(
                [SGX, SYNERGY], ["lbm"], TINY, jobs=4, cache=False
            )
        pooled_agg = {
            name: snap.to_payload()
            for name, snap in TELEMETRY_AGGREGATE.groups().items()
        }
        for left, right in zip(serial.results, pooled.results):
            assert dataclasses.asdict(left) == dataclasses.asdict(right)
        assert serial_agg == pooled_agg
        assert set(serial_agg) == {"SGX", "Synergy"}

    def test_cached_cell_still_feeds_aggregate(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_suite([SGX], ["lbm"], TINY, jobs=1, cache=cache_dir)
        cold = {
            name: snap.to_payload()
            for name, snap in TELEMETRY_AGGREGATE.groups().items()
        }
        TELEMETRY_AGGREGATE.reset()
        run_suite([SGX], ["lbm"], TINY, jobs=1, cache=cache_dir)  # warm hit
        warm = {
            name: snap.to_payload()
            for name, snap in TELEMETRY_AGGREGATE.groups().items()
        }
        assert cold == warm
        assert cold  # non-empty: the hit revived the snapshot

    def test_mc_warm_cache_revives_telemetry(self, tmp_path):
        cache_dir = str(tmp_path / "mc-cache")
        config = MonteCarloConfig(devices=20_000, shard_devices=10_000, seed=5)
        cold_p = simulate_failure_probability(
            SYNERGY_SCHEME, config, jobs=1, cache=cache_dir
        )
        cold = TELEMETRY_AGGREGATE.overall().to_payload()
        TELEMETRY_AGGREGATE.reset()
        warm_p = simulate_failure_probability(
            SYNERGY_SCHEME, config, jobs=1, cache=cache_dir
        )
        warm = TELEMETRY_AGGREGATE.overall().to_payload()
        assert warm_p == cold_p
        assert warm == cold
        assert warm["mc.devices"]["value"] == 20_000

    def test_mc_aggregate_independent_of_jobs(self):
        config = MonteCarloConfig(devices=40_000, shard_devices=10_000, seed=9)
        p1 = simulate_failure_probability(
            SYNERGY_SCHEME, config, jobs=1, cache=False
        )
        serial = TELEMETRY_AGGREGATE.overall().to_payload()
        TELEMETRY_AGGREGATE.reset()
        p4 = simulate_failure_probability(
            SYNERGY_SCHEME, config, jobs=4, cache=False
        )
        pooled = TELEMETRY_AGGREGATE.overall().to_payload()
        assert p1 == p4
        assert serial == pooled


class TestCellScope:
    def test_scope_snapshot_contains_only_cell_metrics(self):
        get_registry().counter("ambient").inc(100)
        with scoped_registry() as registry:
            get_registry().counter("inner").inc()
            snapshot = registry.snapshot()
        assert "inner" in snapshot
        assert "ambient" not in snapshot


class TestPublishOnce:
    def test_registry_equals_component_totals_after_a_warm_run(self):
        # Components count in plain ints and SystemSimulator.run publishes
        # each total once, after warm-up's reset: the cell's registry must
        # read exactly what the components hold when the run returns.
        _label, traces = runner._traces_for("mcf", TINY)
        _label, warmup = runner._traces_for("mcf", TINY, "warmup")
        with scoped_registry() as registry:
            sim = SystemSimulator(SGX_O, traces, TINY)
            sim.warmup(warmup)
            sim.run()
            snapshot = registry.snapshot()
        hierarchy = sim.hierarchy
        channels = sim.controller.channels
        activations = sum(sum(channel.row_misses) for channel in channels)
        expected = {
            "cache.data_llc_fills": hierarchy.data_llc_fills,
            "cache.metadata_llc_fills": hierarchy.metadata_llc_fills,
            "dram.row_hits": sum(sum(channel.row_hits) for channel in channels),
            "dram.row_misses": activations,
            "dram.bank_activations": activations,
            "secure.metadata_accesses": sim.engine._counts.metadata_accesses,
            "secure.counter_hits": sim.engine._counts.counter_hits,
        }
        for name, cache in (
            ("llc", hierarchy.llc),
            ("metadata", hierarchy.metadata_cache),
        ):
            expected["cache.%s.hits" % name] = cache.hits
            expected["cache.%s.misses" % name] = cache.misses
            expected["cache.%s.dirty_evictions" % name] = cache.dirty_evictions
        assert {name: snapshot.value(name) for name in expected} == expected
        assert all(expected.values())
