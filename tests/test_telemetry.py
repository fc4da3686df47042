"""Telemetry subsystem: metric primitives, merging, tracing, determinism.

The load-bearing contracts: snapshot merging is order-independent (so
worker completion order can never change an aggregate), telemetry is
invisible to simulation results (on/off and jobs=1/jobs=4 produce the same
numbers), and per-cell snapshots survive the run cache round-trip.
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
from repro.secure.designs import SGX, SYNERGY
from repro.sim.config import SystemConfig
from repro.sim.runner import run_suite, run_workload
from repro.telemetry import (
    TELEMETRY_AGGREGATE,
    Counter,
    EventTracer,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    TelemetryAggregate,
    Timer,
    cell_scope,
    configure,
    get_registry,
    merge_payloads,
    read_jsonl,
    scoped_registry,
)

TINY = SystemConfig(accesses_per_core=600)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Collection on, aggregate empty, before and after every test."""
    configure(True)
    TELEMETRY_AGGREGATE.reset()
    yield
    configure(True)
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

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("x")
        counter.inc(5)  # must not raise, must not record
        registry.histogram("h").record(3)
        registry.gauge("g").set(1)
        with registry.timer("t").time():
            pass
        assert not registry.snapshot()

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

    def test_deterministic_drops_timers(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.timer("t").record(0.5)
        deterministic = registry.snapshot().deterministic()
        assert "c" in deterministic
        assert "t" not in deterministic

    def test_ratio_and_headline(self):
        registry = MetricsRegistry()
        registry.counter("dram.row_hits").inc(3)
        registry.counter("dram.row_misses").inc(1)
        snapshot = registry.snapshot()
        assert snapshot.ratio("dram.row_hits", "dram.row_misses") == 0.75
        assert snapshot.headline()["row_buffer_hit_rate"] == 0.75

    def test_aggregate_groups_and_ignores_empty(self):
        aggregate = TelemetryAggregate()
        aggregate.add("a", self._snap(x=1))
        aggregate.add("a", self._snap(x=2).to_payload())  # payload form
        aggregate.add("b", MetricsSnapshot())  # empty: ignored
        assert list(aggregate.groups()) == ["a"]
        assert aggregate.overall().value("x") == 3


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_emit_is_noop(self):
        tracer = EventTracer(enabled=False)
        tracer.emit("anything", x=1)
        assert len(tracer) == 0

    def test_context_stamps_events(self):
        tracer = EventTracer(enabled=True, run_id="r")
        with tracer.context(cell="SGX/lbm", shard=3):
            tracer.emit("inner", n=1)
        tracer.emit("outer")
        inner, outer = tracer.events()
        assert inner.cell == "SGX/lbm" and inner.shard == 3 and inner.run == "r"
        assert outer.cell == "" and outer.shard is None

    def test_ring_bound_and_dropped(self):
        tracer = EventTracer(capacity=4, enabled=True)
        for index in range(7):
            tracer.emit("e", i=index)
        assert len(tracer) == 4
        assert tracer.dropped == 3
        assert [event.data["i"] for event in tracer.events()] == [3, 4, 5, 6]

    def test_jsonl_round_trip(self, tmp_path):
        tracer = EventTracer(enabled=True, run_id="rt")
        with tracer.context(cell="c", shard=1):
            tracer.emit("first", value=42)
        tracer.emit("second")
        path = str(tmp_path / "trace.jsonl")
        assert tracer.write_jsonl(path) == 2
        revived = read_jsonl(path)
        assert [e.to_payload() for e in revived] == [
            e.to_payload() for e in tracer.events()
        ]


# ---------------------------------------------------------------------------
# ExecutionStats (now registry-backed) keeps its public contract
# ---------------------------------------------------------------------------


class TestExecutionStats:
    def test_api_and_as_dict_keys(self):
        stats = ExecutionStats()
        stats.record_cache_hit()
        stats.record_cache_miss()
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
            "memo_evictions",
            "pool_spawns",
            "pool_maps",
            "pool_spawn_seconds",
            "cell_retries",
            "cells_executed",
            "busy_seconds",
            "span_seconds",
            "worker_utilisation",
            "peak_rss_mib",
            "slowest_cells",
        }
        assert payload["peak_rss_mib"] > 0

    def test_snapshot_and_reset(self):
        stats = ExecutionStats()
        stats.record_cell("a", 1.0)
        snapshot = stats.snapshot()
        assert snapshot.value("exec.cell_seconds") == 1.0
        stats.reset()
        assert stats.cells_executed == 0
        assert not stats.cell_times


# ---------------------------------------------------------------------------
# End-to-end determinism guards
# ---------------------------------------------------------------------------


def _without_telemetry(result):
    payload = dataclasses.asdict(result)
    payload.pop("telemetry")
    return payload


class TestDeterminism:
    def test_results_identical_with_telemetry_off(self):
        enabled = run_workload(SYNERGY, "lbm", TINY)
        assert enabled.telemetry  # snapshot actually collected
        configure(False)
        disabled = run_workload(SYNERGY, "lbm", TINY)
        assert disabled.telemetry == {}
        assert _without_telemetry(enabled) == _without_telemetry(disabled)

    def test_cell_snapshot_has_no_timers(self):
        result = run_workload(SGX, "lbm", TINY)
        kinds = {payload["kind"] for payload in result.telemetry.values()}
        assert "timer" not in kinds

    def test_jobs_do_not_change_results_or_aggregate(self):
        TELEMETRY_AGGREGATE.reset()
        serial = run_suite([SGX, SYNERGY], ["lbm"], TINY, jobs=1, cache=False)
        serial_agg = {
            name: snap.to_payload()
            for name, snap in TELEMETRY_AGGREGATE.groups().items()
        }
        TELEMETRY_AGGREGATE.reset()
        pooled = run_suite([SGX, SYNERGY], ["lbm"], TINY, jobs=4, cache=False)
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
        with cell_scope(cell="x") as registry:
            get_registry().counter("inner").inc()
            snapshot = registry.snapshot()
        assert "inner" in snapshot
        assert "ambient" not in snapshot
