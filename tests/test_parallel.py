"""Parallel execution layer: determinism goldens, run cache, merging.

The contract under test: fanning grid cells / Monte-Carlo shards over a
process pool produces *bit-identical* results to a serial run, cached
results are indistinguishable from computed ones, and completion order can
never reorder printed figure rows.
"""

import dataclasses
import json
import os
import re

import pytest

from repro.parallel import (
    EXECUTION_STATS,
    ExecutionStats,
    RunCache,
    cache_key,
    code_fingerprint,
    default_jobs,
    overridden,
    parallel_map,
    resolve_cache,
    resolve_jobs,
    shutdown_pool,
)
from repro.reliability.montecarlo import (
    MonteCarloConfig,
    simulate_failure_probability,
    simulate_shards_batched,
)
from repro.reliability.schemes import SECDED_SCHEME, SYNERGY_SCHEME
from repro.secure.designs import SGX_O, SYNERGY
from repro.sim.config import SystemConfig
from repro.sim.results import ResultTable, RunResult
from repro.sim.runner import cell_key, run_suite

#: Tiny grid: big enough to exercise warm-up, caches and both designs,
#: small enough that the golden comparison runs twice in seconds.
TINY = SystemConfig(accesses_per_core=600)
TINY_MC = MonteCarloConfig(devices=60_000, shard_devices=20_000, seed=7)


def _square(value):
    return value * value


def _touch_mib(mib):
    """Write one byte per page of ``mib`` MiB; return this process's peak."""
    import resource

    block = bytearray(mib << 20)
    block[::4096] = b"\x01" * len(range(0, len(block), 4096))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class TestParallelMap:
    def test_serial_matches_parallel_order(self):
        items = list(range(12))
        serial = parallel_map(_square, items, jobs=1, stats=ExecutionStats())
        pooled = parallel_map(_square, items, jobs=3, stats=ExecutionStats())
        assert serial == pooled == [v * v for v in items]

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4, stats=ExecutionStats()) == []

    def test_stats_record_cells_and_span(self):
        stats = ExecutionStats()
        parallel_map(_square, [1, 2, 3], jobs=1, labels="abc", stats=stats)
        assert stats.cells_executed == 3
        assert [label for label, _ in stats.cell_times] == ["a", "b", "c"]
        assert stats.span_seconds >= 0
        assert 0 <= stats.worker_utilisation <= 1


    def test_peak_rss_counts_live_pool_workers(self):
        # Pool workers are reaped only at shutdown, so their peaks must
        # ride back with the cells while the pool is still alive.
        shutdown_pool()
        stats = ExecutionStats()
        try:
            peaks_kib = parallel_map(_touch_mib, [48, 48], jobs=2, stats=stats)
            assert max(peaks_kib) >= 32 * 1024
            # The executor reads ru_maxrss again after the cell returns, and
            # the kernel syncs RSS counters in batches, so its reading may
            # exceed the cell's own but never fall below it.
            assert max(peaks_kib) <= stats.cell_peak_rss_mib * 1024
            assert stats.cell_peak_rss_mib >= 48  # each worker touched 48 MiB
            assert stats.peak_rss_mib >= stats.cell_peak_rss_mib
        finally:
            shutdown_pool()


class TestRunSuiteGolden:
    """The ISSUE's golden test: jobs=1 vs jobs=4 bit-identical."""

    @pytest.fixture(scope="class")
    def tables(self, one_pool_map):
        with overridden(cache_enabled=False):
            serial = run_suite([SGX_O, SYNERGY], ["mcf", "pr-web"], TINY, jobs=1)
            with one_pool_map(4):
                pooled = run_suite(
                    [SGX_O, SYNERGY], ["mcf", "pr-web"], TINY, jobs=4
                )
        return serial, pooled

    def test_identical_run_results(self, tables):
        serial, pooled = tables
        assert len(serial.results) == len(pooled.results) == 4
        for left, right in zip(serial.results, pooled.results):
            assert dataclasses.asdict(left) == dataclasses.asdict(right)

    def test_grid_order_designs_outer(self, tables):
        serial, _ = tables
        assert [r.key for r in serial.results] == [
            ("SGX_O", "mcf"),
            ("SGX_O", "pr-web"),
            ("Synergy", "mcf"),
            ("Synergy", "pr-web"),
        ]


class TestMonteCarloGolden:
    def test_serial_matches_sharded(self):
        serial = simulate_failure_probability(
            SECDED_SCHEME, TINY_MC, jobs=1, cache=False
        )
        sharded = simulate_failure_probability(
            SECDED_SCHEME, TINY_MC, jobs=4, cache=False
        )
        assert serial == sharded

    def test_shards_partition_population(self):
        shards = TINY_MC.shards()
        assert shards == [(0, 20_000), (1, 20_000), (2, 20_000)]
        assert sum(size for _, size in shards) == TINY_MC.devices

    def test_ragged_last_shard(self):
        config = MonteCarloConfig(devices=45_000, shard_devices=20_000)
        assert config.shards() == [(0, 20_000), (1, 20_000), (2, 5_000)]

    def test_shard_is_pure_function_of_seed_and_id(self):
        first = simulate_shards_batched(SYNERGY_SCHEME, TINY_MC, [(1, 20_000)])
        second = simulate_shards_batched(SYNERGY_SCHEME, TINY_MC, [(1, 20_000)])
        assert first == second

    def test_different_seed_different_population(self):
        other = dataclasses.replace(TINY_MC, seed=8)
        a = simulate_failure_probability(SECDED_SCHEME, TINY_MC, cache=False)
        b = simulate_failure_probability(SECDED_SCHEME, other, cache=False)
        # Same statistics, different draws: equality would mean the seed
        # is being ignored (a ~2% failure rate over 60k devices never
        # reproduces exactly across independent populations).
        assert a != b


class TestRunCache:
    def test_round_trip_and_hit_counters(self, tmp_path):
        stats = ExecutionStats()
        cache = RunCache(str(tmp_path), stats=stats)
        key = cache_key("unit", value=1)
        assert cache.get(key) is None
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        assert stats.cache_misses == 1 and stats.cache_hits == 1
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get(key) is None

    def test_integer_dict_keys_round_trip_as_a_hit(self, tmp_path):
        # JSON stringifies int keys on disk; the digest is taken over the
        # round-tripped form, so this is no false mismatch.
        stats = ExecutionStats()
        cache = RunCache(str(tmp_path), stats=stats)
        key = cache_key("unit", value=4)
        cache.put(key, {1: "a", "nested": {2: [3.5, None]}})
        assert cache.get(key) == {"1": "a", "nested": {"2": [3.5, None]}}
        assert stats.cache_hits == 1 and stats.cache_corrupt == 0

    def test_flipped_digit_in_warm_cache_is_recomputed(self, tmp_path):
        with overridden(cache_enabled=False):
            clean = run_suite([SGX_O], ["mcf"], TINY).results[0].to_payload()
        with overridden(cache_enabled=True, cache_dir=str(tmp_path)):
            run_suite([SGX_O], ["mcf"], TINY)
            path = RunCache(str(tmp_path)).path_for(cell_key(SGX_O, "mcf", TINY))
            with open(path) as handle:
                raw = handle.read()
            digit = re.search(r'"ipc": \d+\.(\d)', raw)
            flipped = str((int(digit.group(1)) + 1) % 10)
            with open(path, "w") as handle:
                handle.write(raw[: digit.start(1)] + flipped + raw[digit.end(1) :])
            EXECUTION_STATS.reset()
            again = run_suite([SGX_O], ["mcf"], TINY).results[0].to_payload()
        assert again == clean
        assert EXECUTION_STATS.cache_corrupt == 1
        assert EXECUTION_STATS.cells_executed == 1

    def test_key_sensitive_to_config_fields(self):
        base = cache_key("run_workload", design=SGX_O, config=TINY)
        assert base == cache_key("run_workload", design=SGX_O, config=TINY)
        assert base != cache_key("run_workload", design=SYNERGY, config=TINY)
        longer = dataclasses.replace(TINY, accesses_per_core=601)
        assert base != cache_key("run_workload", design=SGX_O, config=longer)

    def test_key_sensitive_to_mc_shape(self):
        base = cache_key("montecarlo", scheme=SECDED_SCHEME, config=TINY_MC)
        resharded = dataclasses.replace(TINY_MC, shard_devices=30_000)
        assert base != cache_key(
            "montecarlo", scheme=SECDED_SCHEME, config=resharded
        )

    def test_code_fingerprint_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    def test_run_suite_reuses_cells(self, tmp_path):
        with overridden(cache_enabled=True, cache_dir=str(tmp_path)):
            EXECUTION_STATS.reset()
            cold = run_suite([SGX_O], ["mcf"], TINY)
            assert EXECUTION_STATS.cache_misses == 1
            assert EXECUTION_STATS.cells_executed == 1
            EXECUTION_STATS.reset()
            warm = run_suite([SGX_O], ["mcf"], TINY)
            assert EXECUTION_STATS.cache_hits == 1
            assert EXECUTION_STATS.cells_executed == 0
        assert dataclasses.asdict(cold.results[0]) == dataclasses.asdict(
            warm.results[0]
        )

    def test_cache_off_reuses_no_result(self):
        # The run cache is the only tier of cell results: with it off, a
        # repeated cell is simulated again, never replayed from memory.
        with overridden(cache_enabled=False):
            EXECUTION_STATS.reset()
            first = run_suite([SGX_O], ["mcf"], TINY)
            second = run_suite([SGX_O], ["mcf"], TINY)
            assert EXECUTION_STATS.cells_executed == 2
            assert EXECUTION_STATS.cache_hits == 0
        assert first.results[0].to_payload() == second.results[0].to_payload()

    def test_montecarlo_caches_probability(self, tmp_path):
        with overridden(cache_enabled=True, cache_dir=str(tmp_path)):
            cold = simulate_failure_probability(SECDED_SCHEME, TINY_MC)
            EXECUTION_STATS.reset()
            warm = simulate_failure_probability(SECDED_SCHEME, TINY_MC)
            assert EXECUTION_STATS.cache_hits == 1
            assert EXECUTION_STATS.cells_executed == 0
        assert cold == warm

    def test_resolve_cache_forms(self, tmp_path):
        assert resolve_cache(False) is None
        with overridden(cache_enabled=False):
            assert resolve_cache() is None
            assert resolve_cache(True) is not None
        explicit = resolve_cache(str(tmp_path))
        assert isinstance(explicit, RunCache)
        assert explicit.root == str(tmp_path)

    def test_resolve_jobs_context_default(self):
        with overridden(jobs=3):
            assert resolve_jobs() == 3
            assert resolve_jobs(1) == 1

    def test_default_jobs_counts_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert default_jobs() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_jobs() == 3

    def test_unwritable_cache_degrades_to_uncached(self, tmp_path):
        # A root that is a regular file fails every write (NotADirectoryError).
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        with overridden(cache_enabled=False):
            clean = run_suite([SGX_O], ["mcf"], TINY)
        EXECUTION_STATS.reset()
        with overridden(cache_enabled=True, cache_dir=str(blocker)):
            degraded = run_suite([SGX_O], ["mcf"], TINY)
        assert degraded.results[0].to_payload() == clean.results[0].to_payload()
        assert EXECUTION_STATS.cache_write_errors >= 1
        assert EXECUTION_STATS.as_dict()["cache_write_errors"] >= 1
        assert blocker.is_file()


def _result(design, workload, ipc=1.0):
    return RunResult(
        design=design, workload=workload, ipc=ipc, cpu_cycles=1.0, instructions=1
    )


class TestResultTableMerge:
    def test_merge_is_completion_order_independent(self):
        cells = [("A", "w1"), ("A", "w2"), ("B", "w1"), ("B", "w2")]
        forward = ResultTable(_result(d, w) for d, w in cells)
        backward = ResultTable(_result(d, w) for d, w in reversed(cells))
        merged_f = ResultTable().merge(forward)
        merged_b = ResultTable().merge(backward)
        assert [r.key for r in merged_f.results] == [r.key for r in merged_b.results]
        assert [r.key for r in merged_f.results] == cells

    def test_merge_first_seen_wins(self):
        first = ResultTable([_result("A", "w1", ipc=1.0)])
        second = ResultTable([_result("A", "w1", ipc=2.0)])
        merged = first.merge(second)
        assert len(merged.results) == 1
        assert merged.get("A", "w1").ipc == 1.0

    def test_sort_with_explicit_figure_order(self):
        table = ResultTable(
            [_result("Synergy", "mcf"), _result("SGX_O", "lbm"), _result("SGX_O", "mcf")]
        )
        table.sort(designs=["SGX_O", "Synergy"], workloads=["mcf", "lbm"])
        assert [r.key for r in table.results] == [
            ("SGX_O", "mcf"),
            ("SGX_O", "lbm"),
            ("Synergy", "mcf"),
        ]

    def test_payload_round_trip(self):
        original = _result("A", "w1", ipc=1.25)
        rebuilt = RunResult.from_payload(original.to_payload())
        assert dataclasses.asdict(rebuilt) == dataclasses.asdict(original)
