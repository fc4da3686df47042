"""Timing and cache instrumentation for the parallel execution layer.

One process-global :class:`ExecutionStats` accumulates per-cell wall times,
cache hit/miss counters and pool utilisation; the CLI renders a summary
after each experiment (``repro.harness.report.render_execution_stats``)
and ``tools/bench_snapshot.py`` persists it alongside wall-clock numbers.

The counters live in a private :class:`~repro.telemetry.MetricsRegistry`,
so the execution profile merges and serialises through the same snapshot
path as the simulator metrics (``snapshot()``). The registry is private —
not the cell-scoped one — because these numbers describe the *harness*
(wall clocks, pool spans), which must never leak into the deterministic
per-cell snapshots attached to cached results. The same holds for the
process's peak resident set (``peak_rss_mib``): it depends on the host
and the allocator, so it is read only when a summary is rendered, with
the peaks pool workers report alongside their cells.
"""

from __future__ import annotations

import resource
from typing import Dict, List, Tuple

from repro.telemetry import MetricsRegistry, MetricsSnapshot


class ExecutionStats:
    """Counters for one experiment's worth of cell executions."""

    def __init__(self) -> None:
        self._registry = MetricsRegistry(enabled=True)
        self._hits = self._registry.counter("exec.cache_hits")
        self._misses = self._registry.counter("exec.cache_misses")
        self._corrupt = self._registry.counter("exec.cache_corrupt")
        self._evictions = self._registry.counter("exec.cache_evictions")
        self._write_errors = self._registry.counter("exec.cache_write_errors")
        self._memo_evictions = self._registry.counter("exec.memo_evictions")
        self._pool_spawns = self._registry.counter("exec.pool_spawns")
        self._pool_maps = self._registry.counter("exec.pool_maps")
        self._cell_retries = self._registry.counter("exec.cell_retries")
        self._cell_timer = self._registry.timer("exec.cell_seconds")
        self._span_timer = self._registry.timer("exec.span_seconds")
        self._capacity_timer = self._registry.timer("exec.capacity_seconds")
        self._pool_spawn_timer = self._registry.timer("exec.pool_spawn_seconds")
        #: (label, seconds) per executed cell, in submission order
        self.cell_times: List[Tuple[str, float]] = []
        #: wall-clock spans of the fan-out calls and the jobs they used
        self.map_spans: List[Tuple[int, float]] = []
        #: largest ``ru_maxrss`` (KiB) a process reported with its cell
        self._cell_peak_kib = 0

    def reset(self) -> None:
        """Zero all counters (the CLI resets between experiments)."""
        self._registry.reset()
        self.cell_times = []
        self.map_spans = []
        self._cell_peak_kib = 0

    def absorb(self, other: "ExecutionStats") -> None:
        """Add ``other``'s counts, timings and cell peak to this collector.

        The CLI resets the process collector per experiment and absorbs
        each one into a whole-run collector, so ``--metrics-out`` describes
        the prefetch and every experiment, not only the last one.
        """
        for name, metric in other._registry:
            mine = self._registry[name]
            if metric.kind == "timer":
                mine.count += metric.count
                mine.total_seconds += metric.total_seconds
            else:
                mine.inc(metric.value)
        self.cell_times += other.cell_times
        self.map_spans += other.map_spans
        self._cell_peak_kib = max(self._cell_peak_kib, other._cell_peak_kib)

    # -- recording (called by runcache / executor) --------------------------

    def record_cache_hit(self, label: str = "") -> None:
        self._hits.inc()

    def record_cache_miss(self, label: str = "") -> None:
        self._misses.inc()

    def record_cache_corrupt(self, label: str = "") -> None:
        self._corrupt.inc()

    def record_cache_eviction(self, label: str = "") -> None:
        self._evictions.inc()

    def record_cache_write_error(self, label: str = "") -> None:
        self._write_errors.inc()

    def record_memo_evictions(self, count: int = 1) -> None:
        if count:
            self._memo_evictions.inc(count)

    def record_cell(self, label: str, seconds: float, peak_kib: int = 0) -> None:
        """One executed cell: its wall time and, when the executing
        process reported it, that process's ``ru_maxrss`` in KiB."""
        self.cell_times.append((label, seconds))
        self._cell_timer.record(seconds)
        self._cell_peak_kib = max(self._cell_peak_kib, peak_kib)

    def record_map(self, jobs: int, span_seconds: float) -> None:
        self.map_spans.append((jobs, span_seconds))
        self._span_timer.record(span_seconds)
        self._capacity_timer.record(jobs * span_seconds)

    def record_pool_spawn(self, seconds: float) -> None:
        """One persistent-pool spawn (repro.parallel.pool.get_pool)."""
        self._pool_spawns.inc()
        self._pool_spawn_timer.record(seconds)

    def record_pool_map(self) -> None:
        """One batch dispatched through the persistent pool."""
        self._pool_maps.inc()

    def record_cell_retry(self) -> None:
        """One map re-submitted to a fresh pool after a worker died."""
        self._cell_retries.inc()

    # -- derived metrics ----------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Cells served from the run cache."""
        return int(self._hits.value)

    @property
    def cache_misses(self) -> int:
        """Cells that missed the run cache."""
        return int(self._misses.value)

    @property
    def cache_corrupt(self) -> int:
        """Cache entries found unreadable and quarantined (counted as misses)."""
        return int(self._corrupt.value)

    @property
    def cache_evictions(self) -> int:
        """Cache entries evicted by size-budget enforcement."""
        return int(self._evictions.value)

    @property
    def cache_write_errors(self) -> int:
        """Cache writes that failed (unwritable root); the run went on."""
        return int(self._write_errors.value)

    @property
    def memo_evictions(self) -> int:
        """In-memory cell-memo entries evicted by its byte budget."""
        return int(self._memo_evictions.value)

    @property
    def pool_spawns(self) -> int:
        """Persistent-pool spawns (1 per whole-grid run when reuse works)."""
        return int(self._pool_spawns.value)

    @property
    def pool_maps(self) -> int:
        """Batches dispatched through the persistent pool."""
        return int(self._pool_maps.value)

    @property
    def cell_retries(self) -> int:
        """Maps whose unfinished cells were re-run after a worker death."""
        return int(self._cell_retries.value)

    @property
    def pool_spawn_seconds(self) -> float:
        """Wall clock spent constructing persistent pools."""
        return self._pool_spawn_timer.total_seconds

    @property
    def cells_executed(self) -> int:
        """Cells actually simulated (cache misses that ran)."""
        return self._cell_timer.count

    @property
    def busy_seconds(self) -> float:
        """Total worker-occupied time across all cells."""
        return self._cell_timer.total_seconds

    @property
    def span_seconds(self) -> float:
        """Wall-clock time inside fan-out calls."""
        return self._span_timer.total_seconds

    @property
    def worker_utilisation(self) -> float:
        """busy / (workers x span): 1.0 means the pool never idled."""
        capacity = self._capacity_timer.total_seconds
        if capacity <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / capacity)

    @property
    def cell_peak_rss_mib(self) -> float:
        """Largest peak resident set a cell's process reported, MiB.

        Pool workers report theirs with each result, so this covers
        workers that are still alive (see ``executor._timed_call``).
        """
        return self._cell_peak_kib / 1024.0

    @property
    def peak_rss_mib(self) -> float:
        """Peak resident set of this process, its children and its
        workers, MiB.

        The largest ``ru_maxrss`` (KiB on Linux) of this process, its
        reaped children (service job children, shut-down pools) and every
        process that ran a recorded cell: live pool workers count too.
        """
        return (
            max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                self._cell_peak_kib,
            )
            / 1024.0
        )

    def slowest_cells(self, count: int = 5) -> List[Tuple[str, float]]:
        """The ``count`` longest-running cells (for hot-spot reports)."""
        return sorted(self.cell_times, key=lambda item: -item[1])[:count]

    def snapshot(self) -> MetricsSnapshot:
        """The execution profile as a mergeable metrics snapshot."""
        return self._registry.snapshot()

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (bench snapshots, run_experiments dumps)."""
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_corrupt": self.cache_corrupt,
            "cache_evictions": self.cache_evictions,
            "cache_write_errors": self.cache_write_errors,
            "memo_evictions": self.memo_evictions,
            "pool_spawns": self.pool_spawns,
            "pool_maps": self.pool_maps,
            "pool_spawn_seconds": round(self.pool_spawn_seconds, 3),
            "cell_retries": self.cell_retries,
            "cells_executed": self.cells_executed,
            "busy_seconds": round(self.busy_seconds, 3),
            "span_seconds": round(self.span_seconds, 3),
            "worker_utilisation": round(self.worker_utilisation, 3),
            "peak_rss_mib": round(self.peak_rss_mib, 1),
            "slowest_cells": [
                {"cell": label, "seconds": round(seconds, 3)}
                for label, seconds in self.slowest_cells()
            ],
        }


#: The process's collector (the CLI and report layer read it directly).
EXECUTION_STATS = ExecutionStats()
