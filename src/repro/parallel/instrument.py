"""Timing and cache instrumentation for the parallel execution layer.

One process-global :class:`ExecutionStats` accumulates per-cell wall times,
cache hit/miss counts and pool utilisation; the CLI renders a summary
after each experiment (``repro.harness.report.render_execution_stats``)
and ``--metrics-out`` writes the whole run's under ``run.execution``.

The counts are plain ``int`` fields that the run cache, the executor and
the pool bump at their call sites, and the wall clocks plain ``float``
fields. They describe the *harness* (wall clocks, pool spans), so they
stay out of the metrics registry, whose per-cell snapshots must be
deterministic. The same holds for the process's peak resident set
(``peak_rss_mib``): it depends on the host and the allocator, so it is
read only when a summary is rendered, with the peaks pool workers report
alongside their cells.
"""

from __future__ import annotations

import resource
from typing import Dict, List, Tuple


class ExecutionStats:
    """Counters for one experiment's worth of cell executions."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every field (the batch runner resets between steps)."""
        #: cells served from the run cache
        self.cache_hits = 0
        #: cells that missed the run cache
        self.cache_misses = 0
        #: cache entries found unreadable and quarantined (counted as misses)
        self.cache_corrupt = 0
        #: cache entries evicted by size-budget enforcement
        self.cache_evictions = 0
        #: cache writes that failed (unwritable root); the run went on
        self.cache_write_errors = 0
        #: persistent-pool spawns (1 per whole-grid run when reuse works)
        self.pool_spawns = 0
        #: wall clock spent constructing persistent pools
        self.pool_spawn_seconds = 0.0
        #: batches dispatched through the persistent pool
        self.pool_maps = 0
        #: maps whose unfinished cells were re-run after a worker death
        self.cell_retries = 0
        #: cells actually simulated (cache misses that ran)
        self.cells_executed = 0
        #: total worker-occupied time across all cells
        self.busy_seconds = 0.0
        #: wall-clock time inside fan-out calls
        self.span_seconds = 0.0
        #: (label, seconds) per executed cell, in submission order
        self.cell_times: List[Tuple[str, float]] = []
        #: wall-clock spans of the fan-out calls and the jobs they used
        self.map_spans: List[Tuple[int, float]] = []
        #: largest ``ru_maxrss`` (KiB) a process reported with its cell
        self.cell_peak_kib = 0
        #: sanitizer checks the executed cells ran, wherever they ran
        self.sanitizer_checks = 0

    def absorb(self, other: "ExecutionStats") -> None:
        """Add ``other``'s counts, timings and cell peak to this collector.

        The batch runner (``harness.plan.run_experiments``) resets the
        process collector per step and keeps each step's share, so
        ``--metrics-out`` can add them up for the prefetch and every
        experiment, not only the last one.
        """
        # Every field is a sum (numbers add, lists concatenate) but the peak.
        for name, value in vars(other).items():
            if name == "cell_peak_kib":
                self.cell_peak_kib = max(self.cell_peak_kib, value)
            else:
                setattr(self, name, getattr(self, name) + value)

    # -- recording (called by the executor) ---------------------------------

    def record_cell(self, label: str, seconds: float, peak_kib: int = 0, checks: int = 0) -> None:
        """One executed cell: its wall time and, when the executing
        process reported them, its ``ru_maxrss`` (KiB) and sanitizer checks."""
        self.cell_times.append((label, seconds))
        self.cells_executed += 1
        self.busy_seconds += seconds
        self.cell_peak_kib = max(self.cell_peak_kib, peak_kib)
        self.sanitizer_checks += checks

    def record_map(self, jobs: int, span_seconds: float) -> None:
        """One fan-out call: ``jobs`` workers busy or idle for its span."""
        self.map_spans.append((jobs, span_seconds))
        self.span_seconds += span_seconds

    # -- derived metrics ----------------------------------------------------

    @property
    def worker_utilisation(self) -> float:
        """busy / (workers x span): 1.0 means the pool never idled."""
        capacity = sum(jobs * span for jobs, span in self.map_spans)
        if capacity <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / capacity)

    @property
    def cell_peak_rss_mib(self) -> float:
        """Largest peak resident set a cell's process reported, MiB.

        Pool workers report theirs with each result, so this covers
        workers that are still alive (see ``executor._timed_call``).
        """
        return self.cell_peak_kib / 1024.0

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
                self.cell_peak_kib,
            )
            / 1024.0
        )

    def slowest_cells(self, count: int = 5) -> List[Tuple[str, float]]:
        """The ``count`` longest-running cells (for hot-spot reports)."""
        return sorted(self.cell_times, key=lambda item: -item[1])[:count]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (bench snapshots, run_experiments dumps)."""
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_corrupt": self.cache_corrupt,
            "cache_evictions": self.cache_evictions,
            "cache_write_errors": self.cache_write_errors,
            "pool_spawns": self.pool_spawns,
            "pool_maps": self.pool_maps,
            "pool_spawn_seconds": round(self.pool_spawn_seconds, 3),
            "cell_retries": self.cell_retries,
            "cells_executed": self.cells_executed,
            "busy_seconds": round(self.busy_seconds, 3),
            "span_seconds": round(self.span_seconds, 3),
            "worker_utilisation": round(self.worker_utilisation, 3),
            "peak_rss_mib": round(self.peak_rss_mib, 1),
            "sanitizer_checks": self.sanitizer_checks,
            "slowest_cells": [
                {"cell": label, "seconds": round(seconds, 3)}
                for label, seconds in self.slowest_cells()
            ],
        }


#: The process's collector (the CLI and report layer read it directly).
EXECUTION_STATS = ExecutionStats()
