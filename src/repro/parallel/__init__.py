"""Parallel experiment execution: process-pool fan-out + run cache.

The three pieces every fan-out point composes:

* :func:`parallel_map` — deterministic (submission-ordered) process-pool
  map over grid cells / Monte-Carlo shards, dispatched through the shared
  persistent warm pool (:mod:`repro.parallel.pool`);
* :class:`RunCache` / :func:`cache_key` — content-addressed on-disk reuse
  of cell results across figures and sessions;
* :data:`EXECUTION_STATS` — per-cell wall times, cache hit/miss counters
  and worker utilisation, rendered by ``harness.report``.

Policy (worker count, cache on/off, cache location) lives in one
process-global :class:`ExecutionContext` steered by the CLI flags
``--jobs`` / ``--no-cache`` and the ``REPRO_JOBS`` / ``REPRO_CACHE`` /
``REPRO_CACHE_DIR`` environment variables.
"""

from repro.parallel.context import (
    ExecutionContext,
    applied,
    configure,
    default_jobs,
    get_context,
    overridden,
    resolve_jobs,
)
from repro.parallel.executor import parallel_map
from repro.parallel.instrument import EXECUTION_STATS, ExecutionStats
from repro.parallel.pool import (
    PersistentPool,
    active_pool,
    get_pool,
    shutdown_pool,
)
from repro.parallel.runcache import (
    RunCache,
    cache_key,
    code_fingerprint,
    cost_key,
    default_cache_dir,
    resolve_cache,
)

__all__ = [
    "ExecutionContext",
    "ExecutionStats",
    "EXECUTION_STATS",
    "PersistentPool",
    "RunCache",
    "active_pool",
    "applied",
    "cache_key",
    "code_fingerprint",
    "configure",
    "cost_key",
    "default_cache_dir",
    "default_jobs",
    "get_context",
    "get_pool",
    "overridden",
    "parallel_map",
    "resolve_cache",
    "resolve_jobs",
    "shutdown_pool",
]
