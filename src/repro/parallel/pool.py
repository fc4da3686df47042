"""The persistent warm worker pool shared by every ``parallel_map`` call.

Before PR 10 each fan-out spawned and tore down its own
``ProcessPoolExecutor``: a whole-grid run (16 figure experiments, one or
more ``run_suite`` calls each) paid worker spawn plus a full module
re-import per call, and every batch started with cold per-process memos.
This module owns one long-lived pool instead:

* **lazy spawn** — nothing is created until the first ``jobs > 1`` map;
  serial runs never pay for a pool;
* **reuse** — subsequent maps dispatch into the same warm workers, whose
  imported module graph and memos (trace/warm-state) survive
  across batches;
* **warm-worker initializer** — each worker preloads the simulation stack
  and the code fingerprint at spawn, off any map's critical path;
* **grow-by-respawn** — a later call asking for more workers than the
  pool has replaces it (never shrink: idle workers are free);
* **fork safety** — a forked child (each service job runs in one)
  inherits the parent's handle but not its worker processes; an
  ``os.register_at_fork`` hook gives the child a fresh lock and a ``None``
  pool so it can never join — or double-drive — workers it does not own;
* **explicit shutdown** — :func:`shutdown_pool` (also registered with
  ``atexit``) joins the workers; tests and benchmarks call it between
  legs so spawn costs are attributed where they happen.

``ExecutionStats`` observes the lifecycle: ``exec.pool_spawns`` /
``exec.pool_spawn_seconds`` at spawn, ``exec.pool_maps`` per dispatched
batch — the reuse ratio ``pool_maps / pool_spawns`` is what
``tools/bench_plan.py`` reports as pool-reuse savings.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from repro.parallel.instrument import EXECUTION_STATS, ExecutionStats

_T = TypeVar("_T")
_R = TypeVar("_R")


def _warm_worker() -> None:
    """Pool initializer: preload the simulation stack in each worker.

    Importing the world once at spawn moves the import cost off the first
    batch's critical path, and computing the code fingerprint here (it
    hashes every ``repro`` source file on first call) warms the worker's
    cache-key path. Runs in the *worker* process; keep it import-only.
    """
    import repro.reliability.montecarlo  # noqa: F401
    import repro.sim.runner  # noqa: F401

    from repro.parallel.runcache import code_fingerprint

    code_fingerprint()


class PersistentPool:
    """One long-lived ``ProcessPoolExecutor`` plus its identity metadata."""

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        #: Spawning pid: a forked child must never touch these workers.
        self.pid = os.getpid()
        started = time.perf_counter()
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_warm_worker
        )
        self.spawn_seconds = time.perf_counter() - started

    @property
    def broken(self) -> bool:
        """True once a worker died mid-batch; the pool must be respawned."""
        return bool(getattr(self._executor, "_broken", False))

    def map(
        self,
        fn: Callable[[_T], _R],
        tasks: Iterable[_T],
        chunksize: int = 1,
    ) -> Iterator[_R]:
        """Submission-ordered map (the ``Executor.map`` contract).

        ``chunksize=1`` keeps scheduling dynamic: each worker pulls the
        next task as it frees up, so a longest-first submission order
        (the planner's LPT schedule) becomes a balanced makespan.
        """
        return self._executor.map(fn, tasks, chunksize=chunksize)

    def shutdown(self) -> None:
        """Join the workers (idempotent)."""
        self._executor.shutdown(wait=True, cancel_futures=True)


#: The one shared pool; ``None`` until the first ``jobs > 1`` dispatch.
#: Deliberately process-wide (that is the point: every fan-out on every
#: thread reuses the same warm workers); all transitions happen under
#: ``_POOL_LOCK`` and the fork hook below resets both in children.
_POOL: Optional[PersistentPool] = None
_POOL_LOCK = threading.Lock()


def active_pool() -> Optional[PersistentPool]:
    """The live pool, or ``None`` — never spawns (tests, reporting)."""
    pool = _POOL
    if pool is not None and pool.pid != os.getpid():
        return None
    return pool


def get_pool(
    workers: int, stats: Optional[ExecutionStats] = None
) -> PersistentPool:
    """The shared pool, spawned lazily and grown by respawn.

    Returns a pool with *at least* ``workers`` workers: an existing
    larger pool is reused as-is, a smaller one is joined and replaced.
    A handle inherited across ``fork`` (stale pid) or broken by a worker
    death is abandoned/replaced, never joined. A spawn is recorded on
    ``stats`` (the dispatching map's collector) or the process's.
    """
    global _POOL
    workers = max(1, int(workers))
    with _POOL_LOCK:
        pool = _POOL
        if pool is not None and pool.pid != os.getpid():
            # Inherited across fork: the workers belong to the parent.
            pool = _POOL = None
        if pool is not None and pool.broken:
            pool.shutdown()
            pool = _POOL = None
        if pool is not None and pool.workers < workers:
            pool.shutdown()
            pool = None
        if pool is None:
            pool = PersistentPool(workers)
            _POOL = pool
            collector = stats if stats is not None else EXECUTION_STATS
            collector.record_pool_spawn(pool.spawn_seconds)
        return pool


def shutdown_pool() -> int:
    """Shut the shared pool down (idempotent); returns workers released.

    Registered with ``atexit``; also called explicitly by benchmarks
    between legs and by each service job child before it exits (a forked
    child skips ``atexit``).
    """
    global _POOL
    with _POOL_LOCK:
        pool = _POOL
        _POOL = None
    if pool is None:
        return 0
    if pool.pid == os.getpid():
        pool.shutdown()
    return pool.workers


def _reset_after_fork() -> None:
    """Give a forked child a fresh lock and no pool.

    The child's copy of ``_POOL_LOCK`` may be held by a thread that does
    not exist in the child, and the child's ``_POOL`` points at worker
    processes it does not own — both are unconditionally replaced.
    """
    global _POOL, _POOL_LOCK
    _POOL_LOCK = threading.Lock()
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)

atexit.register(shutdown_pool)
