"""Deterministic fan-out of experiment cells over a process pool.

``parallel_map`` is the one primitive every grid/shard loop uses: it runs
``fn`` over ``items`` with ``jobs`` worker processes and returns results in
*submission* order, never completion order — so a parallel run merges into
exactly the table a serial run would build. Determinism of the values
themselves is the callee's job (every cell derives its RNG streams from
explicit seeds, not shared state).

``jobs > 1`` maps dispatch through the shared persistent pool
(``repro.parallel.pool``) so consecutive fan-outs reuse warm workers;
``Executor.map`` yields in submission order, which is the merge contract.
If a worker dies mid-map, the broken pool is dropped and the items not
yet yielded are re-submitted once to a fresh pool (``ExecutionStats.cell_retries``);
cells are pure and content-keyed, so re-running an unfinished one is
always safe. A second break raises ``BrokenProcessPool``.

``fn`` must be a module-level function and each item picklable (the
standard ``ProcessPoolExecutor`` contract).
"""

from __future__ import annotations

import resource
import time
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.parallel.instrument import EXECUTION_STATS, ExecutionStats
from repro.parallel.pool import discard_pool, get_pool

_T = TypeVar("_T")
_R = TypeVar("_R")


def _timed_call(
    task: Tuple[Callable[[_T], _R], _T]
) -> Tuple[_R, float, int]:
    """Worker-side wrapper: run one cell; report its wall time and the
    running process's peak resident set (``ru_maxrss``, KiB on Linux).

    A pool worker is reaped only when the pool shuts down, so its peak
    reaches the parent's ``RUSAGE_CHILDREN`` late or, for a live pool,
    not at all; shipping it with each result keeps ``peak_rss_mib``
    whole.
    """
    fn, item = task
    started = time.perf_counter()
    result = fn(item)
    elapsed = time.perf_counter() - started
    return result, elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    jobs: int = 1,
    labels: Optional[Sequence[str]] = None,
    stats: Optional[ExecutionStats] = None,
    progress: Optional[Callable[[int, str, _R, float], None]] = None,
) -> List[_R]:
    """Map ``fn`` over ``items`` with ``jobs`` processes, submission-ordered.

    ``jobs <= 1`` (or a single item) runs inline in this process — the
    serial path and the parallel path execute the identical per-item code,
    which is what makes the golden determinism tests meaningful.

    ``progress``, when given, is called in the *parent* process as each
    item's result lands — ``progress(index, label, result, seconds)`` — in
    submission order regardless of completion order, so progress feeds are
    deterministic at any worker count. A ``progress`` exception aborts the
    map (the streaming-cancellation hook).
    """
    items = list(items)
    if labels is None:
        labels = [str(index) for index in range(len(items))]
    stats = stats if stats is not None else EXECUTION_STATS
    workers = min(max(1, int(jobs)), len(items)) if items else 1

    span_started = time.perf_counter()
    outputs: List[_R] = []

    def land(result: _R, elapsed: float, peak_kib: int) -> None:
        index = len(outputs)
        stats.record_cell(labels[index], elapsed, peak_kib)
        outputs.append(result)
        if progress is not None:
            progress(index, labels[index], result, elapsed)

    try:
        if workers <= 1:
            for item in items:
                land(*_timed_call((fn, item)))
        else:
            # Loaded with the pool machinery, which serial runs never touch.
            from concurrent.futures.process import BrokenProcessPool

            tasks = [(fn, item) for item in items]
            for retry in (False, True):
                pool = get_pool(workers, stats=stats)
                stats.pool_maps += 1
                try:
                    for outcome in pool.map(_timed_call, tasks[len(outputs):]):
                        land(*outcome)
                    break
                except BrokenProcessPool:
                    discard_pool(pool)
                    if retry:
                        raise
                    stats.cell_retries += 1
    finally:
        if items:
            stats.record_map(workers, time.perf_counter() - span_started)
    return outputs
