"""Deterministic fan-out of experiment cells over a process pool.

``parallel_map`` is the one primitive every grid/shard loop uses: it runs
``fn`` over ``items`` with ``jobs`` worker processes and returns results in
*submission* order, never completion order — so a parallel run merges into
exactly the table a serial run would build. Determinism of the values
themselves is the callee's job (every cell derives its RNG streams from
explicit seeds, not shared state).

``jobs > 1`` maps dispatch through the shared persistent pool
(``repro.parallel.pool``) so consecutive fan-outs reuse warm workers;
the context's ``pool_policy="ephemeral"`` restores the legacy
spawn-per-call executor (the benchmark baseline). Either way the merge
contract is identical — ``Executor.map`` yields in submission order.

``fn`` must be a module-level function and each item picklable (the
standard ``ProcessPoolExecutor`` contract).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.parallel.context import get_context
from repro.parallel.instrument import EXECUTION_STATS, ExecutionStats

_T = TypeVar("_T")
_R = TypeVar("_R")


def _timed_call(task: Tuple[Callable[[_T], _R], _T]) -> Tuple[_R, float]:
    """Worker-side wrapper: run one cell and report its wall time."""
    fn, item = task
    started = time.perf_counter()
    result = fn(item)
    return result, time.perf_counter() - started


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
    try:
        if workers <= 1:
            for index, (item, label) in enumerate(zip(items, labels)):
                result, elapsed = _timed_call((fn, item))
                stats.record_cell(label, elapsed)
                outputs.append(result)
                if progress is not None:
                    progress(index, label, result, elapsed)
        else:
            tasks = [(fn, item) for item in items]

            def drain(batches) -> None:
                # Executor.map yields in submission order regardless of which
                # worker finishes first: the deterministic-merge guarantee.
                for index, (label, (result, elapsed)) in enumerate(
                    zip(labels, batches)
                ):
                    stats.record_cell(label, elapsed)
                    outputs.append(result)
                    if progress is not None:
                        progress(index, label, result, elapsed)

            if get_context().pool_policy == "ephemeral":
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=workers) as pool:
                    drain(pool.map(_timed_call, tasks))
            else:
                from repro.parallel.pool import get_pool

                pool = get_pool(workers, stats=stats)
                stats.record_pool_map()
                drain(pool.map(_timed_call, tasks))
    finally:
        if items:
            stats.record_map(workers, time.perf_counter() - span_started)
    return outputs
