"""Worker bridge: runs every queued job in a forked child, N at a time.

The simulator is CPU-bound pure Python, so threads of one interpreter
share one GIL and do not scale with slots. Each job therefore runs in its
own forked child, and the default slot count is the usable CPU count
(:func:`~repro.parallel.context.default_jobs`). Per job, a bridge thread
forks the child, forwards its ``("progress", event)`` tuples to the loop
with ``call_soon_threadsafe`` (one sender and one FIFO pipe keep ``seq``
dense and ordered) and waits for its ``result`` or ``error`` tuple. The
child leads its own process group, which also holds the pool a
``jobs > 1`` spec starts, so cancel, stop and child death end the whole
group. The parent keeps what is shared across jobs: the dedup ladder, the
run-cache ``put`` and budget enforcement. See DESIGN.md ("The worker
bridge").
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import traceback
from typing import Dict, List, Optional

from repro.harness.experiments import run_spec
from repro.parallel.context import ExecutionContext, applied, default_jobs, get_context
from repro.service.jobs import Job, JobCancelled, JobManager, canonical_result_bytes
from repro.sim.runner import cell_progress

#: How often (seconds) a bridge thread polls its child for progress events
#: and re-checks the cancel and stop flags. Bounds cancellation latency.
_CHILD_POLL_S = 0.05
#: How long to wait for a child that closed its pipe to be reaped.
_CHILD_REAP_S = 5.0


class ChildExited(RuntimeError):
    """A job's child process died without sending a result."""


class WorkerBridge:
    """Drains the job queue through ``workers`` forked-child slots."""

    def __init__(
        self,
        manager: JobManager,
        spec_jobs: int = 1,
        cache_budget_bytes: int = 0,
        workers: Optional[int] = None,
    ) -> None:
        self.manager = manager
        #: Default process fan-out for specs that don't pin their own.
        self.spec_jobs = max(1, int(spec_jobs))
        #: On-disk cache budget enforced after each run (0 = unlimited).
        self.cache_budget_bytes = max(0, int(cache_budget_bytes))
        self.workers = max(1, int(workers)) if workers else default_jobs()
        #: The execution policy visible where the service was constructed;
        #: each child re-applies it.
        self.exec_context: ExecutionContext = get_context()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service-worker"
        )
        self._tasks: List["asyncio.Task[None]"] = []
        #: Raised by :meth:`stop`: bridge threads terminate their children.
        self._stopping = threading.Event()
        #: Serialises cache-budget enforcement across slots: concurrent
        #: LRU scans would double-count sizes and over-evict.
        self._budget_lock: Optional[asyncio.Lock] = None

    def start(self) -> None:
        """Begin draining the queue with ``workers`` slots (idempotent)."""
        if self._budget_lock is None:
            self._budget_lock = asyncio.Lock()
        loop = asyncio.get_running_loop()
        self._tasks = [task for task in self._tasks if not task.done()]
        while len(self._tasks) < self.workers:
            self._tasks.append(loop.create_task(self._run()))

    async def stop(self) -> None:
        """Stop every slot, terminate in-flight children, release threads."""
        self._stopping.set()
        tasks = [task for task in self._tasks if not task.done()]
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks.clear()
        # Each bridge thread sees the stop flag within one poll, then
        # terminates its child's process group and reaps the child: no job
        # process or pool worker outlives the service.
        self._executor.shutdown(wait=True)

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self.manager.queue.get()
            if job.terminal:
                continue  # cancelled while queued
            self.manager.start(job)
            try:
                payload = await loop.run_in_executor(
                    self._executor, self._execute, job, loop
                )
            except asyncio.CancelledError:
                raise
            except JobCancelled:
                self.manager.finalize_cancel(job)
                continue
            except Exception as exc:  # lint-ok: H301 job isolation — one bad
                # spec must fail its own job, not take down the service loop.
                if isinstance(exc, ChildExited):
                    self.manager.stats.child_failures.inc()
                detail = "%s: %s" % (type(exc).__name__, exc)
                self.manager.fail(job, detail)
                job.record_event(
                    "traceback",
                    {"text": traceback.format_exc(limit=8)},
                )
                continue
            # Enforce the cache budget *before* publishing the result:
            # clients observe completion and a within-budget cache as one
            # event, instead of racing the eviction scan.
            if self.cache_budget_bytes > 0 and self.manager.run_cache is not None:
                assert self._budget_lock is not None
                async with self._budget_lock:
                    await loop.run_in_executor(
                        self._executor,
                        self.manager.run_cache.enforce_budget,
                        self.cache_budget_bytes,
                    )
            self.manager.finish(job, canonical_result_bytes(payload))

    # -- bridge-thread body ---------------------------------------------------

    def _execute(self, job: Job, loop: asyncio.AbstractEventLoop) -> object:
        """Run one spec in a forked child; returns its (JSON-clean) payload.

        Raises :class:`JobCancelled` once the job's cancel flag (or the
        bridge's stop flag) is seen, and :class:`ChildExited` if the child
        dies without a result.
        """
        if job.cancel_requested:
            raise JobCancelled(job.id)
        ctx = multiprocessing.get_context("fork")
        conn, child_conn = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=_child_main,
            args=(
                child_conn,
                job.spec.to_payload(),
                job.spec.jobs or self.spec_jobs,
                self.exec_context,
            ),
            name="repro-service-job",
        )
        child.start()
        child_conn.close()  # the parent keeps only the read end
        pid = child.pid
        assert pid is not None  # set by start()
        _lead_own_group(pid)
        try:
            payload = self._await_child(job, loop, child, conn)
        except BaseException:
            _terminate_group(pid)  # cancelled, stopped or failed
            raise
        finally:
            # After a result the child exits on its own; joining (rather
            # than terminating) lets it shut down any pool it started.
            child.join()
            conn.close()
        if job.cancel_requested:
            raise JobCancelled(job.id)
        if self.manager.run_cache is not None:
            self.manager.run_cache.put(job.key, payload)
        return payload

    def _await_child(
        self,
        job: Job,
        loop: asyncio.AbstractEventLoop,
        child: multiprocessing.process.BaseProcess,
        conn: "multiprocessing.connection.Connection",
    ) -> object:
        """Forward the child's progress events until its result arrives."""
        while True:
            if job.cancel_requested or self._stopping.is_set():
                raise JobCancelled(job.id)
            if not conn.poll(_CHILD_POLL_S):
                # A sibling forked mid-spawn may hold a copy of this pipe's
                # write end, so a dead child need not mean EOF: check it.
                if child.is_alive() or conn.poll():
                    continue
                raise _exit_error(child)
            try:
                message = conn.recv()
            except EOFError:
                raise _exit_error(child) from None
            kind = message[0]
            if kind == "progress":
                loop.call_soon_threadsafe(
                    self.manager.record_progress, job, message[1]
                )
            elif kind == "result":
                return message[1]
            else:
                raise RuntimeError(message[1] + "\n" + message[2])


def _lead_own_group(pid: int) -> None:
    """Make ``pid`` lead a new process group (both sides call this)."""
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass  # the other side already did it, or the child is gone


def _terminate_group(pid: int) -> None:
    """SIGTERM child ``pid`` and its pool workers, which would outlive it."""
    try:
        os.killpg(pid, signal.SIGTERM)
    except ProcessLookupError:
        pass  # the whole group has exited


def _exit_error(child: multiprocessing.process.BaseProcess) -> ChildExited:
    """The failure for a child that ended without a result message."""
    child.join(_CHILD_REAP_S)
    return ChildExited(
        "job process exited with code %s before sending a result"
        % child.exitcode
    )


def _child_main(
    conn: "multiprocessing.connection.Connection",
    spec_payload: Dict[str, object],
    jobs: int,
    exec_context: ExecutionContext,
) -> None:
    """Child body: simulate one spec, stream progress events + the result.

    Runs under the service's captured execution policy (the bridge thread
    forking it has its own overrides), on the memos it inherits from the
    parent: they are content-keyed, so a warm entry is always valid.
    """
    from repro.harness.spec import ExperimentSpec
    from repro.parallel import shutdown_pool

    _lead_own_group(0)
    try:
        spec = ExperimentSpec.from_payload(spec_payload)

        def forward(event: Dict[str, object]) -> None:
            conn.send(("progress", event))

        with applied(exec_context), cell_progress(forward):
            payload = run_spec(spec, quiet=True, jobs=jobs)
        conn.send(("result", _jsonable(payload)))
    except BaseException as exc:  # lint-ok: H301 the child's last act is
        # reporting the failure; anything escaping here is lost to a pipe.
        detail = "%s: %s" % (type(exc).__name__, exc)
        try:
            conn.send(("error", detail, traceback.format_exc(limit=8)))
        except OSError:
            pass  # parent already gone; nothing left to report to
    finally:
        conn.close()
        # Join the pool a jobs > 1 spec started: the child skips atexit.
        shutdown_pool()


def _jsonable(payload: object) -> object:
    """Defensive JSON round-trip before persisting a spec result."""
    return json.loads(json.dumps(payload))
