"""Job manager: spec normalisation, request coalescing, progress feeds.

One :class:`JobManager` owns every job the service knows about. Jobs are
keyed by :meth:`ExperimentSpec.cache_key` — the same content address the
run cache uses — which gives the two-rung dedup ladder every submission
walks down:

1. **coalesce**: an identical spec already queued/running, with no cancel
   pending, gains a subscriber instead of a second simulation;
2. **revive**: the spec-level run-cache entry, written before a job leaves
   the in-flight table, revives into a finished job without touching the
   simulator.

Only a submission that misses both rungs enqueues work, so with caching
off every repeat of a finished spec simulates again. The id index keeps
every job for status and event lookups; finished jobs leave it
oldest-first beyond :data:`MAX_FINISHED_JOBS`. All state mutation happens
on the event-loop thread (bridge threads marshal through
``call_soon_threadsafe``), so none of this needs locks.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.harness.spec import ExperimentSpec
from repro.parallel.runcache import RunCache, canonical_bytes

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

_TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: How many finished jobs (done, revived, failed or cancelled) the id index
#: keeps for status and event lookups; in-flight jobs are never dropped.
MAX_FINISHED_JOBS = 256

#: Submission dispositions (reported to the client).
ACCEPTED = "accepted"
COALESCED = "coalesced"
CACHED = "cached"


class JobCancelled(Exception):
    """Raised inside a bridge thread when its job's cancel flag is set."""


#: The canonical JSON encoding of an experiment result: a fresh in-process
#: result and one revived from the on-disk cache serialise to *identical
#: bytes* — the property the coalescing tests pin. The run cache's payload
#: digest hashes the same form.
canonical_result_bytes = canonical_bytes


class ServiceStats:
    """Service-plane counts: plain ints, bumped where each event happens.

    Like :class:`~repro.parallel.ExecutionStats`, these describe the
    *service* (submissions, coalesces, job outcomes), so they stay out of
    the metrics registry and its deterministic per-cell snapshots.
    """

    def __init__(self) -> None:
        self.submissions = 0
        self.coalesced = 0
        self.result_cache_hits = 0
        self.runs = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.progress_events = 0
        self.rejected = 0
        #: Job processes that died without sending a result.
        self.child_failures = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready counts (the ``/v1/stats`` payload)."""
        return dict(vars(self))


class Job:
    """One submitted spec: lifecycle state, progress feed, result bytes."""

    def __init__(self, job_id: str, spec: ExperimentSpec, key: str) -> None:
        self.id = job_id
        self.spec = spec
        self.key = key
        self.state = QUEUED
        self.subscribers = 1
        #: Monotonic progress feed; each event carries a ``seq`` number.
        self.events: List[Dict[str, object]] = []
        self.result_bytes: Optional[bytes] = None
        self.error: Optional[str] = None
        #: Set from the HTTP handler, checked from the bridge thread — a
        #: plain bool is not a safe cross-thread flag, an Event is.
        self._cancel_event = threading.Event()
        self._changed = asyncio.Event()
        self.created_monotonic = time.monotonic()
        self.started_monotonic: Optional[float] = None
        self.finished_monotonic: Optional[float] = None
        self.done_cells = 0
        self.total_cells = 0

    # -- cross-thread cancellation flag --------------------------------------

    def request_cancel(self) -> None:
        self._cancel_event.set()

    @property
    def cancel_requested(self) -> bool:
        """The cancel flag, safe to read from any thread."""
        return self._cancel_event.is_set()

    # -- loop-thread state transitions ---------------------------------------

    def record_event(self, kind: str, payload: Mapping[str, object]) -> int:
        """Append one progress event; returns its sequence number."""
        seq = len(self.events)
        event: Dict[str, object] = {"seq": seq, "kind": kind}
        event.update(payload)
        self.events.append(event)
        if kind == "cell":
            done = event.get("done")
            total = event.get("total")
            if isinstance(done, int):
                self.done_cells = done
            if isinstance(total, int):
                self.total_cells = total
        elif kind == "suite":
            total = event.get("total")
            if isinstance(total, int):
                self.total_cells = total
        self._touch()
        return seq

    def mark_running(self) -> None:
        self.state = RUNNING
        self.started_monotonic = time.monotonic()
        self._touch()

    def finish(self, result: bytes) -> None:
        self.state = DONE
        self.result_bytes = result
        self.finished_monotonic = time.monotonic()
        self._touch()

    def fail(self, error: str) -> None:
        self.state = FAILED
        self.error = error
        self.finished_monotonic = time.monotonic()
        self._touch()

    def mark_cancelled(self) -> None:
        self.state = CANCELLED
        self.finished_monotonic = time.monotonic()
        self._touch()

    def _touch(self) -> None:
        self._changed.set()

    # -- loop-thread waiting --------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL_STATES

    def eta_seconds(self) -> Optional[float]:
        """Naive remaining-time estimate from per-cell progress."""
        if self.state != RUNNING or self.started_monotonic is None:
            return None
        if self.done_cells <= 0 or self.total_cells <= 0:
            return None
        elapsed = time.monotonic() - self.started_monotonic
        remaining = self.total_cells - self.done_cells
        return elapsed / self.done_cells * max(0, remaining)

    async def wait_events(self, since: int, timeout: Optional[float]) -> None:
        """Block until an event with ``seq >= since`` exists or the job ends."""
        await self._wait(lambda: len(self.events) > since or self.terminal, timeout)

    async def wait_done(self, timeout: Optional[float]) -> bool:
        """Block until the job reaches a terminal state; False on timeout."""
        return await self._wait(lambda: self.terminal, timeout)

    async def _wait(
        self, predicate: Callable[[], bool], timeout: Optional[float]
    ) -> bool:
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + float(timeout)
        while not predicate():
            self._changed.clear()
            if predicate():
                break
            remaining = None if deadline is None else deadline - loop.time()
            if remaining is not None and remaining <= 0:
                return predicate()
            try:
                await asyncio.wait_for(self._changed.wait(), remaining)
            except asyncio.TimeoutError:
                return predicate()
        return True

    # -- views ----------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """The ``GET /v1/jobs/<id>`` payload."""
        eta = self.eta_seconds()
        return {
            "id": self.id,
            "key": self.key,
            "spec": self.spec.to_payload(),
            "state": self.state,
            "subscribers": self.subscribers,
            "cancel_requested": self.cancel_requested,
            "progress": {
                "done": self.done_cells,
                "total": self.total_cells,
                "events": len(self.events),
                "eta_s": None if eta is None else round(eta, 3),
            },
            "error": self.error,
        }


class JobManager:
    """Owns jobs, coalesces submissions, revives cached results."""

    def __init__(
        self,
        stats: Optional[ServiceStats] = None,
        run_cache: Optional[RunCache] = None,
    ) -> None:
        self.stats = stats if stats is not None else ServiceStats()
        self.run_cache = run_cache
        self.queue: "asyncio.Queue[Job]" = asyncio.Queue()
        #: key -> queued/running job (the coalescing rung).
        self._inflight: Dict[str, Job] = {}
        #: id -> job, for status/event lookups: every job from creation.
        self._jobs: Dict[str, Job] = {}
        #: Finished jobs in the order they finished; bounds ``_jobs``.
        self._finished: Deque[Job] = deque()
        self._counter = 0

    # -- submission -----------------------------------------------------------

    def submit(self, payload: Mapping[str, object]) -> Tuple[Job, str]:
        """Normalise one spec payload; returns ``(job, disposition)``.

        Raises :class:`~repro.harness.spec.SpecError` on an invalid payload
        (the HTTP layer maps it to a 400).
        """
        spec = ExperimentSpec.from_payload(payload)
        key = spec.cache_key()
        self.stats.submissions += 1

        inflight = self._inflight.get(key)
        if inflight is not None and not inflight.cancel_requested:
            inflight.subscribers += 1
            self.stats.coalesced += 1
            return inflight, COALESCED

        if self.run_cache is not None:
            cached_payload = self.run_cache.get(key)
            if cached_payload is not None:
                job = self._new_job(spec, key)
                job.record_event("queued", {"experiment": spec.experiment})
                job.mark_running()
                job.finish(canonical_result_bytes(cached_payload))
                job.record_event("done", {"cached": True})
                self.stats.result_cache_hits += 1
                self._retire(job)
                return job, CACHED

        job = self._new_job(spec, key)
        self._inflight[key] = job
        job.record_event("queued", {"experiment": spec.experiment})
        self.queue.put_nowait(job)
        return job, ACCEPTED

    def _new_job(self, spec: ExperimentSpec, key: str) -> Job:
        self._counter += 1
        job = Job("job-%06d-%s" % (self._counter, key[:8]), spec, key)
        self._jobs[job.id] = job
        return job

    # -- lookups --------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    # -- worker-side transitions (called on the loop thread) -------------------

    def record_progress(self, job: Job, event: Mapping[str, object]) -> None:
        """One runner progress event forwarded by a bridge thread."""
        kind = event.get("kind")
        payload = {name: value for name, value in event.items() if name != "kind"}
        job.record_event(str(kind), payload)
        self.stats.progress_events += 1

    def start(self, job: Job) -> None:
        job.mark_running()
        job.record_event("started", {})
        self.stats.runs += 1

    def finish(self, job: Job, result: bytes) -> None:
        job.finish(result)
        job.record_event("done", {"cached": False})
        self.stats.completed += 1
        self._retire(job)

    def fail(self, job: Job, error: str) -> None:
        job.fail(error)
        job.record_event("failed", {"error": error})
        self.stats.failed += 1
        self._retire(job)

    def finalize_cancel(self, job: Job) -> None:
        job.mark_cancelled()
        job.record_event("cancelled", {})
        self.stats.cancelled += 1
        self._retire(job)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; queued jobs cancel immediately.

        A running job's bridge thread sees the flag within one poll (~50
        ms) and terminates the job's child process. Cancellation applies
        to the *job*, i.e. every coalesced subscriber; a later identical
        submission starts a fresh job instead of joining this one.
        """
        job = self._jobs.get(job_id)
        if job is None:
            return None
        if job.terminal:
            return job
        job.request_cancel()
        if job.state == QUEUED:
            self.finalize_cancel(job)
        return job

    def _retire(self, job: Job) -> None:
        """Take a finished job out of flight and bound the id index."""
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        self._finished.append(job)
        while len(self._finished) > MAX_FINISHED_JOBS:
            self._jobs.pop(self._finished.popleft().id, None)
