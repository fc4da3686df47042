"""Service-plane behaviour: coalescing, cancellation, eviction, progress.

These tests run the real :class:`ExperimentService` on a background thread
with an ephemeral port and a per-test cache dir. Every job runs in a
forked child, so slow-experiment control uses a monkeypatched entry in
``EXPERIMENTS`` (inherited by the fork) gated on fork-context
``multiprocessing`` events: tests release the child deterministically
instead of sleeping, and count simulations from ``/v1/stats`` ``runs``.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.harness import experiments as experiments_module
from repro.harness.experiments import run_spec
from repro.harness.spec import ExperimentSpec
from repro.parallel import get_context, get_pool, overridden, shutdown_pool
from repro.parallel.instrument import ExecutionStats
from repro.parallel.runcache import RunCache
from repro.service import jobs as jobs_module
from repro.service import (
    ExperimentService,
    JobManager,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    canonical_result_bytes,
)
from repro.sim.runner import clear_run_memos, emit_progress


@pytest.fixture
def service_factory(tmp_path):
    """Build background services sharing one per-test cache dir.

    Pass ``cache_dir=`` to give a service a *private* cache instead (the
    worker-count comparison tests need each service to actually simulate,
    not revive a sibling's results).
    """
    shared_cache_dir = str(tmp_path / "service-cache")
    running = []

    def build(**overrides):
        overrides.setdefault("cache_dir", shared_cache_dir)
        config = ServiceConfig(port=0, **overrides)
        service = ExperimentService(config)
        port = service.start_background()
        running.append(service)
        return service, ServiceClient(port=port, timeout_s=60.0)

    yield build
    for service in running:
        service.stop_background()


#: Job children are forked, so test gates must be fork-shared primitives.
_FORK = multiprocessing.get_context("fork")


@pytest.fixture
def slow_experiment(monkeypatch):
    """Install a gated fake experiment; returns its control handles.

    ``pid`` holds the job child's process id once ``started`` is set.
    """
    started = _FORK.Event()
    release = _FORK.Event()
    pid = _FORK.Value("i", 0)

    def run_slow(quiet=True):
        pid.value = os.getpid()
        started.set()
        emit_progress({"kind": "cell", "label": "slow/w0", "done": 1, "total": 2})
        assert release.wait(30.0), "test never released the slow experiment"
        emit_progress({"kind": "cell", "label": "slow/w1", "done": 2, "total": 2})
        return {"value": {"nested": [1, 2, 3]}, "label": "slow"}

    monkeypatch.setitem(experiments_module.EXPERIMENTS, "slowtest", run_slow)
    # The spec layer resolves names through EXPERIMENTS lazily, and
    # "slowtest" takes no scale argument, so mark it unscaled.
    monkeypatch.setattr(
        experiments_module,
        "UNSCALED",
        experiments_module.UNSCALED | {"slowtest"},
    )
    return {"started": started, "release": release, "pid": pid}


def test_concurrent_identical_submissions_coalesce(
    service_factory, slow_experiment
):
    _service, client = service_factory()
    spec = {"experiment": "slowtest"}

    first = client.submit(spec)
    assert first["disposition"] == "accepted"
    assert slow_experiment["started"].wait(10.0)

    # Identical submissions while in flight must all coalesce onto the
    # same job — no second simulation starts.
    others = [client.submit(spec) for _ in range(4)]
    assert [ticket["disposition"] for ticket in others] == ["coalesced"] * 4
    assert {ticket["id"] for ticket in others} == {first["id"]}

    slow_experiment["release"].set()
    payloads = [
        client.result_bytes(ticket["id"], max_wait_s=30.0)
        for ticket in [first] + others
    ]
    assert len(set(payloads)) == 1, "subscribers saw divergent bytes"
    assert client.stats()["service"]["runs"] == 1, "coalescing still ran twice"

    # After completion, the same spec revives from the run cache, not re-run.
    again = client.submit(spec)
    assert again["disposition"] == "cached"
    assert (
        client.result_bytes(again["id"], max_wait_s=30.0) == payloads[0]
    )
    assert client.stats()["service"]["runs"] == 1

    stats = client.stats()["service"]
    assert stats["runs"] == 1
    assert stats["coalesced"] == 4
    assert stats["result_cache_hits"] == 1


def test_fresh_and_cache_revived_results_are_byte_identical(service_factory):
    # Two service instances share the on-disk cache dir: the first runs
    # the simulation, the second revives it — the bytes must match.
    _first_service, first_client = service_factory()
    ticket = first_client.submit({"experiment": "table1"})
    assert ticket["disposition"] == "accepted"
    fresh = first_client.result_bytes(ticket["id"], max_wait_s=60.0)

    _second_service, second_client = service_factory()
    revived_ticket = second_client.submit({"experiment": "table1"})
    assert revived_ticket["disposition"] == "cached"
    revived = second_client.result_bytes(revived_ticket["id"], max_wait_s=30.0)
    assert revived == fresh
    assert second_client.stats()["service"]["runs"] == 0


def test_uncached_service_reuses_no_result(service_factory):
    # With caching off there is no result tier: a repeat of a finished
    # spec simulates again, with the same bytes.
    _service, client = service_factory(cache=False)
    first = client.submit({"experiment": "table1"})
    assert first["disposition"] == "accepted"
    fresh = client.result_bytes(first["id"], max_wait_s=60.0)
    again = client.submit({"experiment": "table1"})
    assert again["disposition"] == "accepted"
    assert client.result_bytes(again["id"], max_wait_s=60.0) == fresh
    stats = client.stats()["service"]
    assert stats["runs"] == 2
    assert stats["result_cache_hits"] == 0


def test_submission_never_joins_a_job_whose_cancel_is_pending():
    manager = JobManager()
    spec = {"experiment": "table1"}
    old, disposition = manager.submit(spec)
    assert disposition == "accepted"
    manager.start(old)
    manager.cancel(old.id)
    assert old.state == "running" and old.cancel_requested

    # The old job is on its way out: the next submission gets a new one.
    fresh, disposition = manager.submit(spec)
    assert disposition == "accepted"
    assert fresh.id != old.id

    # The old job's end must not unregister the new one.
    manager.finalize_cancel(old)
    assert old.state == "cancelled"
    joined, disposition = manager.submit(spec)
    assert disposition == "coalesced"
    assert joined is fresh


def test_job_index_drops_finished_jobs_oldest_first(monkeypatch):
    monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 2)
    manager = JobManager()
    queued, _ = manager.submit({"experiment": "table1"})

    failed, _ = manager.submit({"experiment": "table2"})
    manager.start(failed)
    manager.fail(failed, "boom")
    cancelled, _ = manager.submit({"experiment": "table3"})
    manager.cancel(cancelled.id)
    done, _ = manager.submit({"experiment": "sdc"})
    manager.start(done)
    manager.finish(done, b"{}")
    # Three finished jobs, room for two: the oldest to finish leaves.
    assert manager.get(failed.id) is None
    assert manager.get(cancelled.id) is cancelled
    assert manager.get(done.id) is done

    later, _ = manager.submit({"experiment": "correction_latency"})
    manager.start(later)
    manager.finish(later, b"{}")
    assert manager.get(cancelled.id) is None
    assert manager.get(done.id) is done
    assert manager.get(later.id) is later
    # However many jobs finish, a queued one stays findable.
    assert manager.get(queued.id) is queued
    assert queued.state == "queued"


def test_cancel_mid_job(service_factory, slow_experiment):
    _service, client = service_factory()
    ticket = client.submit({"experiment": "slowtest"})
    assert slow_experiment["started"].wait(10.0)

    # No release: the terminated child is a dead sleeper on that event,
    # and setting a multiprocessing Event waits for every sleeper.
    client.cancel(ticket["id"])

    # The bridge thread sees the flag within one poll and terminates the child.
    events = client.stream_events(ticket["id"], poll_wait_s=1.0, max_wait_s=30.0)
    assert client.status(ticket["id"])["state"] == "cancelled"
    assert events[-1]["kind"] == "cancelled"
    with pytest.raises(ServiceError):
        client.result_bytes(ticket["id"], max_wait_s=5.0)
    assert client.stats()["service"]["cancelled"] == 1


def test_cancel_queued_job_never_runs(service_factory, slow_experiment):
    # One slot, so the second spec has to queue behind the running one.
    _service, client = service_factory(workers=1)
    running = client.submit({"experiment": "slowtest"})
    assert slow_experiment["started"].wait(10.0)

    # A different spec queued behind the running one cancels instantly.
    queued = client.submit({"experiment": "table1"})
    assert queued["disposition"] == "accepted"
    assert client.status(queued["id"])["state"] == "queued"
    client.cancel(queued["id"])
    assert client.status(queued["id"])["state"] == "cancelled"

    slow_experiment["release"].set()
    client.result_bytes(running["id"], max_wait_s=30.0)
    stats = client.stats()["service"]
    assert stats["runs"] == 1  # the queued job never started
    assert stats["cancelled"] == 1


def test_progress_events_stream_in_order(service_factory, slow_experiment):
    _service, client = service_factory()
    ticket = client.submit({"experiment": "slowtest"})
    assert slow_experiment["started"].wait(10.0)
    slow_experiment["release"].set()
    events = client.stream_events(ticket["id"], poll_wait_s=1.0, max_wait_s=30.0)

    assert [event["seq"] for event in events] == list(range(len(events)))
    kinds = [event["kind"] for event in events]
    assert kinds[0] == "queued"
    assert kinds[1] == "started"
    assert kinds[-1] == "done"
    cells = [event for event in events if event["kind"] == "cell"]
    assert [cell["label"] for cell in cells] == ["slow/w0", "slow/w1"]
    assert [cell["done"] for cell in cells] == [1, 2]


def test_invalid_spec_rejected_with_400(service_factory):
    _service, client = service_factory()
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"experiment": "no_such_experiment"})
    assert excinfo.value.status == 400
    assert client.stats()["service"]["rejected"] == 1


def test_canonical_result_bytes_round_trip_stable():
    # Int dict keys stringify on the disk round trip; the canonical bytes
    # must not depend on which side of that trip the payload came from.
    payload = {"b": [1, 2], "a": {3: "x", 1: "y"}, "f": 1.5}
    fresh = canonical_result_bytes(payload)
    revived = canonical_result_bytes(json.loads(json.dumps(payload)))
    assert fresh == revived


class TestRunCacheHardening:
    def _cache(self, tmp_path):
        stats = ExecutionStats()
        return RunCache(str(tmp_path / "cache"), stats=stats), stats

    def test_corrupt_entry_is_miss_and_quarantined(self, tmp_path):
        cache, stats = self._cache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("{ not json")
        assert cache.get(key) is None
        assert stats.cache_corrupt == 1
        assert stats.cache_misses == 1
        assert not os.path.exists(path), "corrupt entry must be removed"
        # A valid-JSON entry with the wrong shape is equally corrupt.
        with open(path, "w") as handle:
            json.dump({"wrong": "shape"}, handle)
        assert cache.get(key) is None
        assert stats.cache_corrupt == 2
        # A parseable entry whose payload no longer matches its digest
        # (or that carries none) is detected on read, then removed.
        cache.put(key, {"ipc": 1.25})
        with open(path) as handle:
            entry = json.load(handle)
        entry["payload"]["ipc"] = 1.75
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get(key) is None
        assert stats.cache_corrupt == 3
        assert not os.path.exists(path)
        del entry["digest"]
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get(key) is None
        assert stats.cache_corrupt == 4
        assert stats.cache_hits == 0

    def test_eviction_is_lru_and_respects_budget(self, tmp_path):
        cache, stats = self._cache(tmp_path)
        keys = ["%02x" % index + "0" * 62 for index in range(4)]
        for index, key in enumerate(keys):
            cache.put(key, {"blob": "x" * 200, "index": index})
            # Explicit, widely spaced mtimes: recency is unambiguous even
            # on filesystems with coarse timestamps.
            os.utime(cache.path_for(key), (1000.0 + index, 1000.0 + index))

        # Touch the oldest entry via a hit: it becomes the most recent.
        assert cache.get(keys[0]) is not None
        os.utime(cache.path_for(keys[0]), (2000.0, 2000.0))

        entry_size = os.path.getsize(cache.path_for(keys[1]))
        budget = int(entry_size * 2.5)  # room for two entries
        evicted = cache.enforce_budget(budget)
        assert evicted == 2
        assert stats.cache_evictions == 2
        assert cache.size_bytes() <= budget
        # LRU: 1 and 2 went; the touched 0 and newest 3 survive.
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[3]) is not None
        assert not os.path.exists(cache.path_for(keys[1]))
        assert not os.path.exists(cache.path_for(keys[2]))

    def test_zero_budget_means_unlimited(self, tmp_path):
        cache, _stats = self._cache(tmp_path)
        cache.put("cd" + "0" * 62, {"x": 1})
        assert cache.enforce_budget(0) == 0
        assert len(cache) == 1


def test_progress_event_order_is_jobs_invariant():
    # The streaming feed must be deterministic at any worker count: same
    # events, same order, at jobs=1 and jobs=4 — only wall-clock timings
    # may differ.
    from repro.parallel import overridden
    from repro.secure.designs import SGX_O, SYNERGY
    from repro.sim.config import SystemConfig
    from repro.sim.runner import clear_run_memos, run_suite

    tiny = SystemConfig(accesses_per_core=600)

    def collect(jobs):
        clear_run_memos()
        events = []

        def on_event(event):
            events.append(
                {k: v for k, v in event.items() if k != "seconds"}
            )

        with overridden(cache_enabled=False):
            run_suite(
                [SGX_O, SYNERGY],
                ["mcf", "pr-web"],
                tiny,
                jobs=jobs,
                progress=on_event,
            )
        return events

    serial = collect(1)
    pooled = collect(4)
    assert serial == pooled
    assert serial[0]["kind"] == "suite"
    assert [e["done"] for e in serial[1:]] == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# Multi-worker execution plane
# ---------------------------------------------------------------------------


def _install_fake_experiments(monkeypatch, count):
    """Install ``count`` deterministic fake experiments, each emitting a
    burst of progress events and touching telemetry (so concurrent jobs
    exercise their children's registries, not just the marshalling)."""
    from repro.telemetry import get_registry

    names = ["fakestress%d" % index for index in range(count)]

    def make(name, salt):
        def run(quiet=True):
            counter = get_registry().counter("stress.%s" % name)
            total = 12
            for step in range(total):
                counter.inc()
                emit_progress(
                    {
                        "kind": "cell",
                        "label": "%s/c%d" % (name, step),
                        "done": step + 1,
                        "total": total,
                    }
                )
            # Deterministic payload: a function of the name only — never
            # of scheduling, slot assignment or the counter object.
            return {
                "label": name,
                "value": [salt * step % 97 for step in range(20)],
            }

        return run

    for salt, name in enumerate(names, start=3):
        monkeypatch.setitem(experiments_module.EXPERIMENTS, name, make(name, salt))
    monkeypatch.setattr(
        experiments_module,
        "UNSCALED",
        experiments_module.UNSCALED | set(names),
    )
    return names


def _replay_concurrently(client, specs, repeats=2, threads=8):
    """Submit every spec ``repeats`` times from ``threads`` client threads;
    returns ``{spec_key: set(result_bytes)}`` plus the ticket list."""
    work = [spec for spec in specs for _ in range(repeats)]
    results = {}
    tickets = []
    lock = threading.Lock()
    errors = []

    def submit_one(spec):
        try:
            ticket = client.submit(spec)
            raw = client.result_bytes(ticket["id"], max_wait_s=60.0)
            with lock:
                tickets.append(ticket)
                results.setdefault(ticket["key"], set()).add(raw)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append("%s: %s" % (type(exc).__name__, exc))

    crew = []
    for index in range(threads):
        chunk = work[index::threads]

        def body(chunk=chunk):
            for spec in chunk:
                submit_one(spec)

        crew.append(threading.Thread(target=body))
    for thread in crew:
        thread.start()
    for thread in crew:
        thread.join(120.0)
    assert not errors, errors
    return results, tickets


def test_multi_worker_byte_identity_stress(
    service_factory, monkeypatch, tmp_path
):
    """Interleaved unique specs at ``workers=4`` must return the same
    bytes per spec key as a ``workers=1`` replay — and the same bytes to
    every subscriber within each replay."""
    names = _install_fake_experiments(monkeypatch, 6)
    specs = [{"experiment": name} for name in names] + [
        {"experiment": "table1"},
        {"experiment": "sdc"},
    ]

    _pooled, pooled_client = service_factory(
        workers=4, cache_dir=str(tmp_path / "cache-w4")
    )
    pooled_results, pooled_tickets = _replay_concurrently(pooled_client, specs)
    _serial, serial_client = service_factory(
        workers=1, cache_dir=str(tmp_path / "cache-w1")
    )
    serial_results, _serial_tickets = _replay_concurrently(serial_client, specs)

    # Within each replay: one byte string per key, for every subscriber.
    for results in (pooled_results, serial_results):
        assert len(results) == len(specs)
        divergent = {key for key, blobs in results.items() if len(blobs) > 1}
        assert not divergent, divergent
    # Across worker counts: identical bytes, key by key.
    assert {k: v.pop() for k, v in pooled_results.items()} == {
        k: v.pop() for k, v in serial_results.items()
    }
    # Each service simulated each unique spec exactly once (the duplicate
    # submission either coalesced or hit a result tier).
    assert pooled_client.stats()["service"]["runs"] == len(specs)
    assert serial_client.stats()["service"]["runs"] == len(specs)
    # Per-job event feeds stay dense and ordered at 4 workers.
    for ticket in pooled_tickets[:4]:
        events = pooled_client.stream_events(
            ticket["id"], poll_wait_s=1.0, max_wait_s=30.0
        )
        assert [event["seq"] for event in events] == list(range(len(events)))
        assert events[-1]["kind"] == "done"


def _install_gated_experiment(monkeypatch, name):
    """One gated fake experiment; returns its started/release events."""
    started = _FORK.Event()
    release = _FORK.Event()

    def run(quiet=True):
        started.set()
        emit_progress({"kind": "cell", "label": name + "/w0", "done": 1, "total": 2})
        assert release.wait(30.0), "test never released %s" % name
        emit_progress({"kind": "cell", "label": name + "/w1", "done": 2, "total": 2})
        return {"label": name, "value": [1, 2]}

    monkeypatch.setitem(experiments_module.EXPERIMENTS, name, run)
    monkeypatch.setattr(
        experiments_module,
        "UNSCALED",
        experiments_module.UNSCALED | {name},
    )
    return {"started": started, "release": release}


def test_cancel_is_isolated_between_workers(service_factory, monkeypatch):
    """Cancelling one slot's job must not perturb the job running in the
    other slot — it completes with its full event feed and payload."""
    slow_a = _install_gated_experiment(monkeypatch, "slowpair_a")
    slow_b = _install_gated_experiment(monkeypatch, "slowpair_b")
    _service, client = service_factory(workers=2)

    ticket_a = client.submit({"experiment": "slowpair_a"})
    assert slow_a["started"].wait(10.0)
    ticket_b = client.submit({"experiment": "slowpair_b"})
    # Both jobs are mid-flight simultaneously: that needs the second slot.
    assert slow_b["started"].wait(10.0)

    client.cancel(ticket_a["id"])  # A's child is terminated, never released
    slow_b["release"].set()

    survivor = json.loads(
        client.result_bytes(ticket_b["id"], max_wait_s=30.0)
    )
    assert survivor["label"] == "slowpair_b"
    events_b = client.stream_events(
        ticket_b["id"], poll_wait_s=1.0, max_wait_s=30.0
    )
    assert [event["seq"] for event in events_b] == list(range(len(events_b)))
    cells = [e["label"] for e in events_b if e["kind"] == "cell"]
    assert cells == ["slowpair_b/w0", "slowpair_b/w1"]
    assert events_b[-1]["kind"] == "done"

    client.stream_events(ticket_a["id"], poll_wait_s=1.0, max_wait_s=30.0)
    assert client.status(ticket_a["id"])["state"] == "cancelled"
    stats = client.stats()["service"]
    assert stats["cancelled"] == 1
    assert stats["runs"] == 2


_QUICK_GRID = {
    "experiment": "grid",
    "scale": "quick",
    "designs": ["SGX_O"],
    "seeds": [1],
}


def test_service_bytes_equal_an_in_process_run(service_factory):
    """A job's bytes, simulated in a forked child, equal the canonical
    bytes of the same spec run in this process."""
    specs = [{"experiment": "table1"}, {"experiment": "sdc"}, _QUICK_GRID]
    # In-process runs finish before the service forks anything: a child
    # forked while this thread holds a module's import lock deadlocks.
    with overridden(cache_enabled=False):
        expected = [
            canonical_result_bytes(
                run_spec(ExperimentSpec.from_payload(spec), quiet=True)
            )
            for spec in specs
        ]
    _service, client = service_factory(workers=2)
    tickets = [client.submit(spec) for spec in specs]
    assert [t["disposition"] for t in tickets] == ["accepted"] * len(specs)
    for ticket, raw in zip(tickets, expected):
        assert client.result_bytes(ticket["id"], max_wait_s=120.0) == raw
    assert client.stats()["service"]["runs"] == len(specs)


def test_ablations_run_by_name(service_factory):
    """Ablations are registered experiments: the service runs them by
    name, with the bytes of an in-process run."""
    names = ("tree_arity", "reconstruction")
    # In-process runs first, as in the test above: no fork may overlap them.
    with overridden(cache_enabled=False):
        expected = [
            canonical_result_bytes(
                run_spec(ExperimentSpec(experiment=name), quiet=True)
            )
            for name in names
        ]
    _service, client = service_factory()
    for name, raw in zip(names, expected):
        ticket = client.submit({"experiment": name})
        assert ticket["disposition"] == "accepted"
        assert client.result_bytes(ticket["id"], max_wait_s=60.0) == raw


def test_job_child_inherits_the_parents_warm_memos(service_factory, tmp_path):
    """A job child starts from the trace and warm-state memos it inherits
    at fork. They save work, never results: with caching off the child
    simulates every cell of a spec this process already ran, and its
    bytes equal the in-process run."""
    spec = ExperimentSpec.from_payload(_QUICK_GRID)
    clear_run_memos()
    with overridden(cache_enabled=False):
        expected = canonical_result_bytes(run_spec(spec, quiet=True))
        # Caching is off in the child too: no layer may replay a cell.
        _service, client = service_factory(
            workers=1, cache_dir=str(tmp_path / "fresh-cache")
        )
    ticket = client.submit(_QUICK_GRID)
    assert ticket["disposition"] == "accepted"
    assert client.result_bytes(ticket["id"], max_wait_s=120.0) == expected
    events = client.stream_events(ticket["id"], poll_wait_s=1.0, max_wait_s=30.0)
    cells = [event for event in events if event["kind"] == "cell"]
    assert cells and not any(cell["cached"] for cell in cells)
    assert client.stats()["service"]["runs"] == 1


def test_unwritable_cache_still_finishes_the_job(service_factory, tmp_path):
    """A cache root that is a regular file costs the cache, not the job."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    clear_run_memos()
    with overridden(cache_dir=str(blocker)):
        _service, client = service_factory(workers=1, cache_dir=str(blocker))
    ticket = client.submit(_QUICK_GRID)
    assert ticket["disposition"] == "accepted"
    raw = client.result_bytes(ticket["id"], max_wait_s=120.0)
    assert client.status(ticket["id"])["state"] == "done"
    with overridden(cache_enabled=False):
        expected = canonical_result_bytes(
            run_spec(ExperimentSpec.from_payload(_QUICK_GRID), quiet=True)
        )
    assert raw == expected
    assert blocker.is_file()


def test_killed_child_fails_its_job_and_the_slot_serves_the_next(
    service_factory, slow_experiment
):
    _service, client = service_factory(workers=1)
    ticket = client.submit({"experiment": "slowtest"})
    assert slow_experiment["started"].wait(10.0)

    os.kill(slow_experiment["pid"].value, signal.SIGKILL)
    events = client.stream_events(ticket["id"], poll_wait_s=1.0, max_wait_s=30.0)
    status = client.status(ticket["id"])
    assert status["state"] == "failed"
    assert "exited with code -9" in status["error"]
    assert "failed" in [event["kind"] for event in events]

    # The one slot is free again: the next job runs and completes.
    follow_up = client.submit({"experiment": "table1"})
    assert follow_up["disposition"] == "accepted"
    raw = client.result_bytes(follow_up["id"], max_wait_s=60.0)
    assert json.loads(raw)
    stats = client.stats()["service"]
    assert stats["child_failures"] == 1
    assert stats["failed"] == 1
    assert stats["completed"] == 1
    assert stats["runs"] == 2


def test_stop_leaves_no_job_process_behind(service_factory, slow_experiment):
    shutdown_pool()  # earlier tests' pool workers are not the service's
    service, client = service_factory(workers=1)
    client.submit({"experiment": "slowtest"})
    assert slow_experiment["started"].wait(10.0)

    service.stop_background()
    assert multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):
        os.kill(slow_experiment["pid"].value, 0)


@pytest.fixture
def pooled_experiment(monkeypatch):
    """Install a gated fake experiment that starts a worker pool.

    Once ``started`` is set, ``pid`` holds the job child's process id and
    ``workers`` the process ids of the pool workers it forked.
    """
    started = _FORK.Event()
    release = _FORK.Event()
    pid = _FORK.Value("i", 0)
    workers = _FORK.Array("i", 8)

    def run_pooled(quiet=True):
        pid.value = os.getpid()
        pool = get_pool(get_context().jobs)
        list(pool.map(abs, range(4)))  # the executor forks its workers here
        for index, worker in enumerate(multiprocessing.active_children()):
            workers[index] = worker.pid
        started.set()
        assert release.wait(30.0), "test never released the pooled experiment"
        return {"label": "pooled"}

    monkeypatch.setitem(experiments_module.EXPERIMENTS, "pooltest", run_pooled)
    monkeypatch.setattr(
        experiments_module,
        "UNSCALED",
        experiments_module.UNSCALED | {"pooltest"},
    )
    # Never set ``release`` once the child may be dead: a multiprocessing
    # Event.set() waits for every sleeper, and a killed one never wakes.
    return {"started": started, "pid": pid, "workers": workers}


def _survivors(pids, timeout_s=10.0):
    """The ``pids`` still running after up to ``timeout_s`` seconds.

    A zombie waiting for its reaper has exited, so it does not count.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        alive = []
        for pid in pids:
            try:
                with open("/proc/%d/stat" % pid) as handle:
                    state = handle.read().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                continue
            if state != "Z":
                alive.append(pid)
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
@pytest.mark.parametrize("ending", ["cancel", "stop", "sigkill"])
def test_ended_job_leaves_no_pool_worker_behind(
    service_factory, pooled_experiment, ending
):
    """A jobs=2 spec forks pool workers inside its job child; however the
    job ends early, those workers must not outlive it."""
    service, client = service_factory(workers=1)
    ticket = client.submit({"experiment": "pooltest", "jobs": 2})
    assert pooled_experiment["started"].wait(30.0)
    workers = [pid for pid in pooled_experiment["workers"] if pid]
    assert len(workers) == 2
    assert _survivors(workers, timeout_s=0.0) == workers

    if ending == "cancel":
        client.cancel(ticket["id"])
        client.stream_events(ticket["id"], poll_wait_s=1.0, max_wait_s=30.0)
        assert client.status(ticket["id"])["state"] == "cancelled"
    elif ending == "sigkill":
        os.kill(pooled_experiment["pid"].value, signal.SIGKILL)
        client.stream_events(ticket["id"], poll_wait_s=1.0, max_wait_s=30.0)
        assert client.status(ticket["id"])["state"] == "failed"
    else:
        service.stop_background()
    assert _survivors(workers) == []


def test_service_eviction_end_to_end(service_factory):
    # A tiny budget forces eviction after each completed job.
    service, client = service_factory(cache_budget_bytes=1)
    ticket = client.submit({"experiment": "table1"})
    first = client.result_bytes(ticket["id"], max_wait_s=60.0)
    ticket2 = client.submit({"experiment": "sdc"})
    client.result_bytes(ticket2["id"], max_wait_s=60.0)
    stats = client.stats()
    assert stats["cache"]["size_bytes"] <= 1 or stats["cache"]["entries"] == 0
    # The run cache is the only result tier: an evicted spec runs again,
    # with the same bytes.
    again = client.submit({"experiment": "table1"})
    assert again["disposition"] == "accepted"
    assert client.result_bytes(again["id"], max_wait_s=60.0) == first
    assert client.stats()["service"]["runs"] == 3
