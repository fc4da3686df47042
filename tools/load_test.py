#!/usr/bin/env python
"""Load-test the experiment job service: coalescing, latency, scaling.

Replays ``--submissions`` concurrent spec submissions against a service —
an in-process one on an ephemeral port by default, or an external one via
``--host/--port`` — with a configurable duplicate ratio, then reports:

* submit latency percentiles (POST /v1/jobs round trip);
* end-to-end latency percentiles (submit -> result bytes received);
* throughput (completed submissions / wall second) and *unique-spec*
  throughput (distinct simulations retired / wall second — the number the
  worker pool actually moves);
* the dedup ladder: how many submissions ran a simulation vs coalesced
  onto an in-flight one vs were revived from the run cache;
* byte-identity: every subscriber to the same spec key must receive the
  exact same result bytes (SHA-256 compared).

The unique-spec pool mixes the cheap analytic experiments (table1/2/3,
sdc, correction_latency) with seed-varied ``grid`` specs at ``--scale``;
``--max-unique`` caps how many distinct simulations one run may trigger.

``--compare-workers 1,4`` replays the *same* submission sequence once per
worker count, each against a fresh in-process service and a fresh cache
dir, then cross-checks that every spec key produced byte-identical results
at every count and reports the unique-spec throughput scaling ratio
(last count vs first). ``--assert-wall-no-worse`` gates on the highest
worker count finishing no slower than the lowest; ``--min-scaling R``
gates on the throughput ratio.

Usage::

    PYTHONPATH=src python tools/load_test.py --submissions 1000 \\
        --duplicate-ratio 0.95 --threads 32 --out BENCH_PR7.json
    PYTHONPATH=src python tools/load_test.py --submissions 200 \\
        --duplicate-ratio 0.5 --assert-coalesce   # the CI service gate
    PYTHONPATH=src python tools/load_test.py --submissions 40 \\
        --duplicate-ratio 0.1 --max-unique 36 --compare-workers 1,4 \\
        --assert-wall-no-worse --out BENCH_PR8.json   # the scaling gate

Exit status is non-zero if any submission fails, any key sees divergent
result bytes (within one replay or across worker counts), or any
requested gate (``--assert-coalesce``, ``--min-scaling``,
``--assert-wall-no-worse``) does not hold.
"""

import argparse
import hashlib
import json
import os
import platform
import queue
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.parallel import code_fingerprint
from repro.parallel.context import overridden
from repro.service.client import ServiceClient
from repro.util.rng import DeterministicRng

#: Analytic experiments cheap enough to submit by the hundred.
CHEAP_EXPERIMENTS = ["table1", "table2", "table3", "sdc", "correction_latency"]


def build_spec_pool(unique_count, scale, grid_jobs):
    """``unique_count`` distinct spec payloads: cheap ones first, then
    seed-varied grid specs (each of which costs one real simulation)."""
    pool = []
    for name in CHEAP_EXPERIMENTS[:unique_count]:
        pool.append({"experiment": name})
    seed = 0
    while len(pool) < unique_count:
        seed += 1
        pool.append(
            {
                "experiment": "grid",
                "scale": scale,
                "designs": ["SGX_O"],
                "seeds": [seed],
                "jobs": grid_jobs,
            }
        )
    return pool


def build_submissions(pool, total, rng):
    """``total`` submissions: each unique spec once, the rest re-drawn from
    the pool, the whole sequence shuffled deterministically."""
    submissions = list(pool)
    while len(submissions) < total:
        submissions.append(pool[rng.randint(0, len(pool) - 1)])
    rng.shuffle(submissions)
    return submissions[:total]


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


def run_load(client, submissions, threads, result_wait_s):
    """Drive all submissions through ``threads`` workers; returns records."""
    work = queue.Queue()
    for index, spec in enumerate(submissions):
        work.put((index, spec))
    records = [None] * len(submissions)
    failures = []
    failures_lock = threading.Lock()

    def worker():
        while True:
            try:
                index, spec = work.get_nowait()
            except queue.Empty:
                return
            record = {"spec_key": None, "disposition": None}
            submit_start = time.monotonic()
            try:
                ticket = client.submit(spec)
                record["submit_s"] = time.monotonic() - submit_start
                record["disposition"] = ticket["disposition"]
                record["spec_key"] = ticket["key"]
                raw = client.result_bytes(ticket["id"], max_wait_s=result_wait_s)
                record["total_s"] = time.monotonic() - submit_start
                record["digest"] = hashlib.sha256(raw).hexdigest()
                record["bytes"] = len(raw)
            except Exception as exc:  # lint-ok: H301 a load test tallies failures
                # must tally every failure mode, not die on the first one.
                with failures_lock:
                    failures.append("submission %d: %s: %s" % (index, type(exc).__name__, exc))
                record = None
            records[index] = record

    crew = [
        threading.Thread(target=worker, name="load-%d" % i) for i in range(threads)
    ]
    wall_start = time.monotonic()
    for thread in crew:
        thread.start()
    for thread in crew:
        thread.join()
    wall = time.monotonic() - wall_start
    return records, failures, wall


def summarize(records, failures, wall, unique_count, stats_payload):
    """Aggregate run records into the report/snapshot payload."""
    done = [record for record in records if record is not None]
    submit_sorted = sorted(record["submit_s"] for record in done)
    total_sorted = sorted(record["total_s"] for record in done)
    dispositions = {}
    digests_by_key = {}
    for record in done:
        dispositions[record["disposition"]] = (
            dispositions.get(record["disposition"], 0) + 1
        )
        digests_by_key.setdefault(record["spec_key"], set()).add(record["digest"])
    divergent = sorted(
        key for key, digests in digests_by_key.items() if len(digests) > 1
    )
    service_counts = stats_payload.get("service", {})
    submissions_total = len(records)
    deduped = dispositions.get("coalesced", 0) + dispositions.get("cached", 0)
    return {
        "submissions": submissions_total,
        "completed": len(done),
        "failed_submissions": len(failures),
        "unique_specs": unique_count,
        "wall_s": round(wall, 3),
        "throughput_per_s": round(len(done) / wall, 2) if wall > 0 else 0.0,
        "unique_throughput_per_s": round(len(digests_by_key) / wall, 3)
        if wall > 0
        else 0.0,
        "dispositions": dispositions,
        "coalesce_rate": round(deduped / submissions_total, 4)
        if submissions_total
        else 0.0,
        "divergent_keys": divergent,
        # key -> sorted digests (one entry unless divergent): the map the
        # --compare-workers mode cross-checks between worker counts.
        "digests": {
            key: sorted(digests) for key, digests in sorted(digests_by_key.items())
        },
        "latency_s": {
            "submit": {
                "p50": round(percentile(submit_sorted, 0.50), 4),
                "p90": round(percentile(submit_sorted, 0.90), 4),
                "p99": round(percentile(submit_sorted, 0.99), 4),
            },
            "end_to_end": {
                "p50": round(percentile(total_sorted, 0.50), 4),
                "p90": round(percentile(total_sorted, 0.90), 4),
                "p99": round(percentile(total_sorted, 0.99), 4),
            },
        },
        "server": {
            "runs": service_counts.get("runs"),
            "coalesced": service_counts.get("coalesced"),
            "result_cache_hits": service_counts.get("result_cache_hits"),
            "completed": service_counts.get("completed"),
            "failed": service_counts.get("failed"),
            "progress_events": service_counts.get("progress_events"),
            "workers": stats_payload.get("config", {}).get("workers"),
        },
    }


def run_replay(submissions, unique_count, args, workers):
    """One full replay against a fresh in-process service with ``workers``
    job slots (and a fresh cache dir, so dedup/scaling is measured clean).

    Returns ``(report, failures)``.
    """
    from repro.service.server import ExperimentService, ServiceConfig

    temp_cache = tempfile.mkdtemp(prefix="repro-load-cache-")
    # Construct under a scoped cache-dir override: the worker bridge
    # captures the execution context at construction, so both the
    # service-level result cache AND the cell-level run cache inside the
    # simulations land in (and read from) this replay's private dir —
    # otherwise replay N would revive replay N-1's results from the
    # default on-disk cache and the comparison would measure nothing.
    with overridden(cache_dir=temp_cache):
        service = ExperimentService(
            ServiceConfig(
                port=0,
                spec_jobs=args.spec_jobs,
                cache_dir=temp_cache,
                workers=workers,
            )
        )
    port = service.start_background()
    client = ServiceClient(
        host="127.0.0.1", port=port, timeout_s=args.result_wait_s
    )
    try:
        if not client.wait_ready(10.0):
            raise RuntimeError("in-process service did not become ready")
        records, failures, wall = run_load(
            client, submissions, args.threads, args.result_wait_s
        )
        stats_payload = client.stats()
    finally:
        service.stop_background()
    report = summarize(records, failures, wall, unique_count, stats_payload)
    report["workers"] = workers
    return report, failures


def cross_check_digests(reports):
    """Spec keys whose result bytes differ between any two worker counts."""
    merged = {}
    for report in reports:
        for key, digests in report["digests"].items():
            merged.setdefault(key, set()).update(digests)
    return sorted(key for key, digests in merged.items() if len(digests) > 1)


def check_gates(report, failures, unique_count, args):
    """Apply the per-replay gates; returns True when all hold."""
    ok = True
    label = "workers=%s" % report.get("workers", "?")
    if failures:
        print("FAIL[%s]: %d submission(s) failed" % (label, len(failures)))
        ok = False
    if report["divergent_keys"]:
        print(
            "FAIL[%s]: %d key(s) returned divergent result bytes"
            % (label, len(report["divergent_keys"]))
        )
        ok = False
    if args.assert_coalesce:
        if report["coalesce_rate"] <= 0:
            print(
                "FAIL[%s]: no submission coalesced or hit a cached result"
                % label
            )
            ok = False
        runs = report["server"]["runs"]
        if runs is not None and runs > unique_count:
            print(
                "FAIL[%s]: service ran %d simulations for %d unique specs"
                % (label, runs, unique_count)
            )
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--submissions", type=int, default=200)
    parser.add_argument(
        "--duplicate-ratio",
        type=float,
        default=0.5,
        help="target fraction of submissions that duplicate another spec",
    )
    parser.add_argument("--threads", type=int, default=16)
    parser.add_argument(
        "--max-unique",
        type=int,
        default=16,
        metavar="N",
        help="cap on distinct specs (each beyond the %d cheap ones costs a "
        "real simulation)" % len(CHEAP_EXPERIMENTS),
    )
    parser.add_argument("--scale", default="quick", help="scale for grid specs")
    parser.add_argument(
        "--spec-jobs",
        type=int,
        default=2,
        help="process fan-out inside each grid simulation",
    )
    parser.add_argument("--seed", type=int, default=2024, help="shuffle seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="job slots for the in-process service (single-replay mode; "
        "default: one per usable CPU)",
    )
    parser.add_argument(
        "--compare-workers",
        default=None,
        metavar="1,4",
        help="replay the same submissions once per worker count (fresh "
        "in-process service + cache each) and cross-check byte identity",
    )
    parser.add_argument(
        "--min-scaling",
        type=float,
        default=0.0,
        metavar="R",
        help="(compare mode) fail unless unique-spec throughput at the "
        "highest worker count is >= R x the lowest's",
    )
    parser.add_argument(
        "--assert-wall-no-worse",
        action="store_true",
        help="(compare mode) fail if the highest worker count's wall clock "
        "exceeds the lowest's",
    )
    parser.add_argument(
        "--host", default=None, help="target an already-running service"
    )
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument(
        "--result-wait-s", type=float, default=600.0, metavar="S"
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write BENCH-style JSON"
    )
    parser.add_argument(
        "--assert-coalesce",
        action="store_true",
        help="fail unless coalescing/dedup demonstrably happened "
        "(coalesce rate > 0 and simulations run == unique specs)",
    )
    args = parser.parse_args()

    unique_count = max(1, round(args.submissions * (1.0 - args.duplicate_ratio)))
    unique_count = min(unique_count, args.max_unique, args.submissions)
    pool = build_spec_pool(unique_count, args.scale, args.spec_jobs)
    rng = DeterministicRng(args.seed).fork("load_test")
    submissions = build_submissions(pool, args.submissions, rng)

    parameters = {
        "submissions": args.submissions,
        "duplicate_ratio": args.duplicate_ratio,
        "threads": args.threads,
        "max_unique": args.max_unique,
        "scale": args.scale,
        "spec_jobs": args.spec_jobs,
        "seed": args.seed,
    }
    host_info = {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }

    if args.compare_workers:
        if args.host is not None:
            print("error: --compare-workers needs in-process services")
            return 2
        try:
            counts = [int(item) for item in args.compare_workers.split(",")]
        except ValueError:
            print("error: --compare-workers must be comma-separated ints")
            return 2
        if len(counts) < 2:
            print("error: --compare-workers needs at least two counts")
            return 2
        ok = True
        reports = []
        for workers in counts:
            print(
                "replay: %d submissions, %d unique specs, %d threads, "
                "workers=%d" % (len(submissions), unique_count, args.threads, workers)
            )
            report, failures = run_replay(
                submissions, unique_count, args, workers
            )
            reports.append(report)
            ok = check_gates(report, failures, unique_count, args) and ok
            print(
                "  wall=%.2fs unique_throughput=%.3f/s dispositions=%s"
                % (
                    report["wall_s"],
                    report["unique_throughput_per_s"],
                    json.dumps(report["dispositions"], sort_keys=True),
                )
            )

        cross_divergent = cross_check_digests(reports)
        if cross_divergent:
            print(
                "FAIL: %d key(s) returned different bytes across worker "
                "counts" % len(cross_divergent)
            )
            ok = False
        base, peak = reports[0], reports[-1]
        scaling = (
            peak["unique_throughput_per_s"] / base["unique_throughput_per_s"]
            if base["unique_throughput_per_s"] > 0
            else 0.0
        )
        comparison = {
            "worker_counts": counts,
            "unique_throughput_scaling": round(scaling, 3),
            "wall_s_by_workers": {
                str(report["workers"]): report["wall_s"] for report in reports
            },
            "cross_divergent_keys": cross_divergent,
        }
        print(
            "scaling: workers=%d is %.2fx workers=%d on unique-spec "
            "throughput (wall %.2fs vs %.2fs)"
            % (
                peak["workers"],
                scaling,
                base["workers"],
                peak["wall_s"],
                base["wall_s"],
            )
        )
        if args.min_scaling > 0 and scaling < args.min_scaling:
            print(
                "FAIL: scaling %.2fx below required %.2fx"
                % (scaling, args.min_scaling)
            )
            ok = False
        if args.assert_wall_no_worse and peak["wall_s"] > base["wall_s"]:
            print(
                "FAIL: workers=%d wall %.2fs slower than workers=%d wall %.2fs"
                % (peak["workers"], peak["wall_s"], base["workers"], base["wall_s"])
            )
            ok = False

        if args.out:
            snapshot = {
                "kind": "service_load_test",
                "code_fingerprint": code_fingerprint(),
                "python": platform.python_version(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
                "parameters": dict(parameters, compare_workers=counts),
                "host": host_info,
                "comparison": comparison,
                # The headline service section is the peak-worker replay;
                # per-count replays ride alongside (digests dropped — the
                # comparison already proved them identical).
                "service": _strip_digests(peak),
                "replays": {
                    str(report["workers"]): _strip_digests(report)
                    for report in reports
                },
            }
            _write_snapshot(args.out, snapshot)
            stem, ext = os.path.splitext(args.out)
            for report in reports:
                per_count = {
                    "kind": "service_load_test",
                    "code_fingerprint": code_fingerprint(),
                    "python": platform.python_version(),
                    "parameters": dict(parameters, workers=report["workers"]),
                    "host": host_info,
                    "service": _strip_digests(report),
                }
                _write_snapshot(
                    "%s.w%d%s" % (stem, report["workers"], ext or ".json"),
                    per_count,
                )
        return 0 if ok else 1

    # -- single-replay mode ---------------------------------------------------

    service = None
    if args.host is None:
        # In-process server on a fresh port AND a fresh cache dir, so the
        # run measures coalescing, not leftovers from earlier runs.
        from repro.service.server import ExperimentService, ServiceConfig

        temp_cache = tempfile.mkdtemp(prefix="repro-load-cache-")
        with overridden(cache_dir=temp_cache):
            service = ExperimentService(
                ServiceConfig(
                    port=0,
                    spec_jobs=args.spec_jobs,
                    cache_dir=temp_cache,
                    workers=args.workers,
                )
            )
        port = service.start_background()
        host = "127.0.0.1"
    else:
        host, port = args.host, args.port or 8642

    client = ServiceClient(host=host, port=port, timeout_s=args.result_wait_s)
    if not client.wait_ready(10.0):
        print("error: service at %s:%d not responding" % (host, port))
        return 2

    print(
        "load test: %d submissions, %d unique specs, %d threads -> %s:%d"
        % (len(submissions), unique_count, args.threads, host, port)
    )
    records, failures, wall = run_load(
        client, submissions, args.threads, args.result_wait_s
    )
    stats_payload = client.stats()
    if service is not None:
        service.stop_background()

    report = summarize(records, failures, wall, unique_count, stats_payload)
    report["workers"] = report["server"]["workers"]
    print(json.dumps(_strip_digests(report), indent=2, sort_keys=True))
    for line in failures[:10]:
        print("FAILED:", line)

    ok = check_gates(report, failures, unique_count, args)

    if args.out:
        snapshot = {
            "kind": "service_load_test",
            "code_fingerprint": code_fingerprint(),
            "python": platform.python_version(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "parameters": dict(
                parameters,
                workers=report["workers"],
                in_process_server=service is not None,
            ),
            "host": host_info,
            "service": _strip_digests(report),
        }
        _write_snapshot(args.out, snapshot)

    return 0 if ok else 1


def _strip_digests(report):
    """The report minus the bulky per-key digest map (snapshot hygiene)."""
    return {key: value for key, value in report.items() if key != "digests"}


def _write_snapshot(path, snapshot):
    out_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("[snapshot written to %s]" % path)


if __name__ == "__main__":
    sys.exit(main())
