"""One benchmark child: set up one workload, run one iteration, report JSON.

``run.py`` starts every measured iteration in a fresh interpreter::

    PYTHONPATH=src python benchmarks/e2e/child.py '<spec json>'

and reads the result from ``spec["result_path"]``. The clock starts at the
first statement below, before any ``repro`` import, so ``setup_s`` covers
imports plus the workload's own set-up (cache dir, cell list, service boot)
up to the first unit of work.

The input builders (:func:`cell_list`, :func:`service_pool`,
:func:`service_submissions`) are pure functions of the seed and import no
``repro`` module, so the tests can call them directly.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

CELL_DESIGNS = ("SGX_O", "Synergy", "SGX", "IVEC", "LOTECC", "Chipkill_Secure")
CELL_WORKLOADS = ("mcf", "lbm", "pr-web")
#: Accesses per core of the ``default`` scale (what EXPERIMENTS.md uses).
CELL_ACCESSES = 8_000
SMOKE_CELLS = (("SGX_O", "mcf"), ("Synergy", "mcf"), ("IVEC", "mcf"))

ANALYTIC = ("table1", "table2", "table3", "sdc", "correction_latency")
GRID_SPECS = 11
SUBMISSIONS = 100
CLIENTS = 2
SMOKE_GRID_SPECS = 1
SMOKE_SUBMISSIONS = 12

MC_DEVICES = 10_000_000
MC_BASE_SEED = 2018
#: Allowed distance of a seeded failure count from the pinned seed-0 count,
#: in binomial standard deviations: far outside sampling noise, far inside
#: any modelling change.
MC_SIGMAS = 6.0
MC_TIMED_SWEEPS = 3

#: Figures/tables the reduced-size grid regenerates (cheap, digests pinned;
#: fig6 runs timing-plane cells, fig11 the reliability plane).
SMOKE_EXPERIMENTS = ANALYTIC + ("fig6", "fig11")


def digest(payload: object) -> str:
    """SHA-256 of the canonical JSON dump the pinned digests use."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def cell_list(seed: int, smoke: bool = False):
    """``cells_default`` cells as ``(design, workload, trace_seed)``.

    Seed 0 keeps the default trace salts (``trace_seed=None``), which the
    pinned payload digests were taken at.
    """
    trace_seed = None if seed == 0 else seed
    pairs = (
        SMOKE_CELLS
        if smoke
        else [(d, w) for d in CELL_DESIGNS for w in CELL_WORKLOADS]
    )
    return [(design, workload, trace_seed) for design, workload in pairs]


def service_pool(seed: int, smoke: bool = False):
    """The unique specs: analytic tables first, then seeded quick grids."""
    grids = SMOKE_GRID_SPECS if smoke else GRID_SPECS
    pool = [{"experiment": name} for name in ANALYTIC]
    pool += [
        {
            "experiment": "grid",
            "scale": "quick",
            "designs": ["SGX_O"],
            "seeds": [1000 * seed + index],
        }
        for index in range(1, grids + 1)
    ]
    return pool


def service_submissions(seed: int, round_index: int, smoke: bool = False):
    """Every unique spec once plus seeded re-draws, in seeded order."""
    pool = service_pool(seed, smoke)
    total = SMOKE_SUBMISSIONS if smoke else SUBMISSIONS
    rng = random.Random("service_mixed:%d:%d" % (seed, round_index))
    submissions = list(pool)
    while len(submissions) < total:
        submissions.append(pool[rng.randrange(len(pool))])
    rng.shuffle(submissions)
    return submissions


def peak_rss_mib() -> float:
    """Max resident set of this process and its reaped children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


# ---------------------------------------------------------------------------
# Workloads: setup(spec) -> state; run(spec, state, checks) -> measurements
# ---------------------------------------------------------------------------


def grid_setup(spec):
    from repro.harness.experiments import run_experiment

    os.makedirs(spec["cache_dir"], exist_ok=True)
    return run_experiment


def grid_run(spec, run_experiment, checks):
    from repro.parallel import EXECUTION_STATS, overridden, shutdown_pool

    expected = spec["expected"]["grid_quick"]
    with overridden(
        jobs=spec["jobs"], cache_enabled=True, cache_dir=spec["cache_dir"]
    ):
        started = time.perf_counter()
        if spec["smoke"]:
            outputs = {
                name: run_experiment(name, scale="quick", quiet=True)
                for name in SMOKE_EXPERIMENTS
            }
        else:
            outputs = run_experiment("all", scale="quick", quiet=True)
        wall = time.perf_counter() - started
    shutdown_pool()
    digests = {
        name: digest(value) for name, value in outputs.items() if name != "plan"
    }
    names = SMOKE_EXPERIMENTS if spec["smoke"] else sorted(expected)
    for name in names:
        checks.check(
            digests.get(name) == expected[name],
            "grid_quick %s %s: digest %s" % (spec["phase"], name, digests.get(name)),
        )
    stats = EXECUTION_STATS
    return {
        "walls": [wall],
        "items": [
            seconds
            for label, seconds in stats.cell_times
            if not label.startswith("mc:")
        ],
        "outputs": digests,
        "info": {
            "cells_executed": stats.cells_executed,
            "cache_hits": stats.cache_hits,
            "utilisation": stats.worker_utilisation,
        },
    }


def cells_setup(spec):
    from repro.secure.designs import design_by_name
    from repro.sim.config import SystemConfig
    from repro.sim.runner import clear_run_memos, run_workload

    config = SystemConfig(accesses_per_core=CELL_ACCESSES)
    cells = [
        (design_by_name(design), workload, trace_seed, config)
        for design, workload, trace_seed in cell_list(spec["seed"], spec["smoke"])
    ]
    return cells, clear_run_memos, run_workload


def cells_run(spec, state, checks):
    from repro.parallel import overridden

    cells, clear_run_memos, run_workload = state
    results = []
    items = []
    with overridden(cache_enabled=False):
        started = time.perf_counter()
        for design, workload, trace_seed, config in cells:
            clear_run_memos()
            cell_started = time.perf_counter()
            result = run_workload(design, workload, config, seed=trace_seed)
            items.append(time.perf_counter() - cell_started)
            results.append(result)
        wall = time.perf_counter() - started
    outputs = {}
    instructions = {}
    ipc = {}
    for result in results:
        label = "%s/%s" % (result.design, result.workload)
        outputs[label] = digest(result.to_payload())
        instructions.setdefault(result.workload, set()).add(result.instructions)
        ipc[label] = result.ipc
    pinned = spec["expected"]["cells_default"]
    for label, value in outputs.items():
        if spec["seed"] == 0:
            checks.check(
                value == pinned[label], "cells_default %s: digest %s" % (label, value)
            )
        else:
            checks.check(ipc[label] > 0, "cells_default %s: ipc %r" % (label, ipc[label]))
    for workload, counts in instructions.items():
        # Every design replays the same trace: retired instructions agree.
        checks.check(
            len(counts) == 1,
            "cells_default %s: instruction counts differ %s" % (workload, counts),
        )
        synergy, baseline = "Synergy/" + workload, "SGX_O/" + workload
        if synergy in ipc and baseline in ipc:
            checks.check(
                ipc[synergy] > ipc[baseline],
                "cells_default %s: Synergy IPC %.4f <= SGX_O %.4f"
                % (workload, ipc[synergy], ipc[baseline]),
            )
    simulated = sum(result.instructions for result in results)
    return {
        "walls": [wall],
        "items": items,
        "outputs": outputs,
        "info": {"sim_minstr_per_s": simulated / 1e6 / wall},
    }


def service_setup(spec):
    from repro.parallel import overridden
    from repro.service.client import ServiceClient
    from repro.service.server import ExperimentService, ServiceConfig

    cache_dir = spec["cache_dir"]
    os.makedirs(cache_dir, exist_ok=True)
    # The worker bridge captures the execution context at construction, so
    # the cell-level run cache lands in this round's private dir too.
    with overridden(cache_dir=cache_dir):
        service = ExperimentService(ServiceConfig(port=0, cache_dir=cache_dir))
    port = service.start_background()
    client = ServiceClient(port=port, timeout_s=120.0)
    if not client.wait_ready(30.0):
        service.stop_background()
        raise RuntimeError("service did not answer /v1/healthz")
    return service, client


def service_teardown(state):
    service, _client = state
    service.stop_background()


def _closed_loop(client, submissions):
    """``CLIENTS`` threads, each sending its next spec once the last returns."""
    records = [None] * len(submissions)
    cursor = iter(range(len(submissions)))
    lock = threading.Lock()

    def client_thread():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            record = {"index": index}
            started = time.perf_counter()
            try:
                ticket = client.submit(submissions[index])
                record["submit_s"] = time.perf_counter() - started
                raw = client.result_bytes(ticket["id"], max_wait_s=120.0)
                record["total_s"] = time.perf_counter() - started
                record["disposition"] = ticket["disposition"]
                record["key"] = ticket["key"]
                record["raw"] = raw
            except Exception as exc:  # noqa: BLE001 - every failure is tallied
                record["error"] = "%s: %s" % (type(exc).__name__, exc)
            records[index] = record

    threads = [threading.Thread(target=client_thread) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(150.0)
    wall = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("service clients did not finish")
    return records, wall


def service_run(spec, state, checks):
    _service, client = state
    submissions = service_submissions(spec["seed"], spec["round"], spec["smoke"])
    records, wall = _closed_loop(client, submissions)
    stats = client.stats()["service"]
    pinned = spec["expected"]["grid_quick"]
    digests_by_key = {}
    for record, submission in zip(records, submissions):
        ok = "error" not in record
        checks.check(ok, "service_mixed submission %d: %s" % (record["index"], record.get("error")))
        if not ok:
            continue
        digests_by_key.setdefault(record["key"], set()).add(
            hashlib.sha256(record["raw"]).hexdigest()
        )
        name = submission["experiment"]
        if name in pinned and record["disposition"] == "accepted":
            # Analytic tables are seed-free: their bytes match the grid pins.
            checks.check(
                digest(json.loads(record["raw"])) == pinned[name],
                "service_mixed %s: result differs from pinned digest" % name,
            )
    for key, seen in digests_by_key.items():
        checks.check(len(seen) == 1, "service_mixed %s: divergent bytes" % key[:12])
    unique = len(service_pool(spec["seed"], spec["smoke"]))
    checks.check(
        stats["runs"] == unique,
        "service_mixed: %d runs for %d unique specs" % (stats["runs"], unique),
    )
    done = [record for record in records if "error" not in record]

    def latencies(field, disposition=None):
        return [
            record[field]
            for record in done
            if disposition is None or record["disposition"] == disposition
        ]

    submitted = len(submissions)
    deduped = stats["coalesced"] + stats["result_cache_hits"]
    return {
        "walls": [wall],
        "items": latencies("total_s"),
        "outputs": {key: sorted(seen)[0] for key, seen in digests_by_key.items()},
        "info": {
            "jobs_per_s": len(done) / wall,
            "job_ms": [value * 1e3 for value in latencies("total_s")],
            "submit_ms": [value * 1e3 for value in latencies("submit_s")],
            "cached_ms": [value * 1e3 for value in latencies("total_s", "cached")],
            "sim_job_s": latencies("total_s", "accepted"),
            "runs": stats["runs"],
            "dedup_ratio": deduped / submitted,
        },
    }


def mc_setup(spec):
    from repro.reliability.montecarlo import (
        MonteCarloConfig,
        simulate_failure_probability,
    )
    from repro.reliability.schemes import (
        CHIPKILL_SCHEME,
        SECDED_SCHEME,
        SYNERGY_SCHEME,
    )

    config = MonteCarloConfig(devices=MC_DEVICES, seed=MC_BASE_SEED + spec["seed"])
    schemes = (SECDED_SCHEME, CHIPKILL_SCHEME, SYNERGY_SCHEME)
    return simulate_failure_probability, config, schemes


def _mc_sweep(spec, state, checks):
    """All three schemes once; returns (wall, per-scheme seconds, failures)."""
    simulate, config, schemes = state
    failures = {}
    items = []
    started = time.perf_counter()
    for scheme in schemes:
        scheme_started = time.perf_counter()
        probability = simulate(scheme, config, jobs=spec["jobs"], cache=False)
        items.append(time.perf_counter() - scheme_started)
        failures[scheme.name] = round(probability * config.devices)
    wall = time.perf_counter() - started
    pinned = spec["expected"]["mc_fleet"]
    for name, count in failures.items():
        if spec["seed"] == 0:
            ok = count == pinned[name]
        else:
            ok = abs(count - pinned[name]) <= MC_SIGMAS * (pinned[name] ** 0.5 + 1)
        checks.check(ok, "mc_fleet %s: %d failures (seed-0 pin %d)" % (name, count, pinned[name]))
    checks.check(
        failures["SECDED"] > failures["Chipkill"] > failures["Synergy"],
        "mc_fleet: scheme ordering broken %s" % failures,
    )
    return wall, items, failures


def mc_run(spec, state, checks):
    from repro.parallel import shutdown_pool

    # The first sweep spawns the worker pool; it is checked but not timed,
    # so the timed sweeps measure the Monte-Carlo engine, not process start.
    warmup_wall, _items, reference = _mc_sweep(spec, state, checks)
    walls = []
    items = []
    for _sweep in range(1 if spec["smoke"] else MC_TIMED_SWEEPS):
        wall, scheme_items, failures = _mc_sweep(spec, state, checks)
        checks.check(failures == reference, "mc_fleet: sweeps disagree %s" % failures)
        walls.append(wall)
        items += scheme_items
    shutdown_pool()
    devices = len(reference) * state[1].devices
    return {
        "walls": walls,
        "work_s": warmup_wall + sum(walls),
        "items": items,
        "outputs": reference,
        "info": {"mc_mdevices_per_s": devices / 1e6 / statistics.median(walls)},
    }


WORKLOADS = {
    "grid_quick": (grid_setup, grid_run, None),
    "cells_default": (cells_setup, cells_run, None),
    "service_mixed": (service_setup, service_run, service_teardown),
    "mc_fleet": (mc_setup, mc_run, None),
}


def main(spec) -> dict:
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
    setup, run, teardown = WORKLOADS[spec["workload"]]
    state = setup(spec)
    report = {"setup_s": time.perf_counter() - _T0}
    checks = Checks()
    try:
        if not spec["setup_only"]:
            spec["expected"] = load_expected()
            report.update(run(spec, state, checks))
    finally:
        if teardown is not None:
            teardown(state)
    report.update(
        attempted=checks.attempted,
        failed=checks.failed,
        errors=checks.errors[:20],
        peak_rss_mib=peak_rss_mib(),
    )
    if tracer is not None:
        report["spans"] = tracer.snapshot()
        tracer.uninstall()
    if not spec["setup_only"]:
        import numpy

        from repro.parallel import code_fingerprint

        report["provenance"] = {
            "numpy": numpy.__version__,
            "code_fingerprint": code_fingerprint(),
        }
    return report


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


if __name__ == "__main__":
    child_spec = json.loads(sys.argv[1])
    try:
        outcome = main(child_spec)
        status = 0
    except Exception as exc:  # noqa: BLE001 - reported to the parent as a failure
        import traceback

        outcome = {"error": "%s: %s" % (type(exc).__name__, exc), "traceback": traceback.format_exc()}
        status = 1
    with open(child_spec["result_path"], "w") as handle:
        json.dump(outcome, handle)
    sys.exit(status)
