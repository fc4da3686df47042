"""Deterministic microbenchmarks for the simulator's hot paths.

Each case exercises exactly one per-event code path in isolation — the
paths ``tools/profile_run.py`` shows dominating end-to-end runtime — with
a fixed synthetic workload (LCG address streams, no wall-clock or RNG
dependence), so per-op timings are comparable across runs and across code
versions:

* ``cache_access``      — :class:`SetAssociativeCache` lookup/allocate
* ``controller_schedule`` — one ``enqueue_batch`` + the FR-FCFS epoch
  kernel scheduling it to completion (the production DRAM path)
* ``rob_advance``       — trace-driven core fetch/retire with resolved reads
* ``miss_expansion``    — secure-engine metadata expansion of LLC misses
  (Synergy through the production fused path, flushed per epoch); its
  scalar oracle lives with the tests, not here
* ``telemetry_record``  — counter/histogram recording through a registry
* ``pool_dispatch``     — repeated small ``parallel_map`` fan-outs through
  the shared persistent pool (spawn amortisation + per-map round-trip)
* ``trace_generate``    — per-record workload-trace synthesis (sphinx3,
  50k); its per-record oracle lives with the tests, not here

Cases return their op count; the harness times them (best-of-N
``perf_counter``, garbage collection suspended per round as ``timeit``
does) and reports microseconds per op. Next to each time it reports the
case's Python function calls per op, counted by one extra cProfile run:
a count repeats exactly from run to run, so it can explain a time that
host noise hides. It is reported, never gated. ``tools/profile_run.py
--micro`` profiles one case.

The CLI times each case in a fresh interpreter (``--case`` alone times
one case in this one). It is also CI's regression gate: with
``--baseline`` it fails when a gated case runs more than 25% slower per
op than the baseline snapshot's ``micro`` section, or when any case runs
no ops::

    PYTHONPATH=src python -m repro.perf.microbench --repeats 40 \
        --baseline BENCH_PR6.json > micro.json
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

#: LCG constants (glibc); enough quality for address-stream mixing.
_LCG_A = 1103515245
_LCG_C = 12345
_LCG_M = 1 << 31


def _addresses(count: int, footprint: int, seed: int = 17) -> List[int]:
    """A reproducible pseudo-random line-address stream."""
    state = seed
    out = []
    append = out.append
    for _ in range(count):
        state = (state * _LCG_A + _LCG_C) % _LCG_M
        append(state % footprint)
    return out


# ---------------------------------------------------------------------------
# Cases — each builds its state, runs the hot loop, returns the op count.
# ---------------------------------------------------------------------------


def cache_access() -> int:
    """LLC-shaped lookups over a footprint 2x the cache (hit/miss mix)."""
    from repro.cache.setassoc import SetAssociativeCache

    cache = SetAssociativeCache(4096, 8, "microbench")
    stream = _addresses(50_000, 8192)
    access = cache.access
    write = False
    for line in stream:
        access(line, write)
        write = not write
    return len(stream)


def controller_schedule() -> int:
    """Enqueue a request stream as one epoch and schedule it to completion."""
    from repro.dram.controller import MemoryController, RequestKind
    from repro.dram.timing import MemoryConfig

    controller = MemoryController(MemoryConfig())
    stream = _addresses(20_000, 1 << 22, seed=29)
    read = RequestKind.READ
    write = RequestKind.WRITE
    specs = [
        (write if index % 3 == 0 else read, line, 2 * index, "data", 0)
        for index, line in enumerate(stream)
    ]
    controller.enqueue_batch(specs)
    controller.process()
    return len(stream)


def rob_advance() -> int:
    """Drive one core through a synthetic trace with instantly-resolved reads.

    The trace is assembled columnarly (``Trace.from_arrays`` over stdlib
    arrays) so the case times the batch-advance stepper, not 30k
    ``TraceRecord`` constructions; the stream (gap = line % 7, write when
    line % 4 == 0) matches the record-based construction this case used
    before it was columnar.
    """
    from array import array

    from repro.cpu.rob import AccessHandle, CoreModel
    from repro.cpu.trace import Trace

    lines = array("q", _addresses(30_000, 1 << 20, seed=41))
    trace = Trace.from_arrays(
        array("q", [line % 7 for line in lines]),
        array("b", [line % 4 == 0 for line in lines]),
        lines,
        "microbench",
    )

    def read_fn(_line: int, cpu_time: float, _core: int) -> AccessHandle:
        return AccessHandle(cpu_time + 200.0)

    def write_fn(_line: int, _cpu_time: float, _core: int) -> None:
        return None

    core = CoreModel(0, trace, read_fn, write_fn)
    while not core.done:
        core.advance()
    return len(trace)


def miss_expansion() -> int:
    """Secure-engine metadata expansion (Synergy) — the production path.

    The fused expansion with a flush every 64 misses, mirroring how
    ``SystemSimulator`` drives the engine (expansions buffer per epoch,
    one ``enqueue_batch`` flush at resolve)."""
    from repro.cache.hierarchy import CacheHierarchy
    from repro.dram.controller import MemoryController
    from repro.dram.timing import MemoryConfig
    from repro.secure.designs import SYNERGY
    from repro.secure.timing_engine import SecureTimingEngine

    engine = SecureTimingEngine(
        SYNERGY, CacheHierarchy(), MemoryController(MemoryConfig()), 1 << 24
    )
    stream = _addresses(10_000, 1 << 22, seed=53)
    expand = engine.expand_read_miss_deferred
    flush = engine.flush_epoch
    when = 0
    pending = 0
    for line in stream:
        expand(line, when, 0)
        when += 10
        pending += 1
        if pending == 64:
            flush()
            pending = 0
    flush()
    return len(stream)


def telemetry_record() -> int:
    """Counter increments + histogram records through a scoped registry."""
    from repro.telemetry import scoped_registry

    iterations = 50_000
    with scoped_registry() as registry:
        counter = registry.counter("microbench.events")
        histogram = registry.histogram(
            "microbench.latency", (16, 32, 64, 128, 256, 512)
        )
        inc = counter.inc
        record = histogram.record
        value = 3
        for _ in range(iterations):
            inc()
            record(value)
            value = (value * 5 + 1) % 600
    return 2 * iterations


def _pool_noop(value: int) -> int:
    """Worker-side payload for ``pool_dispatch``: pure dispatch overhead."""
    return value


def pool_dispatch() -> int:
    """Round-trip latency of the persistent pool across repeated maps.

    Times what a whole-grid run amortises: many small ``parallel_map``
    fan-outs dispatched into the *same* warm pool (spawn paid once, on
    the first map, inside the timed region — exactly the cost the
    per-call executor used to pay on every map)."""
    from repro.parallel import parallel_map, shutdown_pool

    maps = 20
    items = list(range(32))
    total = 0
    try:
        for _ in range(maps):
            total += len(parallel_map(_pool_noop, items, jobs=2))
    finally:
        shutdown_pool()
    return total


#: Profile/length for trace generation. 50k records is a production-scale
#: trace: it spans dozens of decode blocks. sphinx3 exercises all three
#: locality arms (sequential runs, hot-set draws, page bursts), so the
#: decoder walks its full dispatch rather than one specialised branch.
_TRACE_BENCH_PROFILE = "sphinx3"
_TRACE_BENCH_ACCESSES = 50_000


def trace_generate() -> int:
    """Per-record trace synthesis (the production ``generate_trace``)."""
    from repro.workloads.generator import generate_trace
    from repro.workloads.profiles import profile_by_name

    profile = profile_by_name(_TRACE_BENCH_PROFILE)
    trace = generate_trace(profile, _TRACE_BENCH_ACCESSES)
    return len(trace)


CASES: Dict[str, Callable[[], int]] = {
    "cache_access": cache_access,
    "controller_schedule": controller_schedule,
    "rob_advance": rob_advance,
    "miss_expansion": miss_expansion,
    "telemetry_record": telemetry_record,
    "pool_dispatch": pool_dispatch,
    "trace_generate": trace_generate,
}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MicroResult:
    """Best-of-N timing of one case, and its call count when taken."""

    name: str
    ops: int
    best_s: float
    #: Python function calls of one run (:func:`count_calls`), if counted.
    calls: Optional[int] = None

    @property
    def per_op_us(self) -> float:
        """Microseconds per operation (best round)."""
        return 1e6 * self.best_s / self.ops if self.ops else 0.0

    def to_payload(self) -> Dict[str, float]:
        """JSON-ready summary."""
        payload = {
            "ops": self.ops,
            "best_s": self.best_s,
            "per_op_us": self.per_op_us,
        }
        if self.calls is not None:
            payload["calls_per_op"] = self.calls / self.ops if self.ops else 0.0
        return payload


def run_case(name: str, repeats: int = 3) -> MicroResult:
    """Time one case, best of ``repeats`` rounds.

    Garbage collection is suspended around each timed round (the same
    protocol ``timeit`` uses): the allocation-heavy cases otherwise spend
    a third of their wall time in collector sweeps triggered at arbitrary
    op boundaries, which measures the collection cadence rather than the
    code under test. Collection runs between rounds so no round starts
    with another round's garbage.
    """
    import gc

    case = CASES[name]
    best = None
    ops = 0
    was_enabled = gc.isenabled()
    try:
        for _ in range(max(1, repeats)):
            gc.collect()
            gc.disable()
            start = perf_counter()
            ops = case()
            elapsed = perf_counter() - start
            if was_enabled:
                gc.enable()
            if best is None or elapsed < best:
                best = elapsed
    finally:
        if was_enabled:
            gc.enable()
    return MicroResult(name, ops, best or 0.0)


def count_calls(name: str) -> int:
    """Python function calls (builtins included) one run of a case makes.

    Counted by cProfile, after the timed rounds have taken the case's lazy
    imports, so the count is the case's steady-state work. Only
    ``pool_dispatch``, whose parent waits on its workers, may vary.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.runcall(CASES[name])
    return pstats.Stats(profiler).total_calls


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------

#: The cases the gate fails on: the ones earlier changes deliberately
#: optimised (the DRAM epoch kernel, the fused miss expansion, the
#: batch-advance ROB and block-streamed trace synthesis). The others are
#: too noisy on shared runners to gate on, so they only warn.
GATED_CASES = ("controller_schedule", "miss_expansion", "rob_advance", "trace_generate")

#: Slower per op than the baseline by more than this ratio warns, and
#: fails the gate for a gated case.
REGRESSION_RATIO = 1.25


def time_fresh(names: Sequence[str], repeats: int) -> Dict[str, Dict[str, float]]:
    """Time each case in its own pristine interpreter.

    In-process timings are sensitive to what the host process imported
    first: module volume shifts the allocator layout the vectorised cases
    stream through, inflating their per-op time by tens of percent. One
    ``python -m repro.perf.microbench --case NAME`` per case makes the
    numbers a property of the case.
    """
    section: Dict[str, Dict[str, float]] = {}
    for name in names:
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.perf.microbench",
                "--case", name, "--repeats", str(repeats),
            ],
            check=True, capture_output=True, text=True,
        )
        section.update(json.loads(result.stdout))
    return section


def verdict(
    current: Dict[str, Dict[str, float]], baseline: Dict[str, Dict[str, float]]
) -> Dict[str, object]:
    """Compare per-op times with a baseline ``micro`` section.

    Returns the ratio (current / baseline) of every case in both, the
    cases that fail (gated, slower than :data:`REGRESSION_RATIO`) or warn
    (ungated, as slow), the ``new`` cases the baseline lacks and the
    baseline cases that were ``not_run``. A case that ran no ops fails,
    gated or not and baselined or not: its per-op time reads 0, which
    would otherwise pass as a speedup. Only ``failed`` fails the gate.
    """
    ratios = {}
    failed = {name for name, payload in current.items() if payload["ops"] <= 0}
    warned = []
    for name in sorted(set(current) & set(baseline)):
        ratio = current[name]["per_op_us"] / baseline[name]["per_op_us"]
        ratios[name] = ratio
        if ratio > REGRESSION_RATIO and name not in failed:
            if name in GATED_CASES:
                failed.add(name)
            else:
                warned.append(name)
    return {
        "ratios": ratios,
        "failed": sorted(failed),
        "warned": warned,
        "new": sorted(set(current) - set(baseline)),
        "not_run": sorted(set(baseline) - set(current)),
    }


def gate(
    baseline_path: str, names: Sequence[str], repeats: int
) -> Dict[str, object]:
    """Time ``names`` fresh, compare with the baseline, report to stderr.

    Returns the JSON report: this run's ``micro`` section (the shape of
    the baseline's, so a report can serve as a later baseline), both
    sides' provenance and the :func:`verdict`.
    """
    with open(baseline_path) as handle:
        snapshot = json.load(handle)
    current = time_fresh(names, repeats)
    result = verdict(current, snapshot["micro"])
    report = {
        "micro": current,
        "baseline": {
            "path": baseline_path,
            **{key: snapshot.get(key) for key in ("python", "code_fingerprint", "timestamp")},
        },
        "host": {"python": platform.python_version(), "cpu_count": os.cpu_count()},
        **result,
    }
    _print_report(report)
    return report


def _print_report(report: Dict) -> None:
    base = report["baseline"]
    host = report["host"]
    lines = [
        "baseline %s: python %s, code %s, taken %s"
        % (base["path"], base["python"], base["code_fingerprint"], base["timestamp"]),
        "this host: python %s, %s CPU(s)" % (host["python"], host["cpu_count"]),
    ]
    for name, ratio in report["ratios"].items():
        flag = ""
        if report["micro"][name]["ops"] <= 0:
            flag = "  FAIL: ran no ops"
        elif name in report["failed"]:
            flag = "  FAIL: slower than %.2fx" % REGRESSION_RATIO
        elif name in report["warned"]:
            flag = "  WARN: slower than %.2fx" % REGRESSION_RATIO
        payload = report["micro"][name]
        lines.append(
            "  %-24s %8.3f us/op (%.2fx) %9.1f calls/op%s"
            % (
                name,
                payload["per_op_us"],
                ratio,
                payload.get("calls_per_op", 0.0),
                flag,
            )
        )
    lines += [
        "  %-24s %8.3f us/op (new case) %9.1f calls/op"
        % (
            name,
            report["micro"][name]["per_op_us"],
            report["micro"][name].get("calls_per_op", 0.0),
        )
        for name in report["new"]
    ]
    lines += ["  %-24s (in the baseline, not run)" % name for name in report["not_run"]]
    if report["failed"]:
        lines.append(
            "FAIL: gated case(s) slower than %.2fx, or case(s) that ran no ops: %s"
            % (REGRESSION_RATIO, ", ".join(report["failed"]))
        )
    print("\n".join(lines), file=sys.stderr)


def _main(argv: Optional[List[str]] = None) -> int:
    """CLI: time the cases and print a JSON payload map.

    Every case runs in a fresh interpreter; ``--case`` alone times that
    one case in this interpreter and then counts its calls (the
    fresh-interpreter path shells out here once per case).
    ``--baseline`` adds the gate's comparison.
    """
    import argparse

    parser = argparse.ArgumentParser(description=_main.__doc__)
    parser.add_argument("--case", choices=sorted(CASES), default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="print the JSON report and exit 1 if a gated case (%s) is more "
        "than %.0f%%%% slower per op than this snapshot's micro section, or if "
        "any case ran no ops"
        % (", ".join(GATED_CASES), 100 * (REGRESSION_RATIO - 1)),
    )
    args = parser.parse_args(argv)
    if args.case and not args.baseline:
        result = run_case(args.case, args.repeats)
        result = replace(result, calls=count_calls(args.case))
        print(json.dumps({result.name: result.to_payload()}))
        return 0
    names = [args.case] if args.case else sorted(CASES)
    if args.baseline:
        report = gate(args.baseline, names, args.repeats)
        print(json.dumps(report, indent=2))
        return 1 if report["failed"] else 0
    print(json.dumps(time_fresh(names, args.repeats)))
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
