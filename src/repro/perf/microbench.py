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
* ``trace_generate``    — block-streamed workload-trace synthesis (sphinx3,
  50k); its per-record oracle lives with the tests, not here

Cases return their op count; the harness times them (best-of-N
``perf_counter``, garbage collection suspended per round as ``timeit``
does) and reports microseconds per op. Consumed by the pytest wrappers in
``benchmarks/micro`` and by ``tools/bench_snapshot.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List

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

    The trace is assembled columnarly (``Trace.from_arrays``) so the case
    times the batch-advance stepper, not 30k ``TraceRecord`` constructions;
    the stream (gap = line % 7, write when line % 4 == 0) matches the
    record-based construction this case used before it was columnar.
    """
    import numpy as np

    from repro.cpu.rob import AccessHandle, CoreModel
    from repro.cpu.trace import Trace

    lines = np.array(_addresses(30_000, 1 << 20, seed=41), dtype=np.int64)
    trace = Trace.from_arrays(
        lines % 7, (lines % 4 == 0).astype(np.int8), lines, "microbench"
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
    """Counter increments + histogram records through an enabled registry."""
    from repro.telemetry import scoped_registry

    iterations = 50_000
    with scoped_registry(enabled=True) as registry:
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
    per-call executor used to pay on every map). Serial-path comparison
    comes from the per-op numbers at jobs=1 in ``bench_snapshot``."""
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
    """Block-streamed trace synthesis (the production ``generate_trace``)."""
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
    """Best-of-N timing of one case."""

    name: str
    ops: int
    best_s: float

    @property
    def per_op_us(self) -> float:
        """Microseconds per operation (best round)."""
        return 1e6 * self.best_s / self.ops if self.ops else 0.0

    def to_payload(self) -> Dict[str, float]:
        """JSON-ready summary."""
        return {
            "ops": self.ops,
            "best_s": self.best_s,
            "per_op_us": self.per_op_us,
        }


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


def run_all(repeats: int = 3) -> List[MicroResult]:
    """Time every case in name order."""
    return [run_case(name, repeats) for name in sorted(CASES)]


def _main(argv: "List[str] | None" = None) -> int:
    """CLI: time one case (or all) and print a JSON payload map.

    Exists so harnesses can time each case in a *pristine* interpreter:
    in-process timings are sensitive to what the host process imported
    first — module volume shifts the allocator layout the vectorised
    cases stream through, inflating their per-op time by tens of percent
    (see ``tools/bench_snapshot.py``, which shells out here per case).
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(description=_main.__doc__)
    parser.add_argument("--case", choices=sorted(CASES), default=None)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    results = (
        [run_case(args.case, args.repeats)]
        if args.case
        else run_all(args.repeats)
    )
    print(json.dumps({r.name: r.to_payload() for r in results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
