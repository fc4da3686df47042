"""Outside-in per-layer tracing for the end-to-end benchmark.

The traced run wraps public entry points of each ``repro`` layer from this
file, before any simulator is built, and records one span per call. A
span's *self time* is its duration minus the time its child spans cover,
so nested layers (the secure engine's ``flush_epoch`` enqueueing into the
DRAM controller, a cell's ``run`` advancing cores) are never counted twice.
Spans are kept per thread (the job service runs simulations on a worker
thread while its event loop probes the result cache) and merged at the end.

What the wrappers cannot see: code inlined into a wrapped caller. The LLC
probes inlined in ``SystemSimulator._read``/``_write`` land in
``cpu.advance``; on fast-path designs the fused writeback drain and miss
expansion closures are bound at engine construction, so their time lands
in whichever wrapped span calls them (``cpu.advance`` for the drain,
``secure.expand`` for the expansion).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

Count = Tuple[str, Callable[[tuple, object], int]]

#: (span name, module, attribute path, counters) for every wrapped entry
#: point. Counters turn a call's arguments/result into units of work.
SPANS: Tuple[Tuple[str, str, str, Tuple[Count, ...]], ...] = (
    (
        "dram.enqueue",
        "repro.dram.controller",
        "MemoryController.enqueue_batch",
        (("requests", lambda args, result: len(result)),),
    ),
    ("dram.process", "repro.dram.controller", "MemoryController.process", ()),
    ("cpu.advance", "repro.cpu.rob", "CoreModel.advance", ()),
    (
        "secure.expand",
        "repro.secure.timing_engine",
        "SecureTimingEngine.expand_read_miss_deferred",
        (),
    ),
    (
        "secure.writeback",
        "repro.secure.timing_engine",
        "SecureTimingEngine.writeback",
        (),
    ),
    (
        "secure.flush_epoch",
        "repro.secure.timing_engine",
        "SecureTimingEngine.flush_epoch",
        (),
    ),
    # The name the runner resolves at call time, not the generator module's.
    ("workloads.trace", "repro.sim.runner", "generate_trace", ()),
    ("sim.warmup", "repro.sim.system", "SystemSimulator.warmup", ()),
    ("sim.run", "repro.sim.system", "SystemSimulator.run", ()),
    ("sim.energy", "repro.sim.runner", "system_energy", ()),
    ("sim.to_payload", "repro.sim.results", "RunResult.to_payload", ()),
    ("sim.from_payload", "repro.sim.results", "RunResult.from_payload", ()),
    (
        "parallel.cache_get",
        "repro.parallel.runcache",
        "RunCache.get",
        (("hits", lambda args, result: int(result is not None)),),
    ),
    ("parallel.cache_put", "repro.parallel.runcache", "RunCache.put", ()),
    ("harness.plan", "repro.harness.plan", "plan_experiments", ()),
    ("harness.execute_plan", "repro.harness.plan", "execute_plan", ()),
    (
        "reliability.mc",
        "repro.reliability.montecarlo",
        "simulate_shards_batched",
        (
            ("shards", lambda args, result: len(args[2])),
            ("devices", lambda args, result: sum(size for _id, size in args[2])),
        ),
    ),
)

#: Layer share name -> the spans whose self time it sums. Together with
#: ``unattributed_share`` these partition the traced wall time.
SHARES: Dict[str, Tuple[str, ...]] = {
    "dram.share": ("dram.enqueue", "dram.process"),
    "cpu.advance_share": ("cpu.advance",),
    "secure.expand_share": (
        "secure.expand",
        "secure.writeback",
        "secure.flush_epoch",
    ),
    "workloads.trace_share": ("workloads.trace",),
    "sim.warmup_share": ("sim.warmup",),
    "sim.run_share": ("sim.run",),
    "sim.package_share": ("sim.energy", "sim.to_payload", "sim.from_payload"),
    "parallel.share": ("parallel.cache_get", "parallel.cache_put"),
    "harness.share": ("harness.plan", "harness.execute_plan"),
    "reliability.share": ("reliability.mc",),
}


class Tracer:
    """Per-thread span stacks plus per-span call/time/unit tables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, list]] = []
        self._installed: List[Tuple[object, str, object]] = []

    def _new_thread_state(self) -> Tuple[List[float], Dict[str, list]]:
        state: Tuple[List[float], Dict[str, list]] = ([], {})
        self._local.state = state
        with self._lock:
            self._tables.append(state[1])
        return state

    def wrap(
        self, name: str, fn: Callable, counts: Sequence[Count] = ()
    ) -> Callable:
        """``fn`` recording one ``name`` span per call.

        The hot path (the secure engine's expansion runs once per LLC miss)
        is kept to one thread-local read, two clock reads and list updates.
        """
        clock = self._clock
        local = self._local
        new_state = self._new_thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack, table = local.state
            except AttributeError:
                stack, table = new_state()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                try:
                    record = table[name]
                except KeyError:
                    record = table[name] = [0, 0.0, 0.0, {}]
                record[0] += 1
                record[1] += elapsed
                record[2] += children
            if counts:
                tally = record[3]
                for counter, count in counts:
                    tally[counter] = tally.get(counter, 0) + count(args, result)
            return result

        return traced

    def install(
        self, owner: object, attr: str, name: str, counts: Sequence[Count] = ()
    ) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a traced
        version, keeping classmethod/staticmethod descriptors intact."""
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(name, raw.__func__, counts))
        else:
            replacement = self.wrap(name, raw, counts)
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to the exact original object."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Spans merged across threads: calls, total/self seconds, units."""
        with self._lock:
            tables = list(self._tables)
        merged: Dict[str, Dict[str, object]] = {}
        for table in tables:
            for name, (calls, total, children, units) in table.items():
                merge_span(merged, name, calls, total, total - children, units)
        return merged


def merge_span(
    into: Dict[str, Dict[str, object]],
    name: str,
    calls: int,
    total_s: float,
    self_s: float,
    units: Dict[str, int],
) -> None:
    """Add one span record into a merged table (threads, children)."""
    entry = into.setdefault(
        name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": {}}
    )
    entry["calls"] += calls
    entry["total_s"] += total_s
    entry["self_s"] += self_s
    for unit, value in units.items():
        entry["units"][unit] = entry["units"].get(unit, 0) + value


def merge_snapshots(
    snapshots: Iterable[Dict[str, Dict[str, object]]]
) -> Dict[str, Dict[str, object]]:
    """Sum span tables from several traced children."""
    merged: Dict[str, Dict[str, object]] = {}
    for snapshot in snapshots:
        for name, span in snapshot.items():
            merge_span(
                merged,
                name,
                span["calls"],
                span["total_s"],
                span["self_s"],
                span["units"],
            )
    return merged


def install_layers(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`SPANS` (imports the layers)."""
    for name, module, path, counts in SPANS:
        owner: object = importlib.import_module(module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        tracer.install(owner, attr, name, counts)


def layer_metrics(
    spans: Dict[str, Dict[str, object]], wall_s: float
) -> Dict[str, float]:
    """Per-layer metrics from merged spans over ``wall_s`` traced seconds.

    Layers a workload never reaches read 0.
    """

    def self_s(*names: str) -> float:
        return sum(spans[name]["self_s"] for name in names if name in spans)

    def calls(name: str) -> int:
        return spans[name]["calls"] if name in spans else 0

    def units(name: str, unit: str) -> int:
        return spans[name]["units"].get(unit, 0) if name in spans else 0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    requests = units("dram.enqueue", "requests")
    expand_calls = calls("secure.expand") + calls("secure.writeback")
    gets = calls("parallel.cache_get")
    hits = units("parallel.cache_get", "hits")
    devices = units("reliability.mc", "devices")
    metrics = {
        "dram.enqueue_s": self_s("dram.enqueue"),
        "dram.process_s": self_s("dram.process"),
        "dram.requests": requests,
        "dram.process_us_per_request": ratio(self_s("dram.process") * 1e6, requests),
        "cpu.advance_s": self_s("cpu.advance"),
        "cpu.advance_calls": calls("cpu.advance"),
        "secure.expand_s": self_s(*SHARES["secure.expand_share"]),
        "secure.expand_calls": expand_calls,
        "secure.expand_us_per_call": ratio(
            self_s(*SHARES["secure.expand_share"]) * 1e6, expand_calls
        ),
        "workloads.trace_s": self_s("workloads.trace"),
        "sim.warmup_s": self_s("sim.warmup"),
        "sim.run_s": self_s("sim.run"),
        "sim.cells": calls("sim.run"),
        "sim.warm_memo_hit_ratio": (
            1.0 - ratio(calls("sim.warmup"), calls("sim.run"))
            if calls("sim.run")
            else 0.0
        ),
        "sim.package_s": self_s(*SHARES["sim.package_share"]),
        "parallel.cache_get_s": self_s("parallel.cache_get"),
        "parallel.cache_put_s": self_s("parallel.cache_put"),
        "parallel.cache_hits": hits,
        "parallel.cache_misses": gets - hits,
        "harness.plan_s": self_s(*SHARES["harness.share"]),
        "reliability.mc_s": self_s("reliability.mc"),
        "reliability.shards": units("reliability.mc", "shards"),
        "reliability.us_per_kdevice": ratio(
            self_s("reliability.mc") * 1e6, devices / 1000.0
        ),
    }
    attributed = 0.0
    for share, names in SHARES.items():
        metrics[share] = ratio(self_s(*names), wall_s)
        attributed += metrics[share]
    metrics["unattributed_share"] = 1.0 - attributed if wall_s else 0.0
    return metrics
