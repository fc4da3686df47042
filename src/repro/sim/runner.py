"""Run design x workload grids and collect results for the harness.

``run_suite`` is the fan-out point for every performance figure: each
(design, workload) cell is an independent pure function of its arguments,
so cells run across a process pool (``jobs``) and bit-identical results
merge in grid order regardless of completion order. Finished cells are
stored in the content-addressed run cache (see ``repro.parallel.runcache``)
and reused across figures — the SGX_O baseline recurs in Figs. 8/9/10/13/14
but is simulated once per code version. The run cache is the only tier of
cell results: with caching off (``cache=False``), no result is reused.
"""

from __future__ import annotations

import contextlib
from array import array
from itertools import chain, islice
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.sanitizer import get_sanitizer
from repro.cpu.trace import Trace
from repro.parallel import parallel_map, resolve_cache, resolve_jobs
from repro.parallel.runcache import RunCache, cache_key
from repro.secure.designs import SecureDesign
from repro.sim.config import SystemConfig
from repro.sim.energy import SystemEnergyParams, system_energy
from repro.sim.results import ResultTable, RunResult
from repro.sim.system import SystemSimulator
from repro.telemetry import TELEMETRY_AGGREGATE, MetricsSnapshot, scoped_registry
from repro.workloads.generator import generate_trace
from repro.workloads.mixes import MIXES
from repro.workloads.profiles import WorkloadProfile, profile_by_name


#: One progress event: plain JSON-able dict. Kinds emitted by run_suite:
#: ``suite`` (total cells, pending count) once per call, then one ``cell``
#: per finished cell — label, done/total counters, whether it was a cache
#: hit, worker seconds, and the cell's deterministic telemetry headline.
ProgressCallback = Callable[[Dict[str, object]], None]

#: The process's progress hook (one simulation runs per process).
_PROGRESS: Optional[ProgressCallback] = None


@contextlib.contextmanager
def cell_progress(callback: Optional[ProgressCallback]) -> Iterator[None]:
    """Install ``callback`` as the progress hook for the block.

    Every ``run_suite`` call in the block (however deep inside an
    experiment function) streams its per-cell completion events through the
    callback — the mechanism the experiment service uses for live job
    progress. Events arrive in deterministic order (grid-scan order for
    cache hits, submission order for executed cells) at any ``jobs`` count.
    An exception raised by the callback aborts the suite — cooperative
    cancellation.
    """
    global _PROGRESS
    previous = _PROGRESS
    _PROGRESS = callback
    try:
        yield
    finally:
        _PROGRESS = previous


def emit_progress(event: Dict[str, object]) -> None:
    """Send one event through the progress hook, if installed.

    Public so long-running experiments outside ``run_suite`` (Monte-Carlo
    sweeps, custom loops) can report progress and observe cancellation.
    """
    callback = _PROGRESS
    if callback is not None:
        callback(dict(event))


#: Memo for generated traces. Grid runs regenerate the same per-core
#: traces for every design sharing a workload (designs outer, workloads
#: inner), and trace synthesis is a measurable slice of each cell;
#: generate_trace is a pure function of the key below, and traces are
#: immutable (typed ``array`` columns that no consumer mutates), so sharing
#: one instance across simulators is safe. Bounded by wholesale clearing —
#: the access pattern is a small working set per experiment, not an
#: LRU-worthy stream.
_TRACE_MEMO_MAX = 256
_TRACE_MEMO: Dict[Tuple[object, ...], Trace] = {}


def _memoised_trace(
    profile: WorkloadProfile,
    accesses: int,
    core: int,
    base_line: int,
    seed_salt: object,
    scale_divisor: int,
) -> Trace:
    memo = _TRACE_MEMO
    key = (profile, accesses, core, base_line, seed_salt, scale_divisor)
    trace = memo.get(key)
    if trace is None:
        trace = generate_trace(
            profile,
            accesses,
            core_id=core,
            base_line=base_line,
            seed_salt=seed_salt,
            scale_divisor=scale_divisor,
        )
        if len(memo) >= _TRACE_MEMO_MAX:
            memo.clear()
        memo[key] = trace
    return trace


def _traces_for(
    workload: Union[str, WorkloadProfile],
    config: SystemConfig,
    seed_salt: object = "trace",
) -> Tuple[str, List[Trace]]:
    """Per-core traces: rate mode for a profile, one-each for a mix name."""
    if isinstance(workload, str) and workload in MIXES:
        names = MIXES[workload]
        profiles = [profile_by_name(name) for name in names]
        label = workload
    else:
        profile = (
            profile_by_name(workload) if isinstance(workload, str) else workload
        )
        profiles = [profile] * config.num_cores
        label = profile.name
    traces = [
        _memoised_trace(
            profiles[core],
            config.accesses_per_core,
            core,
            core * config.lines_per_core,
            seed_salt,
            config.cache_scale,
        )
        for core in range(config.num_cores)
    ]
    return label, traces


#: Memo for post-warmup cache state. Warmup is a pure function of (warm
#: traces, cache geometry, the design flags that steer the metadata walk):
#: designs sharing those flags reach byte-identical cache dictionaries, so
#: grid runs restore the snapshot instead of replaying the warm traces.
#: Each snapshot is packed into flat columns, one triple per cache (see
#: :func:`_pack_sets`), so it holds no per-set dict and no tag int objects
#: once the simulator that produced it is gone.
_WARM_MEMO_MAX = 64

#: One cache's packed state: per-set way counts, the tags of every set in
#: LRU-to-MRU order, and one dirty byte per tag.
PackedSets = Tuple[bytes, "array[int]", bytes]

_WARM_MEMO: Dict[Tuple[object, ...], Tuple[PackedSets, PackedSets]] = {}


def _pack_sets(sets: List[Dict[int, bool]]) -> PackedSets:
    """Pack a cache's per-set ``tag -> dirty`` dicts into flat columns.

    Way counts are single bytes: a set holds at most its associativity.
    """
    return (
        bytes(map(len, sets)),
        array("q", chain.from_iterable(sets)),
        bytes(chain.from_iterable(map(dict.values, sets))),
    )


def _restore_sets(sets: List[Dict[int, bool]], packed: PackedSets) -> None:
    """Refill empty per-set dicts from :func:`_pack_sets` columns.

    Entries go back in their packed (insertion) order, which *is* the LRU
    state, so the restored caches are identical to the packed ones.
    """
    sizes, tags, dirty = packed
    entries = zip(tags, map(bool, dirty))
    for ways, size in zip(sets, sizes):
        ways.update(islice(entries, size))


def _warm_key(
    design: SecureDesign,
    label: str,
    config: SystemConfig,
    seed: Optional[int],
):
    """Memo key: everything the post-warmup cache state depends on."""
    caches = config.caches
    return (
        label,
        seed,
        config.num_cores,
        config.accesses_per_core,
        config.lines_per_core,
        config.num_data_lines,
        config.cache_scale,
        caches.llc_bytes,
        caches.llc_associativity,
        caches.metadata_bytes,
        caches.metadata_associativity,
        design.encrypted,
        design.counters_in_llc,
        design.mac_location,
        design.macs_in_llc,
        design.tree_kind,
        design.counter_mode,
    )


def _warm_simulator(
    sim: SystemSimulator,
    design: SecureDesign,
    label: str,
    config: SystemConfig,
    warmup_traces: List[Trace],
    seed: Optional[int] = None,
) -> None:
    """Warm ``sim``'s caches, through the memo when a snapshot exists."""
    memo = _WARM_MEMO
    key = _warm_key(design, label, config, seed)
    cached = memo.get(key)
    llc_sets = sim.hierarchy.llc._sets
    md_sets = sim.hierarchy.metadata_cache._sets
    if cached is None:
        sim.warmup(warmup_traces)
        if len(memo) >= _WARM_MEMO_MAX:
            memo.clear()
        memo[key] = (_pack_sets(llc_sets), _pack_sets(md_sets))
        return
    # Fresh caches are empty, so the restore reproduces the snapshot's
    # entries in insertion order — bit-identical LRU state. Stats stay
    # zero, exactly where warmup's trailing resets would leave them.
    _restore_sets(llc_sets, cached[0])
    _restore_sets(md_sets, cached[1])


def clear_run_memos() -> None:
    """Drop the process's memos: generated traces and warm cache state.

    Benchmarks and tests that time cold cells call this first; nothing in the
    memos is observable in results — cells are pure — so clearing is
    always safe, merely slower. Cell results are never memoised in
    memory: the run cache (``repro.parallel.runcache``) is their only
    tier, so ``cache=False`` reuses no result.
    """
    _TRACE_MEMO.clear()
    _WARM_MEMO.clear()


def run_workload(
    design: SecureDesign,
    workload: Union[str, WorkloadProfile],
    config: SystemConfig = SystemConfig(),
    energy_params: Optional[SystemEnergyParams] = None,
    seed: Optional[int] = None,
) -> RunResult:
    """Simulate one (design, workload) pair and package the result.

    The simulation runs under its own telemetry scope: every instrumented
    component constructed here registers into a fresh per-cell registry,
    and the snapshot rides on :attr:`RunResult.telemetry` — into the run
    cache and back across process-pool boundaries.

    ``seed`` re-salts the trace-synthesis streams (``None`` keeps the
    default salts): the ``grid`` experiment's way of asking for replicate
    runs over distinct, fully deterministic trace realisations.
    """
    trace_salt: object = "trace" if seed is None else ("trace", seed)
    warmup_salt: object = "warmup" if seed is None else ("warmup", seed)
    label, traces = _traces_for(workload, config, trace_salt)
    _label, warmup_traces = _traces_for(workload, config, seed_salt=warmup_salt)
    with scoped_registry() as registry:
        sim = SystemSimulator(design, traces, config)
        if config.warm_caches and warmup_traces:
            _warm_simulator(sim, design, label, config, warmup_traces, seed)
        sim.run()
        energy = system_energy(sim, energy_params or SystemEnergyParams())
        telemetry = registry.snapshot().to_payload()
    return RunResult(
        design=design.name,
        workload=label,
        ipc=sim.ipc,
        cpu_cycles=sim.cpu_cycles,
        instructions=sim.total_instructions,
        traffic=sim.traffic(),
        origin_traffic={
            key: float(count)
            for key, count in sorted(sim.engine.origin_counts.items())
        },
        energy_j=energy.total_j,
        power_w=energy.average_power_w,
        edp=energy.edp,
        llc_hit_rate=sim.hierarchy.llc.hit_rate,
        metadata_hit_rate=sim.hierarchy.metadata_cache.hit_rate,
        telemetry=telemetry,
    )


def _workload_label(workload: Union[str, WorkloadProfile]) -> str:
    return workload if isinstance(workload, str) else workload.name


def cell_key(
    design: SecureDesign,
    workload: Union[str, WorkloadProfile],
    config: SystemConfig,
    energy_params: Optional[SystemEnergyParams] = None,
    seed: Optional[int] = None,
) -> str:
    """Content address of one grid cell (see repro.parallel.runcache).

    Exactly the key ``run_suite`` consults and the whole-run planner
    dedups on, so a cell the planner executed is a guaranteed run-cache
    hit when a figure later assembles it.
    """
    return cache_key(
        "run_workload",
        design=design,
        workload=workload,
        config=config,
        energy=energy_params or SystemEnergyParams(),
        seed=seed,
    )


def _run_cell(
    task: Tuple[
        SecureDesign,
        Union[str, WorkloadProfile],
        SystemConfig,
        Optional[SystemEnergyParams],
        Optional[int],
    ]
) -> RunResult:
    """Module-level worker entry so cells pickle into pool processes."""
    design, workload, config, energy_params, seed = task
    return run_workload(design, workload, config, energy_params, seed)


def _cell_event(
    label: str,
    done: int,
    total: int,
    cached: bool,
    seconds: float,
    result: RunResult,
) -> Dict[str, object]:
    """One ``cell`` progress event (headline metrics are deterministic)."""
    return {
        "kind": "cell",
        "label": label,
        "done": done,
        "total": total,
        "cached": cached,
        "seconds": round(seconds, 6),
        "headline": MetricsSnapshot.from_payload(result.telemetry).headline(),
    }


def run_suite(
    designs: Iterable[SecureDesign],
    workloads: Iterable[Union[str, WorkloadProfile]],
    config: SystemConfig = SystemConfig(),
    energy_params: Optional[SystemEnergyParams] = None,
    jobs: Optional[int] = None,
    cache: Union[None, bool, str, RunCache] = None,
    seed: Optional[int] = None,
) -> ResultTable:
    """Run every design on every workload, fanned over ``jobs`` processes.

    ``jobs``/``cache`` default to the process execution context (CLI
    ``--jobs`` / ``--no-cache``, or ``REPRO_JOBS`` / ``REPRO_CACHE``).
    Results are returned in grid order — designs outer, workloads inner —
    whatever the completion order, and are bit-identical to a serial run.

    ``seed`` re-salts trace synthesis per cell (see :func:`run_workload`).
    The :func:`cell_progress` hook, when installed, receives one
    ``suite`` event, then one ``cell`` event per finished cell: cache hits
    in grid-scan order, executed cells in submission order — the same
    sequence at any ``jobs`` count, modulo the wall-clock ``seconds``
    field. A callback exception aborts the suite (cancellation).
    """
    designs = list(designs)
    workloads = list(workloads)
    jobs = resolve_jobs(jobs)
    run_cache = resolve_cache(cache)
    progress = _PROGRESS

    cells = [(design, workload) for design in designs for workload in workloads]
    total = len(cells)
    finished = {}
    hits = []
    pending = []
    for design, workload in cells:
        label = "%s/%s" % (design.name, _workload_label(workload))
        key = None
        if run_cache is not None:
            key = cell_key(design, workload, config, energy_params, seed)
            payload = run_cache.get(key)
            if payload is not None:
                sanitizer = get_sanitizer()
                if sanitizer is not None:
                    sanitizer.check_cached_payload(
                        label,
                        payload,
                        lambda d=design, w=workload: run_workload(
                            d, w, config, energy_params, seed
                        ).to_payload(),
                    )
                result = RunResult.from_payload(payload)
                finished[(design, workload)] = result
                hits.append((label, result))
                continue
        pending.append(((design, workload), key, label))

    done = 0
    if progress is not None:
        progress(
            {"kind": "suite", "total": total, "pending": len(pending)}
        )
        for label, result in hits:
            done += 1
            progress(_cell_event(label, done, total, True, 0.0, result))

    if pending:
        emit = progress  # bind for the closure; progress stays Optional

        def cell_progress_cb(index, label, result, elapsed):
            nonlocal done
            done += 1
            emit(_cell_event(label, done, total, False, elapsed, result))

        tasks = [
            (design, workload, config, energy_params, seed)
            for (design, workload), _key, _label in pending
        ]
        results = parallel_map(
            _run_cell,
            tasks,
            jobs=jobs,
            labels=[label for _cell, _key, label in pending],
            progress=cell_progress_cb if emit is not None else None,
        )
        for (cell, key, _label), result in zip(pending, results):
            finished[cell] = result
            if run_cache is not None:
                run_cache.put(key, result.to_payload())

    table = ResultTable()
    for cell in cells:
        result = finished[cell]
        table.add(result)
        # Grid order + commutative merge => the aggregate is independent of
        # completion order, and warm cache hits still contribute metrics.
        TELEMETRY_AGGREGATE.add(result.design, result.telemetry)
    return table


def run_cells(
    tasks: List[Tuple],
    labels: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    cache: Union[None, bool, str, RunCache] = None,
) -> List[RunResult]:
    """Execute grid cells *as given* and populate the run cache.

    The whole-run planner's dispatch primitive: unlike :func:`run_suite`
    this neither probes nor dedups — the planner already did both — it
    fans the tasks (``(design, workload, config, energy_params, seed)``
    tuples) over ``jobs`` workers in the order supplied, stores each
    result in the run cache exactly as ``run_suite`` would, and returns
    results in submission order.

    Per-cell completion is streamed through the
    :func:`cell_progress` hook as ``cell`` events (``planned: True``), so
    service jobs keep cell-granular progress and cancellation during a
    planned prefetch.
    """
    if not tasks:
        return []
    jobs = resolve_jobs(jobs)
    run_cache = resolve_cache(cache)
    if labels is None:
        labels = [
            "%s/%s" % (task[0].name, _workload_label(task[1])) for task in tasks
        ]
    hook = _PROGRESS
    total = len(tasks)

    def on_cell(index, label, result, elapsed):
        event = _cell_event(label, index + 1, total, False, elapsed, result)
        event["planned"] = True
        hook(event)

    results = parallel_map(
        _run_cell,
        tasks,
        jobs=jobs,
        labels=labels,
        progress=on_cell if hook is not None else None,
    )
    if run_cache is not None:
        for task, result in zip(tasks, results):
            run_cache.put(cell_key(*task), result.to_payload())
    return results
