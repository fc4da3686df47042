#!/usr/bin/env python
"""Profile the simulator under cProfile and print a hotspot table.

Profiles either one (design, workload) grid cell — the unit every
experiment fans out over — or one hot-path microbenchmark case, then
prints the top-N functions by the chosen sort key. This is the tool the
hot-path optimization work is *guided* by: run it before and after a
change and diff the tables.

    PYTHONPATH=src python tools/profile_run.py --design SGX_O --workload lbm
    PYTHONPATH=src python tools/profile_run.py --top 40 --sort tottime
    PYTHONPATH=src python tools/profile_run.py --micro controller_schedule
    PYTHONPATH=src python tools/profile_run.py --out cell.pstats   # for snakeviz etc.

``--memory`` profiles allocations instead, without cProfile: it first
runs one small untraced warm-up cell of the same design and workload, so
the first call's lazy imports (``numpy.random`` and others) do not count
as the cell's memory, clears the runner's memos, then runs the cell under
``tracemalloc`` and prints the top-N source lines whose
allocations are still live when ``SystemSimulator.run`` returns, with the
live total, the traced peak of the whole cell and the largest traced peak
of one of the cell's trace syntheses (above what was live when it
began). It also counts the objects the finished cell left to the cyclic
collector, with their most common types: a cell's simulator must be freed
by reference counting the moment ``run_workload`` returns, so anything
but 0 names a reference cycle::

    PYTHONPATH=src python tools/profile_run.py --memory --design IVEC --top 15

The cell runs in-process with the run cache disabled, so the profile
measures simulation, not reuse or process-pool overhead.
"""

import argparse
import collections
import cProfile
import gc
import pstats
import sys
import tracemalloc

from repro.perf.microbench import CASES
from repro.secure.designs import ALL_DESIGNS, design_by_name
from repro.sim.config import SystemConfig
from repro.sim.runner import run_workload

SORT_KEYS = ("cumulative", "tottime", "calls")
#: Accesses per core of ``--memory``'s untraced warm-up cell.
WARMUP_ACCESSES = 300


def profile_cell(design_name: str, workload: str, accesses: int) -> cProfile.Profile:
    """Profile one grid cell end to end (trace gen + sim + packaging)."""
    design = design_by_name(design_name)
    config = SystemConfig(accesses_per_core=accesses)
    profiler = cProfile.Profile()
    profiler.enable()
    run_workload(design, workload, config)
    profiler.disable()
    return profiler


def live_at_run_end(
    design_name: str, workload: str, accesses: int
) -> "tuple[tracemalloc.Snapshot, int, list, collections.Counter]":
    """Allocations live when one cell's ``SystemSimulator.run`` returns.

    Returns that snapshot, the traced peak over the whole cell (trace
    synthesis, warm-up, run and packaging), the traced peak of each
    trace synthesis above what was live when it began, in bytes, and the
    types of the objects the cyclic collector found unreachable once the
    cell had returned (the cell runs with that collector disabled).
    """
    from repro.sim import runner
    from repro.sim.system import SystemSimulator

    design = design_by_name(design_name)
    config = SystemConfig(accesses_per_core=accesses)
    snapshots = []
    synthesis_peaks = []
    cell_peak = 0
    run = SystemSimulator.run
    generate = runner.generate_trace

    def run_then_snapshot(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        snapshots.append(tracemalloc.take_snapshot())
        return result

    def generate_measured(*args, **kwargs):
        # Restart the peak at this call, folding the cell's peak so far
        # into ``cell_peak`` first.
        nonlocal cell_peak
        before, peak = tracemalloc.get_traced_memory()
        cell_peak = max(cell_peak, peak)
        tracemalloc.reset_peak()
        trace = generate(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        synthesis_peaks.append(peak - before)
        cell_peak = max(cell_peak, peak)
        return trace

    # One untraced cell imports what the first call imports lazily; the
    # cleared memos make the traced cell synthesise and warm up afresh.
    run_workload(design, workload, SystemConfig(accesses_per_core=WARMUP_ACCESSES))
    runner.clear_run_memos()
    SystemSimulator.run = run_then_snapshot
    runner.generate_trace = generate_measured
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        run_workload(design, workload, config)
        cell_peak = max(cell_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        SystemSimulator.run = run
        runner.generate_trace = generate
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = collections.Counter(type(obj).__name__ for obj in gc.garbage)
        gc.set_debug(0)
        del gc.garbage[:]
        if gc_was_enabled:
            gc.enable()
    ignore = (tracemalloc.Filter(False, tracemalloc.__file__),)
    return snapshots[-1].filter_traces(ignore), cell_peak, synthesis_peaks, cyclic


def print_memory(
    snapshot: tracemalloc.Snapshot,
    peak: int,
    synthesis_peaks: list,
    cyclic: collections.Counter,
    top: int,
) -> None:
    """The live total, the traced peaks, the cyclic garbage and the top-N
    live sites."""
    stats = snapshot.statistics("lineno")
    size = sum(stat.size for stat in stats)
    blocks = sum(stat.count for stat in stats)
    mib = 1024.0 * 1024.0
    print(
        "live at the end of SystemSimulator.run: %.2f MiB in %d blocks "
        "(traced peak of the cell %.2f MiB)" % (size / mib, blocks, peak / mib)
    )
    print(
        "largest traced peak of one trace synthesis: %.2f MiB "
        "(%d syntheses, output columns included)"
        % (max(synthesis_peaks, default=0) / mib, len(synthesis_peaks))
    )
    print(
        "left to the cyclic collector by the finished cell: %d objects%s"
        % (
            sum(cyclic.values()),
            "".join(
                "%s %s %d" % ("," if index else ":", name, count)
                for index, (name, count) in enumerate(cyclic.most_common(8))
            ),
        )
    )
    for stat in stats[:top]:
        print(stat)


def profile_micro(case: str) -> cProfile.Profile:
    """Profile one microbenchmark case from repro.perf.microbench."""
    profiler = cProfile.Profile()
    profiler.enable()
    CASES[case]()
    profiler.disable()
    return profiler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--design",
        default="SGX_O",
        choices=sorted(design.name for design in ALL_DESIGNS),
        help="secure-memory design of the profiled cell",
    )
    parser.add_argument(
        "--workload", default="lbm", help="workload profile or mix name"
    )
    parser.add_argument(
        "--accesses",
        type=int,
        default=8_000,
        help="trace length per core (default-scale cell)",
    )
    parser.add_argument(
        "--micro",
        default=None,
        choices=sorted(CASES),
        help="profile this microbenchmark case instead of a grid cell",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="list the cell's live allocation sites instead of a cProfile table",
    )
    parser.add_argument("--top", type=int, default=25, help="rows to print")
    parser.add_argument("--sort", default="cumulative", choices=SORT_KEYS)
    parser.add_argument(
        "--out", default=None, help="also dump raw pstats to this path"
    )
    args = parser.parse_args()
    if args.memory and (args.micro or args.out):
        parser.error("--memory profiles a cell; it takes neither --micro nor --out")

    if args.memory:
        print(
            "allocations of cell %s/%s (%d accesses/core), traced after one "
            "untraced warm-up cell (%d accesses/core) that takes the lazy "
            "imports" % (args.design, args.workload, args.accesses, WARMUP_ACCESSES),
            flush=True,
        )
        from repro.parallel import overridden

        with overridden(cache_enabled=False):
            snapshot, peak, synthesis_peaks, cyclic = live_at_run_end(
                args.design, args.workload, args.accesses
            )
        print_memory(snapshot, peak, synthesis_peaks, cyclic, args.top)
        return 0
    if args.micro:
        print("profiling microbenchmark %r" % args.micro, flush=True)
        profiler = profile_micro(args.micro)
    else:
        print(
            "profiling cell %s/%s (%d accesses/core)"
            % (args.design, args.workload, args.accesses),
            flush=True,
        )
        # Run cache off: we want the compute path, not a cache lookup.
        from repro.parallel import overridden

        with overridden(cache_enabled=False):
            profiler = profile_cell(args.design, args.workload, args.accesses)

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
