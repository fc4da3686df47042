"""Guards on what a cell keeps alive, during its run and after it.

A default cell keeps each core's trace columns and the secure engine's
metadata map alive for its whole run. Holding one boxed value or list per
record or per leaf there costs tens of thousands of small allocations per
cell. After the run, the cell's simulator must go as soon as
``run_workload`` returns, by reference counting alone. A single reference
cycle in its object graph hands the whole simulator to the cyclic
collector instead, and an in-process sweep of default cells never runs
that collector's oldest generation: finished simulators then linger,
freed late or never, and RSS climbs cell after cell. These tests count
the allocation blocks long-lived structures leave live, and the objects a
finished cell leaves to the cyclic collector.
"""

import collections
import gc
import sys
import tracemalloc

import numpy as np
import pytest

from repro.cpu.rob import AccessHandle, CoreModel
from repro.cpu.trace import Trace
from repro.secure.designs import CounterMode, design_by_name
from repro.secure.metadata_layout import MetadataLayout
from repro.sim.config import SystemConfig
from repro.sim import runner
from repro.sim.runner import run_workload
from repro.sim.system import SystemSimulator
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name

#: Live blocks a core may keep whatever its trace length: its own object,
#: four column buffers, iterators, and the interpreter's tuple and float
#: free lists, which hold up to a ROB's worth of freed in-flight entries.
MAX_CORE_BLOCKS = 512
#: Live blocks 100k metadata-path lookups may leave: none beyond noise.
MAX_LOOKUP_BLOCKS = 64
#: Traced peak of one trace synthesis beyond its output columns. Streaming
#: the word stream in fixed blocks keeps it flat in the trace length.
MAX_SYNTHESIS_TRANSIENT = 1 << 20
#: Traced bytes one quick-scale warm-memo snapshot may keep alive once its
#: simulator is gone: packed columns (~80 KiB), not per-set dict copies
#: holding their own tag ints (~620 KiB).
MAX_WARM_SNAPSHOT = 128 << 10


def traced_live_blocks(build):
    """Run ``build()`` under tracemalloc.

    Returns its result, the number of blocks it left live, and the top
    allocation sites of those blocks (for the failure message).
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    ignore = (tracemalloc.Filter(False, tracemalloc.__file__),)
    stats = snapshot.filter_traces(ignore).statistics("lineno")
    top = "\n".join(str(stat) for stat in stats[:5])
    return result, sum(stat.count for stat in stats), top


def test_core_model_holds_no_per_record_objects():
    count = 8_000
    lines = (np.arange(count, dtype=np.int64) * 7919) % (1 << 22) + 1024
    trace = Trace.from_arrays(lines % 5, lines % 4 == 0, lines, "guard")

    def read(_line, cpu_time, _core):
        return AccessHandle(cpu_time + 150.0)

    def write(_line, _cpu_time, _core):
        return None

    def build_and_run():
        core = CoreModel(0, trace, read, write)
        while core.advance() is not None:
            pass
        return core

    core, blocks, top = traced_live_blocks(build_and_run)
    assert core.done
    assert core.retired_count == trace.total_instructions
    assert blocks <= MAX_CORE_BLOCKS, top


def test_tree_path_lookups_leave_bounded_state():
    layout = MetadataLayout(1 << 20, counter_mode=CounterMode.MONOLITHIC)
    leaves = 100_000
    assert layout.num_counter_lines >= leaves

    walk = layout.tree_path
    last = walk(leaves - 1)
    # The pymalloc block count, not tracemalloc: tracing 100k lookups'
    # allocations would take most of a second.
    gc.collect()
    before = sys.getallocatedblocks()
    for leaf in range(leaves):
        walk(leaf)
    gc.collect()
    assert sys.getallocatedblocks() - before <= MAX_LOOKUP_BLOCKS
    assert walk(leaves - 1) == last


def test_trace_synthesis_transient_is_bounded():
    # sphinx3 takes all three locality arms.
    profile = profile_by_name("sphinx3")
    generate_trace(profile, 100)  # the first call's lazy imports
    for count in (8_000, 40_000):
        gc.collect()
        tracemalloc.start()
        try:
            trace = generate_trace(profile, count)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = trace.gaps.nbytes + trace.ops.nbytes + trace.lines.nbytes
        assert peak - columns <= MAX_SYNTHESIS_TRANSIENT, (count, peak, columns)


# SGX_O takes the Bonsai walk with an uncached MAC, IVEC the MAC-tree walk
# and Chipkill_Secure the lock-step channels.
@pytest.mark.parametrize("design_name", ["SGX_O", "IVEC", "Chipkill_Secure"])
def test_finished_cell_leaves_no_cyclic_garbage(design_name):
    design = design_by_name(design_name)
    config = SystemConfig(accesses_per_core=300)
    run_workload(design, "mcf", config)  # the first call's lazy imports
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run_workload(design, "mcf", config)
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        leftover = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        if was_enabled:
            gc.enable()
    assert unreachable == 0, leftover.most_common(10)


def test_warm_snapshot_is_packed():
    design = design_by_name("SGX_O")
    config = SystemConfig(accesses_per_core=3_000)  # the quick scale
    label, traces = runner._traces_for("mcf", config, "trace")
    _label, warm = runner._traces_for("mcf", config, "warmup")
    runner._WARM_MEMO.clear()
    # The first call's lazy imports and interpreter caches, untraced.
    runner._warm_simulator(
        SystemSimulator(design, traces, config), design, label, config, warm
    )
    runner._WARM_MEMO.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        # The simulator dies with the call: what stays is the snapshot.
        runner._warm_simulator(
            SystemSimulator(design, traces, config), design, label, config, warm
        )
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        runner._WARM_MEMO.clear()
    assert kept <= MAX_WARM_SNAPSHOT, kept
