"""Performance measurement: microbenchmarks and profiling helpers.

This package exists so the perf tooling (``benchmarks/micro``,
``tools/profile_run.py``, ``tools/bench_snapshot.py``) shares one set of
deterministic hot-path workloads instead of each inventing its own.

The case roster covers every per-event simulator path. CI gates four of
them: ``controller_schedule`` (one epoch through the DRAM controller's
FR-FCFS kernel), ``trace_generate`` (block-streamed workload synthesis),
``miss_expansion`` and ``rob_advance``. The per-record trace generator
and the scalar secure engine, their oracles, live in ``tests/reference/``,
so no case times them.
"""

from repro.perf.microbench import CASES, MicroResult, run_all, run_case

__all__ = ["CASES", "MicroResult", "run_all", "run_case"]
