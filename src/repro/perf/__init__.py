"""Performance measurement: microbenchmarks and profiling helpers.

This package exists so the perf tooling (the ``python -m
repro.perf.microbench`` regression gate and ``tools/profile_run.py``)
shares one set of deterministic hot-path workloads instead of each
inventing its own.

The case roster covers every per-event simulator path. The gate fails on
four of them (``microbench.GATED_CASES``): ``controller_schedule`` (one
epoch through the DRAM controller's FR-FCFS kernel), ``trace_generate``
(block-streamed workload synthesis), ``miss_expansion`` and
``rob_advance``. The per-record trace generator and the scalar secure
engine, their oracles, live in ``tests/reference/``, so no case times
them. The package imports nothing eagerly, so ``python -m
repro.perf.microbench`` runs its module exactly once.
"""
