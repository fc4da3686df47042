"""Command-line entry point: ``synergy-repro`` / ``python -m repro.harness.cli``.

Examples::

    synergy-repro fig8                        # headline performance figure
    synergy-repro fig8 --jobs 4               # fan grid cells over 4 processes
    synergy-repro fig11 --scale full          # reliability, full Monte-Carlo
    synergy-repro all --scale quick --no-cache  # everything, no cross-run reuse
    synergy-repro grid --designs SGX_O,Synergy --seeds 1,2  # ad-hoc IPC grid
    synergy-repro serve --port 8642 --jobs 4  # long-running job service
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from typing import List, Optional

from repro.analysis.sanitizer import ENV_VAR as SANITIZE_ENV, configure_sanitizer
from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    EXPERIMENTS,
    run_experiment,
    run_spec,
)
from repro.harness.plan import run_scoped_cache
from repro.harness.spec import GRID_EXPERIMENT, ExperimentSpec, SpecError
from repro.harness.report import render_execution_stats, render_metrics_summary
from repro.parallel import EXECUTION_STATS, ExecutionStats, default_jobs
from repro.telemetry import (
    TELEMETRY_AGGREGATE,
    configure,
    configure_tracer,
    get_tracer,
    metrics_out_from_env,
    trace_out_from_env,
    write_metrics,
)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one (or all) experiments from the command line."""
    parser = argparse.ArgumentParser(
        prog="synergy-repro",
        description="Regenerate the tables and figures of SYNERGY (HPCA 2018).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", GRID_EXPERIMENT, "serve"],
        help="which table/figure/ablation to regenerate; 'all' runs the "
        "paper's tables and figures; 'grid' runs an ad-hoc design x "
        "workload IPC grid; 'serve' starts the job service",
    )
    parser.add_argument(
        "--scale",
        default=None,
        help="quick | default | full (or set REPRO_SCALE)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for grid/Monte-Carlo fan-out "
        "(default: REPRO_JOBS or 1; this machine has %d CPU(s))"
        % default_jobs(),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="reuse no result: ignore and do not populate the on-disk run "
        "cache ('all' keeps its cells in a temporary run cache for that run "
        "only, so it still simulates each unique cell once)",
    )
    parser.add_argument(
        "--metrics-out",
        default=metrics_out_from_env(),
        metavar="PATH",
        help="write the merged telemetry snapshot as JSON "
        "(default: a path in REPRO_METRICS, if set)",
    )
    parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable telemetry collection (same as REPRO_METRICS=0)",
    )
    parser.add_argument(
        "--trace-out",
        default=trace_out_from_env(),
        metavar="PATH",
        help="enable event tracing and write it as JSONL "
        "(per-process: use --jobs 1 for a complete simulation trace; "
        "default: REPRO_TRACE, if set)",
    )
    parser.add_argument(
        "--designs",
        default=None,
        metavar="A,B",
        help="(grid only) comma-separated design names to sweep",
    )
    parser.add_argument(
        "--seeds",
        default=None,
        metavar="1,2",
        help="(grid only) comma-separated trace seeds (default: canonical)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="(serve only) interface to bind",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="(serve only) TCP port to bind (0 picks a free port)",
    )
    parser.add_argument(
        "--cache-budget-mb",
        type=int,
        default=0,
        metavar="MB",
        help="(serve only) LRU-evict the run cache down to this size "
        "after each job (0 = unlimited); repeats revive from the run cache, "
        "so a repeat of an evicted spec simulates again",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="(serve only) concurrent job slots, each running its job in a "
        "forked child process (default: one per usable CPU)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime invariant sanitizer (same as REPRO_SANITIZE=1; "
        "checks DRAM timing legality, reconstruction uniqueness, counter-tree "
        "consistency, and cache-replay fidelity at some simulation-speed cost)",
    )
    args = parser.parse_args(argv)

    if args.sanitize:
        # Set the env var too so --jobs worker processes inherit the switch.
        os.environ[SANITIZE_ENV] = "1"
        configure_sanitizer(True)
    if args.no_metrics:
        configure(False)
    if args.trace_out:
        configure_tracer(enabled=True, run_id=args.experiment)

    cache = False if args.no_cache else None
    if args.experiment == "serve":
        return _serve(args)
    if args.experiment == GRID_EXPERIMENT:
        return _grid(args, cache)

    # Filtered through the registry, so a narrowed registry narrows "all".
    names = (
        [name for name in ALL_EXPERIMENTS if name in EXPERIMENTS]
        if args.experiment == "all"
        else [args.experiment]
    )
    TELEMETRY_AGGREGATE.reset()
    # EXECUTION_STATS is reset per experiment for its summary line; the
    # whole run (prefetch included) accumulates here for --metrics-out.
    run_stats = ExecutionStats()
    plan_summary = None
    planned = args.experiment == "all"
    with run_scoped_cache(cache) if planned else nullcontext(cache) as cache:
        if planned:
            plan_summary = _prefetch(names, args, cache)
            run_stats.absorb(EXECUTION_STATS)
        for name in names:
            print("=" * 72)
            print("Experiment:", name)
            print("=" * 72)
            EXECUTION_STATS.reset()
            started = time.perf_counter()
            run_experiment(name, scale=args.scale, jobs=args.jobs, cache=cache)
            print("[%s finished in %.1fs]" % (name, time.perf_counter() - started))
            if EXECUTION_STATS.cells_executed or EXECUTION_STATS.cache_hits:
                print(render_execution_stats(EXECUTION_STATS))
            print()
            run_stats.absorb(EXECUTION_STATS)
    if TELEMETRY_AGGREGATE:
        print(render_metrics_summary(TELEMETRY_AGGREGATE))
        print()
    if args.metrics_out:
        path = write_metrics(
            args.metrics_out,
            run={
                "experiments": names,
                "scale": args.scale,
                "jobs": args.jobs,
                "plan": plan_summary,
                "execution": run_stats.as_dict(),
            },
        )
        print("[metrics written to %s]" % path)
    if args.trace_out:
        count = get_tracer().write_jsonl(args.trace_out)
        print("[%d trace event(s) written to %s]" % (count, args.trace_out))
    return 0


def _prefetch(names: List[str], args: argparse.Namespace, cache) -> dict:
    """Plan + execute the whole run's unique cells in one fan-out."""
    from repro.harness.plan import execute_plan, plan_experiments

    print("=" * 72)
    print("Planned prefetch (whole-run dedup)")
    print("=" * 72)
    EXECUTION_STATS.reset()
    started = time.perf_counter()
    plan = plan_experiments(names, args.scale)
    summary = execute_plan(plan, jobs=args.jobs, cache=cache)
    print(
        "[plan: %d cells requested, %d unique (%d deduped), "
        "%d pending, jobs=%d]"
        % (
            summary["cells_requested"],
            summary["cells_unique"],
            summary["cells_deduped"],
            summary["cells_pending"],
            summary["jobs"],
        )
    )
    print("[prefetch finished in %.1fs]" % (time.perf_counter() - started))
    if EXECUTION_STATS.cells_executed:
        print(render_execution_stats(EXECUTION_STATS))
    print()
    return summary


def _comma_list(raw: Optional[str]) -> List[str]:
    if not raw:
        return []
    return [item.strip() for item in raw.split(",") if item.strip()]


def _grid(args: argparse.Namespace, cache: Optional[bool]) -> int:
    """Run an ad-hoc design x workload grid through the spec path."""
    try:
        seeds = tuple(int(item) for item in _comma_list(args.seeds))
    except ValueError:
        print("error: --seeds must be comma-separated integers", file=sys.stderr)
        return 2
    spec = ExperimentSpec(
        experiment=GRID_EXPERIMENT,
        scale=args.scale or "default",
        designs=tuple(_comma_list(args.designs)),
        seeds=seeds,
        jobs=args.jobs or 0,
    )
    EXECUTION_STATS.reset()
    started = time.perf_counter()
    try:
        result = run_spec(spec, quiet=True, cache=cache)
    except SpecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result, indent=2, sort_keys=True))
    print(
        "[grid %s finished in %.1fs]"
        % (spec.cache_key()[:12], time.perf_counter() - started),
        file=sys.stderr,
    )
    return 0


def _serve(args: argparse.Namespace) -> int:
    """Start the long-running experiment job service."""
    import asyncio

    from repro.service.server import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        spec_jobs=args.jobs or 1,
        workers=args.workers,
        cache_budget_bytes=max(0, args.cache_budget_mb) * (1 << 20),
        cache=not args.no_cache,
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        print("\n[service stopped]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
