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
from typing import List, Optional

from repro.analysis.sanitizer import ENV_VAR as SANITIZE_ENV, configure_sanitizer
from repro.harness.experiments import ALL_EXPERIMENTS, EXPERIMENTS, run_spec
from repro.harness.plan import run_experiments, run_record
from repro.harness.spec import GRID_EXPERIMENT, ExperimentSpec, SpecError
from repro.harness.report import render_metrics_summary
from repro.parallel import EXECUTION_STATS, default_jobs
from repro.telemetry import TELEMETRY_AGGREGATE, write_metrics


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
        "cache (the run keeps its cells in a temporary run cache for that "
        "run only, so it still simulates each unique cell once)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the merged telemetry snapshot as JSON",
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
    steps = run_experiments(
        names, scale=args.scale, jobs=args.jobs, cache=cache, quiet=False
    )
    if TELEMETRY_AGGREGATE:
        print(render_metrics_summary(TELEMETRY_AGGREGATE))
        print()
    if args.metrics_out:
        path = write_metrics(args.metrics_out, run=run_record(steps))
        print("[metrics written to %s]" % path)
    return 0


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
