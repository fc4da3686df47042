#!/usr/bin/env python
"""Run experiments at a given scale and dump results (and metrics) as JSON.

Used to produce the paper-vs-measured numbers recorded in EXPERIMENTS.md:

    python tools/run_experiments.py default experiments_default.json
    python tools/run_experiments.py default out.json --jobs 4 --no-cache
    python tools/run_experiments.py --figure fig8 --scale quick --metrics-out m.json

``--figure`` (repeatable) names the experiments to run, ablations
included; the default runs what ``synergy-repro all`` runs.
``--metrics-out`` additionally dumps the merged telemetry snapshot
(see repro.telemetry).
"""

import argparse
import json
import sys
import time

from repro.harness.experiments import ALL_EXPERIMENTS, EXPERIMENTS, run_experiment
from repro.harness.plan import run_scoped_cache
from repro.parallel import EXECUTION_STATS
from repro.telemetry import TELEMETRY_AGGREGATE, TelemetryAggregate, write_metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scale_arg", nargs="?", default=None, metavar="scale")
    parser.add_argument("output", nargs="?", default="experiments.json")
    parser.add_argument(
        "--scale", default=None, help="quick | default | full (or positional)"
    )
    parser.add_argument(
        "--figure",
        action="append",
        default=None,
        metavar="NAME",
        choices=sorted(EXPERIMENTS),
        help="run this experiment (repeatable; default: what 'all' runs)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes for fan-out"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="reuse no result from another run: the experiments share a "
        "temporary run cache that is removed when the batch ends",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the merged telemetry snapshot as JSON",
    )
    args = parser.parse_args()

    scale = args.scale or args.scale_arg or "default"
    names = args.figure or list(ALL_EXPERIMENTS)

    results = {"scale": scale}
    overall = TelemetryAggregate()
    with run_scoped_cache(False if args.no_cache else None) as cache:
        for name in names:
            EXECUTION_STATS.reset()
            TELEMETRY_AGGREGATE.reset()
            started = time.time()  # lint-ok: D101 run provenance, not simulated time
            value = run_experiment(
                name, scale=scale, quiet=True, jobs=args.jobs, cache=cache
            )
            elapsed = time.time() - started  # lint-ok: D101 run provenance, not simulated time
            results[name] = {
                "result": _jsonable(value),
                "seconds": round(elapsed, 1),
                "execution": EXECUTION_STATS.as_dict(),
                "metrics": TELEMETRY_AGGREGATE.headlines(),
            }
            for group, snap in TELEMETRY_AGGREGATE.groups().items():
                overall.add(group, snap)
            print("%s done in %.1fs" % (name, elapsed), flush=True)
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
    print("wrote", args.output)
    if args.metrics_out:
        path = write_metrics(
            args.metrics_out,
            run={"experiments": names, "scale": scale, "jobs": args.jobs},
            aggregate=overall,
        )
        print("wrote", path)
    return 0


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


if __name__ == "__main__":
    sys.exit(main())
