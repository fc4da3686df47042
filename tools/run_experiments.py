#!/usr/bin/env python
"""Run experiments as one planned batch and dump results (and metrics) as JSON.

Used to produce the paper-vs-measured numbers recorded in EXPERIMENTS.md:

    python tools/run_experiments.py default experiments_default.json
    python tools/run_experiments.py default out.json --jobs 4 --no-cache
    python tools/run_experiments.py --figure fig8 --scale quick --metrics-out m.json

``--figure`` (repeatable) names the experiments to run, ablations
included; the default runs what ``synergy-repro all`` runs. The batch is
the CLI's (``repro.harness.plan.run_experiments``): it prints the same
report, and simulates each unique cell once before assembling the
figures. The JSON holds each experiment's result, seconds and execution
stats, after a ``plan`` entry for the prefetch. ``--metrics-out``
additionally dumps the batch's telemetry snapshot (see repro.telemetry).
"""

import argparse
import json
import sys

from repro.harness.experiments import ALL_EXPERIMENTS, EXPERIMENTS
from repro.harness.plan import run_experiments, run_record
from repro.telemetry import write_metrics


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
    steps = run_experiments(
        args.figure or ALL_EXPERIMENTS,
        scale=scale,
        jobs=args.jobs,
        cache=False if args.no_cache else None,
        quiet=False,
    )
    results = {"scale": scale}
    for name, step in steps.items():
        results[name] = {
            "result": _jsonable(step.output),
            "seconds": round(step.seconds, 1),
            "execution": step.execution.as_dict(),
        }
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
    print("wrote", args.output)
    if args.metrics_out:
        print("wrote", write_metrics(args.metrics_out, run=run_record(steps)))
    return 0


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


if __name__ == "__main__":
    sys.exit(main())
