#!/usr/bin/env python
"""Write per-figure wall-time snapshots so PRs can track the perf trajectory.

For each named experiment this runs it once (cold, fresh stats) and writes
``BENCH_<name>.json`` containing the wall time, the execution-layer
counters (cells run, cache hits, worker utilisation, slowest cells) and
enough provenance (scale, jobs, code fingerprint, python version) to make
two snapshots comparable:

    python tools/bench_snapshot.py fig8 fig11 --scale quick --jobs 4
    python tools/bench_snapshot.py --all --scale quick --out-dir bench/

By default the run cache is *disabled* so the snapshot measures compute,
not reuse; pass ``--cache`` to measure the warm path instead.

PR perf snapshots — one combined JSON with the hot-path microbenchmarks
and end-to-end grid timings, plus before/after speedups when a baseline
timing file (``tools/run_experiments.py`` output) is supplied:

    python tools/bench_snapshot.py --pr-out BENCH_PR5.json \\
        --before BENCH_PR3.json --micro      # prior PR snapshot as baseline
    python tools/bench_snapshot.py --pr-out BENCH_ci.json --micro \\
        --scale quick --compare BENCH_PR5.json \\
        --fail-on-regress --fail-cases controller_schedule,trace_generate

``--before``/``--after`` accept any of: ``tools/run_experiments.py`` output,
a previous combined PR snapshot (its ``end_to_end.after_s`` section), or a
bare ``{name: seconds}`` map. ``--compare`` is warn-only by default;
``--fail-on-regress`` turns micro regressions beyond the warn ratio into a
non-zero exit, restricted to ``--fail-cases`` when given (other cases stay
warn-only, since not every case is stable enough to gate CI on).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.parallel import EXECUTION_STATS, code_fingerprint
from repro.perf.microbench import CASES
from repro.telemetry import TELEMETRY_AGGREGATE

DEFAULT_FIGURES = ["fig8", "fig11"]

#: Micro timings may legitimately wobble this much between runs/machines;
#: the --compare report flags (never fails on) anything slower than this.
COMPARE_WARN_RATIO = 1.25


def snapshot(name: str, scale: str, jobs: int, cache: bool) -> dict:
    """Run one experiment and package its timing record."""
    EXECUTION_STATS.reset()
    TELEMETRY_AGGREGATE.reset()
    started = time.time()  # lint-ok: D101 bench provenance, not simulated time
    run_experiment(name, scale=scale, quiet=True, jobs=jobs, cache=cache)
    elapsed = time.time() - started  # lint-ok: D101 bench provenance, not simulated time
    return {
        "figure": name,
        "scale": scale,
        "jobs": jobs,
        "cache": cache,
        "seconds": round(elapsed, 3),
        "execution": EXECUTION_STATS.as_dict(),
        # Headline simulator metrics (row-buffer / cache hit rates, tree
        # walk depths ...) per design group plus the global merge — the
        # numbers PRs watch alongside the wall clocks above.
        "metrics": {
            "groups": TELEMETRY_AGGREGATE.headlines(),
            "global": TELEMETRY_AGGREGATE.overall().headline(),
            "pool_utilisation": EXECUTION_STATS.worker_utilisation,
        },
        "code_fingerprint": code_fingerprint(),
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def micro_section(repeats: int) -> dict:
    """Run the hot-path microbenchmarks and package their timings.

    Each case runs in its own pristine interpreter (``python -m
    repro.perf.microbench --case NAME``): timings taken inside this
    process are contaminated by its import volume — modules loaded
    before the measurement shift the allocator layout the vectorised
    cases stream through, inflating their per-op time by tens of
    percent. Isolation makes the numbers a property of the case, not of
    whatever the harness imported first.
    """
    section: dict = {}
    for name in sorted(CASES):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.perf.microbench",
                "--case", name, "--repeats", str(repeats),
            ],
            check=True, capture_output=True, text=True,
        )
        section.update(json.loads(result.stdout))
    return section


def _experiment_seconds(timings: dict) -> dict:
    """name -> seconds from any supported timing-file shape.

    Accepts ``tools/run_experiments.py`` output (``{name: {"seconds": s}}``),
    a combined PR snapshot from this tool (``end_to_end.after_s``), or a
    bare ``{name: seconds}`` map — so a committed ``BENCH_PR<n>.json`` can
    serve directly as the ``--before`` baseline of the next PR.
    """
    if timings.get("kind") == "pr_perf_snapshot":
        timings = (timings.get("end_to_end") or {}).get("after_s") or {}
    out = {}
    for name, record in timings.items():
        if isinstance(record, dict) and "seconds" in record:
            out[name] = record["seconds"]
        elif isinstance(record, (int, float)) and not isinstance(record, bool):
            out[name] = record
    return out


def grid_timings(scale: str, jobs: int, cache: bool) -> dict:
    """Run the full experiment grid, recording per-experiment seconds."""
    timings = {"scale": scale}
    for name in sorted(EXPERIMENTS):
        EXECUTION_STATS.reset()
        TELEMETRY_AGGREGATE.reset()
        started = time.time()  # lint-ok: D101 bench provenance, not simulated time
        run_experiment(name, scale=scale, quiet=True, jobs=jobs, cache=cache)
        timings[name] = {"seconds": round(time.time() - started, 1)}  # lint-ok: D101 bench provenance
        print("%s done in %.1fs" % (name, timings[name]["seconds"]), flush=True)
    return timings


def pr_snapshot(args) -> dict:
    """Build the combined PR perf snapshot (micro + end-to-end speedups)."""
    record = {
        "kind": "pr_perf_snapshot",
        "scale": args.scale,
        "jobs": args.jobs,
        "cache": args.cache,
        "code_fingerprint": code_fingerprint(),
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    if args.micro:
        print("running microbenchmarks ...", flush=True)
        record["micro"] = micro_section(args.micro_repeats)
        for name, payload in sorted(record["micro"].items()):
            print(
                "  %-20s %8.3f us/op" % (name, payload["per_op_us"]),
                flush=True,
            )

    if args.after:
        with open(args.after) as handle:
            after = _experiment_seconds(json.load(handle))
    else:
        print("running the experiment grid (end-to-end timings) ...", flush=True)
        after = _experiment_seconds(
            grid_timings(args.scale, args.jobs, args.cache)
        )

    end_to_end = {
        "after_s": after,
        "total_after_s": round(sum(after.values()), 1),
    }
    if args.before:
        with open(args.before) as handle:
            before = _experiment_seconds(json.load(handle))
        end_to_end["before_s"] = before
        end_to_end["total_before_s"] = round(sum(before.values()), 1)
        speedups = {
            name: round(before[name] / after[name], 2)
            for name in sorted(after)
            if name in before and after[name]
        }
        end_to_end["speedup"] = speedups
        if end_to_end["total_after_s"]:
            end_to_end["total_speedup"] = round(
                end_to_end["total_before_s"] / end_to_end["total_after_s"], 2
            )
    record["end_to_end"] = end_to_end
    return record


def compare_report(current: dict, previous_path: str) -> dict:
    """Micro-timing delta vs a previous combined snapshot.

    Prints the per-case delta and returns ``{name: ratio}`` for every case
    slower than :data:`COMPARE_WARN_RATIO`; the caller decides whether the
    regressions warn or fail (``--fail-on-regress``).
    """
    try:
        with open(previous_path) as handle:
            previous = json.load(handle)
    except (OSError, ValueError) as error:
        print("compare: cannot read %s (%s)" % (previous_path, error))
        return {}
    mine = current.get("micro") or {}
    theirs = previous.get("micro") or {}
    if not mine or not theirs:
        print("compare: no micro section to compare against %s" % previous_path)
        return {}
    regressions = {}
    print("micro delta vs %s:" % previous_path)
    for name in sorted(mine):
        if name not in theirs:
            print("  %-24s (new case)" % name)
            continue
        now = mine[name]["per_op_us"]
        was = theirs[name]["per_op_us"]
        ratio = now / was if was else float("inf")
        slower = ratio > COMPARE_WARN_RATIO
        if slower:
            regressions[name] = ratio
        flag = "  WARN: slower than %.2fx" % COMPARE_WARN_RATIO
        print(
            "  %-24s %8.3f -> %8.3f us/op (%.2fx)%s"
            % (name, was, now, ratio, flag if slower else "")
        )
    return regressions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "figures",
        nargs="*",
        default=None,
        help="experiment names (default: %s)" % " ".join(DEFAULT_FIGURES),
    )
    parser.add_argument(
        "--all", action="store_true", help="snapshot every experiment"
    )
    parser.add_argument("--scale", default="quick")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--cache",
        action="store_true",
        help="leave the run cache on (measures the warm path)",
    )
    parser.add_argument("--out-dir", default=".")
    parser.add_argument(
        "--micro",
        action="store_true",
        help="include the hot-path microbenchmarks (repro.perf.microbench)",
    )
    parser.add_argument(
        "--micro-repeats", type=int, default=3, help="best-of-N micro rounds"
    )
    parser.add_argument(
        "--pr-out",
        default=None,
        metavar="FILE",
        help="write one combined PR perf snapshot instead of per-figure files",
    )
    parser.add_argument(
        "--before",
        default=None,
        metavar="FILE",
        help="baseline run_experiments.py output for speedup reporting",
    )
    parser.add_argument(
        "--after",
        default=None,
        metavar="FILE",
        help="optimized run_experiments.py output (skips re-running the grid)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="FILE",
        help="previous combined snapshot; print a micro delta",
    )
    parser.add_argument(
        "--fail-on-regress",
        action="store_true",
        help="exit non-zero when --compare finds a micro case slower than "
        "the warn ratio (%.2fx)" % COMPARE_WARN_RATIO,
    )
    parser.add_argument(
        "--fail-cases",
        default=None,
        metavar="NAMES",
        help="comma-separated micro cases --fail-on-regress gates on "
        "(default: every case)",
    )
    args = parser.parse_args()

    if args.pr_out:
        out_dir = os.path.dirname(os.path.abspath(args.pr_out))
        os.makedirs(out_dir, exist_ok=True)
        record = pr_snapshot(args)
        with open(args.pr_out, "w") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        end_to_end = record["end_to_end"]
        summary = "total %.1fs" % end_to_end["total_after_s"]
        if "total_speedup" in end_to_end:
            summary += " (%.2fx vs %.1fs baseline)" % (
                end_to_end["total_speedup"],
                end_to_end["total_before_s"],
            )
        print("%s -> %s" % (summary, args.pr_out), flush=True)
        if args.compare:
            regressions = compare_report(record, args.compare)
            if args.fail_on_regress:
                gated = (
                    set(args.fail_cases.split(","))
                    if args.fail_cases
                    else set(regressions)
                )
                failing = sorted(set(regressions) & gated)
                if failing:
                    print(
                        "FAIL: micro regression beyond %.2fx in: %s"
                        % (
                            COMPARE_WARN_RATIO,
                            ", ".join(
                                "%s (%.2fx)" % (name, regressions[name])
                                for name in failing
                            ),
                        )
                    )
                    return 1
        return 0

    names = (
        sorted(EXPERIMENTS)
        if args.all
        else (args.figures or DEFAULT_FIGURES)
    )
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error("unknown experiment(s): %s" % ", ".join(unknown))

    os.makedirs(args.out_dir, exist_ok=True)
    micro = micro_section(args.micro_repeats) if args.micro else None
    for name in names:
        record = snapshot(name, args.scale, args.jobs, args.cache)
        if micro is not None:
            record["micro"] = micro
        path = os.path.join(args.out_dir, "BENCH_%s.json" % name)
        with open(path, "w") as handle:
            json.dump(record, handle, indent=2)
        print(
            "%s: %.2fs (%d cells, utilisation %.0f%%) -> %s"
            % (
                name,
                record["seconds"],
                record["execution"]["cells_executed"],
                100 * record["execution"]["worker_utilisation"],
                path,
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
