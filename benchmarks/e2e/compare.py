#!/usr/bin/env python3
"""Compare two benchmark reports written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py BASE.json HEAD.json
    python3 benchmarks/e2e/compare.py b1.json,b2.json,... h1.json,h2.json,...

Each side may list several reports (comma-separated, in the order they
were run); their untraced runs are pooled per workload. For every
(end-to-end metric, workload) pair the bounds in ``BENCHMARK.json`` decide
the verdict:

* ``regressed`` — the head median is worse than the base median by more
  than the metric's bound;
* ``improved``  — better by more than the bound;
* ``unresolved`` — the spread within a side (quartile distance over the
  median, across its runs or across the samples inside one run) exceeds
  the bound, so the runs cannot tell a change from noise — unless each
  side has at least three runs and every head run reads better than every
  base run;
* ``unchanged`` — otherwise.

With at least ten runs per side (alternate base and head runs), each cell
also reports the head's win rate over index-paired runs and whether the
median gap exceeds the base's interquartile range; a gain may be claimed
only when the win rate is at least 0.9 and the gap exceeds that range.

Prints one row per workload. Exit status: 0, or 1 if any pair regressed,
or 2 when the reports are not comparable (different ``host.cpu_count``).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_RATE = 0.9
#: Runs per side before "every head run beats every base run" may overrule
#: a spread wider than the bound (with one run each it always would).
MIN_OVERRIDE_RUNS = 3


def load_side(spec: str):
    """Reports named in ``spec`` (comma-separated), in order."""
    return [json.loads(Path(path).read_text()) for path in spec.split(",") if path]


def relative_spread(values) -> float:
    """(q3 - q1) / median, or 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def side_runs(reports, workload):
    return [
        run
        for report in reports
        for run in report["runs"]
        if run["workload"] == workload and not run["trace"] and run["metrics"]
    ]


def compare_metric(entry, base_runs, head_runs) -> dict:
    """Verdict for one (metric, workload) pair."""
    name, bound = entry["name"], entry["bound"]
    lower_is_better = entry["better"] == "lower"
    base = [run["metrics"][name] for run in base_runs]
    head = [run["metrics"][name] for run in head_runs]
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    sign = 1.0 if lower_is_better else -1.0
    # Positive = head is worse than base, as a share of the base median.
    worse_by = sign * (head_median - base_median) / base_median
    spread = max(
        [relative_spread(base), relative_spread(head)]
        + [
            relative_spread(run["samples"].get(name, []))
            for run in base_runs + head_runs
        ]
    )

    def better(a, b):
        return a < b if lower_is_better else a > b

    if spread > bound:
        separated = min(len(base), len(head)) >= MIN_OVERRIDE_RUNS and all(
            better(h, b) for h in head for b in base
        )
        verdict = "improved" if separated else "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    elif worse_by < -bound:
        verdict = "improved"
    else:
        verdict = "unchanged"
    result = {
        "verdict": verdict,
        "base": base_median,
        "head": head_median,
        "change": (head_median - base_median) / base_median,
        "spread": spread,
    }
    pairs = list(zip(base, head))
    if len(pairs) >= MIN_PAIRS:
        wins = sum(1 for b, h in pairs if better(h, b))
        q1, _median, q3 = statistics.quantiles(base, n=4)
        result["win_rate"] = wins / len(pairs)
        result["gap_exceeds_base_iqr"] = abs(head_median - base_median) > (q3 - q1)
        result["gain"] = (
            result["win_rate"] >= WIN_RATE
            and result["gap_exceeds_base_iqr"]
            and worse_by < 0
        )
    return result


def compare(base_reports, head_reports, catalog) -> dict:
    """{workload: {metric: verdict dict}} plus failed-operation counts."""
    cpus = {
        report["provenance"]["host"]["cpu_count"]
        for report in base_reports + head_reports
    }
    if len(cpus) != 1:
        raise ValueError(
            "reports come from hosts with different cpu_count %s" % sorted(cpus)
        )
    workloads = [
        entry["name"]
        for entry in catalog["workloads"]
        if side_runs(base_reports, entry["name"])
        and side_runs(head_reports, entry["name"])
    ]
    table = {}
    for workload in workloads:
        base_runs = side_runs(base_reports, workload)
        head_runs = side_runs(head_reports, workload)
        row = {
            entry["name"]: compare_metric(entry, base_runs, head_runs)
            for entry in catalog["end_to_end"]
        }
        row["_failed"] = (
            sum(run["failed"] for run in base_runs),
            sum(run["failed"] for run in head_runs),
        )
        table[workload] = row
    return table


def format_cell(result) -> str:
    text = "%s %+.1f%%" % (result["verdict"], 100.0 * result["change"])
    if "win_rate" in result:
        text += " win %.0f%%%s" % (
            100.0 * result["win_rate"],
            " gap>IQR" if result["gap_exceeds_base_iqr"] else "",
        )
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="parent report(s), comma-separated")
    parser.add_argument("head", help="change report(s), comma-separated")
    args = parser.parse_args(argv)
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        table = compare(load_side(args.base), load_side(args.head), catalog)
    except ValueError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    metrics = [entry["name"] for entry in catalog["end_to_end"]]
    print("%-14s | %s | failed base/head" % ("workload", " | ".join(metrics)))
    regressed = False
    for workload, row in table.items():
        cells = []
        for name in metrics:
            cells.append(format_cell(row[name]))
            regressed = regressed or row[name]["verdict"] == "regressed"
        print("%-14s | %s | %d/%d" % ((workload, " | ".join(cells)) + row["_failed"]))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
