"""ASCII rendering of experiment output (series, tables, comparisons)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

if TYPE_CHECKING:
    from repro.parallel.instrument import ExecutionStats
    from repro.telemetry import TelemetryAggregate


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render a simple aligned table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    series: Dict[str, Dict[str, float]],
    title: str = "",
    value_format: str = "%.3f",
) -> str:
    """Render named series over shared x-labels (a text stand-in for bars).

    ``series`` maps series-name -> {x-label: value}.
    """
    labels: List[str] = []
    for values in series.values():
        for label in values:
            if label not in labels:
                labels.append(label)
    headers = ["workload"] + list(series)
    rows = []
    for label in labels:
        row = [label]
        for name in series:
            value = series[name].get(label)
            row.append("-" if value is None else value_format % value)
        rows.append(row)
    return render_table(headers, rows, title)


def render_execution_stats(stats: "ExecutionStats") -> str:
    """One-line-per-metric summary of the parallel execution layer.

    Shows cache hit/miss counts, the peak resident set, cell execution
    totals, pool utilisation and the slowest cells — the numbers that
    tell you whether ``--jobs`` and the run cache are actually paying off
    (and, when sanitized, the checks the cells ran).
    """
    cells = stats.cells_executed
    lines = [
        "execution: %d cell(s) run, %d cache hit(s), %d miss(es), peak RSS %.1f MiB"
        % (cells, stats.cache_hits, stats.cache_misses, stats.peak_rss_mib)
    ]
    if cells:
        lines.append(
            "timing: %.1fs busy over %.1fs span, utilisation %.0f%%"
            % (
                stats.busy_seconds,
                stats.span_seconds,
                100 * stats.worker_utilisation,
            )
        )
        slowest = ", ".join(
            "%s=%.1fs" % (label, seconds)
            for label, seconds in stats.slowest_cells(3)
        )
        lines.append("slowest cells: " + slowest)
    if stats.sanitizer_checks:
        lines.append("sanitizer: %d check(s) in the executed cells" % stats.sanitizer_checks)
    return "\n".join(lines)


def render_metrics_summary(aggregate: "TelemetryAggregate") -> str:
    """Per-group headline metrics as a table (the --metrics-out preview).

    Rows are groups (designs / MC schemes), columns the union of headline
    keys present in any group; absent quantities render as '-'.
    """
    headlines = aggregate.headlines()
    columns: List[str] = []
    for values in headlines.values():
        for key in values:
            if key not in columns:
                columns.append(key)
    rows = []
    for group in headlines:
        row: List[object] = [group]
        for column in columns:
            value = headlines[group].get(column)
            row.append("-" if value is None else value)
        rows.append(row)
    return render_table(["group"] + columns, rows, title="telemetry headline")


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return "%.3f" % cell
    return str(cell)
