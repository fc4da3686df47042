"""Cross-layer observability: metrics registry, event tracer, aggregation.

The three pieces (see DESIGN.md, "Telemetry"):

* :class:`MetricsRegistry` — counters, gauges, fixed-edge histograms and
  timers, fetched by name at component construction; a disabled registry
  hands out shared null metrics so instrumented inner loops cost one
  no-op attribute call. ``REPRO_METRICS=0`` disables collection.
* :class:`EventTracer` — bounded ring buffer of structured events with
  run/cell/shard ids, exported as JSONL via ``--trace-out`` /
  ``REPRO_TRACE``.
* :data:`TELEMETRY_AGGREGATE` — order-independent merge of per-cell
  snapshots (including snapshots revived from the run cache), grouped by
  design/scheme, dumped by ``--metrics-out``.

Instrumented layers: ``dram.controller`` (row-buffer hits, queue depth,
latencies, write-drain bursts, activations), ``cache.setassoc``/``hierarchy``
(per-level hit/miss, occupancy), ``secure.timing_engine``/``mac`` (tree-walk
depth, metadata accesses, MAC computations), ``core.reconstruction``/
``scrubber`` (candidate-chip attempts, scrub passes),
``reliability.montecarlo`` (per-shard progress) and ``sim.system``
(read-miss service latency).
"""

from repro.telemetry.aggregate import (
    TELEMETRY_AGGREGATE,
    TelemetryAggregate,
    cell_scope,
    write_metrics,
)
from repro.telemetry.metrics import (
    Counter,
    DEFAULT_EDGES,
    Gauge,
    Histogram,
    Timer,
    merge_payloads,
)
from repro.telemetry.registry import (
    MetricsRegistry,
    MetricsSnapshot,
    collection_enabled,
    configure,
    get_registry,
    metrics_out_from_env,
    scoped_registry,
)
from repro.telemetry.trace import (
    EventTracer,
    TraceEvent,
    configure_tracer,
    get_tracer,
    read_jsonl,
    trace_out_from_env,
)

__all__ = [
    "Counter",
    "DEFAULT_EDGES",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "TELEMETRY_AGGREGATE",
    "TelemetryAggregate",
    "Timer",
    "TraceEvent",
    "cell_scope",
    "collection_enabled",
    "configure",
    "configure_tracer",
    "get_registry",
    "get_tracer",
    "merge_payloads",
    "metrics_out_from_env",
    "read_jsonl",
    "scoped_registry",
    "trace_out_from_env",
    "write_metrics",
]
