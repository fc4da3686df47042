"""Cross-layer observability: metrics registry and aggregation.

The two pieces (see DESIGN.md, "Telemetry"):

* :class:`MetricsRegistry` — counters, gauges, fixed-edge histograms and
  timers, fetched by name at component construction. Collection is always
  on; :func:`scoped_registry` gives each cell its own registry.
* :data:`TELEMETRY_AGGREGATE` — order-independent merge of per-cell
  snapshots (including snapshots revived from the run cache), grouped by
  design/scheme, dumped by ``--metrics-out``.

Instrumented layers: ``dram.controller`` (row-buffer hits, queue depth,
latencies, write-drain bursts, activations), ``cache.setassoc``/``hierarchy``
(per-level hit/miss, occupancy), ``secure.timing_engine``/``mac`` (tree-walk
depth, metadata accesses, MAC computations), ``core.reconstruction``
(candidate-chip attempts, corrections), ``reliability.montecarlo``
(per-shard progress) and ``sim.system``
(read-miss service latency).
"""

from repro.telemetry.aggregate import (
    TELEMETRY_AGGREGATE,
    TelemetryAggregate,
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
    get_registry,
    scoped_registry,
)

__all__ = [
    "Counter",
    "DEFAULT_EDGES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "TELEMETRY_AGGREGATE",
    "TelemetryAggregate",
    "Timer",
    "get_registry",
    "merge_payloads",
    "scoped_registry",
    "write_metrics",
]
