"""The metrics registry, snapshots, and per-cell scoping.

One :class:`MetricsRegistry` is active per process at any moment (one
simulation runs per process; see DESIGN.md "One simulation per process").
Simulator components fetch metric handles by name (`counter`, `gauge`,
`histogram`) and publish their plain-int tallies once per run; handles
with the same name resolve to the same object, so any number of
components can share a counter. Only deterministic per-cell simulator
metrics live here: the harness and the service count in plain fields.

``run_workload`` / Monte-Carlo shard tasks push a *fresh* registry for the
duration of one cell (:func:`scoped_registry`), so the snapshot taken at the
end contains exactly that cell's events — this is what makes snapshots
safely attachable to cached cell results and mergeable across worker
processes. Collection is always on.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Sequence

from repro.telemetry.metrics import (
    Counter,
    DEFAULT_EDGES,
    Gauge,
    Histogram,
    Number,
    merge_payloads,
)

class MetricsSnapshot:
    """An immutable-by-convention bag of serialised metrics.

    The payload is a plain ``{name: metric-payload}`` dict — JSON-able,
    picklable, and exactly what worker processes return attached to their
    cell results. ``merge`` is commutative and associative, so aggregates
    are independent of completion order.
    """

    __slots__ = (
        "metrics",
    )

    def __init__(self, metrics: Optional[Dict[str, Dict[str, object]]] = None):
        self.metrics: Dict[str, Dict[str, object]] = metrics or {}

    def __bool__(self) -> bool:
        return bool(self.metrics)

    def __contains__(self, name: str) -> bool:
        return name in self.metrics

    def get(self, name: str) -> Optional[Dict[str, object]]:
        """One metric's payload, or None."""
        return self.metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar view of a metric (counter value / gauge mean / histo mean)."""
        payload = self.metrics.get(name)
        if payload is None:
            return default
        kind = payload.get("kind")
        if kind == "counter":
            return float(payload["value"])
        count = payload.get("count") or 0
        if not count:
            return default
        return float(payload["sum"]) / count

    def merge(self, *others: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine snapshots into a new one (order-independent)."""
        merged: Dict[str, Dict[str, object]] = {
            name: dict(payload) for name, payload in self.metrics.items()
        }
        for other in others:
            for name, payload in other.metrics.items():
                if name in merged:
                    merged[name] = merge_payloads(merged[name], payload)
                else:
                    merged[name] = dict(payload)
        return MetricsSnapshot(merged)

    def ratio(self, numerator: str, denominator_extra: str) -> Optional[float]:
        """``a / (a + b)`` over two counters, None when both absent/zero."""
        a = self.value(numerator)
        b = self.value(denominator_extra)
        total = a + b
        if total <= 0:
            return None
        return a / total

    def headline(self) -> Dict[str, float]:
        """The report-card scalars derived from well-known metric names.

        Only quantities whose inputs are present appear; consumers treat
        this as a sparse dict.
        """
        out: Dict[str, float] = {}
        for label, hit, miss in (
            ("row_buffer_hit_rate", "dram.row_hits", "dram.row_misses"),
            ("llc_hit_rate", "cache.llc.hits", "cache.llc.misses"),
            (
                "metadata_cache_hit_rate",
                "cache.metadata.hits",
                "cache.metadata.misses",
            ),
        ):
            rate = self.ratio(hit, miss)
            if rate is not None:
                out[label] = rate
        for label, name in (
            ("tree_walk_depth_mean", "secure.tree_walk_depth"),
            ("queue_depth_mean", "dram.queue_depth"),
            ("read_miss_latency_mean_cpu", "system.read_miss_latency_cpu"),
            ("reconstruction_attempts_mean", "core.reconstruction_attempts"),
        ):
            payload = self.metrics.get(name)
            if payload and payload.get("count"):
                out[label] = float(payload["sum"]) / payload["count"]
        for label, name in (
            ("metadata_accesses", "secure.metadata_accesses"),
            ("mac_computations", "secure.mac_computations"),
            ("mc_devices", "mc.devices"),
            ("mc_failures", "mc.failures"),
        ):
            if name in self.metrics:
                out[label] = self.value(name)
        return out

    def to_payload(self) -> Dict[str, Dict[str, object]]:
        """The JSON-ready dict form (shared with the run cache)."""
        return {name: dict(payload) for name, payload in self.metrics.items()}

    @classmethod
    def from_payload(cls, payload: Optional[Dict[str, object]]) -> "MetricsSnapshot":
        """Rebuild a snapshot from :meth:`to_payload` output (None -> empty)."""
        if not payload:
            return cls()
        return cls({str(name): dict(value) for name, value in payload.items()})


class MetricsRegistry:
    """A named collection of live metrics."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # -- factories ----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Create (or fetch) the counter ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Create (or fetch) the gauge ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, edges: Sequence[Number] = DEFAULT_EDGES
    ) -> Histogram:
        """Create (or fetch) the fixed-edge histogram ``name``."""
        return self._get_or_create(name, Histogram, edges)

    def _get_or_create(self, name: str, factory, *args):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, factory):
                raise TypeError(
                    "metric %s already registered as %s"
                    % (name, type(existing).__name__)
                )
            return existing
        metric = factory(name, *args)
        self._metrics[name] = metric
        return metric

    def snapshot(self) -> MetricsSnapshot:
        """Serialise the current state."""
        return MetricsSnapshot(
            {
                name: metric.to_payload()  # type: ignore[attr-defined]
                for name, metric in self._metrics.items()
            }
        )


# ---------------------------------------------------------------------------
# The process's registry stack
# ---------------------------------------------------------------------------
#
# The bottom entry is the process-default registry; ``scoped_registry``
# pushes and pops above it.

_REGISTRY_STACK: List[MetricsRegistry] = [MetricsRegistry()]


def get_registry() -> MetricsRegistry:
    """The active registry (process default, or the innermost scope)."""
    return _REGISTRY_STACK[-1]


@contextlib.contextmanager
def scoped_registry() -> Iterator[MetricsRegistry]:
    """Push a fresh registry for the duration of the block.

    Components constructed inside the block register into it; the caller
    snapshots it before (or after) the block exits. Scopes nest.
    """
    registry = MetricsRegistry()
    _REGISTRY_STACK.append(registry)
    try:
        yield registry
    finally:
        _REGISTRY_STACK.pop()
