"""The metrics registry, snapshots, and per-cell scoping.

One :class:`MetricsRegistry` is active per process at any moment (one
simulation runs per process; see DESIGN.md "One simulation per process").
Simulator components fetch metric handles by name at construction time
(`counter`, `gauge`, `histogram`, `timer`); handles with the same name
resolve to the same object, so any number of components can share a
counter.

``run_workload`` / Monte-Carlo shard tasks push a *fresh* registry for the
duration of one cell (:func:`cell_scope`), so the snapshot taken at the end
contains exactly that cell's events — this is what makes snapshots safely
attachable to cached cell results and mergeable across worker processes.

Collection is on by default; set ``REPRO_METRICS=0`` (or call
:func:`configure`) to disable it, in which case every registry hands out
the shared null metrics and instrumented code paths become no-ops.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import (
    Counter,
    DEFAULT_EDGES,
    Gauge,
    Histogram,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_TIMER,
    Number,
    Timer,
    merge_payloads,
)

_FALSEY = ("0", "false", "no", "off")


def _env_enabled() -> bool:
    """Collection default: on, unless ``REPRO_METRICS`` is falsey."""
    return os.environ.get("REPRO_METRICS", "").lower() not in _FALSEY


def metrics_out_from_env() -> Optional[str]:
    """An output path carried in ``REPRO_METRICS``, if any.

    ``REPRO_METRICS`` is tri-state: falsey disables collection, ``1``/
    ``true``/empty enables it with no file, anything else is a path the
    CLI writes the metrics snapshot to (the ``--metrics-out`` default).
    """
    value = os.environ.get("REPRO_METRICS", "")
    if not value or value.lower() in _FALSEY + ("1", "true", "yes", "on"):
        return None
    return value


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
        if kind == "timer":
            return float(payload["total_seconds"])
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

    def deterministic(self) -> "MetricsSnapshot":
        """The snapshot minus host wall-clock timers.

        Counters/gauges/histograms record simulated quantities and are
        bit-identical across ``--jobs`` settings; timers are not.
        """
        return MetricsSnapshot(
            {
                name: payload
                for name, payload in self.metrics.items()
                if payload.get("kind") != "timer"
            }
        )

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
            ("scrub_corrections", "core.scrub_corrections"),
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
    """A named collection of live metrics.

    ``enabled=False`` makes every factory return the shared null metric, so
    a disabled registry costs nothing at record sites and snapshots empty.
    """

    __slots__ = (
        "enabled",
        "_metrics",
    )

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, object] = {}

    # -- factories ----------------------------------------------------------

    def counter(self, name: str, description: str = "") -> Counter:
        """Create (or fetch) the counter ``name``."""
        if not self.enabled:
            return NULL_COUNTER
        return self._get_or_create(name, Counter, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Create (or fetch) the gauge ``name``."""
        if not self.enabled:
            return NULL_GAUGE
        return self._get_or_create(name, Gauge, description)

    def histogram(
        self,
        name: str,
        edges: Sequence[Number] = DEFAULT_EDGES,
        description: str = "",
    ) -> Histogram:
        """Create (or fetch) the fixed-edge histogram ``name``."""
        if not self.enabled:
            return NULL_HISTOGRAM
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TypeError(
                    "metric %s already registered as %s"
                    % (name, type(existing).__name__)
                )
            return existing
        metric = Histogram(name, edges, description)
        self._metrics[name] = metric
        return metric

    def timer(self, name: str, description: str = "") -> Timer:
        """Create (or fetch) the timer ``name``."""
        if not self.enabled:
            return NULL_TIMER
        return self._get_or_create(name, Timer, description)

    def _get_or_create(self, name: str, factory, description: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, factory):
                raise TypeError(
                    "metric %s already registered as %s"
                    % (name, type(existing).__name__)
                )
            return existing
        metric = factory(name, description)
        self._metrics[name] = metric
        return metric

    # -- introspection ------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[str, object]]:
        return iter(sorted(self._metrics.items()))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def reset(self) -> None:
        """Reset every registered metric in place (handles stay valid)."""
        for metric in self._metrics.values():
            metric.reset()  # type: ignore[attr-defined]

    def snapshot(self) -> MetricsSnapshot:
        """Serialise the current state (empty for a disabled registry)."""
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
# pushes and pops above it. The collection *enable* flag is configuration,
# not run state: it only steers registries created afterwards.

_COLLECTION_ENABLED: Optional[bool] = None
_REGISTRY_STACK: List[MetricsRegistry] = []


def collection_enabled() -> bool:
    """Whether telemetry collection is on in this process."""
    global _COLLECTION_ENABLED
    if _COLLECTION_ENABLED is None:
        _COLLECTION_ENABLED = _env_enabled()
    return _COLLECTION_ENABLED


def configure(enabled: bool) -> None:
    """Turn collection on/off process-wide (CLI / tests).

    Only affects registries created afterwards (including every subsequent
    :func:`cell_scope`); the currently active registry is untouched.
    """
    global _COLLECTION_ENABLED
    _COLLECTION_ENABLED = bool(enabled)


def get_registry() -> MetricsRegistry:
    """The active registry (process default, or the innermost scope)."""
    stack = _REGISTRY_STACK
    if not stack:
        stack.append(MetricsRegistry(enabled=collection_enabled()))
    return stack[-1]


@contextlib.contextmanager
def scoped_registry(
    enabled: Optional[bool] = None,
) -> Iterator[MetricsRegistry]:
    """Push a fresh registry for the duration of the block.

    Components constructed inside the block register into it; the caller
    snapshots it before (or after) the block exits. Scopes nest.
    """
    if enabled is None:
        enabled = collection_enabled()
    stack = _REGISTRY_STACK
    if not stack:
        stack.append(MetricsRegistry(enabled=collection_enabled()))
    registry = MetricsRegistry(enabled=enabled)
    stack.append(registry)
    try:
        yield registry
    finally:
        stack.pop()
