"""Metric primitives: counters, gauges, fixed-edge histograms, timers.

Design constraints (see DESIGN.md, "Telemetry"):

* zero dependencies — plain Python, importable from worker processes;
* every metric must serialise to a JSON-able payload and *merge*
  commutatively, so per-cell snapshots taken in worker processes combine
  into the same aggregate no matter the completion order (the guarantee
  ``ResultTable.merge()`` already gives simulation results).

Determinism convention: counters, gauges and histograms record *simulated*
quantities (cycles, depths, occupancies) and are bit-identical across
``--jobs`` settings; timers record host wall-clock and are therefore
excluded from determinism comparisons (``MetricsSnapshot.deterministic``).
"""

from __future__ import annotations

import contextlib
import time
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing event counter (ints or floats)."""

    kind = "counter"

    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counter %s cannot decrease" % self.name)
        self.value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def to_payload(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return "Counter(%s=%s)" % (self.name, self.value)


class Gauge:
    """A sampled value tracked as count/sum/min/max observations.

    There is deliberately no "last value" in the payload: last-writer-wins
    is completion-order dependent, which would break order-independent
    snapshot merging. Consumers read ``mean``/``minimum``/``maximum``.
    """

    kind = "gauge"

    __slots__ = ("name", "description", "count", "total", "minimum", "maximum")

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.reset()

    def set(self, value: Number) -> None:
        """Record one observation of the gauge's value."""
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Mean observation, 0.0 when empty."""
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        """Drop all observations."""
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[Number] = None
        self.maximum: Optional[Number] = None

    def to_payload(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        return "Gauge(%s mean=%.3f n=%d)" % (self.name, self.mean, self.count)


#: Default bucket edges for histograms created without explicit edges:
#: powers of two cover both small depths and long latencies.
DEFAULT_EDGES: Tuple[Number, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Histogram:
    """Fixed-bucket-edge histogram.

    ``edges`` is a strictly increasing sequence; bucket ``i`` (for
    ``i < len(edges)``) counts values ``v`` with ``edges[i-1] < v <=
    edges[i]`` — a value exactly on an edge lands in that edge's bucket —
    and the final overflow bucket counts ``v > edges[-1]``. Fixed edges are
    what make two independently recorded histograms mergeable by
    element-wise bucket addition.
    """

    kind = "histogram"

    __slots__ = (
        "name",
        "description",
        "edges",
        "buckets",
        "count",
        "total",
        "minimum",
        "maximum",
    )

    def __init__(
        self,
        name: str,
        edges: Sequence[Number] = DEFAULT_EDGES,
        description: str = "",
    ):
        edges = tuple(edges)
        if not edges:
            raise ValueError("histogram %s needs at least one edge" % name)
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                "histogram %s edges must be strictly increasing" % name
            )
        self.name = name
        self.description = description
        self.edges = edges
        self.buckets: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[Number] = None
        self.maximum: Optional[Number] = None

    def record(self, value: Number, weight: int = 1) -> None:
        """Add ``weight`` observations of ``value``."""
        self.buckets[bisect_left(self.edges, value)] += weight
        self.count += weight
        self.total += value * weight
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Mean of observations, 0.0 when empty."""
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        """Clear all buckets and summary fields."""
        self.buckets = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None

    def to_payload(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "edges": list(self.edges),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        return "Histogram(%s mean=%.2f n=%d)" % (self.name, self.mean, self.count)


class Timer:
    """Host wall-clock accumulator (count + total seconds).

    Timers exist for profiling the harness itself (per-cell wall times,
    pool spans). They are intentionally *not* part of the deterministic
    snapshot view — wall clocks differ across runs and worker counts.
    """

    kind = "timer"

    __slots__ = ("name", "description", "count", "total_seconds")

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Add one measured duration."""
        self.count += 1
        self.total_seconds += seconds

    @contextlib.contextmanager
    def time(self):
        """Context manager measuring the enclosed block."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.record(time.perf_counter() - started)

    def reset(self) -> None:
        """Zero the accumulator."""
        self.count = 0
        self.total_seconds = 0.0

    def to_payload(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "count": self.count,
            "total_seconds": self.total_seconds,
        }

    def __repr__(self) -> str:
        return "Timer(%s total=%.3fs n=%d)" % (
            self.name,
            self.total_seconds,
            self.count,
        )


# ---------------------------------------------------------------------------
# Payload-level merge (what snapshots use — payloads, not live objects, are
# what worker processes ship back, so merging operates on payloads).
# ---------------------------------------------------------------------------


def _merge_extremum(left, right, pick):
    if left is None:
        return right
    if right is None:
        return left
    return pick(left, right)


def merge_payloads(
    left: Dict[str, object], right: Dict[str, object]
) -> Dict[str, object]:
    """Commutatively merge two single-metric payloads of the same kind."""
    kind = left.get("kind")
    if kind != right.get("kind"):
        raise ValueError(
            "cannot merge %r payload with %r payload" % (kind, right.get("kind"))
        )
    if kind == Counter.kind:
        return {"kind": kind, "value": left["value"] + right["value"]}
    if kind == Timer.kind:
        return {
            "kind": kind,
            "count": left["count"] + right["count"],
            "total_seconds": left["total_seconds"] + right["total_seconds"],
        }
    if kind == Gauge.kind:
        return {
            "kind": kind,
            "count": left["count"] + right["count"],
            "sum": left["sum"] + right["sum"],
            "min": _merge_extremum(left["min"], right["min"], min),
            "max": _merge_extremum(left["max"], right["max"], max),
        }
    if kind == Histogram.kind:
        if list(left["edges"]) != list(right["edges"]):
            raise ValueError(
                "cannot merge histograms with different edges: %r vs %r"
                % (left["edges"], right["edges"])
            )
        return {
            "kind": kind,
            "edges": list(left["edges"]),
            "buckets": [
                a + b for a, b in zip(left["buckets"], right["buckets"])
            ],
            "count": left["count"] + right["count"],
            "sum": left["sum"] + right["sum"],
            "min": _merge_extremum(left["min"], right["min"], min),
            "max": _merge_extremum(left["max"], right["max"], max),
        }
    raise ValueError("unknown metric kind %r" % (kind,))
