"""Metric primitives: counters, gauges and fixed-edge histograms.

Design constraints (see DESIGN.md, "Telemetry"):

* zero dependencies — plain Python, importable from worker processes;
* every metric must serialise to a JSON-able payload and *merge*
  commutatively, so per-cell snapshots taken in worker processes combine
  into the same aggregate no matter the completion order (the guarantee
  ``ResultTable.merge()`` already gives simulation results).

Determinism convention: every metric records a *simulated* quantity
(cycles, depths, occupancies), so a cell's snapshot is bit-identical across
``--jobs`` settings. Host wall clocks are not metrics: the harness keeps
them in plain fields (``repro.parallel.ExecutionStats``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing event counter (ints or floats)."""

    kind = "counter"

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counter %s cannot decrease" % self.name)
        self.value += amount

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

    __slots__ = ("name", "count", "total", "minimum", "maximum")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[Number] = None
        self.maximum: Optional[Number] = None

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
        "edges",
        "buckets",
        "count",
        "total",
        "minimum",
        "maximum",
    )

    def __init__(self, name: str, edges: Sequence[Number] = DEFAULT_EDGES):
        edges = tuple(edges)
        if not edges:
            raise ValueError("histogram %s needs at least one edge" % name)
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                "histogram %s edges must be strictly increasing" % name
            )
        self.name = name
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
