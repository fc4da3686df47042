"""Cross-worker aggregation of telemetry snapshots, and the metrics dump.

Each experiment cell (a ``run_workload`` grid cell or a Monte-Carlo shard
batch) produces one :class:`MetricsSnapshot` in whatever process ran it —
or, on a run-cache hit, out of the cached payload. The harness feeds every
snapshot into the process's :data:`TELEMETRY_AGGREGATE`, grouped by
design/scheme, always iterating cells in *grid order*: combined with the
commutative snapshot merge this makes the aggregate a pure function of the
set of cells, independent of worker count or completion order (the same
guarantee ``ResultTable.merge()`` gives the simulation results). Collection
is always on, so a snapshot revived from the run cache carries the same
metrics as the run that stored it.

``write_metrics`` is the one serialisation point shared by the CLI
``--metrics-out`` and ``tools/run_experiments.py``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.telemetry.registry import MetricsSnapshot


class TelemetryAggregate:
    """Merged snapshots, grouped by design/scheme plus one global merge."""

    __slots__ = (
        "_groups",
        "_overall",
    )

    def __init__(self) -> None:
        self._groups: Dict[str, MetricsSnapshot] = {}
        self._overall = MetricsSnapshot()

    def reset(self) -> None:
        """Drop everything (the CLI resets between runs)."""
        self._groups.clear()
        self._overall = MetricsSnapshot()

    def add(self, group: str, snapshot: object) -> None:
        """Merge one cell's snapshot into ``group`` and the global merge.

        ``snapshot`` may be a :class:`MetricsSnapshot` or its payload dict
        (what cached cells and worker processes carry).
        """
        if not isinstance(snapshot, MetricsSnapshot):
            snapshot = MetricsSnapshot.from_payload(snapshot)  # type: ignore[arg-type]
        existing = self._groups.get(group)
        self._groups[group] = (
            snapshot if existing is None else existing.merge(snapshot)
        )
        self._overall = self._overall.merge(snapshot)

    # -- views --------------------------------------------------------------

    def groups(self) -> Dict[str, MetricsSnapshot]:
        """Per-group merged snapshots (sorted by group name)."""
        return {name: self._groups[name] for name in sorted(self._groups)}

    def overall(self) -> MetricsSnapshot:
        """Everything merged together."""
        return self._overall

    def __bool__(self) -> bool:
        return bool(self._groups)

    def headlines(self) -> Dict[str, Dict[str, float]]:
        """Per-group headline scalars (the bench-snapshot embed)."""
        return {
            name: snapshot.headline()
            for name, snapshot in self.groups().items()
        }

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready structure for ``--metrics-out`` files."""
        return {
            "groups": {
                name: {
                    "headline": snapshot.headline(),
                    "metrics": snapshot.to_payload(),
                }
                for name, snapshot in self.groups().items()
            },
            "global": {
                "headline": self._overall.headline(),
                "metrics": self._overall.to_payload(),
            },
        }


#: The process's aggregate: the harness feeds it, and the CLI, the report
#: layer and the tests read it.
TELEMETRY_AGGREGATE = TelemetryAggregate()


def write_metrics(
    path: str,
    run: Optional[Dict[str, object]] = None,
    aggregate: Optional[TelemetryAggregate] = None,
) -> str:
    """Write the aggregate (plus run provenance) as JSON; returns the path."""
    aggregate = aggregate if aggregate is not None else TELEMETRY_AGGREGATE
    payload = {"run": run or {}, "telemetry": aggregate.as_dict()}
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
    return path
