"""Structured event tracing: bounded ring buffer + JSONL export.

The tracer records coarse-grained, schema-light events — cell start/finish,
cache hits, reconstruction corrections, scrub passes, Monte-Carlo shard
completions — each stamped with the ids needed to line events up across a
run: a ``run`` id, the current ``cell`` (design/workload or scheme/shard
label) and ``shard`` where applicable.

The buffer is a ``deque(maxlen=capacity)``: emission never blocks and never
grows memory; old events fall off the front and are counted in ``dropped``.
Export is JSON Lines (one event per line), the format ``--trace-out`` /
``REPRO_TRACE`` write and :func:`read_jsonl` round-trips.

Tracing is *off* by default (``emit`` is a single boolean check); it turns
on when a trace sink is requested. Events are per-process: with
``--jobs > 1`` worker-side simulation events stay in the workers, so run
with ``--jobs 1`` when a complete simulation trace matters.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

_FALSEY = ("0", "false", "no", "off")


def trace_out_from_env() -> Optional[str]:
    """The trace output path carried in ``REPRO_TRACE``, if any."""
    value = os.environ.get("REPRO_TRACE", "")
    if not value or value.lower() in _FALSEY:
        return None
    return value


@dataclass
class TraceEvent:
    """One structured event."""

    seq: int
    kind: str
    run: str = ""
    cell: str = ""
    shard: Optional[int] = None
    data: Dict[str, object] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready dict (stable key order for diffable traces)."""
        payload: Dict[str, object] = {
            "seq": self.seq,
            "kind": self.kind,
            "run": self.run,
            "cell": self.cell,
        }
        if self.shard is not None:
            payload["shard"] = self.shard
        payload["data"] = self.data
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "TraceEvent":
        """Rebuild an event from :meth:`to_payload` output."""
        return cls(
            seq=int(payload["seq"]),
            kind=str(payload["kind"]),
            run=str(payload.get("run", "")),
            cell=str(payload.get("cell", "")),
            shard=payload.get("shard"),  # type: ignore[arg-type]
            data=dict(payload.get("data", {})),  # type: ignore[arg-type]
        )


class EventTracer:
    """Bounded ring buffer of :class:`TraceEvent`."""

    __slots__ = (
        "capacity",
        "enabled",
        "run_id",
        "dropped",
        "_seq",
        "_events",
        "_cell",
        "_shard",
    )

    def __init__(
        self, capacity: int = 4096, enabled: bool = False, run_id: str = ""
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        self.run_id = run_id
        self.dropped = 0
        self._seq = 0
        self._events: deque = deque(maxlen=capacity)
        self._cell = ""
        self._shard: Optional[int] = None

    # -- recording ----------------------------------------------------------

    def emit(self, kind: str, **data: object) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled:
            return
        self._seq += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(
            TraceEvent(
                seq=self._seq,
                kind=kind,
                run=self.run_id,
                cell=self._cell,
                shard=self._shard,
                data=data,
            )
        )

    @contextlib.contextmanager
    def context(
        self, cell: Optional[str] = None, shard: Optional[int] = None
    ) -> Iterator["EventTracer"]:
        """Stamp events emitted inside the block with cell/shard ids."""
        saved = (self._cell, self._shard)
        if cell is not None:
            self._cell = cell
        if shard is not None:
            self._shard = shard
        try:
            yield self
        finally:
            self._cell, self._shard = saved

    def reset(self) -> None:
        """Drop all buffered events and counters."""
        self._events.clear()
        self.dropped = 0
        self._seq = 0

    # -- reading ------------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    # -- JSONL export -------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """Write buffered events as JSON Lines; returns how many."""
        events = self.events()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            for event in events:
                handle.write(
                    json.dumps(event.to_payload(), sort_keys=False) + "\n"
                )
        return len(events)


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a JSONL trace back into events (the round-trip of write_jsonl)."""
    events: List[TraceEvent] = []
    with open(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_payload(json.loads(line)))
    return events


# ---------------------------------------------------------------------------
# The process's tracer
# ---------------------------------------------------------------------------

_TRACER: Optional[EventTracer] = None


def get_tracer() -> EventTracer:
    """The process's tracer (enabled iff ``REPRO_TRACE`` is set)."""
    global _TRACER
    if _TRACER is None:
        _TRACER = EventTracer(enabled=trace_out_from_env() is not None)
    return _TRACER


def configure_tracer(
    enabled: Optional[bool] = None,
    capacity: Optional[int] = None,
    run_id: Optional[str] = None,
) -> EventTracer:
    """Reconfigure the process's tracer (CLI entry points, tests)."""
    global _TRACER
    tracer = get_tracer()
    if capacity is not None and capacity != tracer.capacity:
        tracer = _TRACER = EventTracer(
            capacity=capacity, enabled=tracer.enabled, run_id=tracer.run_id
        )
    if enabled is not None:
        tracer.enabled = enabled
    if run_id is not None:
        tracer.run_id = run_id
    return tracer
