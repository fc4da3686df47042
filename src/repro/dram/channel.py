"""One memory channel: the state that persists across scheduling epochs.

A channel is a set of banks sharing a command/data bus. Between two
``MemoryController.process`` epochs it remembers per-bank state, data-bus
occupancy and direction, the per-rank activation history (tFAW/tRRD), the
write-drain mode and the last command start. Per-bank state is flat lists
indexed by ``rank * banks_per_rank + bank``; open-page policy keeps a row
open until a conflicting access precharges it. The controller's decision
loop indexes the lists directly and keeps the scalar fields in locals
while it runs, writing them back at the end of the epoch (and before
every sanitizer hook).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.dram.timing import DramTiming, MemoryConfig


class ChannelState:
    """Timing state of one channel (banks + shared data bus)."""

    __slots__ = (
        "config",
        "timing",
        "open_rows",
        "ready_at",
        "row_hits",
        "row_misses",
        "closed_banks",
        "bus_free_at",
        "last_was_write",
        "last_command_start",
        "draining",
        "recent_activates",
        "refresh_stall_cycles",
    )

    def __init__(self, config: MemoryConfig) -> None:
        banks = config.banks_per_channel
        self.config = config
        self.timing: DramTiming = config.timing
        #: Open row per bank, -1 while the bank is closed.
        self.open_rows: List[int] = [-1] * banks
        #: Earliest cycle each bank's next command may start.
        self.ready_at: List[int] = [0] * banks
        self.row_hits: List[int] = [0] * banks
        self.row_misses: List[int] = [0] * banks  #: one activation each
        #: Banks whose row buffer has never been opened. Monotone to zero
        #: (open-page policy never precharges without activating), which
        #: makes ``closed_banks == 0`` a cheap "every candidate classifies
        #: hit-or-miss" predicate.
        self.closed_banks = banks
        self.bus_free_at = 0
        self.last_was_write = False
        self.last_command_start = -1
        #: Write-drain hysteresis: set at the high watermark, cleared at
        #: the low one.
        self.draining = False
        #: Per-rank activate times, newest last, the last 8 kept
        #: (tFAW/tRRD).
        self.recent_activates: List[Deque[int]] = [
            deque(maxlen=8) for _ in range(config.ranks_per_channel)
        ]
        self.refresh_stall_cycles = 0
