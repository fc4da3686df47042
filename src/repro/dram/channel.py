"""One memory channel: the state that persists across scheduling epochs.

A channel is a set of banks sharing a command/data bus. Between two
``MemoryController.process`` epochs it remembers per-bank state, data-bus
occupancy and direction, the per-rank activation history (tFAW/tRRD), the
write-drain mode and the last command start. The controller's decision
loop keeps the scalar fields in locals while it runs and writes them back
at the end of the epoch (and before every sanitizer hook).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.dram.bank import BankState
from repro.dram.timing import DramTiming, MemoryConfig


class ChannelState:
    """Timing state of one channel (banks + shared data bus)."""

    __slots__ = (
        "config",
        "timing",
        "banks",
        "open_rows",
        "closed_banks",
        "bus_free_at",
        "last_was_write",
        "last_command_start",
        "draining",
        "recent_activates",
        "refresh_stall_cycles",
    )

    def __init__(self, config: MemoryConfig):
        self.config = config
        self.timing: DramTiming = config.timing
        self.banks: List[BankState] = [
            BankState() for _ in range(config.banks_per_channel)
        ]
        #: Open-row table: ``open_rows[flat_bank]`` mirrors the bank's
        #: ``open_row`` with -1 for closed, so the scheduler classifies a
        #: candidate with one index + compare.
        self.open_rows: List[int] = [-1] * config.banks_per_channel
        #: Banks whose row buffer has never been opened. Monotone to zero
        #: (open-page policy never precharges without activating), which
        #: makes ``closed_banks == 0`` a cheap "every candidate classifies
        #: hit-or-miss" predicate.
        self.closed_banks = config.banks_per_channel
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

    @property
    def row_hit_rate(self) -> float:
        """Aggregate row-buffer hit rate across banks."""
        hits = sum(b.row_hits for b in self.banks)
        misses = sum(b.row_misses for b in self.banks)
        total = hits + misses
        return hits / total if total else 0.0
