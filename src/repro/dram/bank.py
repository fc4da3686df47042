"""Per-bank state: open row, earliest next-command time, hit/miss tallies.

Open-page policy: a row stays open after an access until a conflicting
access precharges it. The controller's epoch kernel reads and writes these
slots directly from its decision loop (see :mod:`repro.dram.controller`);
the bank carries no behaviour of its own.
"""

from __future__ import annotations

from typing import Optional


class BankState:
    """Timing state of one DRAM bank (open-page policy)."""

    __slots__ = ("open_row", "ready_at", "row_hits", "row_misses")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None  #: None while the bank is closed
        self.ready_at = 0  #: earliest cycle the next command may start
        self.row_hits = 0
        self.row_misses = 0  #: one activation each
