"""Fault instances with address footprints, and overlap tests.

A fault lives on one chip and covers a rectangular footprint in the chip's
(bank, row, column) space, possibly for a bounded time window (transient
faults disappear at the next scrub). Two faults on *different* chips of a
protection group defeat chip-level correction only if their footprints
intersect — i.e. some codeword has corrupted symbols from two chips — and
their active windows overlap in time. This is the FAULTSIM methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from repro.reliability.fitrates import FaultGranularity


@dataclass(frozen=True)
class ChipGeometry:
    """Internal organisation of one DRAM chip (for footprint arithmetic)."""

    banks: int = 8
    rows_per_bank: int = 64 * 1024
    words_per_row: int = 1024  #: 8KB row / 8B contribution per word

    @property
    def words_per_chip(self) -> int:
        """Total addressable words."""
        return self.banks * self.rows_per_bank * self.words_per_row


class FaultInstance(NamedTuple):
    """One fault on one chip.

    ``bank``/``row``/``column`` anchor the footprint; whether each axis is
    a single coordinate or spans everything follows from the granularity
    (see :data:`COVERAGE`). ``end_hour`` is None for permanent faults
    (active until end of life). A named tuple, not a dataclass: the
    Monte-Carlo kernel builds one per sampled fault.
    """

    chip: int
    granularity: FaultGranularity
    transient: bool
    start_hour: float
    end_hour: Optional[float]
    bank: int = 0
    row: int = 0
    column: int = 0
    bit: int = 0  #: bit position within the word (single-bit faults)

    def active_during(self, other: "FaultInstance") -> bool:
        """Do the two faults' active windows intersect?"""
        start = max(self.start_hour, other.start_hour)
        return (self.end_hour is None or start <= self.end_hour) and (
            other.end_hour is None or start <= other.end_hour
        )


#: Per-granularity axis coverage ``(all banks, all rows, all columns)``:
#: column faults span every row of their bank, row faults every column of
#: their row, bank faults both, and chip-scale faults every bank too.
COVERAGE: Dict[FaultGranularity, Tuple[bool, bool, bool]] = {
    FaultGranularity.SINGLE_BIT: (False, False, False),
    FaultGranularity.SINGLE_WORD: (False, False, False),
    FaultGranularity.SINGLE_COLUMN: (False, True, False),
    FaultGranularity.SINGLE_ROW: (False, False, True),
    FaultGranularity.SINGLE_BANK: (False, True, True),
    FaultGranularity.MULTI_BANK: (True, True, True),
    FaultGranularity.MULTI_RANK: (True, True, True),
}


def footprints_intersect(a: FaultInstance, b: FaultInstance) -> bool:
    """Do the two faults corrupt at least one common word address?"""
    a_banks, a_rows, a_columns = COVERAGE[a.granularity]
    b_banks, b_rows, b_columns = COVERAGE[b.granularity]
    return (
        (a_banks or b_banks or a.bank == b.bank)
        and (a_rows or b_rows or a.row == b.row)
        and (a_columns or b_columns or a.column == b.column)
    )


def faults_overlap(a: FaultInstance, b: FaultInstance) -> bool:
    """Spatial *and* temporal overlap (the uncorrectability condition)."""
    return a.active_during(b) and footprints_intersect(a, b)
