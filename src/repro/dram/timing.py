"""DDR3 timing and organisation parameters.

Values are representative DDR3-1600 timings expressed in memory-bus cycles
(800 MHz clock, 1.25 ns per cycle) and the organisation of Table III:
2 channels x 2 ranks x 8 banks, 64K rows per bank, 128 cachelines per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DramTiming:
    """Core DDR3 timing constraints, in memory-bus cycles."""

    t_rcd: int = 11  #: ACT to column command
    t_rp: int = 11  #: PRE to ACT
    t_cl: int = 11  #: read column command to first data beat
    t_cwl: int = 8  #: write column command to first data beat
    t_burst: int = 4  #: data-bus occupancy per 64B line (8 beats, DDR)
    t_ccd: int = 4  #: column command to column command, same bank group
    t_ras: int = 28  #: ACT to PRE (row must stay open this long)
    t_wr: int = 12  #: write recovery before PRE
    t_wtr: int = 6  #: write-to-read turnaround penalty
    t_rtw: int = 2  #: read-to-write turnaround penalty
    t_refi: int = 6240  #: average refresh interval (7.8 us at 800 MHz)
    t_rfc: int = 208  #: refresh cycle time (4Gb-class device); 0: no refresh
    t_faw: int = 32  #: four-activate window per rank
    t_rrd: int = 5  #: activate-to-activate, same rank

    @property
    def row_hit_read(self) -> int:
        """Column latency for a read that hits the open row."""
        return self.t_cl

    @property
    def row_miss_read(self) -> int:
        """Latency when a different row is open (PRE + ACT + CAS)."""
        return self.t_rp + self.t_rcd + self.t_cl

    @property
    def row_closed_read(self) -> int:
        """Latency when the bank is idle (ACT + CAS)."""
        return self.t_rcd + self.t_cl


@dataclass(frozen=True)
class MemoryConfig:
    """Organisation + queueing parameters (Table III defaults)."""

    channels: int = 2
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    rows_per_bank: int = 64 * 1024
    lines_per_row: int = 128  #: 128 cachelines (columns) per row
    timing: DramTiming = field(default_factory=DramTiming)
    read_queue_capacity: int = 64
    write_queue_capacity: int = 64
    write_drain_high: int = 40  #: start exclusive write drain
    write_drain_low: int = 20  #: stop draining

    #: CPU clock runs this many times faster than the memory bus clock
    #: (3.2 GHz vs 800 MHz in Table III).
    cpu_clock_multiplier: int = 4

    @property
    def banks_per_channel(self) -> int:
        """Independent banks reachable on one channel."""
        return self.ranks_per_channel * self.banks_per_rank

    @property
    def total_lines(self) -> int:
        """Cacheline capacity of the whole memory system."""
        return (
            self.channels
            * self.ranks_per_channel
            * self.banks_per_rank
            * self.rows_per_bank
            * self.lines_per_row
        )
