"""Background memory scrubbing for Synergy-protected memory.

Latent errors are dangerous for any parity-based scheme: a second fault
while the first sits uncorrected defeats single-chip correction. Real
systems walk memory in the background, letting the normal detect/correct
path repair latent errors early (FAULTSIM's scrub interval models the same
policy; see :mod:`repro.reliability.montecarlo`).

The scrubber reuses the exact read path of :class:`SynergyMemory` — every
line read is verified, corrected if needed, and the correction written
back — and reports what it found, giving operators the corrected-error log
the paper's §IV-B suggests monitoring for denial-of-service detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.synergy import SynergyMemory
from repro.secure.errors import SecureMemoryError
from repro.telemetry import get_registry


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    lines_scanned: int = 0
    corrections: int = 0
    corrections_by_chip: Dict[int, int] = field(default_factory=dict)
    uncorrectable_lines: List[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no error of any kind was encountered."""
        return not self.corrections and not self.uncorrectable_lines


class MemoryScrubber:
    """Walks a SynergyMemory, repairing latent errors via the read path."""

    def __init__(self, memory: SynergyMemory):
        self.memory = memory
        registry = get_registry()
        self._t_passes = registry.counter("core.scrub_passes")
        self._t_lines = registry.counter("core.scrub_lines_scanned")
        self._t_corrections = registry.counter("core.scrub_corrections")

    def scrub(self) -> ScrubReport:
        """Read-verify every data line; corrections are written back.

        Uncorrectable lines are recorded rather than raised: a scrubber
        must survey the full extent of damage, not stop at the first
        casualty (the operator decides what to do with the report).
        """
        memory = self.memory
        report = ScrubReport()
        before_blames = dict(memory.tracker.blame_counts)
        corrections_before = memory.stats.counter("data_corrections").value
        counter_corrections_before = memory.stats.counter(
            "counter_corrections"
        ).value
        for line in range(memory.layout.num_data_lines):
            report.lines_scanned += 1
            try:
                memory.read(line)
            except SecureMemoryError:
                report.uncorrectable_lines.append(line)
        report.corrections = (
            memory.stats.counter("data_corrections").value
            - corrections_before
            + memory.stats.counter("counter_corrections").value
            - counter_corrections_before
        )
        for chip, count in memory.tracker.blame_counts.items():
            delta = count - before_blames.get(chip, 0)
            if delta:
                report.corrections_by_chip[chip] = delta
        self._t_passes.inc()
        self._t_lines.inc(report.lines_scanned)
        self._t_corrections.inc(report.corrections)
        return report
