"""Functional model of a 9-chip x8 ECC-DIMM.

A 64-byte cacheline is transferred in a burst of 8 beats over a 72-bit bus;
each of the nine x8 chips contributes one byte per beat, so each chip owns an
8-byte *lane* of every 72-byte line. The ECC chip's lane holds SECDED check
bytes on a conventional DIMM — or, under Synergy, the cacheline MAC.

* :mod:`repro.dimm.geometry` — bus/chip/beat constants and the lane maths.
* :mod:`repro.dimm.chips` — per-chip byte storage with fault hooks.
* :mod:`repro.dimm.faults` — chip-fault descriptors at the granularities of
  the Sridharan field study (bit, word, column, row, bank, chip).
* :mod:`repro.dimm.module` — the 9-chip DIMM assembling lanes into lines.
"""

from repro.dimm.chips import SimulatedChip
from repro.dimm.faults import ChipFault, FaultKind
from repro.dimm.module import EccDimm

__all__ = ["SimulatedChip", "ChipFault", "FaultKind", "EccDimm"]
