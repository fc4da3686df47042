"""Uncorrectable-error predicates for each protection scheme (Fig. 11).

A *device* is the unit Fig. 11 plots: the memory a workload's channel sees.

* SECDED — a 9-chip ECC-DIMM with (72,64) Hamming per word: corrects one
  bit per word; any multi-bit fault, or two single-bit faults meeting in
  one word, is uncorrectable.
* Chipkill — 18 lock-stepped chips (two DIMMs over two channels): corrects
  all errors confined to one chip; two chips with spatio-temporally
  overlapping faults are uncorrectable.
* Synergy — one 9-chip DIMM: MAC-detect + parity-correct over 9 chips;
  same two-chip-overlap criterion but over the 9-chip group.
* IVEC — 16-chip x4 commodity DIMM with MAC + in-line parity: corrects one
  chip of 16.

The 185x / 37x reductions of Fig. 11 follow from the group sizes: the
probability of two faulty chips grows with the square of the chips that
could pair up (Section VI-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.reliability.faults import FaultInstance, faults_overlap
from repro.reliability.fitrates import FaultGranularity

_SINGLE_BIT = FaultGranularity.SINGLE_BIT


@dataclass(frozen=True)
class ProtectionScheme:
    """Failure predicate parameters for one scheme."""

    name: str
    chips: int  #: chips in one correction group (= device, Fig. 11 style)
    chip_correcting: bool  #: can it erase a whole chip's errors?

    def device_fails(self, faults: List[FaultInstance]) -> bool:
        """Does this fault history make the device fail within lifetime?"""
        if not faults:
            return False
        if self.chip_correcting:
            return self._multi_chip_overlap(faults)
        return self._secded_fails(faults)

    # -- chip-correcting schemes (Chipkill, Synergy, IVEC) -----------------

    @staticmethod
    def _multi_chip_overlap(faults: List[FaultInstance]) -> bool:
        for index, first in enumerate(faults):
            for second in faults[index + 1 :]:
                if first.chip != second.chip and faults_overlap(first, second):
                    return True
        return False

    # -- SECDED --------------------------------------------------------------

    @staticmethod
    def _secded_fails(faults: List[FaultInstance]) -> bool:
        # Any multi-bit fault corrupts >1 bit of some word: uncorrectable.
        for fault in faults:
            if fault.granularity is not _SINGLE_BIT:
                return True
        # Two single-bit faults in the same word (any chips, same address).
        for index, first in enumerate(faults):
            for second in faults[index + 1 :]:
                same_word = (
                    first.bank == second.bank
                    and first.row == second.row
                    and first.column == second.column
                )
                distinct_bits = first.chip != second.chip or first.bit != second.bit
                if same_word and distinct_bits and first.active_during(second):
                    return True
        return False


SECDED_SCHEME = ProtectionScheme("SECDED", chips=9, chip_correcting=False)
CHIPKILL_SCHEME = ProtectionScheme("Chipkill", chips=18, chip_correcting=True)
SYNERGY_SCHEME = ProtectionScheme("Synergy", chips=9, chip_correcting=True)
IVEC_SCHEME = ProtectionScheme("IVEC", chips=16, chip_correcting=True)

ALL_SCHEMES = [SECDED_SCHEME, CHIPKILL_SCHEME, SYNERGY_SCHEME, IVEC_SCHEME]
