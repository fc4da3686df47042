"""The RAID-3 reconstruction engine (Fig. 5b).

On a MAC mismatch the identity of the faulty chip is unknown, so the engine
sequentially hypothesises each chip bad, rebuilds that chip's lane from the
parity and the remaining lanes, and re-verifies the MAC. The first hypothesis
whose MAC matches wins; if none does, the error is uncorrectable and the
caller declares an attack.

MAC-computation budgets (Section IV-A, testable via the engine's counters):

* counter/tree line: <= 8 recomputations (only the 8 counter-carrying chips
  can produce a mismatch; ParityC rides the ECC chip);
* data line: <= 16 recomputations — 9 hypotheses with the stored parity (MAC
  chip first, then the 8 data chips), and if the parity itself is suspect,
  up to 7 more with the ParityP-reconstructed parity (16 total).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.sanitizer import get_sanitizer
from repro.core.cacheline_codec import counter_line_candidates, decode_data_line
from repro.dimm.geometry import DATA_CHIPS, ECC_CHIP, TOTAL_CHIPS
from repro.ecc.parity import xor_parity
from repro.secure.mac import LineMacCalculator
from repro.telemetry import get_registry
from repro.util.stats import StatGroup

#: Budget caps from Section IV-A.
MAX_COUNTER_ATTEMPTS = 8
MAX_DATA_ATTEMPTS = 16

#: Attempt-count buckets sized to the Section IV-A budgets.
ATTEMPT_EDGES = (1, 2, 4, 8, 16)


@dataclass
class ReconstructionOutcome:
    """Result of a successful reconstruction."""

    faulty_chip: int  # 0..7 data chips, 8 = MAC/ECC chip
    lanes: List[bytes]  # fully repaired nine lanes
    attempts: int  # MAC recomputations spent
    used_rebuilt_parity: bool = False


class ReconstructionEngine:
    """Sequential single-chip-hypothesis corrector for all line types."""

    def __init__(self, mac_calc: LineMacCalculator):
        self.mac_calc = mac_calc
        self.stats = StatGroup("reconstruction")
        # None unless REPRO_SANITIZE is on; successful corrections are then
        # re-checked for hypothesis uniqueness and parity consistency.
        self._sanitizer = get_sanitizer()
        registry = get_registry()
        self._t_attempts = registry.histogram(
            "core.reconstruction_attempts", ATTEMPT_EDGES
        )
        self._t_corrections = registry.counter("core.reconstruction_corrections")
        self._t_failures = registry.counter("core.reconstruction_failures")

    # ------------------------------------------------------------------
    # Counter / tree-counter lines (Scenarios B and C of Fig. 7c)
    # ------------------------------------------------------------------

    def correct_counter_line(
        self,
        address: int,
        lanes: Sequence[bytes],
        parent_counter: int,
    ) -> Optional[ReconstructionOutcome]:
        """Repair a counter-type line using its in-line ParityC.

        Tries each of the 8 counter-carrying chips; a hypothesis is accepted
        when the MAC assembled from the repaired lanes verifies under the
        (already trusted) parent counter. Returns None if nothing verifies.
        """
        attempts = 0
        candidates = counter_line_candidates(lanes)
        for position, (chip, counters, mac) in enumerate(candidates):
            attempts += 1
            expected = self.mac_calc.counter_line_mac(address, parent_counter, counters)
            if expected == mac:
                repaired = self._repair_counter_lanes(lanes, chip)
                if self._sanitizer is not None:
                    self._sanitizer.check_counter_reconstruction(
                        self.mac_calc,
                        address,
                        parent_counter,
                        counters,
                        repaired,
                        candidates[position + 1 :],
                    )
                self.stats.counter("counter_corrections").add()
                self.stats.histogram("counter_attempts").record(attempts)
                self._t_corrections.inc()
                self._t_attempts.record(attempts)
                return ReconstructionOutcome(chip, repaired, attempts)
        self.stats.counter("counter_failures").add()
        self._t_failures.inc()
        return None

    @staticmethod
    def _repair_counter_lanes(lanes: Sequence[bytes], chip: int) -> List[bytes]:
        parity = bytes(lanes[ECC_CHIP])
        others = [lanes[i] for i in range(DATA_CHIPS) if i != chip]
        rebuilt = xor_parity(others + [parity])
        repaired = [bytes(lane) for lane in lanes]
        repaired[chip] = rebuilt
        return repaired

    # ------------------------------------------------------------------
    # Data lines (Scenario D of Fig. 7c)
    # ------------------------------------------------------------------

    def correct_data_line(
        self,
        address: int,
        lanes: Sequence[bytes],
        counter: int,
        parity: bytes,
        rebuilt_parity: Optional[bytes] = None,
        overlap_chip: Optional[int] = None,
    ) -> Optional[ReconstructionOutcome]:
        """Repair a Data+MAC line using its 9-chip parity.

        Round 1 order per Section III-B: the MAC chip first, then data chips
        0..7, using the stored parity. If every hypothesis fails and
        ``rebuilt_parity`` (from ParityP) is provided, a second round runs
        with it — covering the case where one chip held both the data line
        and its parity. In that case the culprit can only be the chip that
        holds the parity (``overlap_chip``), so round 2 tries it first; the
        total stays within the paper's 16-recomputation budget.
        """
        attempts = 0
        for use_rebuilt, active_parity in self._parity_choices(parity, rebuilt_parity):
            order = [ECC_CHIP] + list(range(DATA_CHIPS))
            if use_rebuilt and overlap_chip is not None:
                order = [overlap_chip] + [c for c in order if c != overlap_chip]
            for chip in order:
                if attempts >= MAX_DATA_ATTEMPTS:
                    break
                attempts += 1
                repaired = self._repair_data_lanes(lanes, chip, active_parity)
                ciphertext, mac = decode_data_line(repaired)
                expected = self.mac_calc.data_mac(address, counter, ciphertext)
                if expected == mac:
                    if self._sanitizer is not None:
                        accepted = order.index(chip)
                        self._sanitizer.check_data_reconstruction(
                            self.mac_calc,
                            address,
                            counter,
                            lanes,
                            active_parity,
                            repaired,
                            order[accepted + 1 :],
                        )
                    self.stats.counter("data_corrections").add()
                    self.stats.histogram("data_attempts").record(attempts)
                    self._t_corrections.inc()
                    self._t_attempts.record(attempts)
                    return ReconstructionOutcome(chip, repaired, attempts, use_rebuilt)
        self.stats.counter("data_failures").add()
        self._t_failures.inc()
        return None

    @staticmethod
    def _parity_choices(parity: bytes, rebuilt: Optional[bytes]):
        yield False, bytes(parity)
        if rebuilt is not None and bytes(rebuilt) != bytes(parity):
            yield True, bytes(rebuilt)

    @staticmethod
    def _repair_data_lanes(
        lanes: Sequence[bytes], chip: int, parity: bytes
    ) -> List[bytes]:
        others = [lanes[i] for i in range(TOTAL_CHIPS) if i != chip]
        rebuilt = xor_parity(list(others) + [bytes(parity)])
        repaired = [bytes(lane) for lane in lanes]
        repaired[chip] = rebuilt
        return repaired

    # ------------------------------------------------------------------
    # Known-faulty-chip fast path (Section IV-A latency mitigation)
    # ------------------------------------------------------------------

    def precorrect_data_line(
        self,
        address: int,
        lanes: Sequence[bytes],
        counter: int,
        parity: bytes,
        faulty_chip: int,
    ) -> Optional[ReconstructionOutcome]:
        """Repair assuming ``faulty_chip`` is bad: exactly one MAC check."""
        repaired = self._repair_data_lanes(lanes, faulty_chip, parity)
        ciphertext, mac = decode_data_line(repaired)
        expected = self.mac_calc.data_mac(address, counter, ciphertext)
        if expected == mac:
            if self._sanitizer is not None:
                # Known-chip fast path tries one hypothesis; uniqueness does
                # not apply, but the repaired line must still satisfy parity.
                self._sanitizer.check_data_reconstruction(
                    self.mac_calc, address, counter, lanes, parity, repaired, ()
                )
            self.stats.counter("precorrections").add()
            self._t_corrections.inc()
            self._t_attempts.record(1)
            return ReconstructionOutcome(faulty_chip, repaired, 1)
        return None
