"""SynergyMemory: the full reliability-security co-design (Section III).

Differences from :class:`repro.secure.memory.BaselineSecureMemory`:

* the data MAC rides the ECC chip — fetched with the data, no MAC region;
* counter/tree lines carry ParityC/ParityT in the ECC chip;
* a parity region holds one 8-byte RAID-3 parity per data line (eight per
  parity line, ParityP in the ECC chip), updated on every data write;
* error handling: MAC mismatches trigger the reconstruction engine rather
  than an immediate attack declaration, correcting any single-chip failure
  out of the 9 chips; only unresolvable mismatches declare an attack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.cacheline_codec import (
    data_line_parity,
    decode_data_line,
    decode_parity_line,
    encode_counter_line,
    encode_data_line,
    encode_parity_line,
    reconstruct_parity_slot,
)
from repro.core.failure_tracker import FaultyChipTracker
from repro.core.reconstruction import ReconstructionEngine
from repro.core.treewalk import CounterLineSource, SynergyTreeWalk
from repro.crypto.keys import ProcessorKeys
from repro.dimm.module import EccDimm
from repro.secure.counter_tree import CounterTree
from repro.secure.errors import AttackDetected
from repro.secure.mac import LineMacCalculator
from repro.secure.metadata_layout import MetadataLayout
from repro.util.units import CACHELINE_BYTES

PARITIES_PER_LINE = 8
LANE_BYTES = 8


class SynergyMemory:
    """Secure memory with MAC-in-ECC-chip co-location and parity correction.

    Public API mirrors the baseline: :meth:`read` / :meth:`write` move
    64-byte plaintext lines; everything else (encryption, MACs, tree
    maintenance, parity upkeep, error correction) happens inside. Chip
    faults injected into :attr:`dimm` exercise the correction flows.
    """

    def __init__(
        self,
        num_data_lines: int,
        keys: Optional[ProcessorKeys] = None,
        cache_capacity: Optional[int] = None,
        tracker_threshold: int = 4,
    ):
        keys = keys or ProcessorKeys()
        self.layout = MetadataLayout(num_data_lines)
        self.dimm = EccDimm()
        self.cipher = keys.make_cipher()
        self.mac_calc = LineMacCalculator(keys.make_mac())
        self.engine = ReconstructionEngine(self.mac_calc)
        self.tree = CounterTree(self.layout, self.mac_calc, self, cache_capacity)
        self.walk = SynergyTreeWalk(
            self.layout, self.tree, self.mac_calc, self.engine, CounterLineSource(self)
        )
        self.tracker = FaultyChipTracker(tracker_threshold)
        self._written_lines: set = set()

    # ------------------------------------------------------------------
    # Raw line plumbing
    # ------------------------------------------------------------------

    def _store_lanes(self, address: int, lanes: List[bytes]) -> None:
        self.dimm.write_line(address, lanes)
        self._written_lines.add(address)

    def _load_lanes(self, address: int) -> Optional[List[bytes]]:
        if address not in self._written_lines:
            return None
        return self.dimm.read_line(address)

    # LineStore protocol (used by CounterTree.bump_chain) -----------------

    def load_counter_line(self, address: int) -> Optional[Tuple[List[int], bytes]]:
        """Raw (counters, mac) of a counter-type line — no verification."""
        lanes = self._load_lanes(address)
        if lanes is None:
            return None
        from repro.core.cacheline_codec import decode_counter_line

        counters, mac, _parity = decode_counter_line(lanes)
        return counters, mac

    def store_counter_line(
        self, address: int, counters: List[int], mac: bytes
    ) -> None:
        """Encode (with ParityC) and store a counter-type line."""
        self._store_lanes(address, encode_counter_line(counters, mac))

    # CounterLineSource protocol (used by the tree walk) ------------------

    def load_counter_lanes(self, address: int) -> Optional[List[bytes]]:
        """Nine raw lanes of a counter-type line."""
        return self._load_lanes(address)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def read(self, data_line: int) -> bytes:
        """Read a data line: tree walk, MAC verify, correct if needed."""
        counter = self._verified_counter(data_line)
        lanes = self._load_lanes(data_line)
        if lanes is None:
            self._materialise_data_line(data_line, counter)
            lanes = self._load_lanes(data_line)

        # Known-permanent-failure fast path: pre-correct before verifying.
        faulty = self.tracker.known_faulty_chip
        if faulty is not None:
            outcome = self.engine.precorrect_data_line(
                data_line, lanes, counter, self._stored_parity(data_line), faulty
            )
            if outcome is not None:
                ciphertext, _mac = decode_data_line(outcome.lanes)
                return self.cipher.decrypt(data_line, counter, ciphertext)
            # Pre-correction failed: fall through to the full flow.

        ciphertext, stored_mac = decode_data_line(lanes)
        expected = self.mac_calc.data_mac(data_line, counter, ciphertext)
        if expected == stored_mac:
            self.tracker.record_clean_access()
            return self.cipher.decrypt(data_line, counter, ciphertext)

        # MAC mismatch: Scenario D — reconstruct via the 9-chip parity.
        parity = self._stored_parity(data_line)
        rebuilt = self._rebuilt_parity(data_line)
        outcome = self.engine.correct_data_line(
            data_line,
            lanes,
            counter,
            parity,
            rebuilt,
            overlap_chip=self.layout.parity_slot(data_line),
        )
        if outcome is None:
            raise AttackDetected(
                "uncorrectable data-line error or attack", data_line
            )
        self.tracker.record_correction(outcome.faulty_chip)
        # Scrub the repaired line (and parity, if it was the culprit).
        self._store_lanes(data_line, outcome.lanes)
        if outcome.used_rebuilt_parity:
            self._update_parity(data_line, rebuilt)
        ciphertext, _mac = decode_data_line(outcome.lanes)
        return self.cipher.decrypt(data_line, counter, ciphertext)

    def write(self, data_line: int, plaintext: bytes) -> None:
        """Encrypt, MAC, store a data line; maintain its parity."""
        if len(plaintext) != CACHELINE_BYTES:
            raise ValueError("data lines are %d bytes" % CACHELINE_BYTES)
        chain = self.layout.verification_chain(data_line)
        trusted, report = self.walk.verified_chain(data_line, full=True)
        for chip in report.corrected_chips.values():
            self.tracker.record_correction(chip)
        counter = self.tree.bump_chain(chain, trusted)
        ciphertext = self.cipher.encrypt(data_line, counter, plaintext)
        mac = self.mac_calc.data_mac(data_line, counter, ciphertext)
        lanes = encode_data_line(ciphertext, mac)
        self._store_lanes(data_line, lanes)
        self._update_parity(data_line, data_line_parity(lanes))

    # ------------------------------------------------------------------
    # Counter acquisition via the walking verifier
    # ------------------------------------------------------------------

    def _verified_counter(self, data_line: int) -> int:
        trusted, report = self.walk.verified_chain(data_line)
        for chip in report.corrected_chips.values():
            self.tracker.record_correction(chip)
        counter_line = self.layout.counter_line(data_line)
        return trusted[counter_line][self.layout.counter_slot(data_line)]

    # ------------------------------------------------------------------
    # Parity region maintenance
    # ------------------------------------------------------------------

    def _parity_location(self, data_line: int) -> Tuple[int, int]:
        return self.layout.parity_line(data_line), self.layout.parity_slot(data_line)

    def _stored_parity(self, data_line: int) -> bytes:
        """The (unverified) stored parity covering ``data_line``."""
        address, slot = self._parity_location(data_line)
        lanes = self._load_lanes(address)
        if lanes is None:
            return bytes(LANE_BYTES)
        parities, _parity_p = decode_parity_line(lanes)
        return parities[slot]

    def _rebuilt_parity(self, data_line: int) -> Optional[bytes]:
        """Parity rebuilt from ParityP (the erroneous-parity contingency)."""
        address, slot = self._parity_location(data_line)
        lanes = self._load_lanes(address)
        if lanes is None:
            return None
        return reconstruct_parity_slot(lanes, slot)

    def _update_parity(self, data_line: int, parity: bytes) -> None:
        """Read-modify-write the parity line with a fresh slot value."""
        address, slot = self._parity_location(data_line)
        lanes = self._load_lanes(address)
        if lanes is None:
            parities = [bytes(LANE_BYTES)] * PARITIES_PER_LINE
        else:
            parities, _ = decode_parity_line(lanes)
        parities[slot] = parity
        self._store_lanes(address, encode_parity_line(parities))

    # ------------------------------------------------------------------
    # First-touch materialisation
    # ------------------------------------------------------------------

    def _materialise_data_line(self, data_line: int, counter: int) -> None:
        plaintext = bytes(CACHELINE_BYTES)
        ciphertext = self.cipher.encrypt(data_line, counter, plaintext)
        mac = self.mac_calc.data_mac(data_line, counter, ciphertext)
        lanes = encode_data_line(ciphertext, mac)
        self._store_lanes(data_line, lanes)
        self._update_parity(data_line, data_line_parity(lanes))
