"""Functional IVEC-style memory: MAC-tree integrity + parity correction.

IVEC (Huang & Suh, ISCA 2010 — the paper's closest prior work) combines
security and reliability for commodity DIMMs: per-line MACs double as error
detectors, a Merkle MAC tree provides replay protection, and a small parity
corrects the errors the MACs detect. On an ECC-DIMM (the paper's Fig. 15
configuration) the parity rides the ECC chip.

This functional model mirrors :class:`repro.core.synergy.SynergyMemory`'s
interface so tests can compare the two co-designs' correction behaviour
directly. It is a reference oracle: the paper's IVEC results come from the
timing plane (``secure.designs.IVEC``) and the reliability predicate
(``reliability.schemes.IVEC_SCHEME``). Differences from Synergy:

* the data MAC lives in a separate MAC region (tree leaf), *not* the ECC
  chip — so each line's ECC lane carries the line's own parity instead,
  and correction needs no separate parity-region access;
* integrity comes from the MAC tree, not a counter tree: any MAC update
  re-hashes the path to the on-chip root;
* correction capability: any single-chip error within the 8 data chips of
  a line (the parity covers the 8 data lanes; the MAC lane is protected by
  the tree structure itself).
"""

from __future__ import annotations

from typing import List, Optional

from repro.crypto.keys import ProcessorKeys
from repro.dimm.geometry import DATA_CHIPS, ECC_CHIP, join_lanes, split_into_lanes
from repro.dimm.module import EccDimm
from repro.ecc.parity import xor_parity
from repro.secure.errors import AttackDetected
from repro.secure.mac import LineMacCalculator
from reference.mac_tree import MacTree
from repro.util.units import CACHELINE_BYTES


class IvecMemory:
    """Functional IVEC on a 9-chip ECC-DIMM (parity in the ECC chip)."""

    __slots__ = (
        "num_data_lines",
        "dimm",
        "cipher",
        "mac_calc",
        "tree",
        "mismatches",
        "corrections",
        "_counters",
        "_written",
    )

    def __init__(
        self,
        num_data_lines: int,
        keys: Optional[ProcessorKeys] = None,
    ):
        if num_data_lines < 1:
            raise ValueError("need at least one line")
        keys = keys or ProcessorKeys()
        self.num_data_lines = num_data_lines
        self.dimm = EccDimm()
        self.cipher = keys.make_cipher()
        self.mac_calc = LineMacCalculator(keys.make_mac())
        self.tree = MacTree(num_data_lines, keys.make_mac())
        #: Reads whose MAC mismatched, and those a chip rebuild corrected.
        self.mismatches = 0
        self.corrections = 0
        # IVEC uses simple per-line write counters for encryption (split
        # counters in the original; a flat map suffices functionally).
        self._counters = {}
        self._written: set = set()

    # ------------------------------------------------------------------

    def _check_line(self, data_line: int) -> None:
        if not 0 <= data_line < self.num_data_lines:
            raise ValueError("line out of range")

    def write(self, data_line: int, plaintext: bytes) -> None:
        """Encrypt, store with in-line parity, install the MAC as a leaf."""
        self._check_line(data_line)
        if len(plaintext) != CACHELINE_BYTES:
            raise ValueError("lines are %d bytes" % CACHELINE_BYTES)
        counter = self._counters.get(data_line, 0) + 1
        self._counters[data_line] = counter
        ciphertext = self.cipher.encrypt(data_line, counter, plaintext)
        mac = self.mac_calc.data_mac(data_line, counter, ciphertext)
        lanes = split_into_lanes(ciphertext, bytes(8))
        parity = xor_parity(list(lanes[:DATA_CHIPS]))
        self.dimm.write_line(data_line, lanes[:DATA_CHIPS] + [parity])
        self.tree.update_leaf(data_line, mac)
        self._written.add(data_line)

    def read(self, data_line: int) -> bytes:
        """Read, verify against the MAC tree, correct single-chip errors."""
        self._check_line(data_line)
        if data_line not in self._written:
            return bytes(CACHELINE_BYTES)
        counter = self._counters[data_line]
        trusted_mac = self.tree.verify_leaf(data_line)
        lanes = self.dimm.read_line(data_line)
        ciphertext, _parity = join_lanes(lanes)
        expected = self.mac_calc.data_mac(data_line, counter, ciphertext)
        if expected == trusted_mac:
            return self.cipher.decrypt(data_line, counter, ciphertext)

        # MAC mismatch: try reconstructing each data chip from the in-line
        # parity (the ECC lane), verifying each hypothesis with the MAC.
        self.mismatches += 1
        parity = lanes[ECC_CHIP]
        for chip in range(DATA_CHIPS):
            others = [lanes[i] for i in range(DATA_CHIPS) if i != chip]
            rebuilt = xor_parity(others + [parity])
            repaired = list(lanes[:DATA_CHIPS])
            repaired[chip] = rebuilt
            candidate, _ = join_lanes(repaired + [parity])
            if self.mac_calc.data_mac(data_line, counter, candidate) == trusted_mac:
                self.corrections += 1
                self.dimm.write_line(data_line, repaired + [xor_parity(repaired)])
                return self.cipher.decrypt(data_line, counter, candidate)
        raise AttackDetected("uncorrectable error or attack (IVEC)", data_line)

    # ------------------------------------------------------------------

    @property
    def tree_depth(self) -> int:
        """Depth of the integrity MAC tree."""
        return self.tree.depth
