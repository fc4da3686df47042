"""Baseline functional secure memory: SGX-like design over a SECDED ECC-DIMM.

This is the functional reference for the paper's SGX / SGX_O baselines
(Table II): counter-mode encryption with monolithic 56-bit counters, 64-bit
GMACs stored in a separate MAC region, a Bonsai counter tree, and SECDED
(72,64) in the ECC chip protecting each beat.

Reliability behaviour matches Section II-B: SECDED silently corrects
single-bit upsets; anything larger surfaces as a MAC mismatch which the
design *must* flag as an attack — it has no way to distinguish error from
tampering. Synergy (in :mod:`repro.core.synergy`) replaces exactly this
weakness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.crypto.keys import ProcessorKeys
from repro.dimm.geometry import (
    BEATS,
    DATA_CHIPS,
    ECC_CHIP,
    beat_word,
    join_lanes,
    split_into_lanes,
)
from repro.dimm.module import EccDimm
from repro.ecc.secded import Secded72_64, SecdedStatus
from repro.secure.counter_tree import CounterTree
from repro.secure.counters import (
    COUNTERS_PER_LINE,
    counter_line_payload_bytes,
)
from repro.secure.errors import AttackDetected, UncorrectableError
from repro.secure.mac import LineMacCalculator
from repro.secure.metadata_layout import MetadataLayout
from repro.util.stats import StatGroup
from repro.util.units import CACHELINE_BYTES

MAC_BYTES = 8


class BaselineSecureMemory:
    """SGX-like secure memory with SECDED reliability (functional plane).

    Parameters
    ----------
    num_data_lines:
        Protected data capacity in 64-byte lines (power of two).
    keys:
        Processor key material; defaults to a fixed development key.
    cache_capacity:
        Metadata-cache capacity in lines (None = unbounded). Smaller caches
        force deeper tree walks, which tests use to exercise verification.
    """

    __slots__ = (
        "layout",
        "dimm",
        "cipher",
        "mac_calc",
        "secded",
        "tree",
        "stats",
        "_written_lines",
        "_data_counters_seen",
    )

    def __init__(
        self,
        num_data_lines: int,
        keys: Optional[ProcessorKeys] = None,
        cache_capacity: Optional[int] = None,
    ):
        keys = keys or ProcessorKeys()
        self.layout = MetadataLayout(num_data_lines)
        self.dimm = EccDimm()
        self.cipher = keys.make_cipher()
        self.mac_calc = LineMacCalculator(keys.make_mac())
        self.secded = Secded72_64()
        self.tree = CounterTree(self.layout, self.mac_calc, self, cache_capacity)
        self.stats = StatGroup("baseline_secure_memory")
        self._written_lines: set = set()
        self._data_counters_seen: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # SECDED line encode/decode (every stored line, any region)
    # ------------------------------------------------------------------

    def _encode_line(self, payload: bytes) -> List[bytes]:
        """64-byte payload -> 9 lanes with per-beat SECDED in the ECC lane."""
        lanes = split_into_lanes(payload, bytes(BEATS))
        ecc = bytearray(BEATS)
        for beat in range(BEATS):
            word, _ = beat_word(lanes, beat)
            codeword = self.secded.encode(word)
            # Store the 8 check bits: the codeword's non-data content is
            # spread over bit positions; we stash the full 72-bit codeword's
            # parity byte compactly as (codeword >> 64) would lose position
            # info, so instead keep check bits by diffing data-extension.
            ecc[beat] = self._check_byte(codeword, word)
        return split_into_lanes(payload, bytes(ecc))

    @staticmethod
    def _check_byte(codeword: int, word: int) -> int:
        """Compress the 8 redundancy bits of a (72,64) codeword into a byte.

        The extended Hamming code has check bits at positions {0, 1, 2, 4,
        8, 16, 32, 64} of the codeword; everything else is data. Packing
        just those eight bits into the ECC byte is lossless.
        """
        del word
        positions = [0, 1, 2, 4, 8, 16, 32, 64]
        byte = 0
        for bit, position in enumerate(positions):
            if (codeword >> position) & 1:
                byte |= 1 << bit
        return byte

    @staticmethod
    def _rebuild_codeword(word: int, check: int) -> int:
        """Inverse of :meth:`_check_byte`: splice data + check bits back."""
        positions = [0, 1, 2, 4, 8, 16, 32, 64]
        codeword = 0
        data_positions = [
            p for p in range(1, 72) if p & (p - 1) != 0
        ]
        for bit_index, position in enumerate(data_positions):
            if (word >> bit_index) & 1:
                codeword |= 1 << position
        for bit, position in enumerate(positions):
            if (check >> bit) & 1:
                codeword |= 1 << position
        return codeword

    def _decode_line(self, address: int, lanes: List[bytes]) -> bytes:
        """9 lanes -> 64-byte payload, SECDED-correcting each beat."""
        payload, ecc = join_lanes(lanes)
        corrected = bytearray(payload)
        for beat in range(BEATS):
            word, _ = beat_word(lanes, beat)
            codeword = self._rebuild_codeword(word, ecc[beat])
            result = self.secded.decode(codeword)
            if result.status is SecdedStatus.DETECTED_UNCORRECTABLE:
                raise UncorrectableError(
                    "SECDED uncorrectable error in beat %d" % beat, address
                )
            if result.status is SecdedStatus.CORRECTED:
                self.stats.counter("secded_corrections").add()
            word = result.data
            for chip in range(DATA_CHIPS):
                corrected[beat * DATA_CHIPS + chip] = (word >> (8 * chip)) & 0xFF
        return bytes(corrected)

    def _store_payload(self, address: int, payload: bytes) -> None:
        self.dimm.write_line(address, self._encode_line(payload))
        self._written_lines.add(address)
        self.stats.counter("memory_writes").add()

    def _load_payload(self, address: int) -> Optional[bytes]:
        if address not in self._written_lines:
            return None
        self.stats.counter("memory_reads").add()
        return self._decode_line(address, self.dimm.read_line(address))

    # ------------------------------------------------------------------
    # LineStore protocol (counter/tree lines) for the CounterTree
    # ------------------------------------------------------------------

    def load_counter_line(self, address: int) -> Optional[Tuple[List[int], bytes]]:
        """Raw counters+MAC of a counter-type line (SECDED-corrected)."""
        payload = self._load_payload(address)
        if payload is None:
            return None
        counters = [
            int.from_bytes(payload[7 * i : 7 * i + 7], "big")
            for i in range(COUNTERS_PER_LINE)
        ]
        mac = payload[56:64]
        return counters, mac

    def store_counter_line(self, address: int, counters: List[int], mac: bytes) -> None:
        """Encode and store a counter-type line."""
        self._store_payload(address, counter_line_payload_bytes(counters, mac))

    # ------------------------------------------------------------------
    # Verified counter walk (SGX behaviour: mismatch == attack)
    # ------------------------------------------------------------------

    def fetch_verified_counters(
        self, address: int, verified: Optional[Dict[int, List[int]]] = None
    ) -> List[int]:
        """Counters of a counter/tree line, verified up to the root.

        Recursive walk: a cached line is trusted; otherwise verify this
        line's MAC under its parent's (recursively verified) covering
        counter. Any mismatch is an attack — the baseline has no correction
        story beyond SECDED, which already ran during the load. ``verified``,
        when given, collects every line the walk trusts and answers repeats
        from it, so a write verifies its whole chain with one read per
        level even when the metadata cache cannot hold the chain.
        """
        if verified is not None and address in verified:
            return verified[address]
        cached = self.tree.cache.lookup(address)
        if cached is not None:
            return cached
        counters, mac = self.tree.load_or_fresh(address)
        parent_address, parent_slot = self.layout.parent_of(address)
        if parent_address == -1:
            parent_value = self.tree.root
        else:
            parent = self.fetch_verified_counters(parent_address, verified)
            parent_value = parent[parent_slot]
        if mac is None:
            # Fresh line: parent slot must still be zero for consistency.
            if parent_value != 0:
                raise AttackDetected(
                    "missing counter line with non-zero parent", address
                )
        else:
            expected = self.mac_calc.counter_line_mac(address, parent_value, counters)
            if expected != mac:
                raise AttackDetected("counter line MAC mismatch", address)
        self.tree.cache.insert(address, counters)
        if verified is not None:
            verified[address] = counters
        return counters

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def read(self, data_line: int) -> bytes:
        """Read and verify a 64-byte data line, returning plaintext."""
        self.stats.counter("reads").add()
        counter = self._current_counter(data_line)
        ciphertext = self._load_payload(data_line)
        if ciphertext is None:
            self._materialise_data_line(data_line, counter)
            ciphertext = self._load_payload(data_line)
        stored_mac = self._load_data_mac(data_line)
        expected = self.mac_calc.data_mac(data_line, counter, ciphertext)
        if expected != stored_mac:
            raise AttackDetected("data MAC mismatch", data_line)
        return self.cipher.decrypt(data_line, counter, ciphertext)

    def write(self, data_line: int, plaintext: bytes) -> None:
        """Encrypt, MAC, and store a 64-byte data line."""
        if len(plaintext) != CACHELINE_BYTES:
            raise ValueError("data lines are %d bytes" % CACHELINE_BYTES)
        self.stats.counter("writes").add()
        chain = self.layout.verification_chain(data_line)
        verified: Dict[int, List[int]] = {}
        trusted = {
            address: self.fetch_verified_counters(address, verified)
            for address, _ in chain
        }
        counter = self.tree.bump_chain(chain, trusted)
        ciphertext = self.cipher.encrypt(data_line, counter, plaintext)
        mac = self.mac_calc.data_mac(data_line, counter, ciphertext)
        self._store_payload(data_line, ciphertext)
        self._store_data_mac(data_line, mac)

    # -- data-line helpers ---------------------------------------------

    def _current_counter(self, data_line: int) -> int:
        counters = self.fetch_verified_counters(self.layout.counter_line(data_line))
        return counters[self.layout.counter_slot(data_line)]

    def _materialise_data_line(self, data_line: int, counter: int) -> None:
        """First touch of a never-written line: store encrypted zeros."""
        plaintext = bytes(CACHELINE_BYTES)
        ciphertext = self.cipher.encrypt(data_line, counter, plaintext)
        mac = self.mac_calc.data_mac(data_line, counter, ciphertext)
        self._store_payload(data_line, ciphertext)
        self._store_data_mac(data_line, mac)

    def _load_data_mac(self, data_line: int) -> bytes:
        mac_line = self.layout.mac_line(data_line)
        slot = self.layout.mac_slot(data_line)
        payload = self._load_payload(mac_line)
        if payload is None:
            payload = bytes(CACHELINE_BYTES)
        return payload[slot * MAC_BYTES : (slot + 1) * MAC_BYTES]

    def _store_data_mac(self, data_line: int, mac: bytes) -> None:
        mac_line = self.layout.mac_line(data_line)
        slot = self.layout.mac_slot(data_line)
        payload = self._load_payload(mac_line)
        if payload is None:
            payload = bytes(CACHELINE_BYTES)
        updated = bytearray(payload)
        updated[slot * MAC_BYTES : (slot + 1) * MAC_BYTES] = mac
        self._store_payload(mac_line, bytes(updated))
