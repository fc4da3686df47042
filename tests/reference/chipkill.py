"""Chipkill: symbol-based ECC that tolerates a whole-chip failure.

Commercial Chipkill for x8 DRAM (Section II-B, Fig. 1b) lock-steps two
9-chip ECC-DIMMs across two channels: every access touches 18 chips, 16 of
which carry data and 2 carry Reed-Solomon check symbols. Treating each
chip's 8-bit contribution per beat as one GF(2^8) symbol gives an RS(18,16)
code per beat — minimum distance 3 — which corrects any single symbol error
(single *chip*, since a chip corrupts the same symbol position in every
beat) and detects double-symbol errors.

This module applies the RS codec beat-wise over a 128-byte double-cacheline
(two lock-stepped 64-byte lines), exposing encode / decode / chip-failure
semantics. It is a reference oracle: the timing plane models Chipkill's
lock-step cost (``secure.designs.CHIPKILL_SECURE``) and the reliability
plane its correction predicate (``reliability.schemes``), and neither runs
a codec, so the decoder here is what a test can check those predicates
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from reference.reed_solomon import ReedSolomon, RsDecodeError

DATA_CHIPS = 16
CHECK_CHIPS = 2
TOTAL_CHIPS = DATA_CHIPS + CHECK_CHIPS
BEATS = 8  # DDR burst length


class ChipkillDecodeError(Exception):
    """Detected uncorrectable error (more than one faulty chip)."""


@dataclass
class ChipkillResult:
    """Corrected data and which chips were implicated."""

    data: bytes
    corrected_chips: List[int]


class ChipkillCode:
    """RS(18,16)-per-beat Chipkill over 18 lock-stepped x8 chips."""

    def __init__(self):
        self._rs = ReedSolomon(TOTAL_CHIPS, DATA_CHIPS)

    def encode(self, data: bytes) -> List[bytes]:
        """Encode 128 data bytes into 18 per-chip lanes of 8 bytes each.

        Lane c holds chip c's contribution: one symbol per beat.
        """
        if len(data) != DATA_CHIPS * BEATS:
            raise ValueError("Chipkill codeword covers %d bytes" % (DATA_CHIPS * BEATS))
        lanes = [bytearray(BEATS) for _ in range(TOTAL_CHIPS)]
        for beat in range(BEATS):
            symbols = [data[beat * DATA_CHIPS + chip] for chip in range(DATA_CHIPS)]
            codeword = self._rs.encode(symbols)
            for chip in range(TOTAL_CHIPS):
                lanes[chip][beat] = codeword[chip]
        return [bytes(lane) for lane in lanes]

    def decode(self, lanes: Sequence[bytes]) -> ChipkillResult:
        """Decode 18 lanes back to 128 data bytes, correcting <=1 chip."""
        if len(lanes) != TOTAL_CHIPS:
            raise ValueError("expected %d chip lanes" % TOTAL_CHIPS)
        if any(len(lane) != BEATS for lane in lanes):
            raise ValueError("each lane carries %d symbols" % BEATS)
        data = bytearray(DATA_CHIPS * BEATS)
        corrected_chips: set = set()
        for beat in range(BEATS):
            received = [lanes[chip][beat] for chip in range(TOTAL_CHIPS)]
            try:
                result = self._rs.decode(received)
            except RsDecodeError as exc:
                raise ChipkillDecodeError(
                    "uncorrectable error in beat %d" % beat
                ) from exc
            for position in result.error_positions:
                corrected_chips.add(position)
            for chip in range(DATA_CHIPS):
                data[beat * DATA_CHIPS + chip] = result.codeword[chip]
        if len(corrected_chips) > 1:
            # A single chip failure corrupts one symbol position across
            # beats; several implicated positions means a multi-chip event
            # that happened to alias to decodable single errors per beat.
            # Real controllers treat this as uncorrectable too.
            raise ChipkillDecodeError("errors span multiple chips")
        return ChipkillResult(bytes(data), sorted(corrected_chips))

    def decode_with_erasure(
        self, lanes: Sequence[bytes], failed_chip: Optional[int]
    ) -> ChipkillResult:
        """Decode when a chip is already known bad (erasure decoding).

        With one erasure the code retains single-*additional*-error
        detection, mirroring how controllers degrade after mapping out a
        failed device.
        """
        if failed_chip is None:
            return self.decode(lanes)
        if not 0 <= failed_chip < TOTAL_CHIPS:
            raise ValueError("failed_chip out of range")
        data = bytearray(DATA_CHIPS * BEATS)
        for beat in range(BEATS):
            received = [lanes[chip][beat] for chip in range(TOTAL_CHIPS)]
            try:
                result = self._rs.decode(received, erasures=[failed_chip])
            except RsDecodeError as exc:
                raise ChipkillDecodeError(
                    "uncorrectable beyond erased chip in beat %d" % beat
                ) from exc
            for chip in range(DATA_CHIPS):
                data[beat * DATA_CHIPS + chip] = result.codeword[chip]
        return ChipkillResult(bytes(data), [failed_chip])
