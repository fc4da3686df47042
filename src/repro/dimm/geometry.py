"""Geometry of the x8 ECC-DIMM: chips, beats, lanes.

The mapping between a 64-byte cacheline plus 8 ECC/MAC bytes and the nine
per-chip lanes is the foundation everything else builds on:

* data byte ``beat * 8 + chip`` travels on chip ``chip`` during ``beat``;
* the ECC chip (index 8) carries one byte per beat (ECC, MAC, or parity
  depending on the design and line type).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.util.units import CACHELINE_BYTES

DATA_CHIPS = 8
ECC_CHIP = 8
TOTAL_CHIPS = 9
BEATS = 8
LANE_BYTES = BEATS  # one byte per beat -> 8 bytes per chip per line


def split_into_lanes(data: bytes, ecc: bytes) -> List[bytes]:
    """Pack 64 data bytes + 8 ECC-lane bytes into nine 8-byte chip lanes."""
    if len(data) != CACHELINE_BYTES:
        raise ValueError("data must be %d bytes" % CACHELINE_BYTES)
    if len(ecc) != LANE_BYTES:
        raise ValueError("ecc lane must be %d bytes" % LANE_BYTES)
    lanes = []
    for chip in range(DATA_CHIPS):
        lanes.append(bytes(data[beat * DATA_CHIPS + chip] for beat in range(BEATS)))
    lanes.append(bytes(ecc))
    return lanes


def join_lanes(lanes: Sequence[bytes]) -> tuple:
    """Unpack nine chip lanes back into (64 data bytes, 8 ECC-lane bytes)."""
    if len(lanes) != TOTAL_CHIPS:
        raise ValueError("expected %d lanes" % TOTAL_CHIPS)
    if any(len(lane) != LANE_BYTES for lane in lanes):
        raise ValueError("each lane must be %d bytes" % LANE_BYTES)
    data = bytearray(CACHELINE_BYTES)
    for chip in range(DATA_CHIPS):
        for beat in range(BEATS):
            data[beat * DATA_CHIPS + chip] = lanes[chip][beat]
    return bytes(data), bytes(lanes[ECC_CHIP])


def beat_word(lanes: Sequence[bytes], beat: int) -> tuple:
    """The 64-bit data word and ECC byte transferred in one beat.

    A conventional ECC-DIMM protects each beat independently with
    SECDED(72,64); this helper extracts that codeword's two halves.
    """
    if not 0 <= beat < BEATS:
        raise ValueError("beat out of range")
    word = 0
    for chip in range(DATA_CHIPS):
        word |= lanes[chip][beat] << (8 * chip)
    return word, lanes[ECC_CHIP][beat]
