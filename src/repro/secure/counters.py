"""Counter-cacheline packing.

Monolithic organisation (SGX, SGX_O, Synergy — Table II): a 64-byte counter
line holds eight 56-bit write counters plus one 64-bit MAC, arranged so that
chip ``i`` supplies counter ``i`` (7 bytes) and byte ``i`` of the MAC
(Fig. 7a). A failing chip therefore corrupts exactly one counter and one MAC
byte — the property Synergy's ParityC reconstruction relies on.

The split organisation of Fig. 13 is a timing-plane coverage model only:
``metadata_layout.SPLIT_COUNTER_LINES`` data lines per counter line.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.ecc.parity import xor_parity
from repro.util.units import CACHELINE_BYTES

COUNTERS_PER_LINE = 8
COUNTER_BITS = 56
COUNTER_BYTES = COUNTER_BITS // 8
MAC_BYTES = 8
COUNTER_LIMIT = 1 << COUNTER_BITS


def pack_counter_payload(counters: Sequence[int]) -> bytes:
    """Serialise the eight 56-bit counters (the MAC'd payload, 56 bytes)."""
    if len(counters) != COUNTERS_PER_LINE:
        raise ValueError("expected %d counters" % COUNTERS_PER_LINE)
    payload = bytearray()
    for counter in counters:
        if not 0 <= counter < COUNTER_LIMIT:
            raise ValueError("counter exceeds 56 bits")
        payload.extend(counter.to_bytes(COUNTER_BYTES, "big"))
    return bytes(payload)


def counter_line_lanes(counters: Sequence[int], mac: bytes) -> List[bytes]:
    """Pack counters + MAC into the eight data-chip lanes (chip-aligned).

    Lane ``i`` = counter ``i`` (7 bytes) || MAC byte ``i``. The ninth (ECC
    chip) lane is design-dependent — ParityC under Synergy, SECDED bytes in
    the baseline — and is appended by the caller.
    """
    if len(mac) != MAC_BYTES:
        raise ValueError("MAC must be %d bytes" % MAC_BYTES)
    if len(counters) != COUNTERS_PER_LINE:
        raise ValueError("expected %d counters" % COUNTERS_PER_LINE)
    lanes = []
    for index, counter in enumerate(counters):
        if not 0 <= counter < COUNTER_LIMIT:
            raise ValueError("counter exceeds 56 bits")
        lanes.append(counter.to_bytes(COUNTER_BYTES, "big") + mac[index : index + 1])
    return lanes


def unpack_counter_lanes(lanes: Sequence[bytes]) -> Tuple[List[int], bytes]:
    """Inverse of :func:`counter_line_lanes` for the eight data-chip lanes."""
    if len(lanes) != COUNTERS_PER_LINE:
        raise ValueError("expected %d data-chip lanes" % COUNTERS_PER_LINE)
    counters = []
    mac = bytearray()
    for lane in lanes:
        if len(lane) != COUNTER_BYTES + 1:
            raise ValueError("counter lanes are 8 bytes")
        counters.append(int.from_bytes(lane[:COUNTER_BYTES], "big"))
        mac.append(lane[COUNTER_BYTES])
    return counters, bytes(mac)


def counter_parity(lanes: Sequence[bytes]) -> bytes:
    """ParityC / ParityT: XOR of the eight counter-carrying chip lanes."""
    if len(lanes) != COUNTERS_PER_LINE:
        raise ValueError("ParityC covers the 8 data chips")
    return xor_parity(list(lanes))


def counter_line_payload_bytes(counters: Sequence[int], mac: bytes) -> bytes:
    """The 64-byte view of a counter line (counters then MAC)."""
    payload = pack_counter_payload(counters) + bytes(mac)
    if len(payload) != CACHELINE_BYTES:
        raise AssertionError("counter line must be 64 bytes")
    return payload
