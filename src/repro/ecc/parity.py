"""RAID-3 style XOR parity over chip contributions.

Synergy's correction substrate (Section III): an 8-byte parity is the XOR of
the nine 8-byte chip contributions of a data cacheline (8 data chips + the
MAC chip), so any single missing contribution can be reconstructed from the
parity and the other eight. Counter cachelines use an 8-way parity over the
eight counter-carrying chips instead, and parity cachelines themselves carry
a parity-of-parities (ParityP) in the ECC chip.
"""

from __future__ import annotations

from typing import Sequence

from repro.util.bitops import bytes_xor


def xor_parity(contributions: Sequence[bytes]) -> bytes:
    """XOR an arbitrary number of equal-length byte strings."""
    if not contributions:
        raise ValueError("need at least one contribution")
    result = bytes(len(contributions[0]))
    for contribution in contributions:
        result = bytes_xor(result, contribution)
    return result


def reconstruct_missing(
    contributions: Sequence[bytes], parity: bytes, missing_index: int
) -> bytes:
    """Reconstruct one missing contribution from parity and the others.

    ``contributions`` is the full list with a placeholder (ignored) at
    ``missing_index``; returns what that entry must have been for the XOR of
    all contributions to equal ``parity``.
    """
    if not 0 <= missing_index < len(contributions):
        raise ValueError("missing_index out of range")
    result = bytes(parity)
    for index, contribution in enumerate(contributions):
        if index == missing_index:
            continue
        result = bytes_xor(result, contribution)
    return result

