"""Shared utilities: bit manipulation, deterministic RNG, units.

These helpers are deliberately dependency-free (stdlib only) so every other
subsystem can import them without cycles.
"""

from repro.util.bitops import (
    bit_count,
    bytes_xor,
    extract_bits,
    insert_bits,
    int_from_bytes_be,
    int_to_bytes_be,
    rotate_left,
)
from repro.util.rng import DeterministicRng, derive_seed
from repro.util.units import (
    GIB,
    KIB,
    MIB,
    CACHELINE_BYTES,
    HOURS_PER_YEAR,
    gmean,
    is_power_of_two,
    log2_int,
)

__all__ = [
    "bit_count",
    "bytes_xor",
    "extract_bits",
    "insert_bits",
    "int_from_bytes_be",
    "int_to_bytes_be",
    "rotate_left",
    "DeterministicRng",
    "derive_seed",
    "KIB",
    "MIB",
    "GIB",
    "CACHELINE_BYTES",
    "HOURS_PER_YEAR",
    "gmean",
    "is_power_of_two",
    "log2_int",
]
