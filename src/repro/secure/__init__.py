"""Secure-memory machinery: metadata layout, counters, MACs, integrity trees.

Both planes:

* :mod:`repro.secure.metadata_layout` — where counters, MACs, parities and
  integrity-tree levels live in the physical line address space. The
  functional memories and the timing engine read it alike, and
  ``tests/reference/test_cross_plane.py`` checks the engine's metadata
  traffic against the functional memories' DIMM accesses.

Functional plane:

* :mod:`repro.secure.counters` — counter-line packing (8 x 56-bit counters +
  64-bit MAC, one counter and one MAC byte per chip).
* :mod:`repro.secure.mac` — per-line-type MAC computations.
* :mod:`repro.secure.counter_tree` — Bonsai-style 8-ary counter tree state.
* :mod:`repro.secure.memory` — the baseline SGX-like secure memory over a
  SECDED ECC-DIMM (the paper's SGX / SGX_O functional reference).

IVEC's functional memory and its Merkle MAC tree are test oracles in
``tests/reference/`` (``ivec_memory.py``, ``mac_tree.py``); the timing
engine models IVEC's MAC-tree traffic.

Timing plane:

* :mod:`repro.secure.designs` — Table II design descriptors.
* :mod:`repro.secure.timing_engine` — per-design metadata traffic
  expansion: one fused read, writeback and warm-up walk for every design
  (Bonsai counter tree and IVEC's MAC tree alike), whose scalar oracle is
  ``tests/reference/secure_oracle.py``.
"""

from repro.secure.errors import (
    AttackDetected,
    SecureMemoryError,
    UncorrectableError,
)
from repro.secure.metadata_layout import MetadataLayout, Region

__all__ = [
    "AttackDetected",
    "SecureMemoryError",
    "UncorrectableError",
    "MetadataLayout",
    "Region",
]
