"""Error-correcting code substrate.

* :mod:`repro.ecc.secded` — Hsiao-style SECDED Hamming(72,64), the code an
  ordinary 9-chip ECC-DIMM stores in its ECC chip (the paper's baseline).
* :mod:`repro.ecc.parity` — RAID-3 XOR parity over chip contributions, the
  correction substrate of both Synergy and IVEC.

Chipkill is modelled by its cost (``secure.designs.CHIPKILL_SECURE``) and
its correction predicate (``reliability.schemes``); its RS/GF(2^8) codec is
a test oracle in ``tests/reference/``.
"""

from repro.ecc.parity import xor_parity, reconstruct_missing
from repro.ecc.secded import Secded72_64, SecdedResult, SecdedStatus

__all__ = [
    "xor_parity",
    "reconstruct_missing",
    "Secded72_64",
    "SecdedResult",
    "SecdedStatus",
]
