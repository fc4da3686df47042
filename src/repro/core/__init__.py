"""Synergy: the paper's primary contribution.

* :mod:`repro.core.cacheline_codec` — physical lane layouts of Fig. 7a:
  Data+MAC lines (MAC in the ECC chip), parity lines (ParityP in the ECC
  chip), counter/tree lines (ParityC/ParityT in the ECC chip).
* :mod:`repro.core.reconstruction` — the RAID-3 reconstruction engine of
  Fig. 5: sequentially hypothesise each chip faulty, rebuild its lane from
  parity, and accept the first hypothesis whose recomputed MAC matches.
* :mod:`repro.core.treewalk` — upward traversal for detection, downward
  traversal for correction (Fig. 7b/7c), integrated with the counter tree.
* :mod:`repro.core.failure_tracker` — permanent-chip-failure mitigation
  (Section IV-A): after repeated corrections blame one chip, pre-correct
  that chip's lane so steady-state costs a single MAC computation.
* :mod:`repro.core.synergy` — :class:`SynergyMemory`, the full co-design.

Fig. 11's scrubbing is modelled in :mod:`repro.reliability`, not here.
"""

from repro.core.failure_tracker import FaultyChipTracker
from repro.core.reconstruction import ReconstructionEngine, ReconstructionOutcome
from repro.core.synergy import SynergyMemory

__all__ = [
    "FaultyChipTracker",
    "ReconstructionEngine",
    "ReconstructionOutcome",
    "SynergyMemory",
]
