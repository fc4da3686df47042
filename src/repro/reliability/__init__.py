"""FAULTSIM-style memory reliability simulation (Fig. 11, Table I).

* :mod:`repro.reliability.fitrates` — the Sridharan & Liberty field-study
  fault model (Table I): FIT rates per DRAM failure mode, transient and
  permanent.
* :mod:`repro.reliability.faults` — fault records with address-range
  footprints inside a chip, and overlap tests between faults.
* :mod:`repro.reliability.schemes` — per-scheme uncorrectable-error
  predicates: SECDED, Chipkill, Synergy, IVEC.
* :mod:`repro.reliability.montecarlo` — Monte-Carlo over device lifetimes:
  one shard kernel that settles 0/1-fault devices with numpy and samples
  explicit fault histories only for multi-fault devices.
* :mod:`repro.reliability.analytical` — closed-form cross-checks and the
  SDC-rate arithmetic of Section IV-A.
"""

from repro.reliability.fitrates import FAULT_MODES, FaultMode, total_fit_per_chip
from repro.reliability.faults import FaultInstance, faults_overlap
from repro.reliability.montecarlo import (
    MonteCarloConfig,
    simulate_failure_probability,
)
from repro.reliability.schemes import (
    CHIPKILL_SCHEME,
    IVEC_SCHEME,
    SECDED_SCHEME,
    SYNERGY_SCHEME,
    ProtectionScheme,
)

__all__ = [
    "FAULT_MODES",
    "FaultMode",
    "total_fit_per_chip",
    "FaultInstance",
    "faults_overlap",
    "MonteCarloConfig",
    "simulate_failure_probability",
    "ProtectionScheme",
    "SECDED_SCHEME",
    "CHIPKILL_SCHEME",
    "SYNERGY_SCHEME",
    "IVEC_SCHEME",
]
