"""Design descriptors for every evaluated configuration (Table II).

A :class:`SecureDesign` tells the timing engine, for each data access, what
metadata moves and where it may be cached:

* ``mac_location`` — SEPARATE (a MAC region access per data access, the
  SGX/SGX_O/IVEC situation), ECC_CHIP (Synergy: MAC rides the data burst,
  zero extra traffic), or NONE (non-secure);
* ``counters_in_llc`` — SGX_O and Synergy spill counters to the LLC;
  SGX and IVEC keep them only in the dedicated cache;
* ``macs_in_llc`` — IVEC's MACs are tree members and LLC-cached;
* ``tree_kind`` — Bonsai counter tree vs IVEC's Merkle MAC tree vs none;
* ``counter_mode`` — monolithic 56-bit (8 lines covered per counter line)
  vs split (64 lines covered; Fig. 13);
* ``reliability`` — what the ECC chip / extra accesses provide; drives both
  write-side parity traffic and the reliability simulator's scheme choice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MacLocation(enum.Enum):
    """Where per-data-line MACs live."""

    NONE = "none"
    SEPARATE = "separate"  #: dedicated MAC region in memory
    ECC_CHIP = "ecc_chip"  #: co-located with data (Synergy)


class TreeKind(enum.Enum):
    """Integrity-tree structure."""

    NONE = "none"
    BONSAI_COUNTER = "bonsai_counter"
    MAC_TREE = "mac_tree"  #: non-Bonsai Merkle tree of MACs (IVEC)


class CounterMode(enum.Enum):
    """Encryption-counter organisation."""

    MONOLITHIC = "monolithic"  #: 8 x 56-bit counters per line
    SPLIT = "split"  #: 64-bit major + 7-bit minors; 64 lines per line


class Reliability(enum.Enum):
    """Error-correction scheme."""

    NONE = "none"
    SECDED = "secded"
    CHIPKILL = "chipkill"
    SYNERGY_PARITY = "synergy_parity"  #: MAC detect + 9-chip parity correct
    IVEC_PARITY = "ivec_parity"  #: MAC detect + parity in the ECC chip
    LOTECC = "lotecc"


@dataclass(frozen=True)
class SecureDesign:
    """Complete configuration of one evaluated design."""

    name: str
    encrypted: bool
    mac_location: MacLocation
    counters_in_llc: bool
    #: Table II "MAC caching": no design elides a MAC fetch — every data
    #: access pays a MAC memory access. IVEC also keeps its MACs in the
    #: LLC, where they displace data (see the IVEC modelling note).
    macs_in_llc: bool
    tree_kind: TreeKind
    counter_mode: CounterMode
    reliability: Reliability
    #: Extra memory *write* per data write for a parity region (Synergy).
    parity_write_on_data_write: bool = False
    #: LOT-ECC tier-2 parity: read-modify-write per data write...
    lotecc_parity_rmw: bool = False
    #: ...unless write coalescing merges the read away.
    lotecc_write_coalescing: bool = False
    #: Non-Bonsai Merkle trees verify hashes *serially to the root on the
    #: read critical path* (data MACs are tree members, so the data cannot
    #: be consumed until the chain verifies). Bonsai counter-trees avoid
    #: this — counter verification overlaps OTP precomputation (Rogers et
    #: al., the paper's [14]). This is the latency cost behind IVEC's
    #: slowdown in Fig. 16.
    serial_tree_verification: bool = False
    #: Chipkill on x8 DIMMs lock-steps two channels (Fig. 1b): every access
    #: occupies both, halving channel-level parallelism.
    chipkill_lockstep: bool = False
    #: PoisonIvy-style speculation (§VII-B): data is consumed as soon as it
    #: arrives, with verification completing off the critical path. The
    #: metadata *bandwidth* is still spent — which is why the paper argues
    #: such designs "would benefit from the bandwidth savings provided by
    #: Synergy".
    speculative_verification: bool = False

    def __post_init__(self) -> None:
        if self.encrypted and self.tree_kind is TreeKind.NONE:
            raise ValueError("encrypted designs need replay protection")
        if not self.encrypted and self.mac_location is not MacLocation.NONE:
            raise ValueError("MACs without encryption not modelled")


NON_SECURE = SecureDesign(
    name="NonSecure",
    encrypted=False,
    mac_location=MacLocation.NONE,
    counters_in_llc=False,
    macs_in_llc=False,
    tree_kind=TreeKind.NONE,
    counter_mode=CounterMode.MONOLITHIC,
    reliability=Reliability.SECDED,
)

SGX = SecureDesign(
    name="SGX",
    encrypted=True,
    mac_location=MacLocation.SEPARATE,
    counters_in_llc=False,
    macs_in_llc=False,
    tree_kind=TreeKind.BONSAI_COUNTER,
    counter_mode=CounterMode.MONOLITHIC,
    reliability=Reliability.SECDED,
)

SGX_O = SecureDesign(
    name="SGX_O",
    encrypted=True,
    mac_location=MacLocation.SEPARATE,
    counters_in_llc=True,
    macs_in_llc=False,
    tree_kind=TreeKind.BONSAI_COUNTER,
    counter_mode=CounterMode.MONOLITHIC,
    reliability=Reliability.SECDED,
)

SYNERGY = SecureDesign(
    name="Synergy",
    encrypted=True,
    mac_location=MacLocation.ECC_CHIP,
    counters_in_llc=True,
    macs_in_llc=False,
    tree_kind=TreeKind.BONSAI_COUNTER,
    counter_mode=CounterMode.MONOLITHIC,
    reliability=Reliability.SYNERGY_PARITY,
    parity_write_on_data_write=True,
)

#: Synergy with counters only in the dedicated cache (Fig. 14 variant).
SYNERGY_DEDICATED = SecureDesign(
    name="Synergy_Dedicated",
    encrypted=True,
    mac_location=MacLocation.ECC_CHIP,
    counters_in_llc=False,
    macs_in_llc=False,
    tree_kind=TreeKind.BONSAI_COUNTER,
    counter_mode=CounterMode.MONOLITHIC,
    reliability=Reliability.SYNERGY_PARITY,
    parity_write_on_data_write=True,
)

#: Split-counter variants (Fig. 13).
SGX_O_SPLIT = SecureDesign(
    name="SGX_O_Split",
    encrypted=True,
    mac_location=MacLocation.SEPARATE,
    counters_in_llc=True,
    macs_in_llc=False,
    tree_kind=TreeKind.BONSAI_COUNTER,
    counter_mode=CounterMode.SPLIT,
    reliability=Reliability.SECDED,
)

SYNERGY_SPLIT = SecureDesign(
    name="Synergy_Split",
    encrypted=True,
    mac_location=MacLocation.ECC_CHIP,
    counters_in_llc=True,
    macs_in_llc=False,
    tree_kind=TreeKind.BONSAI_COUNTER,
    counter_mode=CounterMode.SPLIT,
    reliability=Reliability.SYNERGY_PARITY,
    parity_write_on_data_write=True,
)

#: IVEC on an ECC-DIMM (Fig. 15/16): non-Bonsai MAC tree, MACs in LLC,
#: split counters in the dedicated cache only, parity in the ECC chip
#: (no extra parity writes, but heavy MAC-tree traffic).
#:
#: Modelling note (see DESIGN.md): the paper's measured IVEC result (0.74x
#: performance, 1.9x EDP) is only consistent with the LLC MAC caching being
#: *ineffective* at eliding fetches — the non-Bonsai tree keeps MACs
#: untrusted until verified, so each access re-fetches its MAC while the
#: cached copies still displace data (cf. Rogers et al. [14]). We model
#: exactly that: a MAC fetch per access, ``macs_in_llc=True``
#: (pollution), plus per-level Merkle update traffic
#: and serial root-ward verification latency.
IVEC = SecureDesign(
    name="IVEC",
    encrypted=True,
    mac_location=MacLocation.SEPARATE,
    counters_in_llc=False,
    macs_in_llc=True,
    tree_kind=TreeKind.MAC_TREE,
    counter_mode=CounterMode.SPLIT,
    reliability=Reliability.IVEC_PARITY,
    serial_tree_verification=True,
)

#: LOT-ECC layered on the secure baseline (Fig. 17): SGX_O security plus
#: tier-2 parity updates on every data write.
LOTECC = SecureDesign(
    name="LOTECC",
    encrypted=True,
    mac_location=MacLocation.SEPARATE,
    counters_in_llc=True,
    macs_in_llc=False,
    tree_kind=TreeKind.BONSAI_COUNTER,
    counter_mode=CounterMode.MONOLITHIC,
    reliability=Reliability.LOTECC,
    lotecc_parity_rmw=True,
)

LOTECC_COALESCED = SecureDesign(
    name="LOTECC_WC",
    encrypted=True,
    mac_location=MacLocation.SEPARATE,
    counters_in_llc=True,
    macs_in_llc=False,
    tree_kind=TreeKind.BONSAI_COUNTER,
    counter_mode=CounterMode.MONOLITHIC,
    reliability=Reliability.LOTECC,
    lotecc_parity_rmw=True,
    lotecc_write_coalescing=True,
)

#: Extension (§VI-B): a custom DIMM providing 16 metadata bytes per line
#: co-locates MAC *and* parity with the data — Synergy without the parity
#: write traffic. "Such organizations may be used for future standards on
#: reliable and secure memories."
SYNERGY_CUSTOM = SecureDesign(
    name="Synergy_Custom",
    encrypted=True,
    mac_location=MacLocation.ECC_CHIP,
    counters_in_llc=True,
    macs_in_llc=False,
    tree_kind=TreeKind.BONSAI_COUNTER,
    counter_mode=CounterMode.MONOLITHIC,
    reliability=Reliability.SYNERGY_PARITY,
    parity_write_on_data_write=False,
)

#: Secure baseline with commercial Chipkill reliability (Fig. 1b): same
#: metadata behaviour as SGX_O, but every access lock-steps two channels.
CHIPKILL_SECURE = SecureDesign(
    name="Chipkill_Secure",
    encrypted=True,
    mac_location=MacLocation.SEPARATE,
    counters_in_llc=True,
    macs_in_llc=False,
    tree_kind=TreeKind.BONSAI_COUNTER,
    counter_mode=CounterMode.MONOLITHIC,
    reliability=Reliability.CHIPKILL,
    chipkill_lockstep=True,
)

#: §VII-B extensions: PoisonIvy-style speculative verification layered on
#: the baseline and on Synergy. Speculation hides verification *latency*;
#: Synergy removes verification *bandwidth* — the ablation shows the two
#: compose (Synergy's gain persists under speculation because the
#: workloads are bandwidth-bound).
SGX_O_SPECULATIVE = SecureDesign(
    name="SGX_O_Spec",
    encrypted=True,
    mac_location=MacLocation.SEPARATE,
    counters_in_llc=True,
    macs_in_llc=False,
    tree_kind=TreeKind.BONSAI_COUNTER,
    counter_mode=CounterMode.MONOLITHIC,
    reliability=Reliability.SECDED,
    speculative_verification=True,
)

SYNERGY_SPECULATIVE = SecureDesign(
    name="Synergy_Spec",
    encrypted=True,
    mac_location=MacLocation.ECC_CHIP,
    counters_in_llc=True,
    macs_in_llc=False,
    tree_kind=TreeKind.BONSAI_COUNTER,
    counter_mode=CounterMode.MONOLITHIC,
    reliability=Reliability.SYNERGY_PARITY,
    parity_write_on_data_write=True,
    speculative_verification=True,
)

ALL_DESIGNS = [
    NON_SECURE,
    SGX,
    SGX_O,
    SYNERGY,
    SYNERGY_DEDICATED,
    SGX_O_SPLIT,
    SYNERGY_SPLIT,
    IVEC,
    LOTECC,
    LOTECC_COALESCED,
    SYNERGY_CUSTOM,
    CHIPKILL_SECURE,
    SGX_O_SPECULATIVE,
    SYNERGY_SPECULATIVE,
]

_BY_NAME = {design.name: design for design in ALL_DESIGNS}


def design_by_name(name: str) -> SecureDesign:
    """Look up a design descriptor by its Table II name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            "unknown design %r; known: %s" % (name, ", ".join(sorted(_BY_NAME)))
        ) from None
