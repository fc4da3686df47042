"""Per-workload statistical profiles.

Each profile describes a workload's memory behaviour at the LLC boundary:

* ``apki`` — LLC accesses (L2 misses) per 1000 instructions;
* ``write_fraction`` — fraction of those that are stores/writebacks;
* ``footprint_mib`` — working-set size (per core, rate mode);
* ``sequential`` / ``hot`` — locality mixture weights: ``sequential``
  accesses follow stride-1 streams (row-buffer friendly, LLC-miss heavy for
  large footprints), ``hot`` accesses reuse a small LLC-resident set, and
  the remainder are uniform over the footprint;
* ``hot_set_kib`` — size of the reuse set.

Numbers are calibrated from published characterisations of SPEC2006 and GAP
memory behaviour (MPKI orderings, streaming-vs-pointer-chasing nature);
exact values matter less than the ordering and spread, which drive the
figures' shapes. The web-dataset graph kernels get moderate footprints with
strong reuse — that is the regime where SGX_O's counters fight data for LLC
capacity (the Fig. 8 anomaly) — while the twitter-dataset kernels get huge,
reuse-poor footprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of one workload's LLC-boundary behaviour."""

    name: str
    suite: str  #: 'specint' | 'specfp' | 'gap'
    apki: float  #: LLC accesses per kilo-instruction
    write_fraction: float
    footprint_mib: float  #: per-core working set
    sequential: float  #: fraction of stride-1 stream accesses
    hot: float  #: fraction of accesses to the hot reuse set
    hot_set_kib: int = 512
    #: Fraction of *random* accesses drawn from a recently-touched-page
    #: window rather than uniformly. Models the page-level temporal
    #: locality of real pointer-chasing code; it is what makes counter
    #: lines (1 per 8 adjacent data lines) cacheable, as in the paper.
    page_locality: float = 0.7
    #: Mean spatial burst length of the random component: consecutive
    #: accesses walk a page sequentially before moving on (real miss
    #: streams are spatially clustered; this is what lets one counter line,
    #: covering 8 adjacent data lines, serve a run of misses as in Fig. 9).
    burst_length: float = 10.0

    def __post_init__(self) -> None:
        if self.apki <= 0:
            raise ValueError("apki must be positive")
        if not 0 <= self.write_fraction <= 1:
            raise ValueError("write_fraction in [0,1]")
        if self.sequential + self.hot > 1.0 + 1e-9:
            raise ValueError("locality fractions exceed 1")

    @property
    def random_fraction(self) -> float:
        """Uniform-random remainder of the locality mixture."""
        return max(0.0, 1.0 - self.sequential - self.hot)


def _spec(name, suite, apki, wf, fp, seq, hot, hot_kib=512, pl=0.7, burst=10.0):
    return WorkloadProfile(
        name, suite, apki, wf, fp, seq, hot, hot_kib,
        page_locality=pl, burst_length=burst,
    )


#: 23 memory-intensive SPEC2006 workloads (paper Section V: >1 access/1000
#: instructions), ordered roughly as Fig. 8's x-axis groups them.
SPEC_WORKLOADS: List[WorkloadProfile] = [
    # SPECint
    _spec("astar", "specint", 6.0, 0.25, 48, 0.10, 0.45, pl=0.7, burst=3.0),
    _spec("bzip2", "specint", 3.5, 0.35, 28, 0.25, 0.45),
    _spec("gcc", "specint", 4.0, 0.30, 32, 0.15, 0.50),
    _spec("gobmk", "specint", 1.6, 0.30, 12, 0.10, 0.60),
    _spec("h264ref", "specint", 1.8, 0.30, 16, 0.40, 0.40),
    _spec("hmmer", "specint", 2.2, 0.40, 12, 0.45, 0.40),
    _spec("mcf", "specint", 38.0, 0.20, 420, 0.05, 0.10, pl=0.55, burst=2.5),
    _spec("omnetpp", "specint", 12.0, 0.30, 90, 0.05, 0.25, pl=0.6, burst=2.0),
    _spec("perlbench", "specint", 1.4, 0.35, 14, 0.15, 0.60),
    _spec("xalancbmk", "specint", 4.5, 0.25, 60, 0.10, 0.40, pl=0.7, burst=3.0),
    # SPECfp
    _spec("bwaves", "specfp", 16.0, 0.25, 380, 0.75, 0.05),
    _spec("cactusADM", "specfp", 5.5, 0.35, 140, 0.55, 0.15),
    _spec("dealII", "specfp", 2.4, 0.30, 24, 0.30, 0.50),
    _spec("GemsFDTD", "specfp", 18.0, 0.30, 460, 0.70, 0.05),
    _spec("gromacs", "specfp", 1.5, 0.30, 10, 0.40, 0.45),
    _spec("lbm", "specfp", 28.0, 0.40, 380, 0.85, 0.02),
    _spec("leslie3d", "specfp", 14.0, 0.30, 130, 0.70, 0.08),
    _spec("milc", "specfp", 22.0, 0.30, 560, 0.35, 0.05, pl=0.6, burst=5.0),
    _spec("libquantum", "specfp", 24.0, 0.25, 32, 0.95, 0.00),
    _spec("soplex", "specfp", 20.0, 0.25, 220, 0.30, 0.15, pl=0.65, burst=4.0),
    _spec("sphinx3", "specfp", 11.0, 0.15, 140, 0.35, 0.25),
    _spec("wrf", "specfp", 5.0, 0.30, 110, 0.60, 0.20),
    _spec("zeusmp", "specfp", 4.8, 0.35, 120, 0.55, 0.20),
]

#: 6 GAP kernels: {pr, cc, bc} x {twitter, web} (paper Section V).
GAP_WORKLOADS: List[WorkloadProfile] = [
    _spec("pr-twi", "gap", 34.0, 0.25, 900, 0.12, 0.06, 1024, pl=0.35, burst=1.5),
    _spec("pr-web", "gap", 26.0, 0.25, 60, 0.15, 0.55, 4096, pl=0.75, burst=1.5),
    _spec("cc-twi", "gap", 30.0, 0.20, 850, 0.10, 0.06, 1024, pl=0.35, burst=1.5),
    _spec("cc-web", "gap", 22.0, 0.20, 52, 0.12, 0.58, 4096, pl=0.75, burst=1.5),
    _spec("bc-twi", "gap", 38.0, 0.30, 950, 0.08, 0.06, 1024, pl=0.35, burst=1.5),
    _spec("bc-web", "gap", 28.0, 0.30, 64, 0.10, 0.55, 4096, pl=0.75, burst=1.5),
]

ALL_WORKLOADS: List[WorkloadProfile] = SPEC_WORKLOADS + GAP_WORKLOADS

_BY_NAME: Dict[str, WorkloadProfile] = {p.name: p for p in ALL_WORKLOADS}


def profile_by_name(name: str) -> WorkloadProfile:
    """Look up a profile; raises KeyError with the known names on miss."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            "unknown workload %r; known: %s" % (name, ", ".join(sorted(_BY_NAME)))
        ) from None
