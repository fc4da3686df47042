"""Closed-form reliability cross-checks and the SDC arithmetic of §IV-A.

The Monte-Carlo results should track these first-order approximations:

* SECDED device failure  ~  chips x (multi-bit FIT) x lifetime
* chip-correcting failure ~ C(chips, 2) x (per-chip fault prob)^2 x P(overlap)

and the silent-data-corruption bound: a mis-correction needs a 64-bit MAC
collision during one of at most 16 reconstruction attempts, i.e. probability
16 x 2^-64 < 1e-18 per corrected error — combined with a conservative error
rate this lands around the paper's "once per 1e14 billion years".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reliability.fitrates import FAULT_MODES
from repro.reliability.montecarlo import MonteCarloConfig
from repro.reliability.schemes import ProtectionScheme


def per_chip_fault_probability(config: MonteCarloConfig) -> float:
    """Probability a chip develops at least one fault within the lifetime."""
    rate = sum(mode.fit for mode in FAULT_MODES) * 1e-9 * config.lifetime_hours
    # 1 - exp(-rate), but rate << 1 so the linear term is exact enough and
    # keeps the formula transparent.
    return rate


def large_fault_fraction() -> float:
    """Fraction of faults that are multi-bit (defeat SECDED alone)."""
    total = sum(mode.fit for mode in FAULT_MODES)
    return sum(mode.fit for mode in FAULT_MODES if mode.is_large) / total


def secded_failure_probability(config: MonteCarloConfig, chips: int = 9) -> float:
    """First-order SECDED device-failure probability."""
    return chips * per_chip_fault_probability(config) * large_fault_fraction()


def chip_correcting_failure_probability(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    overlap_probability: float,
) -> float:
    """First-order failure probability for a chip-correcting scheme.

    ``overlap_probability`` is the chance two random faults on different
    chips intersect spatio-temporally; measure it empirically with
    :func:`empirical_overlap_probability` rather than guessing.
    """
    chips = scheme.chips
    pairs = chips * (chips - 1) / 2
    p = per_chip_fault_probability(config)
    return pairs * p * p * overlap_probability


def empirical_overlap_probability(
    config: MonteCarloConfig, samples: int = 20_000, seed: int = 7
) -> float:
    """Estimate P(two random faults on different chips overlap)."""
    from repro.reliability.faults import faults_overlap
    from repro.reliability.montecarlo import FaultSampler

    sampler = FaultSampler(config)
    sampler.reseed(seed)
    hits = 0
    for _ in range(samples):
        if faults_overlap(sampler.fault(0), sampler.fault(1)):
            hits += 1
    return hits / samples


# ---------------------------------------------------------------------------
# Silent data corruption (Section IV-A)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SdcEstimate:
    """Mis-correction (silent data corruption) rate estimate."""

    collision_probability_per_correction: float
    corrections_per_billion_hours: float

    @property
    def sdc_fit(self) -> float:
        """Silent-data-corruption failures per billion device-hours."""
        return (
            self.corrections_per_billion_hours
            * self.collision_probability_per_correction
        )

    @property
    def years_between_sdc(self) -> float:
        """Mean years between SDC events for one device."""
        if self.sdc_fit == 0:
            return float("inf")
        hours = 1e9 / self.sdc_fit
        return hours / (24 * 365)


def sdc_estimate(
    mac_bits: int = 64,
    max_reconstruction_attempts: int = 16,
    error_fit: float = 100.0,
) -> SdcEstimate:
    """The §IV-A arithmetic: 16 attempts against a 64-bit MAC.

    ``error_fit`` = assumed corrected-error rate (paper: a conservative
    100 failures per billion hours). Collision chance per correction is
    at most attempts x 2^-mac_bits = 16 x 2^-64 = 8.7e-19; multiplying by
    the 100 corrections per billion hours gives an SDC FIT of 8.7e-17.
    The paper quotes ~1e-19, which this arithmetic does not reproduce: it
    is about 870x higher (EXPERIMENTS.md reports the ratio).
    """
    collision = max_reconstruction_attempts * (2.0 ** -mac_bits)
    return SdcEstimate(
        collision_probability_per_correction=collision,
        corrections_per_billion_hours=error_fit,
    )


def effective_mac_strength_bits(
    mac_bits: int = 64, reconstruction_attempts: int = 16
) -> float:
    """Effective MAC strength after repeated verification (§IV-B).

    16 attempts against a 64-bit MAC give the adversary a 16x larger
    forgery window: effectively 60 bits; 8 attempts (counter lines): 61
    bits... the paper quotes 60 and 62 using slightly different rounding —
    we compute log2 exactly.
    """
    import math

    return mac_bits - math.log2(reconstruction_attempts)
