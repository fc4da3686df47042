"""The explicit Monte-Carlo sampler, kept as the oracle of the shard kernel.

Every draw goes through ``DeterministicRng``: one generator per device,
forked from the shard stream with ``fork("device", index)``, and the
stdlib ``randint``/``weighted_choice``/``uniform`` calls per fault.
``repro.reliability.montecarlo`` inlines the same arithmetic over one
reseeded stream; ``tests/test_reliability.py`` asserts the two agree
draw for draw.
"""

from typing import List, Optional

import numpy as np

from repro.reliability.faults import FaultInstance
from repro.reliability.fitrates import FAULT_MODES, FaultMode
from repro.reliability.montecarlo import _FIT_RATE, _LARGE_FRACTION, MonteCarloConfig
from repro.reliability.schemes import ProtectionScheme
from repro.util.rng import DeterministicRng, derive_seed

_MODE_WEIGHTS = [mode.fit for mode in FAULT_MODES]


def sample_fault(
    rng: DeterministicRng, chip: int, mode: FaultMode, config: MonteCarloConfig
) -> FaultInstance:
    """Draw location and timing for one fault arrival."""
    geometry = config.geometry
    start = rng.uniform(0.0, config.lifetime_hours)
    if mode.transient:
        end: Optional[float] = start + config.scrub_interval_hours
    else:
        end = None
    return FaultInstance(
        chip=chip,
        granularity=mode.granularity,
        transient=mode.transient,
        start_hour=start,
        end_hour=end,
        bank=rng.randint(0, geometry.banks - 1),
        row=rng.randint(0, geometry.rows_per_bank - 1),
        column=rng.randint(0, geometry.words_per_row - 1),
        bit=rng.randint(0, 63),
    )


def sample_device_faults(
    rng: DeterministicRng, scheme: ProtectionScheme, config: MonteCarloConfig
) -> List[FaultInstance]:
    """All fault arrivals for one device, Poisson per chip and mode."""
    faults: List[FaultInstance] = []
    for chip in range(scheme.chips):
        for mode in FAULT_MODES:
            expected = mode.fit * 1e-9 * config.lifetime_hours
            for _ in range(rng.poisson(expected)):
                faults.append(sample_fault(rng, chip, mode, config))
    return faults


def simulate_device(
    rng: DeterministicRng, scheme: ProtectionScheme, config: MonteCarloConfig
) -> bool:
    """Does one simulated device fail?"""
    return scheme.device_fails(sample_device_faults(rng, scheme, config))


def multi_fault_device_faults(
    device_rng: DeterministicRng,
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    count: int,
) -> List[FaultInstance]:
    """The ``count`` (>= 2) faults of one multi-fault device."""
    faults = []
    for _ in range(count):
        chip = device_rng.randint(0, scheme.chips - 1)
        mode = device_rng.weighted_choice(FAULT_MODES, _MODE_WEIGHTS)
        faults.append(sample_fault(device_rng, chip, mode, config))
    return faults


def multi_fault_devices(
    scheme: ProtectionScheme, config: MonteCarloConfig, shard_id: int, size: int
):
    """``(device_index, fault_count)`` of one shard's multi-fault devices."""
    shard_seed = derive_seed(config.seed, "mc-shard", shard_id)
    rate = _FIT_RATE * config.lifetime_hours * scheme.chips
    counts = np.random.default_rng(shard_seed).poisson(rate, size)
    multi = np.flatnonzero(counts >= 2)
    return list(zip(multi.tolist(), counts[multi].tolist()))


def shard_failures(
    scheme: ProtectionScheme, config: MonteCarloConfig, shard_id: int, size: int
) -> int:
    """Failure count among one shard's devices, one generator per device."""
    shard_seed = derive_seed(config.seed, "mc-shard", shard_id)
    rng_np = np.random.default_rng(shard_seed)
    counts = rng_np.poisson(_FIT_RATE * config.lifetime_hours * scheme.chips, size)
    failures = 0
    single_fault_devices = int(np.count_nonzero(counts == 1))
    if not scheme.chip_correcting and single_fault_devices:
        failures += int(rng_np.binomial(single_fault_devices, _LARGE_FRACTION))
    rng = DeterministicRng(shard_seed)
    multi = np.flatnonzero(counts >= 2)
    for device_index, count in zip(multi.tolist(), counts[multi].tolist()):
        device_rng = rng.fork("device", device_index)
        faults = multi_fault_device_faults(device_rng, scheme, config, count)
        if scheme.device_fails(faults):
            failures += 1
    return failures


def overlap_probability(config: MonteCarloConfig, samples: int, seed: int) -> float:
    """P(two random faults on different chips overlap), one stream."""
    from repro.reliability.faults import faults_overlap

    rng = DeterministicRng(seed)
    hits = 0
    for _ in range(samples):
        first_mode = rng.weighted_choice(FAULT_MODES, _MODE_WEIGHTS)
        first = sample_fault(rng, 0, first_mode, config)
        second_mode = rng.weighted_choice(FAULT_MODES, _MODE_WEIGHTS)
        second = sample_fault(rng, 1, second_mode, config)
        if faults_overlap(first, second):
            hits += 1
    return hits / samples
