"""Monte-Carlo reliability simulation (the FAULTSIM methodology).

For each simulated device (one protection group of chips), fault arrivals
are Poisson with the Table I FIT rates over a 7-year lifetime; each fault
gets a uniformly random location and — if transient — a bounded active
window ending at the next scrub. The device fails if the scheme's
uncorrectability predicate ever holds.

Two implementations share the same sampling logic:

* :func:`simulate_device` — per-device, fully explicit; the reference used
  by unit tests.
* :func:`simulate_failure_probability` — batched over N devices with a
  numpy fast path for the (overwhelmingly common) 0/1-fault devices and
  the explicit predicate only for multi-fault devices. This is how the
  billion-device scale of the paper becomes tractable in Python.

The device population is partitioned into fixed-size *shards* whose RNG
streams derive from ``(seed, shard_id)`` alone — never from execution
order — so running shards serially, across a process pool, or in any
interleaving produces bit-identical failure counts. ``jobs``/``cache``
default to the process execution context (see ``repro.parallel``), and
finished curves land in the content-addressed run cache so Fig. 11 and
the scrub-interval sweep share work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.parallel import (
    EXECUTION_STATS,
    parallel_map,
    resolve_cache,
    resolve_jobs,
)
from repro.parallel.runcache import RunCache, cache_key
from repro.reliability.faults import ChipGeometry, FaultInstance
from repro.reliability.fitrates import FAULT_MODES, FaultGranularity, FaultMode
from repro.reliability.schemes import ProtectionScheme
from repro.telemetry import (
    TELEMETRY_AGGREGATE,
    MetricsSnapshot,
    cell_scope,
    get_registry,
)
from repro.util.rng import DeterministicRng, derive_seed
from repro.util.units import HOURS_PER_YEAR

#: Failure-count buckets for the per-shard failure histogram.
SHARD_FAILURE_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Total per-chip fault rate (faults per chip-hour): Table I FIT rates
#: summed, FIT = failures per 1e9 device-hours. Hoisted to module scope so
#: the per-shard fast path does not re-reduce FAULT_MODES on every call;
#: the expression (and therefore float-op order) matches the old inline
#: ``sum(mode.fit for mode in FAULT_MODES) * 1e-9`` exactly.
_FIT_RATE = sum(mode.fit for mode in FAULT_MODES) * 1e-9

#: Fraction of fault arrivals that span more than one bit (the failures a
#: SECDED-class scheme cannot correct). Same float-op order as the old
#: inline two-sum quotient, so sampled probabilities are unchanged.
_LARGE_FRACTION = (
    sum(m.fit for m in FAULT_MODES if m.is_large)
    / sum(m.fit for m in FAULT_MODES)
)

#: Fault-mode sampling weights for multi-fault devices (proportional to FIT).
_MODE_WEIGHTS = [mode.fit for mode in FAULT_MODES]


@dataclass(frozen=True)
class MonteCarloConfig:
    """Parameters of one reliability experiment."""

    devices: int = 200_000
    lifetime_years: float = 7.0
    #: Transient faults are repaired at the next scrub; Table I transients
    #: otherwise persist forever, which field studies contradict.
    scrub_interval_hours: float = 24.0
    geometry: ChipGeometry = field(default_factory=ChipGeometry)
    seed: int = 2018
    #: Devices per deterministic RNG shard. Part of the experiment's
    #: identity: the same (seed, shard_devices) pair reproduces the same
    #: population no matter how many workers simulate it.
    shard_devices: int = 50_000

    @property
    def lifetime_hours(self) -> float:
        """Device lifetime in hours."""
        return self.lifetime_years * HOURS_PER_YEAR

    def shards(self) -> List[Tuple[int, int]]:
        """The (shard_id, device_count) partition of the population."""
        out: List[Tuple[int, int]] = []
        remaining = self.devices
        shard_id = 0
        while remaining > 0:
            size = min(self.shard_devices, remaining)
            out.append((shard_id, size))
            remaining -= size
            shard_id += 1
        return out


def _sample_fault(
    rng: DeterministicRng,
    chip: int,
    mode: FaultMode,
    config: MonteCarloConfig,
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
    """All fault arrivals for one device over its lifetime."""
    faults: List[FaultInstance] = []
    for chip in range(scheme.chips):
        for mode in FAULT_MODES:
            expected = mode.fit * 1e-9 * config.lifetime_hours
            arrivals = rng.poisson(expected)
            for _ in range(arrivals):
                faults.append(_sample_fault(rng, chip, mode, config))
    return faults


def simulate_device(
    rng: DeterministicRng, scheme: ProtectionScheme, config: MonteCarloConfig
) -> bool:
    """Reference path: does one simulated device fail?"""
    return scheme.device_fails(sample_device_faults(rng, scheme, config))


def _multi_fault_device_fails(
    device_rng: DeterministicRng,
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    count: int,
) -> bool:
    """Explicit predicate for a device with ``count`` (>= 2) faults.

    Shared by the per-shard and multi-shard batched paths so the two stay
    draw-for-draw identical.
    """
    faults = []
    for _ in range(count):
        chip = device_rng.randint(0, scheme.chips - 1)
        mode = device_rng.weighted_choice(FAULT_MODES, _MODE_WEIGHTS)
        faults.append(_sample_fault(device_rng, chip, mode, config))
    return scheme.device_fails(faults)


def simulate_shard(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    shard_id: int,
    shard_size: int,
) -> int:
    """Failure count among one shard's devices.

    Fast path: the number of faults per device is Poisson with a small
    mean, so devices are binned by fault count with numpy. Zero-fault
    devices survive. Single-fault devices fail only under SECDED and only
    for multi-bit faults — a Bernoulli, also vectorised. Multi-fault
    devices (a ~1e-4 fraction) run the explicit predicate.

    All randomness derives from ``(config.seed, shard_id)``, so the shard
    is a pure function of its arguments — the property that makes serial
    and process-pool execution bit-identical.
    """
    shard_seed = derive_seed(config.seed, "mc-shard", shard_id)
    per_chip_rate = _FIT_RATE * config.lifetime_hours
    device_rate = per_chip_rate * scheme.chips

    rng_np = np.random.default_rng(shard_seed)
    counts = rng_np.poisson(device_rate, shard_size)

    failures = 0
    single_fault_devices = int(np.count_nonzero(counts == 1))
    if not scheme.chip_correcting and single_fault_devices:
        failures += int(
            rng_np.binomial(single_fault_devices, _LARGE_FRACTION)
        )
    # Chip-correcting schemes survive any single fault by construction.

    multi_indices = np.flatnonzero(counts >= 2)
    rng = DeterministicRng(shard_seed)
    # One bulk conversion: the loop below sees plain Python ints.
    for device_index, count in zip(
        multi_indices.tolist(), counts[multi_indices].tolist()
    ):
        device_rng = rng.fork("device", device_index)
        if _multi_fault_device_fails(device_rng, scheme, config, count):
            failures += 1
    registry = get_registry()
    registry.counter("mc.shards").inc()
    registry.counter("mc.devices").inc(shard_size)
    registry.counter("mc.failures").inc(failures)
    registry.histogram("mc.shard_failures", SHARD_FAILURE_EDGES).record(failures)
    return failures


def simulate_shards_batched(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    shards: List[Tuple[int, int]],
) -> List[Tuple[int, dict]]:
    """Multi-cell batched epoch mode: classify every shard in one pass.

    The serial (``jobs == 1``) counterpart of fanning ``_shard_task`` over
    a pool: instead of classifying shard populations one at a time, every
    shard's Poisson fault counts are drawn up front and the 0/1/multi
    device classification runs as a single numpy pass over the
    concatenated population. Per-shard draw order is untouched — each
    shard keeps its own ``(seed, shard_id)``-derived generator and draws
    poisson-then-binomial from it, exactly as :func:`simulate_shard` does —
    so failure counts and telemetry payloads are bit-identical to the
    per-shard path, whatever the interleaving.
    """
    device_rate = _FIT_RATE * config.lifetime_hours * scheme.chips
    generators = []
    counts_per_shard = []
    for shard_id, size in shards:
        gen = np.random.default_rng(derive_seed(config.seed, "mc-shard", shard_id))
        generators.append(gen)
        counts_per_shard.append(gen.poisson(device_rate, size))

    # One classification pass over the whole population: per-shard
    # single-fault tallies via segmented reduction, multi-fault device
    # coordinates via one flatnonzero over the concatenated counts.
    all_counts = np.concatenate(counts_per_shard)
    bounds = np.zeros(len(shards) + 1, dtype=np.int64)
    np.cumsum([size for _shard_id, size in shards], out=bounds[1:])
    ones_per_shard = np.add.reduceat(
        (all_counts == 1).astype(np.int64), bounds[:-1]
    )
    multi_global = np.flatnonzero(all_counts >= 2)
    multi_shard = np.searchsorted(bounds, multi_global, side="right") - 1
    multi_local = multi_global - bounds[multi_shard]

    # Bulk-convert the classification output once; the per-shard loop
    # below sees plain Python ints (lint P204).
    ones_list = ones_per_shard.tolist()
    multi_by_shard: List[List[Tuple[int, int]]] = [[] for _shard in shards]
    for shard_pos, local_index, count in zip(
        multi_shard.tolist(),
        multi_local.tolist(),
        all_counts[multi_global].tolist(),
    ):
        multi_by_shard[shard_pos].append((local_index, count))

    chip_correcting = scheme.chip_correcting
    results: List[Tuple[int, dict]] = []
    for position, (shard_id, size) in enumerate(shards):
        shard_seed = derive_seed(config.seed, "mc-shard", shard_id)
        with cell_scope(cell="mc:%s" % scheme.name, shard=shard_id) as registry:
            failures = 0
            single_fault_devices = ones_list[position]
            if not chip_correcting and single_fault_devices:
                failures += int(
                    generators[position].binomial(
                        single_fault_devices, _LARGE_FRACTION
                    )
                )
            rng = DeterministicRng(shard_seed)
            for device_index, count in multi_by_shard[position]:
                device_rng = rng.fork("device", device_index)
                if _multi_fault_device_fails(device_rng, scheme, config, count):
                    failures += 1
            registry.counter("mc.shards").inc()
            registry.counter("mc.devices").inc(size)
            registry.counter("mc.failures").inc(failures)
            registry.histogram("mc.shard_failures", SHARD_FAILURE_EDGES).record(
                failures
            )
            payload = registry.snapshot().to_payload()
        results.append((failures, payload))
    return results


def _shard_task(task: Tuple) -> Tuple[int, dict]:
    """Module-level worker entry so shards pickle into pool processes.

    Returns ``(failures, telemetry_payload)``: the shard runs under its own
    registry scope so the snapshot contains exactly this shard's metrics,
    regardless of which worker process executed it.
    """
    scheme, config, shard_id, shard_size = task
    with cell_scope(cell="mc:%s" % scheme.name, shard=shard_id) as registry:
        failures = simulate_shard(scheme, config, shard_id, shard_size)
        payload = registry.snapshot().to_payload()
    return failures, payload


def simulate_failure_probability(
    scheme: ProtectionScheme,
    config: MonteCarloConfig = MonteCarloConfig(),
    jobs: Optional[int] = None,
    cache: Union[None, bool, str, RunCache] = None,
) -> float:
    """Probability of device failure over the lifetime (Fig. 11's metric).

    The device budget is split into deterministic shards (see
    :meth:`MonteCarloConfig.shards`) fanned over ``jobs`` worker
    processes; failure counts merge by summation, which is
    order-independent. The finished probability is cached on disk keyed
    by (scheme, config, code version).
    """
    jobs = resolve_jobs(jobs)
    run_cache = resolve_cache(cache)
    label = "mc:%s" % scheme.name
    key = None
    if run_cache is not None:
        key = cache_key("montecarlo", scheme=scheme, config=config)
        payload = run_cache.get(key, label=label)
        if payload is not None:
            # Warm hit: revive the cached telemetry so reports still carry
            # metrics even when no shard actually executed.
            TELEMETRY_AGGREGATE.add(label, payload.get("telemetry"))
            return float(payload["probability"])

    shards = config.shards()
    if jobs <= 1 and len(shards) > 1:
        # Serial route: the multi-cell batched epoch stepper classifies
        # every shard in one numpy pass (bit-identical to the per-shard
        # path — see simulate_shards_batched).
        span_started = time.perf_counter()
        shard_results = simulate_shards_batched(scheme, config, shards)
        elapsed = time.perf_counter() - span_started
        stats = EXECUTION_STATS
        for shard_id, _size in shards:
            stats.record_cell(
                "%s/shard%d" % (label, shard_id), elapsed / len(shards)
            )
        stats.record_map(1, elapsed)
    else:
        shard_results = parallel_map(
            _shard_task,
            [(scheme, config, shard_id, size) for shard_id, size in shards],
            jobs=jobs,
            labels=[
                "%s/shard%d" % (label, shard_id) for shard_id, _size in shards
            ],
        )
    failures = sum(result[0] for result in shard_results)
    # parallel_map returns in submission (= shard) order, and the merge is
    # commutative anyway: the aggregate is independent of worker count.
    telemetry = MetricsSnapshot()
    for _failures, shard_payload in shard_results:
        telemetry = telemetry.merge(MetricsSnapshot.from_payload(shard_payload))
    TELEMETRY_AGGREGATE.add(label, telemetry)
    probability = failures / config.devices
    if run_cache is not None and key is not None:
        run_cache.put(
            key,
            {"probability": probability, "telemetry": telemetry.to_payload()},
        )
    return probability


def failure_probability_series(
    scheme: ProtectionScheme,
    years: List[float],
    config: MonteCarloConfig = MonteCarloConfig(),
    jobs: Optional[int] = None,
    cache: Union[None, bool, str, RunCache] = None,
) -> List[float]:
    """Failure probability at several lifetimes (for time-series plots)."""
    from dataclasses import replace

    return [
        simulate_failure_probability(
            scheme, replace(config, lifetime_years=y), jobs=jobs, cache=cache
        )
        for y in years
    ]
