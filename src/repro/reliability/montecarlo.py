"""Monte-Carlo reliability simulation (the FAULTSIM methodology).

For each simulated device (one protection group of chips), fault arrivals
are Poisson with the Table I FIT rates over a 7-year lifetime; each fault
gets a uniformly random location and — if transient — a bounded active
window ending at the next scrub. The device fails if the scheme's
uncorrectability predicate ever holds.

One kernel, :func:`simulate_shards_batched`, simulates a list of device
*shards*, one shard in memory at a time: numpy draws every device's fault
count, the (overwhelmingly common) 0/1-fault devices are settled in bulk,
and only multi-fault devices get explicit fault histories from
:class:`FaultSampler` and the scheme's predicate. Over the 7-year lifetime
those are 6.5e-4 of 9-chip devices and 2.5e-3 of 18-chip devices. This is
how the billion-device scale of the paper becomes tractable in Python.

Each shard's RNG streams derive from ``(seed, shard_id)`` alone — never
from execution order — so :func:`simulate_failure_probability` can hand
contiguous shard slices to ``parallel_map`` (one slice in-process at
``jobs=1``, ``jobs * 4`` across the pool otherwise) and get bit-identical
failure counts. ``jobs``/``cache`` default to the process execution
context (see ``repro.parallel``), and finished curves land in the
content-addressed run cache so Fig. 11 and the scrub-interval sweep share
work. The draw-for-draw oracle of the sampler lives in the tests.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.parallel import parallel_map, resolve_cache, resolve_jobs
from repro.parallel.runcache import RunCache, cache_key
from repro.reliability.faults import ChipGeometry, FaultInstance
from repro.reliability.fitrates import FAULT_MODES
from repro.reliability.schemes import ProtectionScheme
from repro.telemetry import TELEMETRY_AGGREGATE, MetricsSnapshot, scoped_registry
from repro.util.rng import ReseedableStream, derive_seed, derive_seeds
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

#: Fault modes as ``(granularity, transient)``, with their cumulative
#: weights (proportional to FIT) and total accumulated once, exactly as
#: ``random.choices`` accumulates them on every call.
_MODE_FIELDS = [(mode.granularity, mode.transient) for mode in FAULT_MODES]
_MODE_CUM_WEIGHTS = list(accumulate(mode.fit for mode in FAULT_MODES))
_MODE_TOTAL_WEIGHT = _MODE_CUM_WEIGHTS[-1] + 0.0
_LAST_MODE = len(FAULT_MODES) - 1

#: Contiguous shard slices per worker when the shards fan out over a pool:
#: enough tasks to balance the workers, few enough to amortise dispatch.
_SLICES_PER_JOB = 4


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

    def __post_init__(self) -> None:
        for name in ("devices", "shard_devices"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(
                    "MonteCarloConfig.%s must be at least 1, got %r" % (name, value)
                )

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


class FaultSampler(ReseedableStream):
    """Fault histories for multi-fault devices from one reseeded stream.

    ``device_faults(seed, chips, count)`` returns exactly the faults a
    fresh ``DeterministicRng(seed)`` yields when each fault draws its chip
    with ``randint``, its mode with ``weighted_choice`` over the FIT
    rates, its start with ``uniform`` and its bank/row/column/bit with
    ``randint``. The stdlib arithmetic behind those calls is inlined:
    ``randint(0, n - 1)`` draws ``n.bit_length()`` bits and redraws while
    the value is ``>= n`` (half the draws on average, since every location
    range is a power of two), and the mode pick bisects the cumulative
    weights.
    """

    __slots__ = ("_lifetime_hours", "_scrub_hours", "_axes")

    def __init__(self, config: MonteCarloConfig) -> None:
        super().__init__()
        geometry = config.geometry
        self._lifetime_hours = config.lifetime_hours
        self._scrub_hours = config.scrub_interval_hours
        #: (range, draw width) of bank, row, column and bit-in-word, in
        #: draw order.
        self._axes = [
            (size, size.bit_length())
            for size in (
                geometry.banks,
                geometry.rows_per_bank,
                geometry.words_per_row,
                64,
            )
        ]

    def fault(self, chip: int) -> FaultInstance:
        """Draw one fault's mode, start hour and location on ``chip``."""
        getrandbits = self.getrandbits
        unit = self.random
        granularity, transient = _MODE_FIELDS[
            bisect(_MODE_CUM_WEIGHTS, unit() * _MODE_TOTAL_WEIGHT, 0, _LAST_MODE)
        ]
        # uniform(0, lifetime): ``0.0 + (lifetime - 0.0) * r`` is this product.
        start = self._lifetime_hours * unit()
        end = start + self._scrub_hours if transient else None
        location = []
        for size, width in self._axes:
            value = getrandbits(width)
            while value >= size:
                value = getrandbits(width)
            location.append(value)
        return FaultInstance(chip, granularity, transient, start, end, *location)

    def device_faults(self, seed: int, chips: int, count: int) -> List[FaultInstance]:
        """All ``count`` faults of one device whose stream is ``seed``."""
        self.reseed(seed)
        getrandbits = self.getrandbits
        fault = self.fault
        width = chips.bit_length()
        faults = []
        for _ in range(count):
            chip = getrandbits(width)
            while chip >= chips:
                chip = getrandbits(width)
            faults.append(fault(chip))
        return faults


def _shard_failures(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    sampler: FaultSampler,
    shard_seed: int,
    size: int,
) -> int:
    """Failure count among one shard's ``size`` devices.

    The number of faults per device is Poisson with a small mean, so
    devices are binned by fault count with numpy. Zero-fault devices
    survive. Single-fault devices fail only under SECDED and only for
    multi-bit faults — a Bernoulli over the binomial tally. Multi-fault
    devices run the explicit predicate, device ``i`` drawing from
    ``derive_seed(shard_seed, "device", i)``.
    """
    generator = np.random.default_rng(shard_seed)
    counts = generator.poisson(_FIT_RATE * config.lifetime_hours * scheme.chips, size)
    failures = 0
    # Chip-correcting schemes survive any single fault by construction.
    if not scheme.chip_correcting:
        single_fault_devices = int(np.count_nonzero(counts == 1))
        if single_fault_devices:
            failures += int(generator.binomial(single_fault_devices, _LARGE_FRACTION))
    multi = np.flatnonzero(counts >= 2)
    seeds = derive_seeds((shard_seed, "device"), multi.tolist())
    device_fails = scheme.device_fails
    device_faults = sampler.device_faults
    chips = scheme.chips
    for seed, count in zip(seeds, counts[multi].tolist()):
        if device_fails(device_faults(seed, chips, count)):
            failures += 1
    return failures


def simulate_shards_batched(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    shards: List[Tuple[int, int]],
) -> List[Tuple[int, dict]]:
    """``(failures, telemetry payload)`` of each ``(shard_id, size)`` shard.

    The Monte-Carlo kernel. Shards run one after another, so memory holds
    one shard's fault counts at a time whatever the slice length. Each
    shard runs under its own registry scope, so its payload holds exactly
    its own metrics, and all its randomness derives from
    ``(config.seed, shard_id)``: any slicing of the shard list, in any
    process, gives the same results.
    """
    sampler = FaultSampler(config)
    results: List[Tuple[int, dict]] = []
    for shard_id, size in shards:
        shard_seed = derive_seed(config.seed, "mc-shard", shard_id)
        with scoped_registry() as registry:
            failures = _shard_failures(scheme, config, sampler, shard_seed, size)
            registry.counter("mc.shards").inc()
            registry.counter("mc.devices").inc(size)
            registry.counter("mc.failures").inc(failures)
            registry.histogram("mc.shard_failures", SHARD_FAILURE_EDGES).record(
                failures
            )
            payload = registry.snapshot().to_payload()
        results.append((failures, payload))
    return results


def simulate_failure_probability(
    scheme: ProtectionScheme,
    config: MonteCarloConfig = MonteCarloConfig(),
    jobs: Optional[int] = None,
    cache: Union[None, bool, str, RunCache] = None,
) -> float:
    """Probability of device failure over the lifetime (Fig. 11's metric).

    The device budget is split into deterministic shards (see
    :meth:`MonteCarloConfig.shards`), cut into contiguous slices and
    mapped over ``jobs`` worker processes; failure counts merge by
    summation, which is order-independent. The finished probability is
    cached on disk keyed by (scheme, config, code version).
    """
    jobs = resolve_jobs(jobs)
    run_cache = resolve_cache(cache)
    label = "mc:%s" % scheme.name
    key = None
    if run_cache is not None:
        key = cache_key("montecarlo", scheme=scheme, config=config)
        payload = run_cache.get(key)
        if payload is not None:
            # Warm hit: revive the cached telemetry so reports still carry
            # metrics even when no shard actually executed.
            TELEMETRY_AGGREGATE.add(label, payload.get("telemetry"))
            return float(payload["probability"])

    shards = config.shards()
    pieces = min(len(shards), 1 if jobs <= 1 else jobs * _SLICES_PER_JOB)
    bounds = [len(shards) * index // pieces for index in range(pieces + 1)]
    slices = [shards[low:high] for low, high in zip(bounds, bounds[1:])]
    slice_results = parallel_map(
        partial(simulate_shards_batched, scheme, config),
        slices,
        jobs=jobs,
        labels=[
            "%s/shards%d-%d" % (label, part[0][0], part[-1][0]) for part in slices
        ],
    )
    # parallel_map returns in submission (= shard) order, and the merge is
    # commutative anyway: the aggregate is independent of worker count.
    shard_results = [result for part in slice_results for result in part]
    failures = sum(result[0] for result in shard_results)
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
