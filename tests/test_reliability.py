"""Reliability-plane tests: fault model, overlap, schemes, Monte-Carlo."""

import pathlib
import tracemalloc

import pytest
from reference.montecarlo_oracle import (
    multi_fault_device_faults,
    multi_fault_devices,
    overlap_probability,
    sample_device_faults,
    shard_failures,
    simulate_device,
)

from repro.reliability.analytical import (
    chip_correcting_failure_probability,
    effective_mac_strength_bits,
    empirical_overlap_probability,
    large_fault_fraction,
    sdc_estimate,
    secded_failure_probability,
)
from repro.reliability.faults import (
    ChipGeometry,
    FaultInstance,
    faults_overlap,
    footprints_intersect,
)
from repro.reliability.fitrates import (
    FAULT_MODES,
    FaultGranularity,
    fit_by_granularity,
    single_bit_fraction,
    total_fit_per_chip,
)
from repro.reliability.montecarlo import (
    FaultSampler,
    MonteCarloConfig,
    simulate_failure_probability,
    simulate_shards_batched,
)
from repro.reliability.schemes import (
    ALL_SCHEMES,
    CHIPKILL_SCHEME,
    IVEC_SCHEME,
    SECDED_SCHEME,
    SYNERGY_SCHEME,
)
from repro.util.rng import DeterministicRng, derive_seed, derive_seeds


def fault(chip, granularity, bank=0, row=0, column=0, start=0.0, end=None, bit=0):
    return FaultInstance(
        chip=chip,
        granularity=granularity,
        transient=end is not None,
        start_hour=start,
        end_hour=end,
        bank=bank,
        row=row,
        column=column,
        bit=bit,
    )


class TestFitRates:
    def test_table_total(self):
        # Sum of Table I: 14.2+18.6+1.4+0.3+1.4+5.6+0.2+8.2+0.8+10+0.3+1.4+0.9+2.8
        assert total_fit_per_chip() == pytest.approx(66.1)

    def test_single_bit_is_about_half(self):
        # Section II-B: single-bit failures make up ~50% of failures.
        assert 0.45 < single_bit_fraction() < 0.55

    def test_mode_count(self):
        assert len(FAULT_MODES) == 14

    def test_granularity_totals(self):
        totals = fit_by_granularity()
        assert totals[FaultGranularity.SINGLE_BIT] == pytest.approx(32.8)
        assert totals[FaultGranularity.SINGLE_BANK] == pytest.approx(10.8)

    def test_is_large_flag(self):
        for mode in FAULT_MODES:
            assert mode.is_large == (
                mode.granularity is not FaultGranularity.SINGLE_BIT
            )


class TestOverlap:
    def test_same_word_bits_intersect(self):
        a = fault(0, FaultGranularity.SINGLE_BIT, bank=1, row=2, column=3)
        b = fault(1, FaultGranularity.SINGLE_BIT, bank=1, row=2, column=3)
        assert footprints_intersect(a, b)

    def test_different_word_bits_disjoint(self):
        a = fault(0, FaultGranularity.SINGLE_BIT, bank=1, row=2, column=3)
        b = fault(1, FaultGranularity.SINGLE_BIT, bank=1, row=2, column=4)
        assert not footprints_intersect(a, b)

    def test_row_and_column_cross_in_same_bank(self):
        row_fault = fault(0, FaultGranularity.SINGLE_ROW, bank=2, row=5)
        column_fault = fault(1, FaultGranularity.SINGLE_COLUMN, bank=2, column=9)
        assert footprints_intersect(row_fault, column_fault)

    def test_row_and_column_different_banks_disjoint(self):
        row_fault = fault(0, FaultGranularity.SINGLE_ROW, bank=2, row=5)
        column_fault = fault(1, FaultGranularity.SINGLE_COLUMN, bank=3, column=9)
        assert not footprints_intersect(row_fault, column_fault)

    def test_bank_fault_covers_its_bank(self):
        bank_fault = fault(0, FaultGranularity.SINGLE_BANK, bank=4)
        bit = fault(1, FaultGranularity.SINGLE_BIT, bank=4, row=9, column=9)
        other = fault(1, FaultGranularity.SINGLE_BIT, bank=5, row=9, column=9)
        assert footprints_intersect(bank_fault, bit)
        assert not footprints_intersect(bank_fault, other)

    def test_chip_scale_faults_cover_everything(self):
        chip_fault = fault(0, FaultGranularity.MULTI_BANK)
        anything = fault(1, FaultGranularity.SINGLE_BIT, bank=7, row=1, column=1)
        assert footprints_intersect(chip_fault, anything)

    def test_temporal_disjoint_transients(self):
        a = fault(0, FaultGranularity.SINGLE_BANK, bank=0, start=0.0, end=10.0)
        b = fault(1, FaultGranularity.SINGLE_BANK, bank=0, start=20.0, end=30.0)
        assert footprints_intersect(a, b)
        assert not faults_overlap(a, b)

    def test_permanent_overlaps_later_transient(self):
        a = fault(0, FaultGranularity.SINGLE_BANK, bank=0, start=0.0, end=None)
        b = fault(1, FaultGranularity.SINGLE_BANK, bank=0, start=500.0, end=510.0)
        assert faults_overlap(a, b)


class TestSchemes:
    def test_secded_survives_single_bit(self):
        assert not SECDED_SCHEME.device_fails(
            [fault(0, FaultGranularity.SINGLE_BIT, bank=0, row=0, column=0)]
        )

    def test_secded_fails_any_large_fault(self):
        for granularity in (
            FaultGranularity.SINGLE_WORD,
            FaultGranularity.SINGLE_ROW,
            FaultGranularity.SINGLE_BANK,
        ):
            assert SECDED_SCHEME.device_fails([fault(0, granularity)])

    def test_secded_fails_double_bit_same_word(self):
        faults = [
            fault(0, FaultGranularity.SINGLE_BIT, bank=1, row=1, column=1, bit=0),
            fault(3, FaultGranularity.SINGLE_BIT, bank=1, row=1, column=1, bit=0),
        ]
        assert SECDED_SCHEME.device_fails(faults)

    def test_secded_survives_double_bit_different_words(self):
        faults = [
            fault(0, FaultGranularity.SINGLE_BIT, bank=1, row=1, column=1),
            fault(3, FaultGranularity.SINGLE_BIT, bank=1, row=1, column=2),
        ]
        assert not SECDED_SCHEME.device_fails(faults)

    def test_chip_correcting_survives_one_dead_chip(self):
        for scheme in (CHIPKILL_SCHEME, SYNERGY_SCHEME, IVEC_SCHEME):
            assert not scheme.device_fails([fault(0, FaultGranularity.MULTI_BANK)])

    def test_chip_correcting_survives_two_faults_same_chip(self):
        faults = [
            fault(2, FaultGranularity.SINGLE_BANK, bank=0),
            fault(2, FaultGranularity.SINGLE_BANK, bank=0),
        ]
        assert not SYNERGY_SCHEME.device_fails(faults)

    def test_chip_correcting_fails_two_overlapping_chips(self):
        faults = [
            fault(2, FaultGranularity.SINGLE_BANK, bank=0),
            fault(5, FaultGranularity.SINGLE_BANK, bank=0),
        ]
        assert SYNERGY_SCHEME.device_fails(faults)

    def test_chip_correcting_survives_disjoint_chips(self):
        faults = [
            fault(2, FaultGranularity.SINGLE_BANK, bank=0),
            fault(5, FaultGranularity.SINGLE_BANK, bank=1),
        ]
        assert not SYNERGY_SCHEME.device_fails(faults)

    def test_group_sizes(self):
        assert SECDED_SCHEME.chips == 9
        assert CHIPKILL_SCHEME.chips == 18
        assert SYNERGY_SCHEME.chips == 9
        assert IVEC_SCHEME.chips == 16

    def test_empty_history_survives(self):
        assert not SECDED_SCHEME.device_fails([])


class TestMonteCarlo:
    def test_reference_device_simulation(self):
        rng = DeterministicRng(1)
        config = MonteCarloConfig(devices=1)
        outcomes = [simulate_device(rng, SECDED_SCHEME, config) for _ in range(500)]
        # With ~1.6e-2 failure probability, expect a few failures in 500.
        assert 0 <= sum(outcomes) < 40

    def test_sampled_faults_have_valid_fields(self):
        rng = DeterministicRng(2)
        config = MonteCarloConfig()
        geometry = config.geometry
        # Force many samples by repeating.
        collected = []
        for _ in range(2000):
            collected.extend(sample_device_faults(rng, CHIPKILL_SCHEME, config))
            if len(collected) > 20:
                break
        assert collected
        for instance in collected:
            assert 0 <= instance.chip < 18
            assert 0 <= instance.bank < geometry.banks
            assert 0 <= instance.row < geometry.rows_per_bank
            assert 0 <= instance.column < geometry.words_per_row
            assert 0 <= instance.start_hour <= config.lifetime_hours
            if instance.transient:
                assert instance.end_hour is not None

    def test_paper_ratios(self):
        config = MonteCarloConfig(devices=400_000)
        secded = simulate_failure_probability(SECDED_SCHEME, config)
        chipkill = simulate_failure_probability(CHIPKILL_SCHEME, config)
        synergy = simulate_failure_probability(SYNERGY_SCHEME, config)
        assert secded > chipkill > synergy > 0
        # Shape targets (paper: 37x and 185x; generous MC tolerance bands).
        assert 15 < secded / chipkill < 120
        assert 80 < secded / synergy < 500
        assert 2 < chipkill / synergy < 10

    def test_longer_lifetime_increases_risk(self):
        short = simulate_failure_probability(
            SECDED_SCHEME, MonteCarloConfig(devices=150_000, lifetime_years=1)
        )
        long = simulate_failure_probability(
            SECDED_SCHEME, MonteCarloConfig(devices=150_000, lifetime_years=7)
        )
        assert long > short

    def test_deterministic_given_seed(self):
        config = MonteCarloConfig(devices=50_000, seed=7)
        a = simulate_failure_probability(SYNERGY_SCHEME, config)
        b = simulate_failure_probability(SYNERGY_SCHEME, config)
        assert a == b


class TestMonteCarloConfig:
    def test_zero_devices_is_rejected_before_the_kernel(self):
        # Used to raise ZeroDivisionError after simulating nothing.
        with pytest.raises(ValueError, match=r"MonteCarloConfig\.devices "):
            simulate_failure_probability(
                SECDED_SCHEME, MonteCarloConfig(devices=0), cache=False
            )

    def test_zero_shard_size_is_rejected_before_the_partition(self):
        # Used to loop forever in shards().
        with pytest.raises(ValueError, match=r"MonteCarloConfig\.shard_devices "):
            MonteCarloConfig(devices=10, shard_devices=0).shards()


class TestShardKernelMemory:
    def test_serial_route_holds_one_shard_at_a_time(self):
        # 2 M devices is 40 shards: all their fault counts at once take
        # ~50 MiB, one shard's well under 1 MiB.
        config = MonteCarloConfig(devices=2_000_000, seed=3)
        simulate_failure_probability(SECDED_SCHEME, config, jobs=1, cache=False)
        tracemalloc.start()
        try:
            simulate_failure_probability(SECDED_SCHEME, config, jobs=1, cache=False)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024, peak


class TestSamplerMatchesOracle:
    """The production sampler against the explicit ``DeterministicRng`` one."""

    MIN_DEVICES = 2_000

    @staticmethod
    def _multi_fault_shards(scheme, config):
        """Leading shards holding at least MIN_DEVICES multi-fault devices."""
        shards, devices = [], []
        for shard_id, size in config.shards():
            found = multi_fault_devices(scheme, config, shard_id, size)
            shards.append((shard_id, size))
            devices += [(shard_id, index, count) for index, count in found]
            if len(devices) >= TestSamplerMatchesOracle.MIN_DEVICES:
                return shards, devices
        raise AssertionError("population too small for %s" % scheme.name)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_fault_lists_and_verdicts_match(self, scheme):
        config = MonteCarloConfig(devices=10_000_000, seed=41)
        shards, devices = self._multi_fault_shards(scheme, config)
        sampler = FaultSampler(config)
        verdicts = 0
        for shard_id, index, count in devices:
            shard_rng = DeterministicRng(derive_seed(config.seed, "mc-shard", shard_id))
            expected = multi_fault_device_faults(
                shard_rng.fork("device", index), scheme, config, count
            )
            actual = sampler.device_faults(
                derive_seed(shard_rng.seed, "device", index), scheme.chips, count
            )
            # Tuple equality compares every field, floats bit for bit.
            assert actual == expected, (scheme.name, shard_id, index)
            verdicts += scheme.device_fails(actual)
        assert verdicts > 0
        # Verdicts, single-fault tallies included, shard by shard.
        kernel = [failures for failures, _ in simulate_shards_batched(scheme, config, shards)]
        oracle = [shard_failures(scheme, config, sid, size) for sid, size in shards]
        assert kernel == oracle

    def test_prefix_hashed_seeds_equal_derive_seed(self):
        shard_seed = derive_seed(2018, "mc-shard", 7)
        indices = [0, 1, 9, 10, 49_999, 2**40]
        assert derive_seeds((shard_seed, "device"), indices) == [
            derive_seed(shard_seed, "device", index) for index in indices
        ]
        assert derive_seeds(("a", 2.5), ["b", None]) == [
            derive_seed("a", 2.5, "b"),
            derive_seed("a", 2.5, None),
        ]

    def test_overlap_estimate_draws_like_the_oracle(self):
        config = MonteCarloConfig(scrub_interval_hours=500.0)
        assert empirical_overlap_probability(
            config, samples=3_000, seed=11
        ) == overlap_probability(config, samples=3_000, seed=11)

    def test_production_code_never_imports_the_oracle(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        offenders = [
            str(path)
            for path in sorted(src.rglob("*.py"))
            if "montecarlo_oracle" in path.read_text()
        ]
        assert offenders == []


class TestAnalytical:
    def test_secded_matches_monte_carlo(self):
        config = MonteCarloConfig(devices=400_000)
        analytical = secded_failure_probability(config)
        simulated = simulate_failure_probability(SECDED_SCHEME, config)
        assert analytical == pytest.approx(simulated, rel=0.2)

    def test_chip_correcting_matches_monte_carlo(self):
        config = MonteCarloConfig(devices=2_000_000)
        overlap = empirical_overlap_probability(config)
        analytical = chip_correcting_failure_probability(
            CHIPKILL_SCHEME, config, overlap
        )
        simulated = simulate_failure_probability(CHIPKILL_SCHEME, config)
        assert analytical == pytest.approx(simulated, rel=0.5)

    def test_large_fraction(self):
        assert large_fault_fraction() == pytest.approx(1 - single_bit_fraction())

    def test_sdc_estimate_matches_paper(self):
        estimate = sdc_estimate()
        # Paper: SDC FIT ~1e-19, about once per 1e14 billion years... the
        # order of magnitude is what matters.
        assert estimate.sdc_fit < 1e-15
        assert estimate.years_between_sdc > 1e20

    def test_effective_mac_strength(self):
        assert effective_mac_strength_bits(64, 16) == pytest.approx(60.0)
        assert effective_mac_strength_bits(64, 8) == pytest.approx(61.0)
