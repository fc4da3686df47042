"""Workload profile and trace-generator tests."""

import pathlib
from collections import Counter

import pytest

from reference.trace_oracle import generate_trace_reference
from repro.cpu.trace import MemoryOp
from repro.workloads import generator
from repro.sim.config import SystemConfig
from repro.sim.runner import _traces_for
from repro.workloads.generator import generate_trace
from repro.workloads.mixes import MIXES
from repro.workloads.profiles import (
    ALL_WORKLOADS,
    GAP_WORKLOADS,
    SPEC_WORKLOADS,
    WorkloadProfile,
    profile_by_name,
)
from repro.workloads.suites import workload_suite


class TestProfiles:
    def test_suite_sizes_match_paper(self):
        assert len(SPEC_WORKLOADS) == 23
        assert len(GAP_WORKLOADS) == 6
        assert len(ALL_WORKLOADS) == 29

    def test_all_memory_intensive(self):
        # The paper only evaluates >1 access per 1000 instructions.
        assert all(p.apki > 1.0 for p in ALL_WORKLOADS)

    def test_gap_kernels_named(self):
        names = {p.name for p in GAP_WORKLOADS}
        assert names == {"pr-twi", "pr-web", "cc-twi", "cc-web", "bc-twi", "bc-web"}

    def test_lookup(self):
        assert profile_by_name("mcf").suite == "specint"
        with pytest.raises(KeyError):
            profile_by_name("nonexistent")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("bad", "spec", -1.0, 0.2, 10, 0.1, 0.1)
        with pytest.raises(ValueError):
            WorkloadProfile("bad", "spec", 1.0, 2.0, 10, 0.1, 0.1)
        with pytest.raises(ValueError):
            WorkloadProfile("bad", "spec", 1.0, 0.2, 10, 0.7, 0.7)

    def test_random_fraction(self):
        profile = WorkloadProfile("x", "spec", 1.0, 0.2, 10, 0.3, 0.3)
        assert profile.random_fraction == pytest.approx(0.4)

    def test_mixes_reference_known_workloads(self):
        assert len(MIXES) == 6
        for names in MIXES.values():
            assert len(names) == 4
            for name in names:
                profile_by_name(name)


class TestSuites:
    def test_scopes(self):
        assert len(workload_suite("all")) == 29
        assert len(workload_suite("spec")) == 23
        assert len(workload_suite("gap")) == 6
        assert len(workload_suite("smoke")) == 3
        assert len(workload_suite("representative")) == 9

    def test_unknown_scope(self):
        with pytest.raises(ValueError):
            workload_suite("bogus")


class TestGenerator:
    def test_deterministic(self):
        profile = profile_by_name("mcf")
        a = generate_trace(profile, 500)
        b = generate_trace(profile, 500)
        assert [(r.gap, r.op, r.line_address) for r in a] == [
            (r.gap, r.op, r.line_address) for r in b
        ]

    def test_cores_differ(self):
        profile = profile_by_name("mcf")
        a = generate_trace(profile, 500, core_id=0)
        b = generate_trace(profile, 500, core_id=1)
        assert [r.line_address for r in a] != [r.line_address for r in b]

    def test_seed_salt_differs(self):
        profile = profile_by_name("mcf")
        a = generate_trace(profile, 500, seed_salt="trace")
        b = generate_trace(profile, 500, seed_salt="warmup")
        assert [r.line_address for r in a] != [r.line_address for r in b]

    def test_apki_calibration(self):
        profile = profile_by_name("lbm")  # apki=28
        trace = generate_trace(profile, 4000)
        assert trace.accesses_per_kilo_instruction == pytest.approx(
            profile.apki, rel=0.15
        )

    def test_write_fraction_calibration(self):
        profile = profile_by_name("hmmer")  # wf=0.40
        trace = generate_trace(profile, 4000)
        assert trace.write_fraction == pytest.approx(profile.write_fraction, abs=0.05)

    def test_base_line_offsets(self):
        profile = profile_by_name("gcc")
        trace = generate_trace(profile, 200, base_line=1_000_000)
        assert all(r.line_address >= 1_000_000 for r in trace)

    def test_footprint_respected(self):
        profile = profile_by_name("gobmk")  # 12 MiB footprint
        trace = generate_trace(profile, 3000)
        max_line = 12 * 1024 * 1024 // 64
        assert all(r.line_address < max_line for r in trace)

    def test_scale_divisor_shrinks_footprint(self):
        profile = profile_by_name("mcf")
        full = generate_trace(profile, 2000)
        scaled = generate_trace(profile, 2000, scale_divisor=16)
        assert max(r.line_address for r in scaled) < max(
            r.line_address for r in full
        )

    def test_sequential_workload_has_runs(self):
        profile = profile_by_name("libquantum")  # 95% sequential
        trace = generate_trace(profile, 2000)
        addresses = [r.line_address for r in trace]
        consecutive = sum(
            1 for a, b in zip(addresses, addresses[1:]) if b == a + 1
        )
        assert consecutive > len(addresses) * 0.5

    def test_hot_set_reuse(self):
        profile = profile_by_name("gobmk")  # 60% hot accesses
        # Scaled footprints shrink the hot set below the access count, so
        # reuse becomes visible in distinct-address statistics.
        trace = generate_trace(profile, 4000, scale_divisor=16)
        addresses = [r.line_address for r in trace]
        assert len(set(addresses)) < len(addresses) * 0.6

    def test_invalid_parameters(self):
        profile = profile_by_name("mcf")
        with pytest.raises(ValueError):
            generate_trace(profile, 0)
        with pytest.raises(ValueError):
            generate_trace(profile, 10, scale_divisor=0)

    def test_rate_mode_disjoint_footprints(self):
        # The runner's rate mode: one profile on every core, each core in
        # its own slice of the line space.
        _label, traces = _traces_for("gcc", SystemConfig(accesses_per_core=200))
        assert len(traces) == 4
        ranges = []
        for trace in traces:
            addresses = [r.line_address for r in trace]
            ranges.append((min(addresses), max(addresses)))
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 < lo2


class TestVectorizedEquivalence:
    """The block decoder must match the per-record oracle bit-for-bit.

    ``generate_trace`` decodes the raw Mersenne-Twister word stream in
    blocks with numpy; ``generate_trace_reference`` is the per-record loop
    (``tests/reference/trace_oracle.py``). Any record-level divergence
    silently changes every downstream golden, so equality is checked
    record-for-record here across the profile space, including the
    decoder's special-cased regions (no-gap traces, pure branches, the
    run-accelerated sequential walk, tiny footprints where the page count
    collapses to one) and records and state that cross block ends.
    """

    @staticmethod
    def _assert_identical(profile, count, **kwargs):
        reference = generate_trace_reference(profile, count, **kwargs)
        batched = generate_trace(profile, count, **kwargs)
        assert reference.name == batched.name
        assert reference.gaps.tolist() == batched.gaps.tolist()
        assert [bool(op) for op in reference.ops.tolist()] == [
            bool(op) for op in batched.ops.tolist()
        ]
        assert reference.lines.tolist() == batched.lines.tolist()

    @pytest.mark.parametrize(
        "name", ["mcf", "lbm", "libquantum", "gobmk", "gcc", "pr-twi"]
    )
    def test_profiles_record_for_record(self, name):
        self._assert_identical(profile_by_name(name), 2500)

    def test_run_accelerated_walk(self):
        # sequential >= 0.5 and count >= 2048 takes the run-length walk.
        self._assert_identical(profile_by_name("lbm"), 4096)

    def test_salts_cores_and_scaling(self):
        profile = profile_by_name("zeusmp")
        self._assert_identical(
            profile, 1500, core_id=3, base_line=1 << 24,
            seed_salt="warmup", scale_divisor=8,
        )

    def _edge(self, **kwargs):
        base = dict(
            name="edge", suite="edge", apki=10.0, write_fraction=0.3,
            footprint_mib=16.0, sequential=0.3, hot=0.3,
            page_locality=0.5, burst_length=2.0,
        )
        base.update(kwargs)
        return WorkloadProfile(**base)

    def test_edge_profiles(self):
        edges = [
            self._edge(apki=1500.0),        # mean gap rounds to zero
            self._edge(write_fraction=0.0),
            self._edge(write_fraction=1.0),
            self._edge(footprint_mib=0.005),  # single-page footprint
            self._edge(sequential=1.0, hot=0.0),
            self._edge(sequential=0.0, hot=0.0, burst_length=4.0),
            self._edge(sequential=0.0, hot=1.0),
        ]
        for profile in edges:
            for count in (1, 7, 500):
                self._assert_identical(profile, count)

    def test_tiny_counts(self):
        profile = profile_by_name("milc")
        for count in (1, 2, 3, 5, 17):
            self._assert_identical(profile, count)

    @pytest.mark.parametrize("name", ["sphinx3", "lbm", "mcf"])
    def test_many_default_blocks(self, name):
        # ~8-10 words per record: 20k records span about ten blocks.
        self._assert_identical(profile_by_name(name), 20_000)

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        """Shrink blocks to a few dozen words and count the carried state.

        Counts, per block, the state a block inherits from the one before
        (a burst in progress, a page-window ring that fresh picks have
        advanced, an active stream other than the first) and the records
        whose bounded-draw rejection run crossed the block end (the scan
        began below the decodable words and stopped in the sentinels).
        """
        monkeypatch.setattr(generator, "_BLOCK_WORDS", 40)
        decoder = generator._BlockDecoder
        real_feed, real_walk = decoder.feed, decoder._walk
        seen = Counter()

        def feed(self, fresh):
            seen["burst"] += self.burst_left > 0
            seen["ring"] += self.cursor != 0
            seen["stream"] += self.active_stream != 0
            real_feed(self, fresh)

        def walk(self, codes_np, i53, valid):
            offsets, d = real_walk(self, codes_np, i53, valid)
            records, hot, switches, hits, fresh = offsets[:5]
            last = records[-1] if records else -1
            if d - (self.pre - 2) > valid:
                # Where each bounded draw's scan starts, after the draw
                # offset of the record that did not fit.
                for side, start in ((hot, 3), (switches, 4), (hits, 4), (fresh, 4)):
                    if side and side[-1] >= valid > last + start:
                        seen["rejection"] += 1
            return offsets, d

        monkeypatch.setattr(decoder, "feed", feed)
        monkeypatch.setattr(decoder, "_walk", walk)
        return seen

    @pytest.mark.parametrize(
        "name, count", [("lbm", 3000), ("pr-twi", 1500), ("gobmk", 1500)]
    )
    def test_state_carried_across_small_blocks(self, small_blocks, name, count):
        self._assert_identical(profile_by_name(name), count)

    def test_every_carried_state_occurs(self, small_blocks):
        # sphinx3 takes all three locality arms, with rejection-heavy
        # bounded draws (half of the hot-set words reject).
        self._assert_identical(profile_by_name("sphinx3"), 3000)
        for case in ("burst", "ring", "stream", "rejection"):
            assert small_blocks[case] > 0, case

    def test_edge_profiles_in_small_blocks(self, small_blocks):
        self.test_edge_profiles()

    def test_production_code_has_no_oracle_twin(self):
        # Neither an import of the oracle nor a second scalar generator.
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        offenders = [
            str(path)
            for path in sorted(src.rglob("*.py"))
            if "import reference" in path.read_text()
            or "from reference" in path.read_text()
            or "generate_trace_reference" in path.read_text()
        ]
        assert offenders == []
