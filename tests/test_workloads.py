"""Workload profile and trace-generator tests."""

import pathlib

import pytest

from reference.trace_oracle import generate_trace_reference
from repro.cpu.trace import MemoryOp
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
    """The generator must match the per-record oracle bit-for-bit.

    ``generate_trace`` is the per-record grammar with the stdlib draws
    inlined; ``generate_trace_reference`` spells every draw through
    ``DeterministicRng`` (``tests/reference/trace_oracle.py``). Any
    record-level divergence silently changes every downstream golden, so
    equality is checked record-for-record across every profile, both
    salts and scalings, and the edge profiles (no-gap traces, a single
    locality arm, a single-page footprint).
    """

    @staticmethod
    def _columns(trace):
        return (
            trace.gaps.tolist(),
            [bool(op) for op in trace.ops.tolist()],
            trace.lines.tolist(),
        )

    @classmethod
    def _assert_identical(cls, profile, count, **kwargs):
        reference = generate_trace_reference(profile, count, **kwargs)
        generated = generate_trace(profile, count, **kwargs)
        assert reference.name == generated.name
        assert cls._columns(reference) == cls._columns(generated)

    @pytest.mark.parametrize("name", [profile.name for profile in ALL_WORKLOADS])
    def test_profiles_record_for_record(self, name):
        # A trace is a prefix of any longer trace of the same seed, so one
        # oracle run per salt and scaling covers every count.
        profile = profile_by_name(name)
        for salt in ("trace", "warmup"):
            for scale_divisor in (1, 4):
                kwargs = dict(seed_salt=salt, scale_divisor=scale_divisor)
                reference = self._columns(
                    generate_trace_reference(profile, 8_000, **kwargs)
                )
                for count in (1, 300, 3_000, 8_000):
                    generated = self._columns(generate_trace(profile, count, **kwargs))
                    assert generated == tuple(
                        column[:count] for column in reference
                    ), (salt, scale_divisor, count)

    def test_run_accelerated_walk(self):
        # A sequential-heavy trace: long single-stream runs.
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
            for count in (1, 7, 500, 3000):
                self._assert_identical(profile, count)

    def test_tiny_counts(self):
        profile = profile_by_name("milc")
        for count in (1, 2, 3, 5, 17):
            self._assert_identical(profile, count)

    @pytest.mark.parametrize("name", ["sphinx3", "lbm", "mcf"])
    def test_many_default_blocks(self, name):
        # Long traces, past the 8,000 records of the profile sweep.
        self._assert_identical(profile_by_name(name), 20_000)

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
