"""Trace file I/O tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import MemoryOp, Trace, TraceRecord
from repro.cpu.tracefile import (
    format_record,
    iter_trace,
    load_trace,
    parse_record,
    save_trace,
)
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name

records_strategy = st.lists(
    st.builds(
        TraceRecord,
        st.integers(0, 10_000),
        st.sampled_from([MemoryOp.READ, MemoryOp.WRITE]),
        st.integers(0, 2**40),
    ),
    min_size=0,
    max_size=50,
)


class TestRecordFormat:
    def test_format(self):
        record = TraceRecord(12, MemoryOp.READ, 0xABC)
        assert format_record(record) == "12 R 0xabc"

    def test_parse(self):
        record = parse_record("12 W 0xabc")
        assert record == TraceRecord(12, MemoryOp.WRITE, 0xABC)

    def test_parse_decimal_address(self):
        assert parse_record("0 R 64").line_address == 64

    def test_parse_errors(self):
        for bad in ("", "1 R", "x R 0x1", "1 Q 0x1", "1 R zz"):
            with pytest.raises(ValueError):
                parse_record(bad)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([MemoryOp.READ, MemoryOp.WRITE]),
        st.integers(0, 2**48),
    )
    def test_roundtrip_property(self, gap, op, address):
        record = TraceRecord(gap, op, address)
        assert parse_record(format_record(record)) == record


class TestFileIo:
    @settings(max_examples=10, deadline=None)
    @given(records_strategy)
    def test_save_load_roundtrip(self, records):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.trace"
            save_trace(records, path)
            loaded = load_trace(path)
            assert list(loaded) == records

    def test_gzip_roundtrip(self, tmp_path):
        trace = generate_trace(profile_by_name("gcc"), 200)
        path = tmp_path / "gcc.trace.gz"
        count = save_trace(trace, path)
        assert count == 200
        loaded = load_trace(path)
        assert list(loaded) == list(trace)
        assert loaded.name == "gcc.trace"

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# header\n\n3 R 0x10\n")
        assert list(iter_trace(path)) == [TraceRecord(3, MemoryOp.READ, 0x10)]

    def test_error_reports_location(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("3 R 0x10\nbogus line\n")
        with pytest.raises(ValueError, match=":2:"):
            list(iter_trace(path))

    def test_loaded_trace_drives_simulation(self, tmp_path):
        from repro.secure.designs import SYNERGY
        from repro.sim.config import SystemConfig
        from repro.sim.system import SystemSimulator

        trace = generate_trace(profile_by_name("gcc"), 300, scale_divisor=16)
        path = tmp_path / "gcc.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        config = SystemConfig(num_cores=1, accesses_per_core=300)
        sim = SystemSimulator(SYNERGY, [loaded], config).run()
        assert sim.total_instructions == Trace(list(trace)).total_instructions

    def test_trace_outside_data_region_is_rejected(self, tmp_path):
        # Lines at or above num_data_lines are metadata addresses: a data
        # writeback there would land in the counter region unannounced.
        from repro.secure.designs import SGX_O
        from repro.sim.config import SystemConfig
        from repro.sim.system import SystemSimulator

        config = SystemConfig(num_cores=2, warm_caches=False)
        base = config.num_data_lines
        path = tmp_path / "high.trace"
        path.write_text(
            "".join("3 W %#x\n" % (base + 8 * i) for i in range(30))
        )
        inside = Trace([TraceRecord(3, MemoryOp.READ, base - 1)])
        highest = base + 8 * 29
        with pytest.raises(ValueError, match="core 1.*%#x.*%#x" % (highest, base)):
            SystemSimulator(SGX_O, [inside, load_trace(path)], config)
        SystemSimulator(SGX_O, [inside], config)
