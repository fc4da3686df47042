"""The microbenchmark regression gate: verdicts on fixed payloads, one
run of ``python -m repro.perf.microbench --baseline``, and its ``--help``."""

import json
import os
import subprocess
import sys

import pytest

from repro.perf.microbench import (
    CASES,
    GATED_CASES,
    REGRESSION_RATIO,
    _main,
    count_calls,
    count_opcodes,
    verdict,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _section(**per_op_us):
    return {name: {"ops": 1000, "per_op_us": value} for name, value in per_op_us.items()}


class TestVerdict:
    def test_gated_case_26_percent_slower_fails(self):
        result = verdict(_section(miss_expansion=1.26), _section(miss_expansion=1.0))
        assert "miss_expansion" in GATED_CASES
        assert result["failed"] == ["miss_expansion"]
        assert result["warned"] == []
        assert result["ratios"]["miss_expansion"] > REGRESSION_RATIO

    def test_ungated_case_as_slow_only_warns(self):
        result = verdict(_section(cache_access=1.26), _section(cache_access=1.0))
        assert "cache_access" not in GATED_CASES
        assert result["failed"] == []
        assert result["warned"] == ["cache_access"]

    def test_gated_case_within_the_bound_passes(self):
        result = verdict(_section(rob_advance=1.24), _section(rob_advance=1.0))
        assert result["failed"] == [] and result["warned"] == []

    def test_case_missing_from_the_baseline_is_new(self):
        result = verdict(
            _section(trace_generate=9.0, pool_dispatch=5.0), _section(trace_generate=9.0)
        )
        assert result["new"] == ["pool_dispatch"]
        assert result["failed"] == [] and "pool_dispatch" not in result["ratios"]

    def test_case_that_ran_no_ops_fails_gated_or_not(self):
        current = _section(cache_access=0.0, rob_advance=0.0, pool_dispatch=0.0)
        for name in current:
            current[name]["ops"] = 0
        result = verdict(current, _section(cache_access=1.0, rob_advance=1.0))
        assert "cache_access" not in GATED_CASES
        assert result["failed"] == ["cache_access", "pool_dispatch", "rob_advance"]
        assert result["warned"] == [] and result["new"] == ["pool_dispatch"]

    def test_baseline_case_not_run_is_reported(self):
        result = verdict(
            _section(trace_generate=9.0),
            _section(trace_generate=9.0, controller_schedule=5.0),
        )
        assert result["not_run"] == ["controller_schedule"]
        assert result["failed"] == []


def test_gate_cli_against_a_temporary_baseline(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "python": "3.x",
                "code_fingerprint": "f00d",
                "timestamp": "2020-01-01T00:00:00",
                "micro": _section(telemetry_record=1e6, miss_expansion=1.0),
            }
        )
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro.perf.microbench",
            "--case", "telemetry_record", "--repeats", "1",
            "--baseline", str(baseline),
        ],
        capture_output=True, text=True, env=env, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert report["micro"]["telemetry_record"]["ops"] > 0
    # Each op is an ``inc`` or a ``record`` call: at least one call per op.
    assert report["micro"]["telemetry_record"]["calls_per_op"] >= 1.0
    # ... and each call runs bytecode of its own.
    assert (
        report["micro"]["telemetry_record"]["opcodes_per_op"]
        > report["micro"]["telemetry_record"]["calls_per_op"]
    )
    assert report["ratios"]["telemetry_record"] < 1.0
    assert report["not_run"] == ["miss_expansion"]
    assert report["baseline"]["code_fingerprint"] == "f00d"
    assert report["host"]["cpu_count"] >= 1
    # The provenance of both sides is printed next to the verdict.
    assert "f00d" in completed.stderr and "CPU(s)" in completed.stderr
    assert "calls/op" in completed.stderr and "opcodes/op" in completed.stderr


def test_call_counts_repeat_exactly():
    # Unlike a timing, a count has no host noise to average out.
    count_calls("telemetry_record")  # takes the case's lazy imports
    assert count_calls("telemetry_record") == count_calls("telemetry_record")


def test_opcode_counts_repeat_exactly():
    CASES["controller_schedule"]()  # takes the case's lazy imports
    first = count_opcodes("controller_schedule")
    assert first > 20_000  # the case schedules 20k requests
    assert count_opcodes("controller_schedule") == first


def test_help_renders_the_gate_bound(capsys):
    # The --baseline help is formatted twice (by us, then by argparse):
    # a literal percent sign must survive both.
    with pytest.raises(SystemExit) as stopped:
        _main(["--help"])
    assert stopped.value.code == 0
    out = capsys.readouterr().out
    assert "25% slower" in out
    assert "option_strings" not in out
