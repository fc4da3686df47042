"""Golden-equivalence tests for the hot-path performance work.

The optimizations in the simulation core (cache lookup, controller
scheduling, ROB advance, miss expansion, telemetry recording) are pure
mechanical rewrites — they must not change a single observable number.
These tests pin that contract against ``tests/data/golden_perf.json``,
a fixture generated from the pre-optimization tree by
``tools/gen_golden.py``:

* the full golden grid at ``jobs=1`` reproduces IPC, cycle counts,
  traffic, origin traffic, energy, hit rates, and the deterministic
  telemetry snapshot **bit-identically**;
* a process-pool run (``jobs=4``) produces the same bytes as the serial
  run for the cells it covers;
* the Monte-Carlo reliability slice reproduces its failure counts.

If one of these fails after a perf change, the change is wrong — fix the
code, do not regenerate the fixture.
"""

import importlib.util
import json
import os

import pytest

from repro.reliability.montecarlo import (
    MonteCarloConfig,
    simulate_failure_probability,
)
from repro.sim.runner import run_suite

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_PATH = os.path.join(_REPO, "tests", "data", "golden_perf.json")


def _load_gen_golden():
    """Import tools/gen_golden.py so the grid constants stay single-source."""
    path = os.path.join(_REPO, "tools", "gen_golden.py")
    spec = importlib.util.spec_from_file_location("gen_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen_golden = _load_gen_golden()


@pytest.fixture(scope="module")
def fixture():
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def serial_payloads(fixture):
    """Run the full golden grid once, serially, cache off."""
    table = run_suite(
        gen_golden.GOLDEN_DESIGNS,
        gen_golden.GOLDEN_WORKLOADS,
        gen_golden.golden_config(),
        jobs=1,
        cache=False,
    )
    return {
        "%s/%s" % (result.design, result.workload): result.to_payload()
        for result in table.results
    }


def test_fixture_covers_grid(fixture):
    expected = {
        "%s/%s" % (design.name, workload)
        for design in gen_golden.GOLDEN_DESIGNS
        for workload in gen_golden.GOLDEN_WORKLOADS
    }
    assert set(fixture["cells"]) == expected


def test_serial_grid_bit_identical(fixture, serial_payloads):
    """jobs=1: every observable of every cell matches the fixture exactly."""
    assert set(serial_payloads) == set(fixture["cells"])
    for cell, payload in serial_payloads.items():
        golden = fixture["cells"][cell]
        for field in golden:
            assert payload[field] == golden[field], (
                "%s diverged in cell %s" % (field, cell)
            )


def test_process_pool_bit_identical(fixture, one_pool_map):
    """jobs=4: pool workers reproduce the serial bytes (subset of the grid)."""
    designs = list(gen_golden.GOLDEN_DESIGNS)[2:4]  # SGX_O, Synergy
    with one_pool_map(len(designs) * len(gen_golden.GOLDEN_WORKLOADS)):
        table = run_suite(
            designs,
            gen_golden.GOLDEN_WORKLOADS,
            gen_golden.golden_config(),
            jobs=4,
            cache=False,
        )
    for result in table.results:
        cell = "%s/%s" % (result.design, result.workload)
        assert result.to_payload() == fixture["cells"][cell], cell


def test_montecarlo_failure_counts(fixture):
    golden = fixture["montecarlo"]
    config = MonteCarloConfig(**golden["config"])
    by_name = {
        scheme.name: scheme for scheme in gen_golden.GOLDEN_MC_SCHEMES
    }
    assert set(by_name) == set(golden["schemes"])
    for name, expected in golden["schemes"].items():
        probability = simulate_failure_probability(
            by_name[name], config, jobs=1, cache=False
        )
        assert probability == expected["probability"], name
        assert round(probability * config.devices) == expected["failures"], name
