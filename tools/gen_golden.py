#!/usr/bin/env python
"""Regenerate the perf-equivalence golden fixture (tests/data/golden_perf.json).

The fixture pins the simulator's observable outputs — IPC, cycle counts,
per-category traffic, Monte-Carlo failure counts, and the deterministic
telemetry snapshot — for a small design x workload grid. The
perf-equivalence tests (tests/test_perf_equivalence.py) assert that the
optimized hot paths reproduce these numbers *bit-identically*, at jobs=1
and jobs=4.

Only regenerate when simulator behaviour changes intentionally (a new
design knob, a timing-model fix). Performance work must never need to:

    PYTHONPATH=src python tools/gen_golden.py
"""

import json
import os
import sys

from repro.reliability.montecarlo import (
    MonteCarloConfig,
    simulate_failure_probability,
)
from repro.reliability.schemes import (
    CHIPKILL_SCHEME,
    SECDED_SCHEME,
    SYNERGY_SCHEME,
)
from repro.secure.designs import ALL_DESIGNS
from repro.sim.config import SystemConfig
from repro.sim.runner import run_suite

#: The grid the fixture pins: every design variant (plain, Bonsai counter
#: tree, split counters, MAC tree, parity RMW, speculative verification,
#: chipkill lock-step) x two workload personalities. Covering the full
#: roster keeps the fused expansion walks honest for designs the figures
#: do not exercise.
GOLDEN_DESIGNS = tuple(ALL_DESIGNS)
GOLDEN_WORKLOADS = ("mcf", "lbm")
GOLDEN_ACCESSES_PER_CORE = 3_000

#: Monte-Carlo slice: three shards (two full, one ragged) so sharding and
#: merge order are both exercised.
GOLDEN_MC_SCHEMES = (SECDED_SCHEME, CHIPKILL_SCHEME, SYNERGY_SCHEME)
GOLDEN_MC_CONFIG = dict(devices=60_000, shard_devices=25_000)

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests",
    "data",
    "golden_perf.json",
)


def golden_config() -> SystemConfig:
    """The system configuration every golden cell runs under."""
    return SystemConfig(accesses_per_core=GOLDEN_ACCESSES_PER_CORE)


def build_fixture() -> dict:
    """Run the golden grid serially and package every observable output."""
    table = run_suite(
        GOLDEN_DESIGNS,
        GOLDEN_WORKLOADS,
        golden_config(),
        jobs=1,
        cache=False,
    )
    cells = {}
    for result in table.results:
        cells["%s/%s" % (result.design, result.workload)] = result.to_payload()

    montecarlo = {}
    for scheme in GOLDEN_MC_SCHEMES:
        config = MonteCarloConfig(**GOLDEN_MC_CONFIG)
        probability = simulate_failure_probability(
            scheme, config, jobs=1, cache=False
        )
        montecarlo[scheme.name] = {
            "probability": probability,
            "failures": round(probability * config.devices),
        }

    return {
        "accesses_per_core": GOLDEN_ACCESSES_PER_CORE,
        "designs": [design.name for design in GOLDEN_DESIGNS],
        "workloads": list(GOLDEN_WORKLOADS),
        "cells": cells,
        "montecarlo": {
            "config": GOLDEN_MC_CONFIG,
            "schemes": montecarlo,
        },
    }


def main() -> int:
    fixture = build_fixture()
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(fixture, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s (%d cells)" % (FIXTURE_PATH, len(fixture["cells"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
