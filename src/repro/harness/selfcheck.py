"""Installation self-check: exercises every plane end-to-end in seconds.

``synergy-repro selfcheck`` validates that the crypto substrate matches its
known-answer vectors, the functional plane corrects a chip kill and rejects
tampering, the timing plane produces the paper's design ordering, and the
reliability plane produces the paper's scheme ordering — the five facts a
fresh checkout must get right before any experiment is worth running.

Each functional-plane check builds its ``SynergyMemory`` in its own
registry scope and adds the snapshot to ``TELEMETRY_AGGREGATE`` under the
check's name, so ``--metrics-out`` reports its corrections and MAC
computations.
"""

from __future__ import annotations

import traceback
from typing import Callable, Dict, List, Tuple

from repro.telemetry import TELEMETRY_AGGREGATE, scoped_registry


def _check_crypto() -> None:
    from repro.crypto.aes import Aes128

    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    if Aes128(key).encrypt_block(plaintext) != expected:
        raise AssertionError("AES-128 does not match FIPS-197")


def _check_correction() -> None:
    from repro.core.synergy import SynergyMemory
    from repro.dimm.faults import ChipFault, FaultKind

    with scoped_registry() as registry:
        memory = SynergyMemory(64)
        memory.write(0, b"selfcheck".ljust(64, b"\x00"))
        memory.dimm.inject_fault(4, ChipFault(FaultKind.WHOLE_CHIP, seed=1))
        memory.tree.cache.clear()
        corrected = memory.read(0)[:9] == b"selfcheck"
    TELEMETRY_AGGREGATE.add("selfcheck:correction", registry.snapshot().deterministic())
    if not corrected:
        raise AssertionError("single-chip correction failed")


def _check_attack_detection() -> None:
    from repro.core.synergy import SynergyMemory
    from repro.secure.errors import AttackDetected

    with scoped_registry() as registry:
        memory = SynergyMemory(64)
        memory.write(0, b"victim".ljust(64, b"\x00"))
        lanes = [bytearray(lane) for lane in memory.dimm.read_line(0)]
        lanes[0][0] ^= 1
        lanes[5][0] ^= 1
        memory.dimm.write_line(0, [bytes(lane) for lane in lanes])
        memory.tree.cache.clear()
        try:
            memory.read(0)
            detected = False
        except AttackDetected:
            detected = True
    TELEMETRY_AGGREGATE.add(
        "selfcheck:attack_detection", registry.snapshot().deterministic()
    )
    if not detected:
        raise AssertionError("multi-chip tamper not detected")


def timing_grid() -> Tuple[List[object], List[str], object]:
    """The timing-plane check's grid: ``(designs, workloads, config)``.

    ``harness.plan`` registers these cells too, so a planned ``all`` run
    simulates them in its prefetch fan-out and the check assembles from
    the run cache.
    """
    from repro.secure.designs import SGX, SGX_O, SYNERGY
    from repro.sim.config import SystemConfig

    return [SGX, SGX_O, SYNERGY], ["mcf"], SystemConfig(accesses_per_core=1_200)


def _check_performance_ordering() -> None:
    from repro.sim.runner import run_suite

    table = run_suite(*timing_grid())
    ipc = {result.design: result.ipc for result in table.results}
    if not ipc["Synergy"] > ipc["SGX_O"] > ipc["SGX"]:
        raise AssertionError("design ordering broken: %r" % ipc)


def _check_reliability_ordering() -> None:
    from repro.reliability.montecarlo import (
        MonteCarloConfig,
        simulate_failure_probability,
    )
    from repro.reliability.schemes import (
        CHIPKILL_SCHEME,
        SECDED_SCHEME,
        SYNERGY_SCHEME,
    )

    config = MonteCarloConfig(devices=100_000)
    secded = simulate_failure_probability(SECDED_SCHEME, config)
    chipkill = simulate_failure_probability(CHIPKILL_SCHEME, config)
    synergy = simulate_failure_probability(SYNERGY_SCHEME, config)
    if not secded > chipkill > synergy:
        raise AssertionError(
            "scheme ordering broken: %.2e / %.2e / %.2e"
            % (secded, chipkill, synergy)
        )


CHECKS: List[Tuple[str, Callable[[], None]]] = [
    ("crypto (FIPS-197 vector)", _check_crypto),
    ("functional correction (chip kill)", _check_correction),
    ("attack detection (multi-chip tamper)", _check_attack_detection),
    ("timing plane (Synergy > SGX_O > SGX)", _check_performance_ordering),
    ("reliability plane (SECDED > Chipkill > Synergy)", _check_reliability_ordering),
]


def selfcheck(quiet: bool = False) -> Dict[str, str]:
    """Run all checks; returns {name: 'ok'|'FAILED: ...'}.

    A failing check must not abort the survey — every plane gets reported —
    but interpreter-exit signals propagate, and the captured traceback rides
    in the report so a failure is diagnosable from the returned dict alone.
    """
    results: Dict[str, str] = {}
    for name, check in CHECKS:
        try:
            check()
            results[name] = "ok"
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:  # lint-ok: H301 survey semantics: report every plane
            results[name] = "FAILED: %s\n%s" % (error, traceback.format_exc())
        if not quiet:
            print("  [%-4s] %s" % ("ok" if results[name] == "ok" else "FAIL", name))
    if not quiet:
        good = sum(1 for value in results.values() if value == "ok")
        print("%d/%d checks passed" % (good, len(results)))
    return results
