"""Tests for repro.analysis: the lint engine/rules and the runtime sanitizer."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.linter import (
    lint_source,
    load_baseline,
    new_violations,
    violations_to_baseline,
    write_baseline,
)
from repro.analysis.rules import rule_catalogue
from repro.analysis.sanitizer import (
    Sanitizer,
    SanitizerError,
    get_sanitizer,
    sanitized,
)
from repro.cache.hierarchy import CacheConfig, CacheHierarchy
from repro.core.cacheline_codec import (
    data_line_parity,
    encode_counter_line,
    encode_data_line,
)
from repro.core.reconstruction import ReconstructionEngine
from reference.dram_oracle import OracleChannel
from repro.dram.address import DecodedAddress
from repro.dram.controller import MemoryController, RequestKind
from repro.dram.timing import MemoryConfig
from repro.secure.counter_tree import CounterTree
from repro.secure.counters import COUNTERS_PER_LINE
from repro.secure.designs import IVEC, SGX_O
from repro.secure.mac import LineMacCalculator
from repro.secure.metadata_layout import MetadataLayout
from repro.secure.timing_engine import SecureTimingEngine
from repro.sim.config import SystemConfig
from repro.sim.runner import clear_run_memos, run_workload

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Linter rules: one fixture snippet per rule ID, triggering it exactly once.

RULE_FIXTURES = {
    "D101": ("import random\n", "<memory>"),
    "D102": ("for item in {1, 2, 3}:\n    print(item)\n", "<memory>"),
    "D103": ("def f(acc=[]):\n    return acc\n", "<memory>"),
    "D104": (
        "def check(x):\n    return x == 1.5\n",
        "src/repro/crypto/fixture.py",
    ),
    "P201": (
        "class Thing:\n    def __init__(self):\n        self.x = 1\n",
        "src/repro/dram/fixture.py",
    ),
    "P202": (
        "class Thing:\n"
        '    __slots__ = ("x", "y")\n'
        "    def __init__(self):\n"
        "        self.x = 1\n"
        "    def later(self):\n"
        "        self.z = 2\n",
        "src/repro/dram/fixture.py",
    ),
    "P203": (
        "def drain(events):\n"
        "    for event in events:\n"
        '        get_registry().counter("n").inc()\n',
        "<memory>",
    ),
    "P204": (
        "def drain(values, total):\n"
        "    for value in values:\n"
        "        total += value.item()\n",
        "<memory>",
    ),
    "P205": (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def fan_out(fn, items):\n"
        "    with ProcessPoolExecutor(max_workers=4) as pool:\n"
        "        return list(pool.map(fn, items))\n",
        "src/repro/harness/fixture.py",
    ),
    "H301": ("try:\n    work()\nexcept Exception:\n    pass\n", "<memory>"),
    "H302": ("def f(hash):\n    return hash\n", "<memory>"),
}


class TestLintRules:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_fixture_triggers_rule_exactly_once(self, rule_id):
        source, path = RULE_FIXTURES[rule_id]
        violations = lint_source(source, path=path)
        assert [v.rule_id for v in violations] == [rule_id]

    def test_catalogue_covers_every_fixture(self):
        assert set(RULE_FIXTURES) == set(rule_catalogue())

    def test_clean_source_has_no_findings(self):
        source = (
            "class Thing:\n"
            '    __slots__ = ("x",)\n'
            "    def __init__(self):\n"
            "        self.x = 0\n"
            "    def bump(self):\n"
            "        self.x += 1\n"
        )
        assert lint_source(source, path="src/repro/dram/fixture.py") == []

    def test_rng_wrapper_is_exempt_from_d101(self):
        source, _path = RULE_FIXTURES["D101"]
        assert lint_source(source, path="src/repro/util/rng.py") == []

    def test_seeded_numpy_rng_is_allowed(self):
        assert lint_source("rng = np.random.default_rng(1234)\n") == []
        assert lint_source("rng = np.random.default_rng()\n") != []

    def test_perf_counter_is_allowed(self):
        assert lint_source("start = time.perf_counter()\n") == []

    def test_reraising_broad_except_is_allowed(self):
        source = "try:\n    work()\nexcept BaseException:\n    raise\n"
        assert lint_source(source) == []

    def test_p204_flags_subscript_unboxing_of_numpy_names(self):
        source = (
            "def classify(rng, n):\n"
            "    counts = rng.poisson(1.0, n)\n"
            "    idx = np.flatnonzero(counts)\n"
            "    out = 0\n"
            "    for i in idx.tolist():\n"
            "        out += int(counts[i])\n"
            "    return out\n"
        )
        assert [v.rule_id for v in lint_source(source)] == ["P204"]

    def test_p204_allows_bulk_tolist_before_loop(self):
        source = (
            "def classify(rng, n):\n"
            "    counts = rng.poisson(1.0, n).tolist()\n"
            "    out = 0\n"
            "    for count in counts:\n"
            "        out += count\n"
            "    return out\n"
        )
        assert lint_source(source) == []

    def test_p204_flags_tolist_inside_loop(self):
        source = (
            "def f(chunks):\n"
            "    for chunk in chunks:\n"
            "        consume(chunk.tolist())\n"
        )
        assert [v.rule_id for v in lint_source(source)] == ["P204"]

    def test_dataclasses_exempt_from_slots_rule(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Config:\n"
            "    x: int = 0\n"
        )
        assert lint_source(source, path="src/repro/dram/fixture.py") == []


class TestSuppression:
    def test_inline_suppression_silences_one_rule(self):
        source = "def f(acc=[]):  # lint-ok: D103 fixture exercises suppression\n    return acc\n"
        assert lint_source(source) == []

    def test_suppression_is_rule_specific(self):
        source = "def f(acc=[]):  # lint-ok: H302\n    return acc\n"
        assert [v.rule_id for v in lint_source(source)] == ["D103"]

    def test_multiple_ids_one_comment(self):
        source = "def f(hash, acc=[]):  # lint-ok: D103, H302\n    return acc\n"
        assert lint_source(source) == []


class TestBaseline:
    def _violations(self):
        source, path = RULE_FIXTURES["D103"]
        return lint_source(source, path=path)

    def test_baselined_findings_are_absorbed(self, tmp_path):
        violations = self._violations()
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, violations)
        baseline = load_baseline(baseline_file)
        assert new_violations(violations, baseline) == []

    def test_new_findings_survive_the_baseline(self, tmp_path):
        old = self._violations()
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, old)
        fresh = lint_source("import random\n") + old
        remaining = new_violations(fresh, load_baseline(baseline_file))
        assert [v.rule_id for v in remaining] == ["D101"]

    def test_baseline_key_survives_line_drift(self):
        violations = self._violations()
        baseline = violations_to_baseline(violations)
        source, path = RULE_FIXTURES["D103"]
        drifted = lint_source("\n\n" + source, path=path)
        assert new_violations(drifted, baseline) == []

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_baseline_file_round_trips_json(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, self._violations())
        payload = json.loads(baseline_file.read_text())
        assert payload["entries"][0]["rule"] == "D103"


class TestRepoIsClean:
    def test_lint_cli_passes_on_head_with_baseline(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "lint_repro.py"), "--baseline"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_stale_baseline_is_checked_then_pruned(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "rule": "D101",
                            "path": "src/repro/gone.py",
                            "line_text": "import random",
                            "count": 1,
                        }
                    ]
                }
            )
        )
        cli = [sys.executable, str(REPO_ROOT / "tools" / "lint_repro.py")]
        check = cli + ["--check-baseline", "--baseline-file", str(baseline)]
        proc = subprocess.run(check, capture_output=True, text=True)
        assert proc.returncode == 1
        assert "stale baseline entry: D101" in proc.stdout
        proc = subprocess.run(
            cli + ["--prune-baseline", "--baseline-file", str(baseline)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        proc = subprocess.run(check, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_lint_cli_fails_on_synthetic_violation(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "lint_repro.py"), str(bad)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "D101" in proc.stdout


# ---------------------------------------------------------------------------
# Sanitizer: plumbing


class TestSanitizerPlumbing:
    def test_off_means_none(self):
        with sanitized(False):
            assert get_sanitizer() is None

    def test_on_means_shared_instance(self):
        with sanitized() as sanitizer:
            assert sanitizer is not None
            assert get_sanitizer() is sanitizer

    def test_components_bind_at_init(self):
        with sanitized(False):
            controller = MemoryController(MemoryConfig())
        assert controller._sanitizer is None
        with sanitized():
            controller = MemoryController(MemoryConfig())
        assert controller._sanitizer is not None


# ---------------------------------------------------------------------------
# Sanitizer: DRAM timing legality


class TestDramSanitizer:
    """``check_dram_commit`` over the reference plan/commit steps, and from
    inside the production kernel's decision loop."""

    def test_legal_sequence_passes_and_counts(self):
        with sanitized() as sanitizer:
            channel = OracleChannel(MemoryConfig())
            now = 0
            for row in (5, 5, 9):
                plan = channel.plan(0, 0, row, False, now)
                channel.commit(0, 0, row, False, plan)
                now = plan[2]
        assert sanitizer.checks >= 3
        assert sanitizer.last_check == "dram_commit"

    def test_illegal_transition_is_caught(self):
        with sanitized():
            channel = OracleChannel(MemoryConfig())
            plan = channel.plan(0, 0, 5, False, 0)
            channel.commit(0, 0, 5, False, plan)
            # Replaying the same plan starts the next command before the
            # bank's ready_at (tCCD) — an illegal timing transition.
            assert plan[0] < channel.ready_at[0]
            with pytest.raises(SanitizerError, match="ready_at"):
                channel.commit(0, 0, 5, False, plan)

    def test_understated_latency_is_caught(self):
        with sanitized():
            channel = OracleChannel(MemoryConfig())
            start, data_start, completion = channel.plan(0, 0, 5, False, 0)
            # Claim the data appears one cycle too early for a closed bank
            # (violates tRCD+CL) while keeping the burst arithmetic valid.
            with pytest.raises(SanitizerError, match="latency"):
                channel.commit(0, 0, 5, False, (start + 1, data_start, completion))

    def test_corrupted_bank_state_trips_the_kernel(self):
        with sanitized() as sanitizer:
            controller = MemoryController(MemoryConfig(channels=1))
            line = controller.mapper.encode(DecodedAddress(0, 0, 3, 77, 0))
            controller.enqueue_batch([(RequestKind.READ, line, 0, "data", 0)])
            controller.process()
            assert sanitizer.checks > 0
            # Bank 3 forgets its open row behind the closed-bank tally:
            # the kernel re-activates it as a closed bank and decrements
            # the tally a second time for one bank, which the recount at
            # the epoch boundary catches.
            channel = controller.channels[0]
            channel.open_rows[3] = -1
            controller.enqueue_batch([(RequestKind.READ, line + 1, 1000, "data", 0)])
            with pytest.raises(SanitizerError, match="closed_banks"):
                controller.process()
            assert channel.open_rows[3] == 77


# ---------------------------------------------------------------------------
# Sanitizer: RAID-3 reconstruction


@pytest.fixture
def mac_calc(keys):
    return LineMacCalculator(keys.make_mac())


class TestReconstructionSanitizer:
    def test_clean_correction_passes(self, keys):
        with sanitized() as sanitizer:
            mac_calc = LineMacCalculator(keys.make_mac())
            engine = ReconstructionEngine(mac_calc)
            ciphertext = bytes(range(64))
            mac = mac_calc.data_mac(0, 1, ciphertext)
            lanes = encode_data_line(ciphertext, mac)
            parity = data_line_parity(lanes)
            corrupted = list(lanes)
            corrupted[3] = b"\xff" * 8
            outcome = engine.correct_data_line(0, corrupted, 1, parity)
            assert outcome is not None
            assert sanitizer.last_check == "data_reconstruction"

    def test_budget_counters_unperturbed_by_sanitizer(self, keys):
        def correct_once(enabled):
            with sanitized(enabled):
                mac_calc = LineMacCalculator(keys.make_mac())
                engine = ReconstructionEngine(mac_calc)
                counters = [10 + i for i in range(8)]
                mac = mac_calc.counter_line_mac(100, 7, counters)
                lanes = encode_counter_line(counters, mac)
                corrupted = list(lanes)
                corrupted[2] = b"\x55" * 8
                mac_calc.reset_count()
                outcome = engine.correct_counter_line(100, corrupted, 7)
                assert outcome is not None
                return mac_calc.computations

        assert correct_once(True) == correct_once(False)

    def test_corrupted_parity_lane_is_caught(self, keys):
        with sanitized() as sanitizer:
            mac_calc = LineMacCalculator(keys.make_mac())
            ciphertext = bytes(range(64))
            mac = mac_calc.data_mac(0, 1, ciphertext)
            lanes = encode_data_line(ciphertext, mac)
            bad_parity = bytes(8)  # inconsistent with the nine lanes
            with pytest.raises(SanitizerError, match="XOR"):
                sanitizer.check_data_reconstruction(
                    mac_calc, 0, 1, lanes, bad_parity, lanes, ()
                )

    def test_ambiguous_counter_match_is_caught(self, keys):
        with sanitized() as sanitizer:
            mac_calc = LineMacCalculator(keys.make_mac())
            counters = [10 + i for i in range(8)]
            mac = mac_calc.counter_line_mac(100, 7, counters)
            lanes = encode_counter_line(counters, mac)
            # Forge a second hypothesis with different counters whose MAC
            # genuinely verifies: the correction would be ambiguous.
            other = [99] * 8
            forged = mac_calc.counter_line_mac_raw(100, 7, other)
            with pytest.raises(SanitizerError, match="ambiguous"):
                sanitizer.check_counter_reconstruction(
                    mac_calc, 100, 7, counters, lanes, [(5, other, forged)]
                )


# ---------------------------------------------------------------------------
# Sanitizer: counter tree


class _DictStore:
    """Minimal LineStore: exact (counters, mac) round-trip."""

    def __init__(self):
        self.lines = {}

    def load_counter_line(self, address):
        return self.lines.get(address)

    def store_counter_line(self, address, counters, mac):
        self.lines[address] = (list(counters), bytes(mac))


class TestCounterTreeSanitizer:
    def _tree(self, keys):
        layout = MetadataLayout(num_data_lines=64)
        return CounterTree(layout, LineMacCalculator(keys.make_mac()), _DictStore())

    def test_consistent_bump_passes(self, keys):
        with sanitized() as sanitizer:
            tree = self._tree(keys)
            chain = [(100, 3), (200, 0)]
            trusted = {
                100: [0] * COUNTERS_PER_LINE,
                200: [0] * COUNTERS_PER_LINE,
            }
            leaf = tree.bump_chain(chain, trusted)
        assert leaf == 1
        assert sanitizer.last_check == "counter_chain"

    def test_undetectable_store_corruption_is_caught(self, keys):
        with sanitized() as sanitizer:
            tree = self._tree(keys)
            chain = [(100, 3)]
            trusted = {100: [0] * COUNTERS_PER_LINE}
            tree.bump_chain(chain, trusted)
            # Forge a *verifying* line with different counters in the store:
            # corruption the integrity tree could never detect.
            updated = {100: [0] * COUNTERS_PER_LINE}
            updated[100][3] = 1
            other = [7] * COUNTERS_PER_LINE
            forged_mac = tree.mac_calc.counter_line_mac_raw(100, tree.root, other)
            tree.store.lines[100] = (other, forged_mac)
            with pytest.raises(SanitizerError, match="undetectable"):
                sanitizer.check_counter_chain(tree, chain, trusted, updated)

    def test_detectable_corruption_is_reconstructions_job(self, keys):
        with sanitized() as sanitizer:
            tree = self._tree(keys)
            chain = [(100, 3)]
            trusted = {100: [0] * COUNTERS_PER_LINE}
            tree.bump_chain(chain, trusted)
            updated = {100: [0] * COUNTERS_PER_LINE}
            updated[100][3] = 1
            counters, mac = tree.store.lines[100]
            corrupt = list(counters)
            corrupt[5] = 12345  # counters change, MAC does not: detectable
            tree.store.lines[100] = (corrupt, mac)
            sanitizer.check_counter_chain(tree, chain, trusted, updated)


# ---------------------------------------------------------------------------
# Sanitizer: run-cache replay


class TestCacheReplaySanitizer:
    def test_equal_payloads_pass(self):
        with sanitized() as sanitizer:
            sanitizer.check_cached_payload("cell", {"a": 1}, lambda: {"a": 1})

    def test_diverging_payloads_are_caught(self):
        with sanitized() as sanitizer:
            with pytest.raises(SanitizerError, match="differs"):
                sanitizer.check_cached_payload("cell", {"a": 1}, lambda: {"a": 2})

    def test_warm_run_suite_replays_byte_equal(self, keys):
        from repro.secure.designs import SYNERGY
        from repro.sim.config import SystemConfig
        from repro.sim.runner import run_suite

        del keys  # session keys fixture keeps crypto setup warm
        config = SystemConfig(accesses_per_core=300)
        with sanitized() as sanitizer:
            cold = run_suite([SYNERGY], ["mcf"], config)
            warm = run_suite([SYNERGY], ["mcf"], config)
            assert sanitizer.last_check == "cached_payload"
        assert cold.results[0].ipc == warm.results[0].ipc


# ---------------------------------------------------------------------------
# Sanitizer: FR-FCFS scheduler row-hit index


class TestSchedulerIndexSanitizer:
    @staticmethod
    def _loaded_controller():
        controller = MemoryController(MemoryConfig())
        state = 17
        specs = []
        for index in range(600):
            state = (state * 1103515245 + 12345) % (1 << 31)
            kind = RequestKind.WRITE if index % 3 == 0 else RequestKind.READ
            specs.append((kind, state % (1 << 22), index * 2, "data", 0))
        controller.enqueue_batch(specs)
        return controller

    def test_consistent_index_passes(self):
        with sanitized() as sanitizer:
            controller = self._loaded_controller()
            controller.process()
        assert sanitizer.last_check == "scheduler_index"
        assert sanitizer.checks > 0

    def test_corrupted_hit_tally_is_caught(self):
        with sanitized() as sanitizer:
            controller = self._loaded_controller()
            controller.process()
            channel = controller.channels[0]
            flat = next(f for f, row in enumerate(channel.open_rows) if row >= 0)
            row = channel.open_rows[flat]
            members = [(flat, row), (flat, row + 1)]
            banks = len(channel.open_rows)
            counts = {row * banks + flat: 1, (row + 1) * banks + flat: 1}
            # One queued request on the bank's open row is one hit ...
            sanitizer.check_scheduler_index(
                controller, channel, (("read", members, counts, 1),)
            )
            # ... and a pool census claiming two has drifted.
            with pytest.raises(SanitizerError, match="hit tally"):
                sanitizer.check_scheduler_index(
                    controller, channel, (("read", members, counts, 2),)
                )

    def test_corrupted_open_row_table_is_caught(self):
        with sanitized():
            controller = self._loaded_controller()
            controller.process()
            channel = controller.channels[0]
            flat = next(f for f, row in enumerate(channel.open_rows) if row >= 0)
            # An open bank that the open-row list calls closed leaves the
            # closed-bank tally one short of a recount.
            channel.open_rows[flat] = -1
            with pytest.raises(SanitizerError, match="closed_banks"):
                controller.process()

    def test_wrong_pool_census_is_caught(self):
        with sanitized() as sanitizer:
            controller = self._loaded_controller()
            controller.process()
            channel = controller.channels[0]
            flat = next(f for f, row in enumerate(channel.open_rows) if row >= 0)
            row = channel.open_rows[flat]
            members = [(flat, row), (flat, row + 1)]
            banks = len(channel.open_rows)
            counts = {row * banks + flat: 1, (row + 1) * banks + flat: 1}
            sanitizer.check_scheduler_index(
                controller, channel, (("write", members, counts, 1),)
            )
            # A row census that lost the second request has drifted.
            del counts[(row + 1) * banks + flat]
            with pytest.raises(SanitizerError, match="row_counts"):
                sanitizer.check_scheduler_index(
                    controller, channel, (("write", members, counts, 1),)
                )


# ---------------------------------------------------------------------------
# Sanitizer: secure-engine miss expansion


class TestExpansionSanitizer:
    """``check_expansion_batch``: the spot-check of the first fused
    read-miss expansion of each epoch."""

    @pytest.mark.parametrize("design", [IVEC, SGX_O], ids=lambda d: d.name)
    def test_clean_cell_passes(self, design, monkeypatch):
        checked = []
        check = Sanitizer.check_expansion_batch

        def counting(sanitizer, engine, data_line, *rest):
            checked.append(data_line)
            check(sanitizer, engine, data_line, *rest)

        monkeypatch.setattr(Sanitizer, "check_expansion_batch", counting)
        clear_run_memos()
        with sanitized() as sanitizer:
            result = run_workload(
                design, "mcf", SystemConfig(accesses_per_core=300)
            )
        assert checked, "no expansion was spot-checked"
        assert sanitizer.last_check
        assert result.ipc > 0

    @staticmethod
    def _cold_expansion(design):
        """An engine after one spot-checked cold read miss of line 0
        (at memory time 5, for core 1); returns it and the gating
        indices."""
        engine = SecureTimingEngine(
            design,
            CacheHierarchy(
                CacheConfig(llc_bytes=512 * 64, metadata_bytes=64 * 64)
            ),
            MemoryController(MemoryConfig()),
            1 << 20,
        )
        return engine, engine.expand_read_miss_deferred(0, 5, 1)

    def test_mac_tree_line_off_its_path_is_caught(self):
        with sanitized() as sanitizer:
            engine, blocking = self._cold_expansion(IVEC)
            assert sanitizer.last_check == "expansion_batch"
            batch = engine._batch
            index = blocking[-1]
            kind, line, when, category, core = batch[index]
            assert category == "mac"
            layout = engine.layout
            assert line in layout.tree_path(0)
            # A MAC-tree node of a far leaf is on no path line 0 verifies.
            far = layout.mac_line(1 << 19) - layout.mac_base
            batch[index] = (
                kind,
                layout.tree_path(far)[0],
                when,
                category,
                core,
            )
            with pytest.raises(SanitizerError, match="MAC-tree path"):
                sanitizer.check_expansion_batch(engine, 0, 5, 1, 0, blocking)

    def test_evicted_counter_line_is_caught(self):
        with sanitized() as sanitizer:
            engine, blocking = self._cold_expansion(SGX_O)
            engine.hierarchy.metadata_cache.invalidate(
                engine.layout.counter_line(0)
            )
            with pytest.raises(SanitizerError, match="absent from the dedicated"):
                sanitizer.check_expansion_batch(engine, 0, 5, 1, 0, blocking)

    def test_walk_may_evict_counter_line_from_a_one_line_cache(self):
        with sanitized() as sanitizer:
            engine = SecureTimingEngine(
                SGX_O,
                CacheHierarchy(
                    CacheConfig(
                        llc_bytes=64,
                        llc_associativity=1,
                        metadata_bytes=64,
                        metadata_associativity=1,
                    )
                ),
                MemoryController(MemoryConfig()),
                1 << 20,
            )
            engine.expand_read_miss_deferred(0, 5, 1)
            assert sanitizer.last_check == "expansion_batch"
            assert not engine.hierarchy.metadata_cache.probe(
                engine.layout.counter_line(0)
            )

    def test_counter_line_off_its_chain_is_caught(self):
        with sanitized() as sanitizer:
            engine, blocking = self._cold_expansion(SGX_O)
            assert sanitizer.last_check == "expansion_batch"
            batch = engine._batch
            index = blocking[1]
            kind, line, when, category, core = batch[index]
            assert (category, line) == ("counter", engine.layout.counter_line(0))
            batch[index] = (
                kind,
                engine.layout.counter_line(1 << 19),
                when,
                category,
                core,
            )
            with pytest.raises(SanitizerError, match="tree path"):
                sanitizer.check_expansion_batch(engine, 0, 5, 1, 0, blocking)
