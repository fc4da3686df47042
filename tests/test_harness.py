"""Harness tests: scales, report rendering, experiment entry points."""

import pytest

from repro.harness.experiments import (
    ablation_correction_latency,
    ablation_sdc,
    table1,
    table2,
    table3,
)
from repro.harness.report import render_series, render_table
from repro.harness.scales import DEFAULT, FULL, QUICK, Scale, resolve_scale


class TestScales:
    def test_resolve_by_name(self):
        assert resolve_scale("quick") is QUICK
        assert resolve_scale("full") is FULL

    def test_resolve_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert resolve_scale() is DEFAULT

    def test_resolve_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert resolve_scale() is QUICK

    def test_resolve_passthrough(self):
        scale = Scale("custom", "smoke", 100, False, 1000)
        assert resolve_scale(scale) is scale

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_scale("huge")


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["x", 1.5], ["yy", 2]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.500" in text
        assert "yy" in text

    def test_render_series_missing_values(self):
        text = render_series({"s1": {"w1": 1.0}, "s2": {"w2": 2.0}})
        assert "-" in text
        assert "w1" in text and "w2" in text


class TestTables:
    def test_table1_has_fourteen_rows(self):
        rows = table1(quiet=True)
        assert len(rows) == 14
        assert sum(r["FIT"] for r in rows) == pytest.approx(66.1)

    def test_table2_covers_all_designs(self):
        rows = table2(quiet=True)
        names = {r["design"] for r in rows}
        assert {"SGX", "SGX_O", "Synergy", "IVEC"} <= names

    def test_table3_matches_paper(self):
        rows = table3(quiet=True)
        assert rows["cores"] == 4
        assert rows["rob"] == 192
        assert rows["llc_bytes"] == 8 * 1024 * 1024
        assert rows["channels"] == 2
        assert rows["rows_per_bank"] == 64 * 1024


class TestAblations:
    def test_sdc_numbers(self):
        out = ablation_sdc(quiet=True)
        assert out["mac_bits_data"] == pytest.approx(60.0)
        assert out["mac_bits_counter"] == pytest.approx(61.0)
        assert out["sdc_fit"] < 1e-15

    def test_correction_latency_shrinks_to_one(self):
        out = ablation_correction_latency(quiet=True)
        assert out["first_access_macs"] > out["steady_state_macs"]
        assert out["steady_state_macs"] <= 2
        assert out["max_macs"] <= 88  # the paper's worst-case bound


class TestCli:
    def test_cli_runs_table(self, capsys):
        from repro.harness.cli import main

        assert main(["table3"]) == 0
        captured = capsys.readouterr()
        assert "Table III" in captured.out

    def test_cli_lists_the_ablations(self, capsys):
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        for name in (
            "chipkill_perf",
            "custom_dimm",
            "speculation",
            "scrub_sensitivity",
            "tree_arity",
            "reconstruction",
        ):
            assert name in usage

    def test_cli_rejects_unknown(self):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_metrics_out_execution_covers_the_whole_run(
        self, monkeypatch, tmp_path, capsys
    ):
        import json

        from repro.harness import cli
        from repro.harness.experiments import EXPERIMENTS

        # selfcheck's timing cells are planned (the prefetch runs them),
        # and table3, which runs last, executes nothing.
        names = ("selfcheck", "table3")
        monkeypatch.setattr(
            cli, "EXPERIMENTS", {name: EXPERIMENTS[name] for name in names}
        )
        path = tmp_path / "metrics.json"
        argv = ["all", "--no-cache", "--jobs", "1", "--metrics-out", str(path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        run = json.loads(path.read_text())["run"]
        assert run["plan"]["cells_pending"] == 3
        execution = run["execution"]
        # The prefetch's 3 cells plus the reliability check's mc: slices.
        assert execution["cells_executed"] > run["plan"]["cells_pending"]
        assert execution["busy_seconds"] > 0
        assert execution["worker_utilisation"] > 0
        assert execution["peak_rss_mib"] > 0

    def test_single_uncached_figure_is_planned(self, monkeypatch, tmp_path, capsys):
        """One figure runs as a planned batch too: with caching off it
        plans its grid, simulates each unique cell once and assembles from
        a temporary run cache that does not outlive the run."""
        import json
        import tempfile

        from repro.harness.cli import main
        from repro.harness.experiments import _workloads

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        path = tmp_path / "metrics.json"
        argv = ["fig6", "--scale", "quick", "--no-cache", "--metrics-out", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        run = json.loads(path.read_text())["run"]
        cells = 3 * len(_workloads(QUICK))
        assert run["plan"]["cells_requested"] == run["plan"]["cells_unique"] == cells
        assert run["plan"]["cells_pending"] == cells
        assert run["execution"]["cells_executed"] == cells
        # The prefetch ran every cell; fig6 assembled from the hits.
        assert run["execution"]["cache_hits"] == cells
        assert list(scratch.iterdir()) == []

    def test_sanitized_run_reports_the_worker_checks(self, tmp_path, capsys):
        """Under the sanitizer a figure's cells run their invariant checks
        in the pool workers, and the run's execution block counts them."""
        import json

        from repro.analysis.sanitizer import sanitized
        from repro.harness.cli import main
        from repro.parallel import shutdown_pool

        path = tmp_path / "metrics.json"
        argv = [
            "fig8", "--scale", "quick", "--jobs", "2", "--no-cache",
            "--metrics-out", str(path),
        ]
        with sanitized():
            assert main(argv) == 0
        shutdown_pool()
        out = capsys.readouterr().out
        checks = json.loads(path.read_text())["run"]["execution"]["sanitizer_checks"]
        assert checks > 0
        # All of them ran in the prefetch, which the CLI reports on its own.
        assert "sanitizer: %d check(s)" % checks in out

    def test_metrics_out_reports_functional_plane_corrections(self, tmp_path, capsys):
        """correction_latency builds its SynergyMemory in its own registry
        scope, so its corrections reach --metrics-out."""
        import json

        from repro.harness.cli import main

        path = tmp_path / "metrics.json"
        argv = ["correction_latency", "--scale", "quick", "--metrics-out", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        groups = json.loads(path.read_text())["telemetry"]["groups"]
        metrics = groups["correction_latency"]["metrics"]
        assert metrics["core.reconstruction_corrections"]["value"] == 19
        assert metrics["core.reconstruction_attempts"]["sum"] == 58
        assert metrics["secure.mac_computations"]["value"] == 117

    def test_warm_metrics_out_equals_the_cold_run(self, tmp_path, capsys):
        """A run that revives every cell from the run cache writes the
        same telemetry as the cold run that stored them."""
        import json

        from repro.harness.cli import main
        from repro.parallel import overridden

        cache_dir = str(tmp_path / "cache")
        dumps = []
        for leg in ("cold", "warm"):
            path = tmp_path / ("%s.json" % leg)
            with overridden(cache_enabled=True, cache_dir=cache_dir):
                argv = ["selfcheck", "--jobs", "1", "--metrics-out", str(path)]
                assert main(argv) == 0
            capsys.readouterr()
            dumps.append(json.loads(path.read_text()))
        cold, warm = dumps
        assert cold["run"]["execution"]["cells_executed"] > 0
        assert warm["run"]["execution"]["cells_executed"] == 0
        assert warm["run"]["execution"]["cache_hits"] > 0
        assert cold["telemetry"]["groups"]
        assert "selfcheck:correction" in cold["telemetry"]["groups"]
        assert warm["telemetry"] == cold["telemetry"]
