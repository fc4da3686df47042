"""Integration smoke tests: every figure experiment runs and has the
paper's qualitative shape at micro scale, and every ablation at quick
scale.

Here we only check structure and directional claims, with the smallest
traces that still exercise the full pipeline. Each figure runs once per
module; its tests share the output.
"""

import pytest

from repro.harness.experiments import (
    ablation_sdc,
    fig6,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig16,
    fig17,
    run_experiment,
)
from repro.harness.scales import Scale
from repro.parallel import shutdown_pool

#: Micro scale: two memory-intensive workloads, very short traces.
MICRO = Scale("micro", "smoke", 1_200, False, 50_000)


@pytest.fixture(scope="module")
def fig8_summary():
    return fig8(MICRO, quiet=True)


@pytest.fixture(scope="module")
def fig9_breakdown():
    return fig9(MICRO, quiet=True)


@pytest.fixture(scope="module")
def fig10_out():
    return fig10(MICRO, quiet=True)


@pytest.fixture(scope="module")
def fig12_out():
    return fig12(MICRO, quiet=True)


@pytest.fixture(scope="module")
def fig13_out():
    return fig13(MICRO, quiet=True)


@pytest.fixture(scope="module")
def fig14_out():
    return fig14(MICRO, quiet=True)


@pytest.fixture(scope="module")
def fig16_out():
    return fig16(MICRO, quiet=True)


@pytest.fixture(scope="module")
def fig17_out():
    return fig17(MICRO, quiet=True)


class TestHeadlineFigures:
    def test_fig8_orderings(self, fig8_summary):
        assert fig8_summary["Synergy"] > 1.0
        assert fig8_summary["SGX"] < 1.0

    def test_fig6_orderings(self):
        summary = fig6(MICRO, quiet=True)
        assert summary["NonSecure"] > 1.0
        assert summary["SGX"] < 1.0

    def test_fig9_structure(self, fig9_breakdown):
        breakdown = fig9_breakdown
        assert breakdown["Synergy"]["mac_read"] == 0.0
        assert breakdown["SGX_O"]["mac_read"] > 0.0
        assert breakdown["Synergy"]["parity_write"] > 0.0
        assert breakdown["synergy_reduction"]["total"] > 0.0

    def test_fig9_synergy_cuts_total_traffic(self, fig9_breakdown):
        assert fig9_breakdown["synergy_reduction"]["total"] > 0.05

    def test_fig10_structure(self, fig10_out):
        out = fig10_out
        assert out["Synergy"]["edp"] < 1.0 < out["SGX"]["edp"]
        assert out["SGX_O"]["performance"] == pytest.approx(1.0)

    def test_fig10_power_roughly_flat(self, fig10_out):
        assert 0.8 < fig10_out["Synergy"]["power"] < 1.2


class TestReliability:
    def test_fig11_orderings(self):
        out = fig11(MICRO, quiet=True)
        assert out["SECDED"] > out["Chipkill"] > out["Synergy"]
        assert out["ratio_Chipkill"] > 10
        assert out["ratio_Synergy"] > 50

    def test_sdc_collision_bound(self):
        assert ablation_sdc(quiet=True)["collision_per_correction"] < 1e-17


class TestSensitivityFigures:
    def test_fig12_gain_shrinks_with_channels(self, fig12_out):
        out = fig12_out
        assert set(out) == {2, 4, 8}
        assert out[2]["Synergy"] > out[8]["Synergy"]

    def test_fig12_synergy_never_hurts(self, fig12_out):
        assert fig12_out[8]["Synergy"] >= 1.0

    def test_fig13_both_modes_win(self, fig13_out):
        out = fig13_out
        assert out["monolithic"] > 1.0
        assert out["split"] > 1.0

    def test_fig13_split_on_par_with_monolithic(self, fig13_out):
        assert fig13_out["split"] >= fig13_out["monolithic"] * 0.97

    def test_fig14_llc_caching_helps_more(self, fig14_out):
        out = fig14_out
        assert out["dedicated+LLC"] > out["dedicated-only"]

    def test_fig14_both_policies_win(self, fig14_out):
        assert fig14_out["dedicated+LLC"] > 1.0
        assert fig14_out["dedicated-only"] > 1.0


class TestComparisonFigures:
    def test_fig16_ivec_loses(self, fig16_out):
        out = fig16_out
        assert out["IVEC"]["performance"] < out["Synergy"]["performance"]
        assert out["Synergy"]["performance"] > 1.0

    def test_fig16_ivec_slower_and_costlier(self, fig16_out):
        assert fig16_out["IVEC"]["performance"] < 1.0
        assert fig16_out["IVEC"]["edp"] > fig16_out["Synergy"]["edp"]

    def test_fig17_lotecc_loses(self, fig17_out):
        out = fig17_out
        assert out["LOTECC"]["performance"] < 1.0
        assert out["Synergy"]["performance"] > 1.0

    def test_fig17_write_coalescing_helps(self, fig17_out):
        out = fig17_out
        assert out["LOTECC_WC"]["performance"] >= out["LOTECC"]["performance"]


#: Run by name at quick scale, through the registry, in one module run.
#: fig12 is here too: its SGX-narrowing claim is checked at quick scale.
QUICK_RUNS = (
    "chipkill_perf",
    "custom_dimm",
    "speculation",
    "scrub_sensitivity",
    "tree_arity",
    "reconstruction",
    "fig12",
)


@pytest.fixture(scope="module")
def quick():
    # Two workers: the grids share the SGX_O/Synergy cells through the
    # memo, and the rest fan out.
    try:
        return {
            name: run_experiment(name, scale="quick", quiet=True, jobs=2)
            for name in QUICK_RUNS
        }
    finally:
        shutdown_pool()


class TestAblations:
    def test_chipkill_pays_synergy_gains(self, quick):
        speedups = quick["chipkill_perf"]
        assert speedups["Chipkill_Secure"] < 1.0
        assert speedups["Synergy"] > 1.0
        assert speedups["Synergy"] > speedups["Chipkill_Secure"]

    def test_custom_dimm_drops_parity_traffic(self, quick):
        speedups, parity_apki = quick["custom_dimm"]
        assert parity_apki["Synergy_Custom"] == 0.0
        assert speedups["Synergy_Custom"] >= speedups["Synergy"]

    def test_synergy_gain_survives_speculation(self, quick):
        out = quick["speculation"]
        assert out["speculation_gain_baseline"] >= 1.0
        assert out["synergy_gain_speculative"] > 1.05

    def test_reliability_ordering_holds_at_every_scrub_interval(self, quick):
        rows = quick["scrub_sensitivity"]
        assert [row["scrub_hours"] for row in rows] == [6.0, 24.0, 168.0]
        for row in rows:
            assert row["synergy_ratio"] > row["chipkill_ratio"] > 5

    def test_higher_arity_gives_a_shallower_cheaper_tree(self, quick):
        by_arity = {row["arity"]: row for row in quick["tree_arity"]}
        assert by_arity[8]["tree_depth"] < by_arity[2]["tree_depth"]
        assert by_arity[8]["tree_overhead"] < by_arity[2]["tree_overhead"]

    def test_worst_case_reconstruction_within_budget(self, quick):
        out = quick["reconstruction"]
        assert out["corrected"]
        assert out["attempts"] <= out["budget"] == 16

    def test_fig12_sgx_slowdown_narrows(self, quick):
        out = quick["fig12"]
        assert out[2]["SGX"] < out[8]["SGX"]
