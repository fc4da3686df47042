"""Tests for the end-to-end benchmark itself (run explicitly, ~20 s)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import importlib
import json
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

CATALOG = run.load_catalog(run.ROOT)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- tracing ------------------------------------------------------------------


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        traced_inner()
        traced_inner()
        clock.now += 3.0

    traced_outer = tracer.wrap("outer", outer)
    traced_outer()
    traced_outer()
    spans = tracer.snapshot()
    assert spans["outer"] == {"calls": 2, "total_s": 16.0, "self_s": 8.0, "units": {}}
    assert spans["inner"] == {"calls": 4, "total_s": 8.0, "self_s": 8.0, "units": {}}


def test_counters_and_layer_shares_partition_the_wall():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def process():
        clock.now += 3.0

    def enqueue(specs):
        clock.now += 1.0
        return list(specs)

    counts = (("requests", lambda args, result: len(result)),)
    traced_enqueue = tracer.wrap("dram.enqueue", enqueue, counts)
    traced_process = tracer.wrap("dram.process", process)
    traced_enqueue([1, 2, 3])
    traced_process()
    metrics = tracing.layer_metrics(tracer.snapshot(), wall_s=8.0)
    assert metrics["dram.requests"] == 3
    assert metrics["dram.share"] == pytest.approx(0.5)
    assert metrics["dram.process_us_per_request"] == pytest.approx(1e6)
    assert metrics["cpu.advance_share"] == 0.0
    shares = sum(metrics[name] for name in tracing.SHARES) + metrics["unattributed_share"]
    assert shares == pytest.approx(1.0)


def test_uninstall_restores_the_original_attributes():
    class Target:
        def method(self):
            return "method"

        @classmethod
        def build(cls):
            return cls

    module = types.ModuleType("fake_layer")
    module.function = lambda: "function"
    originals = (vars(Target)["method"], vars(Target)["build"], module.function)

    tracer = tracing.Tracer()
    tracer.install(Target, "method", "m")
    tracer.install(Target, "build", "b")
    tracer.install(module, "function", "f")
    assert vars(Target)["method"] is not originals[0]
    assert isinstance(vars(Target)["build"], classmethod)
    assert Target().method() == "method"
    assert Target.build() is Target
    assert module.function() == "function"
    assert set(tracer.snapshot()) == {"m", "b", "f"}

    tracer.uninstall()
    assert vars(Target)["method"] is originals[0]
    assert vars(Target)["build"] is originals[1]
    assert module.function is originals[2]


def test_install_layers_wraps_and_restores_every_entry_point():
    def resolve(module, path):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        return owner, attr

    targets = [resolve(module, path) for _name, module, path, _counts in tracing.SPANS]
    before = [vars(owner)[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        assert all(
            vars(owner)[attr] is not raw for (owner, attr), raw in zip(targets, before)
        )
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in zip(targets, before))


# -- seeded inputs ------------------------------------------------------------


def test_service_submissions_are_a_function_of_the_seed():
    submissions = child.service_submissions(5, 0)
    assert submissions == child.service_submissions(5, 0)
    assert submissions != child.service_submissions(6, 0)
    assert submissions != child.service_submissions(5, 1)
    assert len(submissions) == child.SUBMISSIONS
    pool = child.service_pool(5)
    assert len(pool) == 16
    assert all(spec in submissions for spec in pool)


def test_cell_list_is_a_function_of_the_seed():
    assert child.cell_list(4) == child.cell_list(4)
    assert len(child.cell_list(4)) == 18
    # Seed 0 keeps the default trace salts the pinned digests were taken at.
    assert {seed for _d, _w, seed in child.cell_list(0)} == {None}
    assert {seed for _d, _w, seed in child.cell_list(7)} == {7}


# -- comparer -----------------------------------------------------------------


def _report(values, cpu_count=2, workload="mc_fleet"):
    """A report whose runs read ``values`` on every end-to-end metric."""
    runs = [
        {
            "workload": workload,
            "trace": False,
            "failed": 0,
            "metrics": {entry["name"]: value for entry in CATALOG["end_to_end"]},
            "samples": {},
        }
        for value in values
    ]
    return {"provenance": {"host": {"cpu_count": cpu_count}}, "runs": runs}


def _verdict(base, head):
    table = compare.compare([_report(base)], [_report(head)], CATALOG)
    return table["mc_fleet"]["wall_s"]


def test_comparer_verdicts():
    bound = next(e["bound"] for e in CATALOG["end_to_end"] if e["name"] == "wall_s")
    base = [10.0, 10.1, 9.9, 10.0]

    def scaled(factor):
        return [value * factor for value in base]

    assert _verdict(base, scaled(1 + bound / 2))["verdict"] == "unchanged"
    assert _verdict(base, scaled(1 + bound * 1.5))["verdict"] == "regressed"
    assert _verdict(base, scaled(1 - bound * 1.5))["verdict"] == "improved"
    # Head spread wider than the bound: noise, not a verdict either way...
    noisy = [10.0 * (1 - 2 * bound), 10.0 * (1 + 2 * bound), 9.0, 11.0]
    assert _verdict(base, noisy)["verdict"] == "unresolved"
    # ...unless every head run beats every base run, over enough runs.
    spread_but_better = [10.0 * (1 - 3 * bound), 9.0, 9.5, 9.8]
    assert _verdict(base, spread_but_better)["verdict"] == "improved"
    assert _verdict(base[:1], spread_but_better[:1] + [9.0])["verdict"] == "unresolved"


def test_comparer_reports_win_rate_from_ten_pairs():
    base = [10.0 + 0.01 * i for i in range(10)]
    result = _verdict(base, [value * 0.8 for value in base])
    assert result["win_rate"] == 1.0
    assert result["gain"]
    assert "win_rate" not in _verdict(base[:9], base[:9])


def test_comparer_refuses_different_core_counts():
    with pytest.raises(ValueError):
        compare.compare(
            [_report([1.0], cpu_count=2)], [_report([1.0], cpu_count=4)], CATALOG
        )


# -- reduced-size runs of every workload --------------------------------------


@pytest.fixture()
def runner(tmp_path):
    return run.Runner(run.ROOT, tmp_path, run.default_jobs(), time.monotonic() + 120)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_its_checks(workload, runner):
    record = run.measure(workload, 0, 0, False, runner, smoke=True)
    assert record["correct"], record["errors"]
    assert record["attempted"] > 1
    metrics = run.select(record, CATALOG)
    assert [name for name in metrics] == [e["name"] for e in CATALOG["end_to_end"]]
    assert all(entry["value"] > 0 for entry in metrics.values())
    json.dumps(record)


def test_traced_smoke_run_reports_every_layer_metric(runner):
    record = run.measure("cells_default", 0, 0, True, runner, smoke=True)
    assert record["correct"], record["errors"]
    metrics = {name: entry["value"] for name, entry in run.select(record, CATALOG).items()}
    assert list(metrics) == [entry["name"] for entry in CATALOG["per_layer"]]
    shares = sum(metrics[name] for name in tracing.SHARES) + metrics["unattributed_share"]
    assert shares == pytest.approx(1.0)
    assert metrics["dram.share"] > 0.2
    assert metrics["sim.cells"] == len(child.SMOKE_CELLS)
