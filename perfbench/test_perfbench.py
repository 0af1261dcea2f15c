"""Tests of the benchmark harness itself (tracing, checks, hygiene).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import artifacts  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    campaign = tracer.open("campaign")
    clock.tick(1.0)
    sim = tracer.open("sim")
    clock.tick(3.0)
    tracer.close(sim)
    clock.tick(0.5)
    battery = tracer.open("battery")
    clock.tick(2.0)
    tracer.close(battery)
    tracer.close(campaign)
    clock.tick(0.25)  # between top-level spans: unattributed
    api = tracer.open("api")
    clock.tick(0.25)
    tracer.close(api)

    selfs = tracer.self_times()
    assert selfs == {"campaign": 1.5, "sim": 3.0, "battery": 2.0,
                     "api": 0.25}
    summary = spans.summarize(tracer, wall_s=7.0)
    assert summary["trace.unattributed_s"] == pytest.approx(0.25)
    accounted = sum(summary[m] for m in spans.SELF_TIME_METRICS.values())
    assert accounted + summary["trace.unattributed_s"] == pytest.approx(7.0)


def test_sim_nested_under_exact_counts_toward_exact():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    outer = tracer.open("sim")  # a plain simulation: stays sim
    clock.tick(1.0)
    tracer.close(outer)
    exact = tracer.open("exact")
    clock.tick(0.5)
    inner = tracer.open("sim")
    assert inner.absorbed and inner.layer == "exact"
    deeper = tracer.open("profile")
    clock.tick(1.0)
    tracer.close(deeper)
    clock.tick(2.0)
    tracer.close(inner)
    tracer.close(exact)
    assert tracer.self_times() == {"sim": 1.0, "exact": 3.5}


def test_wrapper_counts_skip_absorbed_spans():
    tracer = spans.Tracer(FakeClock())

    def work():
        return 1

    counted = spans._traced(tracer, work, "sim",
                            lambda t, args, res: t.count("sim.runs"))
    reference = spans._traced(tracer, counted, "exact", None)
    counted()
    reference()
    assert tracer.counters == {"sim.runs": 1}
    assert [s.layer for s in tracer.spans] == ["sim", "exact", "exact"]


def test_battery_batch_counts_each_load_once():
    import numpy as np
    from repro.battery import kernels
    from repro.battery.calibrate import paper_cell_kibam

    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        cell = paper_cell_kibam()
        load = (cell, np.array([1.0, 2.0]), np.array([0.5, 0.1]))
        runs = kernels.run_profile_batch([load, load])
        cell.run_profile(load[1], load[2], repeat=None)
    finally:
        restore()
    assert tracer.counters["battery.calls"] == 3
    assert tracer.counters["battery.life_s"] == pytest.approx(
        3 * runs[0].lifetime)


def _fake_rep(digest: str) -> run.Rep:
    return run.Rep(1.0, {"digest": digest, "wall_s": 1.0}, None)


def test_perturbed_output_counts_as_failed():
    out = {"report": "Table 2\nEDF 1578.8\n", "frame": "{}",
           "n_results": 3, "metric_values": [1.0, 2.0]}

    class Work:
        n_specs = 3

        check = artifacts.PlanWorkload.check

    good = artifacts.outcome(Work(), out)["digest"]
    perturbed = dict(out, report=out["report"].replace("8", "9"))
    bad = artifacts.outcome(Work(), perturbed)["digest"]
    assert bad != good

    reps = [_fake_rep(good), _fake_rep(bad), _fake_rep(good)]
    problems = run.check_outputs(reps, pinned=good)
    assert problems == ["digest differs from the pinned digest"]
    assert [r.ok for r in reps] == [True, False, True]

    unpinned = [_fake_rep(good), _fake_rep(bad)]
    assert run.check_outputs(unpinned, pinned=None)
    assert not any(r.ok for r in unpinned)


def test_non_finite_metric_or_missing_rows_fail_the_check():
    class Work:
        n_specs = 2

        check = artifacts.PlanWorkload.check

    base = {"report": "", "frame": "", "n_results": 2,
            "metric_values": [1.0, math.nan]}
    assert "not finite" in artifacts.outcome(Work(), base)["error"]
    short = dict(base, metric_values=[1.0], n_results=1)
    assert "1 results for 2 specs" in artifacts.outcome(Work(), short)[
        "error"]
    assert run.Rep(1.0, {"error": "x"}, None).ok is False


def test_env_scrub(tmp_path):
    base = {
        "PATH": "/bin",
        "REPRO_FAULT_PLAN": "{}",
        "REPRO_PLUGINS": "{}",
        "REPRO_CONTRACT_LOCKS": "1",
        "REPRO_CAMPAIGN_CACHE": "/somewhere/else",
        "OMP_NUM_THREADS": "8",
    }
    env = run.child_env(base, tmp_path)
    for var in run.SCRUBBED:
        assert var not in env
    for var in run.THREAD_VARS:
        assert env[var] == "1"
    assert env["PATH"] == "/bin"
    assert Path(env["REPRO_CAMPAIGN_CACHE"]).parent == tmp_path
    assert env["TMPDIR"] == str(tmp_path)
    assert env["PYTHONPATH"] == str(run.SRC)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        400 |       scipy.linalg._x",
        "import time:       500 |        900 |     scipy.optimize",
        "import time:        50 |       1300 |   repro.battery",
        "import time:        70 |       2000 | repro",
        "import time:        10 |         10 | json",
    ])
    assert run.parse_importtime(text) == {
        "startup.import_s": 0.002,
        "startup.scipy_import_s": 0.0012,
    }


def _tiny_runs(tmp_path, k):
    """One small table2, fig6 and grown campaign, all in-process."""
    from repro.__main__ import main
    from repro.api import plans

    plans.table2_plan(n_sets=1, n_graphs=1, seed=3).run().format()
    plans.fig6_plan(graph_counts=(2,), sets_per_point=1, seed=3,
                    horizon=4.0).run().format()
    cache = tmp_path / f"cache-{k}"
    argv = ["campaign", "--seed", "3", "--graphs", "1", "--battery",
            "kibam", "--schemes", "EDF", "laEDF", "--cache-dir", str(cache)]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv + ["--scenarios", "1"])
        main(argv + ["--scenarios", "2"])


def test_counts_repeat_across_two_tiny_runs(tmp_path):
    from repro.sim.engine import Simulator

    original = Simulator.__dict__["run"]
    summaries = []
    for k in range(2):
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
        try:
            t0 = tracer.clock()
            _tiny_runs(tmp_path, k)
            wall = tracer.clock() - t0
        finally:
            restore()
        summaries.append(spans.summarize(tracer, wall))
    assert Simulator.__dict__["run"] is original
    first, second = summaries
    assert {n: first[n] for n in spans.COUNTS} == {
        n: second[n] for n in spans.COUNTS
    }
    assert first["exact.calls"] == 1
    assert first["sim.runs"] == 5 + 4 + 4
    assert first["campaign.cache_hits"] == 2
    assert first["campaign.cache_writes"] == 4
    assert first["battery.calls"] == 5 + 4
    accounted = sum(first[m] for m in spans.SELF_TIME_METRICS.values())
    assert accounted + first["trace.unattributed_s"] == pytest.approx(
        first["trace.wall_s"])


def test_emitted_metrics_match_benchmark_json():
    record = {"digest": "d", "wall_s": 2.0, "cpu_s": 2.0,
              "parent_cpu_s": 1.0, "children_cpu_s": 1.0,
              "peak_rss_mb": 50.0}
    timed = run.Rep(1.0, record, None)
    layers = spans.summarize(spans.Tracer(), wall_s=2.0)
    traced = run.Rep(1.0, dict(record, layers=layers), None)

    class Bench:
        workload = "table2"

        @staticmethod
        def importtime():
            return run.parse_importtime("")

    emitted = run.end_to_end("table2", [timed], [1.0])
    assert list(emitted) == list(run.declared("end_to_end"))
    emitted = run.per_layer(Bench(), [timed], [timed], [traced])
    assert set(emitted) == set(run.declared("per_layer"))
