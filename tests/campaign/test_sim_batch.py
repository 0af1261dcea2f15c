"""Campaign-level vector batching: bitwise metric identity."""

import repro.campaign.runner
from repro.campaign import (
    CampaignRunner,
    ScenarioSpec,
    run_scenario_batch,
    run_spec,
)
from repro.campaign.spec import OneShotSpec

SPECS = [
    ScenarioSpec(scheme="BAS-1", n_graphs=2, seed=3),
    ScenarioSpec(scheme="ccEDF", n_graphs=2, seed=4, battery="kibam"),
    ScenarioSpec(scheme="EDF", n_graphs=2, seed=5),
]


def assert_metrics_equal(a, b):
    assert set(a.metrics) == set(b.metrics)
    for key, val in a.metrics.items():
        assert b.metrics[key] == val, key


class TestRunScenarioBatch:
    def test_vector_batch_bitwise_equals_run_spec(self):
        got = run_scenario_batch(list(enumerate(SPECS)))
        for (index, result), spec in zip(got, SPECS):
            assert_metrics_equal(result, run_spec(spec))

    def test_long_horizon_batch_bitwise_equals_run_spec(self, long_specs):
        got = run_scenario_batch(list(enumerate(long_specs)))
        for (index, result), spec in zip(got, long_specs):
            assert_metrics_equal(result, run_spec(spec))


class TestRunnerBatching:
    def test_vector_runner_matches_default(self, monkeypatch):
        # Width 2 splits the 3 specs into two payloads.
        monkeypatch.setattr(repro.campaign.runner, "_VECTOR_BATCH", 2)
        batched = CampaignRunner(sim_vector=True).run(SPECS)
        plain = CampaignRunner().run(SPECS)
        assert len(batched.results) == len(plain.results)
        for a, b in zip(batched.results, plain.results):
            assert a.spec == b.spec  # spec order preserved
            assert_metrics_equal(a, b)

    def test_vector_runner_matches_per_spec_run_spec(self):
        batched = CampaignRunner(sim_vector=True).run(SPECS)
        for result, spec in zip(batched.results, SPECS):
            assert result.spec == spec
            assert_metrics_equal(result, run_spec(spec))

    def test_parallel_batched_matches_sequential(self, monkeypatch):
        # Width 2 gives two payloads, one per worker.
        monkeypatch.setattr(repro.campaign.runner, "_VECTOR_BATCH", 2)
        seq = CampaignRunner(sim_vector=True).run(SPECS)
        par = CampaignRunner(n_workers=2, sim_vector=True).run(SPECS)
        assert [r.spec for r in par.results] == SPECS
        for a, b in zip(seq.results, par.results):
            assert a.spec == b.spec
            assert_metrics_equal(a, b)

    def test_non_periodic_specs_stay_on_single_path(self):
        specs = [
            ScenarioSpec(scheme="ccEDF", n_graphs=2, seed=3),
            OneShotSpec(n_tasks=4, seed=1, n_random=1),
        ]
        result = CampaignRunner(sim_vector=True).run(specs)
        assert len(result.results) == 2
        assert "pubs" in result.results[1].metrics
