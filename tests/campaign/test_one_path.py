"""One execution path and one retry policy for every campaign runner.

Every spec runs through :func:`repro.campaign.runner.execute_guarded`,
failures are charged through one
:class:`~repro.campaign.failures.RetryPolicy`, and exhausted budgets
raise :class:`~repro.errors.SpecFailure` on every runner.  These tests
pin the cross-runner contract: the same poison plan quarantines the
same specs with the same books locally (sequential and pooled) and on
a distributed fleet, a failing spec never wedges a pool, and a vector
batch that raises is split so the failure lands on the right spec.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.campaign.runner
from repro import faults
from repro.campaign import (
    CampaignRunner,
    ScenarioSpec,
    register_scheme,
    spawn_seeds,
    unregister,
)
from repro.campaign.distributed import DirectoryBroker, DistributedRunner
from repro.campaign.failures import FailureReport, RetryPolicy
from repro.errors import SchedulingError, SpecFailure

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
#: A hung pool would otherwise stall the whole suite (no pytest-timeout).
HANG_TIMEOUT = 120.0


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.uninstall()


@pytest.fixture
def miss_scheme():
    register_scheme("miss", "miss_plugin:build_miss")
    yield "miss"
    unregister("miss")


def make_specs(n=4, seed=0):
    return [
        ScenarioSpec(scheme="ccEDF", seed=s, n_graphs=2)
        for s in spawn_seeds(seed, n)
    ]


def poison(*indices):
    faults.install(
        faults.FaultPlan(
            rules=(
                faults.FaultRule(
                    point="spec.execute",
                    kind="error",
                    indices=indices,
                    message="poison",
                ),
            ),
        )
    )


class TestNoHang:
    """A ``DeadlineMissError`` in a pool worker used to kill the pool's
    result thread (the exception pickled but did not unpickle), so the
    parent waited forever.  Each case runs in a subprocess with a
    timeout so a regression fails instead of stalling the suite."""

    SCRIPT = textwrap.dedent(
        """
        from repro.campaign import CampaignRunner, ScenarioSpec
        from repro.campaign import register_scheme
        from repro.errors import SpecFailure

        register_scheme("miss", "miss_plugin:build_miss")
        specs = [
            ScenarioSpec(scheme="miss", n_graphs=2, seed=s)
            for s in (1, 2, 3)
        ]
        try:
            CampaignRunner(2, sim_vector={vector}).run(specs)
        except SpecFailure as exc:
            print("SpecFailure", exc.exc_type)
        """
    )

    @pytest.mark.parametrize("vector", [False, True])
    def test_deadline_miss_raises_spec_failure(self, vector):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(HERE), env.get("PYTHONPATH", "")]
        )
        try:
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT.format(vector=vector)],
                env=env,
                capture_output=True,
                text=True,
                timeout=HANG_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"CampaignRunner(2, sim_vector={vector}) hung")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["SpecFailure", "DeadlineMissError"]


class TestOneRaiseBehavior:
    def test_sequential_runner_raises_spec_failure(self, miss_scheme):
        with pytest.raises(SpecFailure) as info:
            CampaignRunner(1).run(
                [ScenarioSpec(scheme=miss_scheme, n_graphs=2, seed=1)]
            )
        assert info.value.exc_type == "DeadlineMissError"
        assert "missed deadline" in str(info.value)
        assert "DeadlineMissError" in info.value.traceback_text

    def test_failed_batch_splits_onto_the_right_spec(
        self, miss_scheme, monkeypatch
    ):
        """The batch holding the miss is split; its specs re-run as
        singles uncharged, so the good specs before it still finish."""
        monkeypatch.setattr(repro.campaign.runner, "_VECTOR_BATCH", 2)
        specs = make_specs(4)
        specs[2] = ScenarioSpec(scheme=miss_scheme, n_graphs=2, seed=7)
        seen = []
        with pytest.raises(SpecFailure) as info:
            CampaignRunner(1, sim_vector=True).run(
                specs, on_result=lambda i, _r: seen.append(i)
            )
        assert info.value.exc_type == "DeadlineMissError"
        assert seen == [0, 1]


class TestRetryPolicy:
    def test_validates_once(self):
        with pytest.raises(SchedulingError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(SchedulingError, match="on_error"):
            RetryPolicy(on_error="ignore")
        with pytest.raises(SchedulingError, match="spec_timeout"):
            RetryPolicy(spec_timeout=0)

    def test_saved_report_with_retryable_key_loads(self):
        """Reports saved before ``retryable`` was dropped still load."""
        failure = {"type": "X", "message": "m", "traceback": "t"}
        saved = {
            "quarantined": [
                {
                    "index": 2,
                    "spec_hash": "h",
                    "attempts": 1,
                    "failure": dict(failure, retryable=True),
                }
            ],
            "retries": 0,
            "timeouts": 0,
        }
        report = FailureReport.from_json(saved)
        assert report.quarantined[0].failure.to_json() == failure

    def test_backstop_grace(self):
        assert RetryPolicy().backstop_grace is None
        assert RetryPolicy(spec_timeout=2.0).backstop_grace == 5.0

    def test_runners_share_the_policy_type(self, tmp_path):
        broker = DirectoryBroker(tmp_path, max_retries=2)
        try:
            assert isinstance(broker.policy, RetryPolicy)
            assert broker.policy.max_retries == 2
        finally:
            broker.close()
        assert isinstance(CampaignRunner(1).policy, RetryPolicy)


class TestMalformedErrorOutcome:
    def test_string_error_is_requeued_not_charged(self, tmp_path):
        """A bare-string ``error`` (the retired protocol-v2 shape) is a
        corrupt payload: +2 health and a requeue, never a spec failure
        (which, at the default zero budget, would abort the run)."""
        broker = DirectoryBroker(tmp_path)
        try:
            broker.submit(list(enumerate(make_specs(1))))
            payload = {
                "job": broker.job,
                "index": 0,
                "error": "boom",
                "worker": "w1",
            }
            assert broker._accept(payload) is None
            assert broker.requeued_total == 1
            assert broker.worker_health == {"w1": 2}
            assert not broker.failure_report
            assert broker.remaining == 1
        finally:
            broker.close()


class TestAccountingAcrossRunners:
    """One poison plan, three runners, identical books."""

    def test_invariant_and_identical_quarantine(self, tmp_path):
        specs = make_specs(4)
        poison(1, 3)
        dist = DistributedRunner(
            workdir=tmp_path,
            n_local_workers=2,
            poll=0.02,
            lease_timeout=2.0,
            heartbeat=0.25,
            result_timeout=HANG_TIMEOUT,
            max_retries=1,
            on_error="quarantine",
        )
        try:
            campaigns = [
                CampaignRunner(
                    1, max_retries=1, on_error="quarantine"
                ).run(specs),
                CampaignRunner(
                    2, max_retries=1, on_error="quarantine"
                ).run(specs),
                dist.run(specs),
            ]
        finally:
            dist.close()
        books = []
        for campaign in campaigns:
            assert (
                campaign.cache_hits + campaign.executed + campaign.replayed
                == len(campaign.results) + campaign.quarantined
            )
            report = campaign.failures
            books.append(
                (
                    report.quarantined_indices,
                    sorted(
                        (q.index, q.attempts, q.failure.exc_type)
                        for q in report.quarantined
                    ),
                    report.retries,
                )
            )
        assert books[0] == (
            (1, 3),
            [(1, 2, "InjectedFault"), (3, 2, "InjectedFault")],
            2,
        )
        assert books[1] == books[0]
        assert books[2] == books[0]
