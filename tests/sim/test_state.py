"""Unit tests for job state and scheduler views."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.sim.state import GraphStatus, JobState, SchedulerView
from repro.taskgraph.graph import TaskGraph, TaskNode
from repro.taskgraph.periodic import PeriodicTaskGraph, TaskGraphSet


def make_job(diamond, period=20.0, frac=0.5, release=0.0):
    ptg = PeriodicTaskGraph(diamond, period)
    actual = {n.name: n.wcet * frac for n in diamond}
    return JobState(ptg, 0, release, actual)


class TestJobState:
    def test_deadline(self, diamond):
        job = make_job(diamond, period=20.0, release=5.0)
        assert job.abs_deadline == pytest.approx(25.0)

    def test_rejects_missing_actual(self, diamond):
        ptg = PeriodicTaskGraph(diamond, 20.0)
        with pytest.raises(SchedulingError, match="no actual"):
            JobState(ptg, 0, 0.0, {"a": 1.0})

    def test_rejects_actual_above_wcet(self, diamond):
        ptg = PeriodicTaskGraph(diamond, 20.0)
        actual = {n.name: n.wcet for n in diamond}
        actual["a"] = 99.0
        with pytest.raises(SchedulingError, match="actual"):
            JobState(ptg, 0, 0.0, actual)

    def test_validation_tolerance_scales_with_wcet(self):
        """A worst-case draw at large scale can land one ulp above the
        WCET (``wc * 1.0`` rounding in a provider).  One ulp at 1e12
        cycles is ~1.2e-4 — far beyond the old absolute 1e-12 slack,
        which rejected perfectly valid draws.  Validation slack must
        scale with the node's own magnitude, and the stored value must
        still clamp to the WCET."""
        import numpy as np

        from repro.taskgraph.graph import TaskGraph, TaskNode

        wc = 1.23e12
        ptg = PeriodicTaskGraph(
            TaskGraph("big", [TaskNode("a", wc)]), 2.0e12
        )
        ac = float(np.nextafter(wc, np.inf))
        assert ac > wc + 1e-12  # the old absolute check would raise
        job = JobState(ptg, 0, 0.0, {"a": ac})
        assert job.actual["a"] == wc  # clamped, never above the wcet

    def test_validation_tolerance_still_rejects_overshoot(self):
        """Relative slack is slack, not license: a relative overshoot
        fails at any scale, and sub-unit WCETs keep the old absolute
        tolerance."""
        from repro.taskgraph.graph import TaskGraph, TaskNode

        big = PeriodicTaskGraph(
            TaskGraph("big", [TaskNode("a", 1.23e12)]), 2.0e12
        )
        with pytest.raises(SchedulingError, match="actual"):
            JobState(big, 0, 0.0, {"a": 1.23e12 * (1.0 + 1e-9)})
        small = PeriodicTaskGraph(
            TaskGraph("small", [TaskNode("a", 0.5)]), 2.0
        )
        with pytest.raises(SchedulingError, match="actual"):
            JobState(small, 0, 0.0, {"a": 0.5 + 1e-10})

    def test_initial_remaining(self, diamond):
        job = make_job(diamond)
        assert job.remaining_wc() == pytest.approx(11.0)
        assert job.remaining_wc_coarse() == pytest.approx(11.0)
        assert job.ready_nodes() == ("a",)

    def test_advance_partial(self, diamond):
        job = make_job(diamond, frac=0.5)
        done = job.advance_node("a", 0.4)  # a actual = 1.0
        assert not done
        assert job.remaining_wc_node("a") == pytest.approx(1.6)
        assert job.remaining_ac_node("a") == pytest.approx(0.6)

    def test_advance_completes(self, diamond):
        job = make_job(diamond, frac=0.5)
        assert job.advance_node("a", 1.0)
        assert "a" in job.completed
        assert job.remaining_wc_node("a") == 0.0
        assert set(job.ready_nodes()) == {"b", "c"}

    def test_advance_completed_node_rejected(self, diamond):
        job = make_job(diamond, frac=0.5)
        job.advance_node("a", 1.0)
        with pytest.raises(SchedulingError, match="already complete"):
            job.advance_node("a", 0.1)

    def test_node_vs_graph_granularity(self, diamond):
        """After an early completion, node-granular remaining drops by
        the node's full WCET; coarse remaining only by executed cycles."""
        job = make_job(diamond, frac=0.5)
        job.advance_node("a", 1.0)  # wcet 2.0, actual 1.0
        assert job.remaining_wc() == pytest.approx(9.0)
        assert job.remaining_wc_coarse() == pytest.approx(10.0)

    def test_complete_job(self, diamond):
        job = make_job(diamond, frac=0.5)
        for node in ("a", "b", "c", "d"):
            job.advance_node(node, job.remaining_ac_node(node))
        assert job.is_complete()
        assert job.remaining_wc() == 0.0
        assert job.remaining_wc_coarse() == 0.0
        assert job.ready_nodes() == ()


class TestRemainingWcMemo:
    """``remaining_wc()`` is memoized between ``advance_node`` calls."""

    @staticmethod
    def _fresh_sum(job):
        return sum(
            job.remaining_wc_node(n)
            for n in job.graph.node_names
            if n not in job.completed
        )

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_fresh_in_order_sum(self, data):
        n = data.draw(st.integers(1, 8), label="nodes")
        wcet = st.floats(0.01, 50.0, allow_nan=False)
        nodes = [TaskNode(f"n{k}", data.draw(wcet)) for k in range(n)]
        edges = [
            (f"n{a}", f"n{b}")
            for a in range(n)
            for b in range(a + 1, n)
            if data.draw(st.booleans())
        ]
        graph = TaskGraph("g", nodes, edges)
        frac = st.floats(0.05, 1.0)
        actual = {t.name: t.wcet * data.draw(frac) for t in nodes}
        job = JobState(PeriodicTaskGraph(graph, 100.0), 0, 0.0, actual)
        while not job.is_complete():
            if data.draw(st.booleans(), label="read"):
                got, want = job.remaining_wc(), self._fresh_sum(job)
                assert float(got).hex() == float(want).hex()
            ready = job.ready_nodes()
            node = ready[data.draw(st.integers(0, len(ready) - 1))]
            share = data.draw(
                st.just(1.0) | st.floats(0.0, 1.2), label="share"
            )
            job.advance_node(node, job.actual[node] * share)
        assert job.remaining_wc() == self._fresh_sum(job) == 0


class TestSchedulerView:
    def _view(self, diamond, indep2):
        g1 = PeriodicTaskGraph(diamond, 20.0)
        g2 = PeriodicTaskGraph(indep2, 50.0)
        ts = TaskGraphSet([g1, g2])
        j1 = JobState(g1, 0, 0.0, {n.name: n.wcet for n in diamond})
        j2 = JobState(g2, 0, 0.0, {n.name: n.wcet for n in indep2})
        statuses = [
            GraphStatus(g1, j1, 20.0),
            GraphStatus(g2, j2, 50.0),
        ]
        return SchedulerView(ts, 0.0, statuses)

    def test_active_jobs_edf_order(self, diamond, indep2):
        view = self._view(diamond, indep2)
        jobs = view.active_jobs()
        assert [j.name for j in jobs] == ["diamond", "indep2"]

    def test_earliest_deadline(self, diamond, indep2):
        assert self._view(diamond, indep2).earliest_deadline() == 20.0

    def test_candidates(self, diamond, indep2):
        view = self._view(diamond, indep2)
        cands = view.candidates_of(view.active_jobs()[0])
        assert [c.node for c in cands] == ["a"]
        assert cands[0].wc_full == 2.0
        assert cands[0].label == "diamond.a"

    def test_effective_deadline_idle_graph(self, diamond):
        g1 = PeriodicTaskGraph(diamond, 20.0)
        status = GraphStatus(g1, None, 40.0)
        assert status.effective_deadline() == pytest.approx(60.0)

    def test_has_pending_work(self, diamond):
        g1 = PeriodicTaskGraph(diamond, 20.0)
        ts = TaskGraphSet([g1])
        view = SchedulerView(ts, 0.0, [GraphStatus(g1, None, 20.0)])
        assert not view.has_pending_work()
        assert view.earliest_deadline() is None
