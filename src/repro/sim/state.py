"""Runtime state of periodic task-graph jobs, and the scheduler view.

The simulator owns mutable :class:`JobState` objects (one per released,
possibly in-progress job).  DVS algorithms and priority functions see
them through the read-only :class:`SchedulerView`, which is also what
makes the methodology pluggable: any frequency setter / priority
function works against this one interface (§4's "can be used with
little or no changes with any frequency setting algorithm and any
priority function").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

from ..errors import SchedulingError
from ..taskgraph.periodic import PeriodicTaskGraph, TaskGraphSet

__all__ = ["JobState", "GraphStatus", "SchedulerView", "Candidate"]


def _actual_tol(wc: float) -> float:
    """Validation slack for comparing actual cycles against a WCET.

    Relative to the node's own scale: an absolute 1e-12 slack is below
    one ulp once WCETs reach ~1e12 cycles, rejecting valid worst-case
    draws (``ac == wc`` after rounding).  The floor keeps sub-unit
    WCETs on the old absolute tolerance.
    """
    return 1e-12 * max(1.0, abs(wc))


class JobState:
    """One released job (instance) of a periodic task graph.

    Tracks per-node actual cycle demands (drawn at release by the
    workload's actual-computation provider), executed cycles, and the
    completed set.  Cycles are normalized: 1 cycle = 1 second at f_max.
    """

    def __init__(
        self,
        ptg: PeriodicTaskGraph,
        job_index: int,
        release: float,
        actual: Mapping[str, float],
    ) -> None:
        self.ptg = ptg
        self.job_index = job_index
        self.release = release
        self.abs_deadline = release + ptg.deadline
        graph = ptg.graph
        self.actual: Dict[str, float] = {}
        for name in graph.node_names:
            try:
                ac = float(actual[name])
            except KeyError:
                raise SchedulingError(
                    f"job of {ptg.name!r}: no actual cycles for node {name!r}"
                ) from None
            wc = graph.wcet(name)
            if not (0 < ac <= wc + _actual_tol(wc)):
                raise SchedulingError(
                    f"job of {ptg.name!r}: actual cycles {ac!r} of node "
                    f"{name!r} must be in (0, wcet={wc!r}]"
                )
            self.actual[name] = min(ac, wc)
        self.executed: Dict[str, float] = {n: 0.0 for n in graph.node_names}
        self.completed: Set[str] = set()
        # remaining_wc() memo; advance_node() clears it.
        self._remaining_wc: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.ptg.name

    @property
    def graph(self):
        return self.ptg.graph

    def is_complete(self) -> bool:
        return len(self.completed) == len(self.graph)

    def remaining_wc_node(self, node: str) -> float:
        """Worst-case cycles the node may still need."""
        if node in self.completed:
            return 0.0
        return max(0.0, self.graph.wcet(node) - self.executed[node])

    def remaining_ac_node(self, node: str) -> float:
        """Actual cycles the node still needs (simulator's ground truth)."""
        if node in self.completed:
            return 0.0
        return max(0.0, self.actual[node] - self.executed[node])

    def remaining_wc(self) -> float:
        """Remaining worst-case work of the whole job (the DVS ``c_left``).

        Node-granular: a node that completed below its WCET contributes
        nothing — its slack is visible immediately (the paper's
        Algorithm 1 / BAS view).  Memoized until the job next runs.
        """
        if self._remaining_wc is None:
            # repro: noqa[DET004] -- node_names is the graph's frozen
            # topological order; sum order is part of the trace contract
            self._remaining_wc = sum(
                self.remaining_wc_node(n)
                for n in self.graph.node_names
                if n not in self.completed
            )
        return self._remaining_wc

    def remaining_wc_coarse(self) -> float:
        """Graph-granular remaining worst case: WCET sum minus executed
        cycles, ignoring node boundaries.

        This is what a task-level DVS algorithm sees when the whole
        graph is presented to it as one monolithic EDF task (the
        baseline ccEDF/laEDF rows of Table 2): a node finishing early
        releases no slack until the *instance* completes, because the
        scheduler cannot observe node completions.
        """
        if self.is_complete():
            return 0.0
        # repro: noqa[DET004] -- executed is insertion-ordered by
        # first execution; the golden traces pin that order
        executed = sum(self.executed.values())
        return max(0.0, self.graph.total_wcet - executed)

    def ready_nodes(self) -> Tuple[str, ...]:
        """Incomplete nodes whose predecessors have all completed."""
        return self.graph.ready_after(self.completed)

    def advance_node(self, node: str, cycles: float) -> bool:
        """Execute ``cycles`` on ``node``; returns True if it completed."""
        if node in self.completed:
            raise SchedulingError(
                f"job of {self.name!r}: node {node!r} already complete"
            )
        self._remaining_wc = None
        self.executed[node] += cycles
        if self.executed[node] >= self.actual[node] - 1e-9:
            self.executed[node] = self.actual[node]
            self.completed.add(node)
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobState({self.name!r}#{self.job_index}, "
            f"done={len(self.completed)}/{len(self.graph)}, "
            f"deadline={self.abs_deadline:.6g})"
        )


@dataclass(frozen=True)
class GraphStatus:
    """Per-graph scheduling status exposed to DVS algorithms.

    ``job`` is the currently released *incomplete* job, or ``None`` if
    the graph's last job finished (or it has not been released yet);
    ``next_release`` is the next release instant either way.
    """

    ptg: PeriodicTaskGraph
    job: Optional[JobState]
    next_release: float

    @property
    def name(self) -> str:
        return self.ptg.name

    def effective_deadline(self) -> float:
        """The job's deadline, or the *next* job's deadline if idle.

        This is what laEDF's lookahead reserves capacity against for
        graphs whose current instance already finished.
        """
        if self.job is not None:
            return self.job.abs_deadline
        return self.next_release + self.ptg.deadline


@dataclass(frozen=True)
class Candidate:
    """A schedulable (job, node) pair offered to the priority function.

    Attributes
    ----------
    job, node:
        The ready task.
    wc_full:
        The node's full WCET (cycles).
    wc_remaining:
        Worst-case cycles still to run (WCET minus executed).
    executed:
        Cycles already run on this node (non-zero after preemption).
    actual_remaining:
        Ground-truth remaining cycles — available to the
        :class:`~repro.core.estimator.OracleEstimator` only; honest
        estimators must not read it.
    """

    job: JobState
    node: str
    wc_full: float
    wc_remaining: float
    executed: float
    actual_remaining: float

    @property
    def graph_name(self) -> str:
        return self.job.name

    @property
    def label(self) -> str:
        return f"{self.job.name}.{self.node}"

    @property
    def deadline(self) -> float:
        return self.job.abs_deadline


class SchedulerView:
    """Read-only snapshot the scheduler stack works against."""

    def __init__(
        self,
        task_set: TaskGraphSet,
        time: float,
        statuses: Sequence[GraphStatus],
    ) -> None:
        self.task_set = task_set
        self.time = float(time)
        self.graphs: Tuple[GraphStatus, ...] = tuple(statuses)

    def active_jobs(self) -> Tuple[JobState, ...]:
        """Released incomplete jobs in EDF order (deadline, then name)."""
        jobs = [g.job for g in self.graphs if g.job is not None]
        return tuple(sorted(jobs, key=lambda j: (j.abs_deadline, j.name)))

    def has_pending_work(self) -> bool:
        return any(g.job is not None for g in self.graphs)

    def earliest_deadline(self) -> Optional[float]:
        jobs = self.active_jobs()
        return jobs[0].abs_deadline if jobs else None

    def candidates_of(self, job: JobState) -> Tuple[Candidate, ...]:
        out = []
        for node in job.ready_nodes():
            out.append(
                Candidate(
                    job=job,
                    node=node,
                    wc_full=job.graph.wcet(node),
                    wc_remaining=job.remaining_wc_node(node),
                    executed=job.executed[node],
                    actual_remaining=job.remaining_ac_node(node),
                )
            )
        return tuple(out)
