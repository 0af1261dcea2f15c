"""Worked examples that are not sweeps, plus the one-window helper.

``fig4`` and ``fig5`` reproduce the paper's two motivational traces
(two fixed schedules each); there is nothing for a campaign to
parallelize or cache, so they run directly.  Every sweep-shaped
experiment — Tables 1-2, Figure 6, the rate-capacity and coherence
sweeps, the ablations — is a builtin plan in :mod:`repro.api.plans`::

    from repro.api import Study, plans
    res = Study(plans.table2_plan(n_sets=100), workers=8).run()
    table2_result = res.adapted()     # the Table2Result dataclass
    res.frame.to_csv("table2.csv")    # or work with the typed frame
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..core.methodology import Scheme, SchedulingPolicy
from ..core.oneshot import run_one_shot
from ..core.priority import LTF, STF, PriorityFunction
from ..core.ready_list import ALL_RELEASED, MOST_IMMINENT
from ..dvs import CcEDF
from ..processor.platform import Processor, paper_processor
from ..sim.engine import SimulationResult, Simulator
from ..workloads.presets import fig4_cases, fig4_pair, fig5_actuals, fig5_set
from .tables import format_table

__all__ = ["run_scheme", "fig4", "Fig4Result", "fig5", "Fig5Result"]


def run_scheme(
    scheme: Scheme,
    task_set,
    processor: Processor,
    actuals,
    horizon: float,
    *,
    on_miss: str = "raise",
) -> SimulationResult:
    """Instantiate a scheme freshly and simulate one window."""
    dvs, policy = scheme.instantiate()
    sim = Simulator(
        task_set, processor, dvs, policy, actuals=actuals, on_miss=on_miss
    )
    return sim.run(horizon)


# ----------------------------------------------------------------------
# Figure 4 — LTF vs STF motivational example
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig4Result:
    """Energy of LTF vs STF on the two-task example, both cases."""

    energies: Dict[str, Dict[str, float]]  # case -> heuristic -> energy
    traces: Dict[str, Dict[str, str]]  # case -> heuristic -> ascii trace

    def winner(self, case: str) -> str:
        e = self.energies[case]
        return min(e, key=e.get)

    def format(self) -> str:
        rows = []
        for case in sorted(self.energies):
            e = self.energies[case]
            rows.append([case, e["LTF"], e["STF"], self.winner(case)])
        return format_table(
            ["case", "E(LTF)", "E(STF)", "winner"],
            rows,
            title="Figure 4 — execution order affects slack recovery",
            precision=4,
        )


def fig4(*, processor: Optional[Processor] = None) -> Fig4Result:
    """Reproduce Figure 4: STF wins case 1, LTF wins case 2."""
    proc = processor if processor is not None else paper_processor()
    graph = fig4_pair()
    deadline = 10.0
    energies: Dict[str, Dict[str, float]] = {}
    traces: Dict[str, Dict[str, str]] = {}
    for case, actual in fig4_cases().items():
        energies[case] = {}
        traces[case] = {}
        for name, prio in (("LTF", LTF()), ("STF", STF())):
            res = run_one_shot(graph, deadline, proc, prio, actual)
            energies[case][name] = res.energy
            traces[case][name] = res.trace.render_ascii(until=deadline)
    return Fig4Result(energies=energies, traces=traces)


# ----------------------------------------------------------------------
# Figure 5 — canonical EDF vs pUBS + feasibility-check trace
# ----------------------------------------------------------------------
class _FixedGraphPriority(PriorityFunction):
    """Prefers tasks of graphs in a fixed order (the paper's assumed
    'taskgraph3 > taskgraph2 > taskgraph1' pUBS outcome)."""

    name = "fixed"

    def __init__(self, graph_order: Sequence[str]) -> None:
        self._rank = {g: i for i, g in enumerate(graph_order)}

    def order(self, candidates, oracle):
        return sorted(
            candidates,
            key=lambda c: (
                self._rank.get(c.graph_name, len(self._rank)),
                c.node,
            ),
        )


class _EDFPriority(PriorityFunction):
    """Canonical EDF: earliest absolute deadline first, stable within."""

    name = "EDF"

    def order(self, candidates, oracle):
        return sorted(
            candidates, key=lambda c: (c.deadline, c.graph_name, c.node)
        )


@dataclass(frozen=True)
class Fig5Result:
    edf_trace: str
    bas_trace: str
    edf_order: Tuple[str, ...]
    bas_order: Tuple[str, ...]
    edf_misses: int
    bas_misses: int

    def format(self) -> str:
        return (
            "Figure 5(a) — canonical EDF ordering (fref = 0.5 fmax):\n"
            f"{self.edf_trace}\n"
            f"completion order: {', '.join(self.edf_order)}\n\n"
            "Figure 5(b) — pUBS-preferred ordering with feasibility "
            "check:\n"
            f"{self.bas_trace}\n"
            f"completion order: {', '.join(self.bas_order)}\n\n"
            f"deadline misses: EDF={self.edf_misses}, BAS={self.bas_misses}"
        )


def fig5(*, processor: Optional[Processor] = None) -> Fig5Result:
    """Reproduce the Figure 5 trace example (horizon = 100 = D3).

    Both runs use ccEDF (U = 0.5 and every task takes its worst case,
    so fref is pinned at 0.5 fmax exactly as the paper states); the
    BAS run prefers T3 > T2 > T1 per the paper's assumed pUBS values
    and relies on the feasibility check to stay deadline-safe.
    """
    proc = processor if processor is not None else paper_processor()
    task_set = fig5_set()

    edf_sim = Simulator(
        task_set,
        proc,
        CcEDF(),
        SchedulingPolicy(_EDFPriority(), MOST_IMMINENT),
        actuals=fig5_actuals,
    )
    edf_res = edf_sim.run(100.0)

    bas_sim = Simulator(
        task_set,
        proc,
        CcEDF(),
        SchedulingPolicy(
            _FixedGraphPriority(["T3", "T2", "T1"]), ALL_RELEASED
        ),
        actuals=fig5_actuals,
    )
    bas_res = bas_sim.run(100.0)

    return Fig5Result(
        edf_trace=edf_res.trace.render_ascii(until=100.0),
        bas_trace=bas_res.trace.render_ascii(until=100.0),
        edf_order=edf_res.trace.node_order(),
        bas_order=bas_res.trace.node_order(),
        edf_misses=len(edf_res.misses),
        bas_misses=len(bas_res.misses),
    )
