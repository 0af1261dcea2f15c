"""Parallel, cached, deterministic execution of scenario campaigns.

:func:`run_spec` executes one spec in the calling process;
:class:`CampaignRunner` maps a spec list across a ``multiprocessing``
pool (or runs sequentially for ``n_workers=1``), consulting an optional
:class:`~repro.campaign.cache.ResultCache` first and feeding streaming
aggregators as workers finish.

Determinism
-----------
Every spec carries its own seed (assigned by the caller, typically via
:func:`~repro.campaign.spec.spawn_seeds`), every executor derives all
randomness from that seed alone, and the returned result list is in
spec order regardless of completion order — so a campaign's results
and aggregates are bit-identical between sequential and parallel
execution, across any worker count.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import faults
from ..analysis.lifetime import evaluate_lifetime, survival_scale
from ..core.oneshot import run_one_shot
from ..core.priority import LTF, PUBS, RandomPriority
from ..errors import SchedulingError
from ..exact.bounds import near_optimal_run
from ..exact.bruteforce import count_linear_extensions, optimal_one_shot
from ..sim.batch import BatchItem, ScenarioBatch
from ..sim.engine import SimulationResult, Simulator
from ..sim.profile import CurrentProfile
from ..taskgraph.graph import TaskGraph
from ..taskgraph.tgff import random_dag
from ..workloads.generator import UniformActuals, paper_task_set
from .aggregate import MetricSummary, StreamingAggregator, summarize
from .cache import ResultCache
from .failures import FailureInfo, FailureReport, RetryPolicy, spec_deadline
from .growth import GrowableRunnerMixin
from .registry import (
    NEAR_OPTIMAL,
    build_scheme,
    install_plugins,
    plugin_snapshot,
    resolve_battery,
    resolve_estimator,
    resolve_processor,
)
from .spec import (
    ConstantLoadSpec,
    OneShotSpec,
    ScenarioResult,
    ScenarioSpec,
    Spec,
    SurvivalSpec,
    is_cacheable,
)

__all__ = [
    "run_spec",
    "run_scenario_batch",
    "CampaignRunner",
    "CampaignResult",
    "sample_bounded_dag",
    "OracleEstimator",
]

from ..core.estimator import OracleEstimator  # re-export for one-shot users

#: Scenario specs per :class:`~repro.sim.batch.ScenarioBatch` when
#: ``CampaignRunner(sim_vector=True)`` batches periodic scenarios; the
#: vector engine only pays off on wide batches.
_VECTOR_BATCH = 256


# ----------------------------------------------------------------------
# Executors (one per spec kind) — pure functions of the spec
# ----------------------------------------------------------------------
def _build_scenario_sim(spec: ScenarioSpec) -> Tuple[Simulator, float]:
    """The simulator + horizon a scenario spec describes."""
    processor = resolve_processor(spec.processor)
    task_set = paper_task_set(
        spec.n_graphs,
        utilization=spec.utilization,
        n_tasks_range=spec.n_tasks_range,
        edge_prob=spec.edge_prob,
        wcet_range=spec.wcet_range,
        seed=spec.seed,
    )
    actuals = UniformActuals(
        low=spec.actual_low, high=spec.actual_high, seed=spec.seed
    )
    horizon = (
        spec.horizon if spec.horizon is not None else task_set.hyperperiod()
    )
    scheme = build_scheme(spec.scheme, resolve_estimator(spec.estimator))
    dvs, policy = scheme.instantiate()
    sim = Simulator(
        task_set, processor, dvs, policy,
        actuals=actuals, on_miss=spec.on_miss,
    )
    return sim, horizon


def _simulate(spec: ScenarioSpec) -> SimulationResult:
    if spec.scheme == NEAR_OPTIMAL:
        processor = resolve_processor(spec.processor)
        task_set = paper_task_set(
            spec.n_graphs,
            utilization=spec.utilization,
            n_tasks_range=spec.n_tasks_range,
            edge_prob=spec.edge_prob,
            wcet_range=spec.wcet_range,
            seed=spec.seed,
        )
        actuals = UniformActuals(
            low=spec.actual_low, high=spec.actual_high, seed=spec.seed
        )
        horizon = (
            spec.horizon
            if spec.horizon is not None
            else task_set.hyperperiod()
        )
        return near_optimal_run(task_set, processor, horizon, actuals=actuals)
    sim, horizon = _build_scenario_sim(spec)
    return sim.run(horizon)


def _scenario_battery(spec: ScenarioSpec):
    """The battery cell a scenario spec asks for, or ``None``."""
    if spec.battery is None:
        return None
    seed = spec.battery_seed if spec.battery_seed is not None else spec.seed
    return resolve_battery(spec.battery, seed)


def _scenario_metrics(
    spec: ScenarioSpec,
    res: SimulationResult,
    profile: CurrentProfile,
    battery_run,
) -> Dict[str, float]:
    metrics: Dict[str, float] = {
        "energy_j": float(res.energy),
        "charge_c": float(res.charge),
        "mean_current_a": float(res.mean_current),
        "peak_current_a": float(profile.peak_current),
        "busy_s": float(res.trace.busy_time()),
        "misses": float(len(res.misses)),
        "released_jobs": float(res.released_jobs),
        "completed_jobs": float(res.completed_jobs),
        "completed_nodes": float(res.completed_nodes),
    }
    if battery_run is not None:
        metrics["lifetime_min"] = float(battery_run.lifetime_minutes)
        metrics["delivered_mah"] = float(battery_run.delivered_mah)
    return metrics


def _run_periodic(spec: ScenarioSpec) -> ScenarioResult:
    res = _simulate(spec)
    profile = res.profile()
    cell = _scenario_battery(spec)
    battery_run = None
    if cell is not None:
        battery_run = evaluate_lifetime(res, cell, rebin=spec.rebin).run
    return ScenarioResult(
        spec=spec, metrics=_scenario_metrics(spec, res, profile, battery_run)
    )


def run_scenario_batch(
    items: Sequence[Tuple[int, ScenarioSpec]],
    *,
    stats: Optional[Dict[str, int]] = None,
) -> List[Tuple[int, ScenarioResult]]:
    """Execute several scenario specs through one :class:`ScenarioBatch`.

    Bitwise metric-identical to running each spec through
    :func:`run_spec` — the batch only changes *how* the work is driven
    (the struct-of-arrays :class:`~repro.sim.vector.VectorEngine`,
    which advances every array-expressible scenario lock-step and
    falls back per scenario to the scalar engine otherwise, plus a
    single columnar battery hand-off), never what a scenario computes.

    ``stats``, when given a dict, receives execution telemetry from
    the batch (currently ``numeric_demotions``: scenarios the vector
    engine demoted to the scalar path after detecting a non-finite
    hot-path output).
    """
    batch = ScenarioBatch(
        [
            BatchItem(
                *_build_scenario_sim(spec),
                battery=_scenario_battery(spec),
                rebin=spec.rebin,
            )
            for _, spec in items
        ]
    )
    outcomes = batch.run()
    if stats is not None:
        stats.update(batch.last_stats)
    return [
        (
            index,
            ScenarioResult(
                spec=spec,
                metrics=_scenario_metrics(
                    spec, out.result, out.profile, out.battery_run
                ),
            ),
        )
        for (index, spec), out in zip(items, outcomes)
    ]


def sample_bounded_dag(
    n: int,
    rng: np.random.Generator,
    *,
    edge_prob: float,
    max_extensions: int,
    attempts: int = 50,
) -> TaskGraph:
    """A random DAG whose linear-extension count stays searchable."""
    for _ in range(attempts):
        g = random_dag(n, edge_prob=edge_prob, rng=rng)
        extensions = count_linear_extensions(g, limit=max_extensions + 1)
        if extensions <= max_extensions:
            return g
        # Densify: more edges => fewer linear extensions.
        edge_prob = min(1.0, edge_prob + 0.1)
    raise SchedulingError(
        f"could not sample a {n}-task DAG with <= {max_extensions} "
        f"linear extensions in {attempts} attempts"
    )


def _run_oneshot(spec: OneShotSpec) -> ScenarioResult:
    processor = resolve_processor(spec.processor)
    rng = np.random.default_rng(spec.seed)
    graph = sample_bounded_dag(
        spec.n_tasks,
        rng,
        edge_prob=spec.edge_prob,
        max_extensions=spec.max_extensions,
    )
    actual = {
        node.name: node.wcet * rng.uniform(spec.actual_low, spec.actual_high)
        for node in graph
    }
    deadline = graph.total_wcet / spec.utilization
    opt = optimal_one_shot(
        graph, deadline, processor, actual,
        max_extensions=spec.max_extensions,
    )
    if opt.energy <= 0:
        raise SchedulingError("optimal energy must be positive")
    random_energy = float(
        np.mean(
            [
                run_one_shot(
                    graph, deadline, processor,
                    RandomPriority(int(rng.integers(1 << 31))), actual,
                ).energy
                for _ in range(spec.n_random)
            ]
        )
    )
    ltf_energy = run_one_shot(graph, deadline, processor, LTF(), actual).energy
    pubs_energy = run_one_shot(
        graph, deadline, processor, PUBS(OracleEstimator()), actual
    ).energy
    return ScenarioResult(
        spec=spec,
        metrics={
            "random": random_energy / opt.energy,
            "ltf": ltf_energy / opt.energy,
            "pubs": pubs_energy / opt.energy,
            "optimal_energy_j": float(opt.energy),
        },
    )


def _run_survival(spec: SurvivalSpec) -> ScenarioResult:
    cell = resolve_battery(spec.battery, spec.battery_seed)
    profile = CurrentProfile(
        np.asarray(spec.durations, dtype=float),
        np.asarray(spec.currents, dtype=float),
    )
    scale = survival_scale(
        cell, profile, lo=spec.lo, hi=spec.hi, iters=spec.iters
    )
    return ScenarioResult(spec=spec, metrics={"survival_scale": float(scale)})


def _run_constant(spec: ConstantLoadSpec) -> ScenarioResult:
    cell = resolve_battery(spec.battery, spec.battery_seed)
    run = cell.lifetime_constant(
        float(spec.current), max_time=spec.max_time
    )
    return ScenarioResult(
        spec=spec,
        metrics={
            "delivered_c": float(run.delivered_charge),
            "lifetime_s": float(run.lifetime),
        },
    )


def run_spec(spec: Spec) -> ScenarioResult:
    """Execute one spec in the calling process."""
    if isinstance(spec, ScenarioSpec):
        return _run_periodic(spec)
    if isinstance(spec, OneShotSpec):
        return _run_oneshot(spec)
    if isinstance(spec, SurvivalSpec):
        return _run_survival(spec)
    if isinstance(spec, ConstantLoadSpec):
        return _run_constant(spec)
    raise SchedulingError(f"unknown spec type {type(spec).__name__}")


def _batch_worker(
    items: Tuple[Tuple[int, ScenarioSpec], ...],
) -> Tuple[List[Tuple[int, ScenarioResult]], Dict[str, int]]:
    """One vector batch: ``(index, result)`` pairs plus its telemetry."""
    stats: Dict[str, int] = {}
    pairs = run_scenario_batch(list(items), stats=stats)
    return pairs, stats


#: ``(index, work, timeout, delay)`` for :func:`execute_guarded`:
#: ``work`` is a spec, or a vector batch's ``(index, spec)`` pairs.
Unit = Tuple[int, Union[Spec, tuple], Optional[float], float]


def execute_guarded(
    unit: Unit,
) -> Tuple[
    int,
    List[Tuple[int, ScenarioResult]],
    Dict[str, int],
    Optional[FailureInfo],
]:
    """Execute one unit under fault containment; every runner's executor.

    The unit runs inside the :func:`spec_deadline` watchdog after the
    ``spec.execute`` fault point; an exception comes back as a
    :class:`FailureInfo` value, so none crosses a process boundary.
    Returns ``(index, pairs, stats, failure)``: the unit's ``(index,
    result)`` pairs (empty on failure) and a batch's telemetry.  A
    retry sleeps its backoff here, so waits overlap across workers.
    """
    index, work, timeout, delay = unit
    if delay > 0:
        time.sleep(delay)
    try:
        with spec_deadline(timeout, what=f"spec {index}"):
            faults.fire("spec.execute", index)
            if isinstance(work, tuple):
                pairs, stats = _batch_worker(work)
                return index, pairs, stats, None
            return index, [(index, run_spec(work))], {}, None
    except Exception as exc:  # noqa: BLE001 - containment boundary
        return index, [], {}, FailureInfo.from_exception(exc)


def _pool_init(snapshot, fault_plan_json: Optional[str]) -> None:
    """Pool initializer: replay plugins and arm the fault plan."""
    install_plugins(snapshot)
    if fault_plan_json:
        plan = faults.FaultPlan.from_json(json.loads(fault_plan_json))
        faults.install(plan)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Results of one campaign run, in spec order.

    ``cache_hits`` counts results served from the on-disk cache;
    ``executed`` counts specs actually run (by a pool worker, the
    calling process, or a distributed fleet); ``replayed`` counts
    results a resuming distributed broker recovered from its ledger
    instead of re-running.  The three sum to ``len(results)`` for a
    plain :meth:`CampaignRunner.run`, while an
    :meth:`~repro.campaign.growth.GrowableRunnerMixin.extend` reports
    the suffix run's counts next to the full merged result list.

    ``requeued`` and ``stolen`` are distributed-backend fault/balance
    telemetry: work units returned to the queue after a lease expired
    or a worker connection died, and chunk tasks reassigned from a
    busy worker to an idle one.  Both are zero on the local runner.

    ``retried`` counts re-executions charged against per-spec retry
    budgets; ``quarantined`` counts specs abandoned after exhausting
    theirs (details in ``failures``, a
    :class:`~repro.campaign.failures.FailureReport` when any fault
    containment happened, ``None`` on a clean default run);
    ``demoted`` counts scenarios the numeric guardrails demoted from
    the vector engine to the scalar path.  Quarantined specs are
    absent from ``results`` (per-metric columns align with the
    surviving specs only), and every spec is accounted for exactly
    once: ``cache_hits + executed + replayed == len(results) +
    quarantined`` on every runner.
    """

    results: List[ScenarioResult]
    wall_time_s: float
    n_workers: int
    cache_hits: int
    executed: int = 0
    replayed: int = 0
    requeued: int = 0
    stolen: int = 0
    retried: int = 0
    quarantined: int = 0
    demoted: int = 0
    failures: Optional[FailureReport] = None

    def __len__(self) -> int:
        return len(self.results)

    @property
    def telemetry(self) -> Dict[str, int]:
        """Structured execution counters (JSON-ready)."""
        return {
            "scenarios": len(self.results),
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "replayed": self.replayed,
            "requeued": self.requeued,
            "stolen": self.stolen,
            "retried": self.retried,
            "quarantined": self.quarantined,
            "demoted": self.demoted,
        }

    def metrics(self, name: str) -> Tuple[float, ...]:
        """One metric across all scenarios, in spec order."""
        return tuple(r.metrics[name] for r in self.results)

    def summary(self, **kwargs) -> Dict[str, Dict[str, MetricSummary]]:
        """Deterministic aggregate statistics (see
        :func:`repro.campaign.aggregate.summarize`)."""
        return summarize(self.results, **kwargs)


OnResult = Callable[[int, ScenarioResult], None]


class CampaignRunner(GrowableRunnerMixin):
    """Executes spec lists, optionally in parallel and cached.

    Every spec runs through :func:`execute_guarded`, and failures are
    charged to one :class:`~repro.campaign.failures.RetryPolicy`; the
    default knobs are a zero retry budget on that same path.

    Parameters
    ----------
    n_workers:
        1 runs in-process; >1 uses a ``multiprocessing`` pool (``fork``
        start method where available, so ad-hoc registry entries are
        inherited by workers).
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely and
        fresh results are stored back.
    chunksize:
        Scenarios per pool task (larger amortizes IPC for very short
        scenarios).
    start_method:
        Explicit ``multiprocessing`` start method (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` keeps the platform
        preference (fork on Linux).  Declaratively-registered plugins
        (:func:`repro.campaign.registry.register_plugin`) work under
        every start method — the pool initializer replays the plugin
        snapshot in each worker — while live-object ad-hoc entries
        still need ``fork`` to be inherited.
    sim_vector:
        Groups periodic scenarios into batches of 256 and routes each
        through the struct-of-arrays vector engine
        (:class:`~repro.sim.vector.VectorEngine`), advancing all
        array-expressible scenarios of a batch in lock-step numpy
        passes and falling back per scenario to the scalar engine
        otherwise; the battery side gets one columnar hand-off per
        batch.  Results are bit-identical to the per-spec path.  Every
        Table 2 scheme (EDF through BAS-2, stochastic actuals
        included) is array-expressible, so paper campaigns vectorize
        with zero fallbacks.  Batches go out only at the default knobs
        below with no :mod:`repro.faults` plan armed; a batch that
        raises re-runs as uncharged singles in the next round.
    max_retries:
        Failed specs are re-executed up to this many times before the
        ``on_error`` policy applies.  Retries back off with
        deterministic seeded exponential delays
        (:func:`~repro.campaign.failures.backoff_delay`).
    spec_timeout:
        Wall-clock seconds one spec may execute before the watchdog
        interrupts it with a :class:`~repro.errors.SpecTimeout`
        (``None`` disables).
    on_error:
        ``"raise"`` (default) raises the first failure that exhausts
        its retry budget as a :class:`~repro.errors.SpecFailure`
        naming the original exception type, message and traceback.
        ``"quarantine"`` records it in the result's
        :class:`~repro.campaign.failures.FailureReport` instead and
        lets the campaign complete with partial results.
    """

    def __init__(
        self,
        n_workers: int = 1,
        *,
        cache: Optional[ResultCache] = None,
        chunksize: int = 1,
        start_method: Optional[str] = None,
        sim_vector: bool = False,
        max_retries: int = 0,
        spec_timeout: Optional[float] = None,
        on_error: str = "raise",
    ) -> None:
        if n_workers < 1:
            raise SchedulingError(f"n_workers must be >= 1, got {n_workers}")
        if chunksize < 1:
            raise SchedulingError(f"chunksize must be >= 1, got {chunksize}")
        self.policy = RetryPolicy(max_retries, on_error, spec_timeout)
        if start_method is not None:
            known = multiprocessing.get_all_start_methods()
            if start_method not in known:
                raise SchedulingError(
                    f"start_method {start_method!r} unavailable on this "
                    f"platform; known: {known}"
                )
        self.n_workers = int(n_workers)
        self.cache = cache
        self.chunksize = int(chunksize)
        self.start_method = start_method
        self.sim_vector = bool(sim_vector)

    # ------------------------------------------------------------------
    def run(
        self,
        specs: Sequence[Spec],
        *,
        on_result: Optional[OnResult] = None,
        aggregators: Sequence[StreamingAggregator] = (),
    ) -> CampaignResult:
        """Execute ``specs``; results come back in spec order.

        ``on_result`` and ``aggregators`` are fed each ``(index,
        result)`` as it becomes available (cache hits first, then
        worker completions in arrival order) — aggregates are still
        deterministic because :class:`StreamingAggregator` summarizes
        in index order.

        Execution is round-based: every spec still owed an attempt
        runs (in parallel) with its backoff delay attached, failures
        are charged to the policy, and the retries seed the next
        round.  Deterministic for a given (spec list, seed set,
        failure pattern): retry order is index order and every
        backoff is a pure function of (spec seed, attempt).
        """
        # repro: noqa[DET002] -- wall-time telemetry bracket; the
        # value lands only in CampaignResult.wall_time_s
        start = time.perf_counter()
        results: List[Optional[ScenarioResult]] = [None] * len(specs)
        cache_hits = 0

        def emit(index: int, result: ScenarioResult) -> None:
            results[index] = result
            for agg in aggregators:
                agg.add(index, result)
            if on_result is not None:
                on_result(index, result)

        pending: List[int] = []
        for index, spec in enumerate(specs):
            # Ad-hoc (@-named) specs bypass the cache entirely: their
            # name -> factory binding is process-local, so a persisted
            # entry could answer for a different factory next session.
            hit = (
                self.cache.get(spec)
                if self.cache is not None and is_cacheable(spec)
                else None
            )
            if hit is not None:
                cache_hits += 1
                emit(index, hit)
            else:
                pending.append(index)

        policy = self.policy
        policy.begin()
        vector = (
            self.sim_vector
            and policy.is_default
            and faults.active_plan() is None
        )
        demoted = 0
        queue: List[Tuple[int, float]] = [(i, 0.0) for i in pending]
        while queue:
            units, batches = self._units(specs, queue, vector)
            vector = False  # split batches re-run as singles
            retry: List[Tuple[int, float]] = []
            for index, pairs, stats, failure in self._execute(units):
                demoted += int(stats.get("numeric_demotions", 0))
                for i, result in pairs:
                    if self.cache is not None and is_cacheable(result.spec):
                        self.cache.put(result)
                    emit(i, result)
                if failure is None:
                    continue
                if index in batches:
                    retry.extend((i, 0.0) for i in batches[index])
                    continue
                delay = policy.charge(index, specs[index], failure)
                if delay is not None:
                    retry.append((index, delay))
            queue = sorted(retry)

        report = policy.report
        return CampaignResult(
            results=[r for r in results if r is not None],
            # repro: noqa[DET002] -- telemetry field only
            wall_time_s=time.perf_counter() - start,
            n_workers=self.n_workers,
            cache_hits=cache_hits,
            executed=len(pending),
            retried=report.retries,
            quarantined=len(report.quarantined),
            demoted=demoted,
            failures=report if report else None,
        )

    def _units(
        self,
        specs: Sequence[Spec],
        queue: List[Tuple[int, float]],
        vector: bool,
    ) -> Tuple[List[Unit], Dict[int, Tuple[int, ...]]]:
        """One round's units (``vector``: periodic scenarios batched
        after the singles), plus each batch's members by lead index."""
        timeout = self.policy.spec_timeout
        batched = [
            i
            for i, _ in queue
            if vector
            and isinstance(specs[i], ScenarioSpec)
            and specs[i].scheme != NEAR_OPTIMAL
        ]
        in_batch = set(batched)
        units: List[Unit] = [
            (i, specs[i], timeout, delay)
            for i, delay in queue
            if i not in in_batch
        ]
        batches: Dict[int, Tuple[int, ...]] = {}
        for k in range(0, len(batched), _VECTOR_BATCH):
            group = tuple(batched[k:k + _VECTOR_BATCH])
            batches[group[0]] = group
            units.append(
                (group[0], tuple((i, specs[i]) for i in group), timeout, 0.0)
            )
        return units, batches

    # ------------------------------------------------------------------
    def _execute(self, units: List[Unit]):
        if self.n_workers == 1 or len(units) == 1:
            for unit in units:
                yield execute_guarded(unit)
            return
        if self.start_method is not None:
            ctx = multiprocessing.get_context(self.start_method)
        else:
            # Prefer fork only on Linux: it is the platform default
            # there and lets workers inherit ad-hoc registry entries.
            # macOS has fork available but deliberately defaults to
            # spawn (fork is unsafe with threaded frameworks), so
            # respect the platform default elsewhere.
            methods = multiprocessing.get_all_start_methods()
            use_fork = sys.platform.startswith("linux") and "fork" in methods
            ctx = multiprocessing.get_context("fork" if use_fork else None)
        workers = min(self.n_workers, len(units))
        # Replaying the declarative-plugin snapshot in every worker
        # makes custom registered entries visible under spawn (and
        # forkserver), not just fork inheritance.
        with ctx.Pool(
            processes=workers,
            initializer=_pool_init,
            initargs=(plugin_snapshot(), faults.plan_snapshot()),
        ) as pool:
            yield from pool.imap_unordered(
                execute_guarded, units, chunksize=self.chunksize
            )
