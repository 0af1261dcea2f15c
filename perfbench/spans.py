"""In-memory spans recorded from outside the program under test.

:func:`instrument` replaces public functions and methods of each
``repro`` layer with thin wrappers that open a span, call through and
update exact counters.  Nothing in ``src/`` changes: the wrappers are
installed on module and class attributes after import and removed by
the returned ``restore`` callable.

Attribution rules:

* A span's *self time* is its duration minus the durations of its
  direct children.  Spans nest strictly (one thread, one process), so
  the children never overlap and self times telescope: the self times
  of all spans sum to the summed durations of the top-level spans.
* A span opened inside an ``exact`` span is charged to ``exact``
  (``exact.near_optimal_run`` drives its own ``Simulator``), and its
  counters are not incremented.
* ``unattributed`` is the traced wall time not covered by any
  top-level span.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers whose descendants are charged to them, not to their own layer.
ABSORBING = ("exact",)


class Span:
    __slots__ = ("layer", "start", "end", "parent", "child_s", "absorbed")

    def __init__(self, layer: str, start: float, parent: int,
                 absorbed: bool) -> None:
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.absorbed = absorbed

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans and counters, kept in memory until :meth:`dump`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    def open(self, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        absorbed = False
        if parent >= 0:
            outer = self.spans[parent]
            if outer.layer in ABSORBING:
                layer, absorbed = outer.layer, True
        span = Span(layer, self.clock(), parent, absorbed)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        index = self._stack.pop()
        if self.spans[index] is not span:
            raise RuntimeError("spans closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def current_layer(self) -> Optional[str]:
        """Layer of the innermost open span, if any."""
        return self.spans[self._stack[-1]].layer if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def self_times(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.layer] = out.get(span.layer, 0.0) + span.self_s
        return out

    def top_level_s(self) -> float:
        return sum(s.duration for s in self.spans if s.parent < 0)

    def dump(self, path) -> None:
        """Write one JSON line per span (layer, start, end, parent)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "layer": span.layer,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                }) + "\n")


# ----------------------------------------------------------------------
# Wrapping attributes from outside
# ----------------------------------------------------------------------
After = Optional[Callable[[Tracer, tuple, object], None]]


def _traced(tracer: Tracer, fn: Callable, layer: str, after: After):
    def wrapper(*args, **kwargs):
        span = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None and not span.absorbed:
            after(tracer, args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


def _wrap_function(tracer, module, name, layer, after) -> List[Tuple]:
    """Rebind ``module.name`` in every ``repro`` module that imported it."""
    original = getattr(module, name)
    wrapper = _traced(tracer, original, layer, after)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))
    return undo


def _wrap_method(tracer, cls, name, layer, after) -> List[Tuple]:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        wrapped = classmethod(_traced(tracer, raw.__func__, layer, after))
    else:
        wrapped = _traced(tracer, raw, layer, after)
    setattr(cls, name, wrapped)
    return [(cls, name, raw)]


# ----------------------------------------------------------------------
# Counters read at each boundary
# ----------------------------------------------------------------------
def _count_calls(name: str):
    def after(tracer, args, result):
        tracer.count(name)
    return after


def _after_sim(tracer, args, result):
    tracer.count("sim.runs")
    tracer.count("sim.jobs", result.released_jobs)
    tracer.count("sim.nodes", result.completed_nodes)


def _after_batch(tracer, args, result):
    batch = args[0]
    tracer.count("sim.batches")
    tracer.count("sim.batch_items", len(batch.items))
    tracer.count(
        "sim.vector_fallbacks", batch.last_stats.get("vector_fallbacks", 0)
    )


def _after_run_vectorized(tracer, args, result):
    tracer.count("sim.batches")
    tracer.count("sim.batch_items", len(result))


def _after_trace_profile(tracer, args, result):
    tracer.count("profile.segments_in", len(args[0].trace))
    tracer.count("profile.segments_out", len(result))


def _after_rebin(tracer, args, result):
    tracer.count("profile.segments_in", len(args[0]))
    tracer.count("profile.segments_out", len(result))


def _after_run_profile(tracer, args, result):
    if tracer.current_layer() == "battery":
        return  # counted by the enclosing run_profile_batch
    tracer.count("battery.calls")
    tracer.count("battery.life_s", result.lifetime)


def _after_profile_batch(tracer, args, result):
    tracer.count("battery.calls", len(result))
    tracer.count("battery.life_s", sum(run.lifetime for run in result))


def _after_cache_get(tracer, args, result):
    tracer.count("campaign.cache_lookups")
    if result is not None:
        tracer.count("campaign.cache_hits")


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary; returns a callable that unwraps."""
    from repro.analysis import tables
    from repro.api import frame, study, sweep
    from repro.battery import base, calibrate, kernels
    from repro.campaign import aggregate, cache, registry, runner
    from repro.exact import bounds
    from repro.sim import batch, engine, profile, vector
    from repro.workloads import generator

    functions = [
        (study, "_apply_post", "api", None),
        (tables, "format_table", "api", None),
        (generator, "paper_task_set", "workloads",
         _count_calls("workloads.calls")),
        (registry, "build_scheme", "registry", None),
        (registry, "resolve_estimator", "registry", None),
        (registry, "resolve_processor", "registry", None),
        (registry, "resolve_battery", "registry", None),
        (calibrate, "paper_cell_kibam", "battery.calibrate", None),
        (calibrate, "paper_cell_diffusion", "battery.calibrate", None),
        (vector, "run_vectorized", "sim.batch", _after_run_vectorized),
        (bounds, "near_optimal_run", "exact", _count_calls("exact.calls")),
        (kernels, "run_profile_batch", "battery", _after_profile_batch),
    ]
    methods = [
        (sweep.Sweep, "expand_with_meta", "api", None),
        (frame.ResultFrame, "from_results", "api", None),
        (study.StudyResult, "format", "api", None),
        (aggregate.StreamingAggregator, "summary", "api", None),
        (generator.UniformActuals, "__init__", "workloads",
         _count_calls("workloads.calls")),
        (engine.Simulator, "run", "sim", _after_sim),
        (batch.ScenarioBatch, "run", "sim.batch", _after_batch),
        (engine.SimulationResult, "profile", "profile",
         _after_trace_profile),
        (profile.CurrentProfile, "rebinned", "profile", _after_rebin),
        (base.BatteryModel, "run_profile", "battery", _after_run_profile),
        (runner.CampaignRunner, "run", "campaign", None),
        (cache.ResultCache, "get", "campaign.cache_get", _after_cache_get),
        (cache.ResultCache, "put", "campaign.cache_put",
         _count_calls("campaign.cache_writes")),
    ]
    undo: List[Tuple] = []
    for module, name, layer, after in functions:
        undo += _wrap_function(tracer, module, name, layer, after)
    for cls, name, layer, after in methods:
        undo += _wrap_method(tracer, cls, name, layer, after)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


#: Per-layer self-time metric for each span layer.
SELF_TIME_METRICS = {
    "api": "api.self_s",
    "workloads": "workloads.build_s",
    "registry": "registry.self_s",
    "battery.calibrate": "battery.calibrate_s",
    "sim": "sim.run_s",
    "sim.batch": "sim.batch_s",
    "exact": "exact.near_optimal_s",
    "profile": "profile.reduce_s",
    "battery": "battery.run_profile_s",
    "campaign": "campaign.self_s",
    "campaign.cache_get": "campaign.cache_get_s",
    "campaign.cache_put": "campaign.cache_put_s",
}

#: Exact counts that must repeat between two traced runs.
COUNTS = (
    "workloads.calls",
    "sim.runs", "sim.jobs", "sim.nodes",
    "sim.batches", "sim.batch_items", "sim.vector_fallbacks",
    "exact.calls",
    "profile.segments_in", "profile.segments_out",
    "battery.calls",
    "campaign.cache_lookups", "campaign.cache_hits", "campaign.cache_writes",
)


def summarize(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Layer self times, exact counts and derived ratios of one run."""
    selfs = tracer.self_times()
    out = {
        metric: selfs.get(layer, 0.0)
        for layer, metric in SELF_TIME_METRICS.items()
    }
    for name in COUNTS:
        out[name] = tracer.counters.get(name, 0)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - tracer.top_level_s()
    out["battery.life_s"] = tracer.counters.get("battery.life_s", 0.0)
    return out
