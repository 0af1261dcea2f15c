"""The benchmark's workloads, and the child process that runs one of them.

Run as a script, this module is one *rep*: a fresh interpreter that
sets the workload up, prints ``READY``, runs it once and prints one
JSON line with its timings, resource use and output digest::

    python perfbench/artifacts.py --workload table2 --seed 0 \\
        --cache-dir DIR [--trace SPANS.jsonl]

It expects ``src/`` on ``PYTHONPATH`` (``run.py`` sets it).  Every
workload is a closed loop: one caller, one artifact at a time, and the
seed is the only input it takes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List

import spans

#: Table 2: sets x 5 schemes, stochastic KiBaM, history estimator.
#: Two graphs per set keep the per-set cost spread low, and 44 sets
#: average the rest out across seeds (a 220-scenario batch).
TABLE2 = dict(n_sets=44, n_graphs=2)
#: Figure 6: graph counts 2-6, U = 0.85, oracle estimator.  The
#: horizon is fixed because the hyperperiod default makes the cost per
#: seed heavy-tailed (one set can hold 180 jobs, another 3); 18 sets
#: per point average out the rest (the near-optimal reference costs
#: about the square of a set's node count).
FIG6 = dict(
    graph_counts=(2, 3, 4, 5, 6), sets_per_point=18, utilization=0.85,
    horizon=10.0,
)
#: campaign_grow: a cold pass over N seeds, then 2N seeds (N cached).
#: One graph per scenario keeps the cost per seed flat.
CAMPAIGN = dict(scenarios=128, graphs=1, workers=2, battery="kibam")
N_SCHEMES = 5


def n_scenarios(workload: str) -> int:
    """Scenario results a run delivers (executed plus cache hits)."""
    if workload == "table2":
        return TABLE2["n_sets"] * N_SCHEMES
    if workload == "fig6":
        return len(FIG6["graph_counts"]) * FIG6["sets_per_point"] * (
            N_SCHEMES
        )
    if workload == "campaign_grow":
        return 3 * CAMPAIGN["scenarios"] * N_SCHEMES
    raise KeyError(workload)


WORKLOADS = ("table2", "fig6", "campaign_grow")


class BadOutput(Exception):
    """The run finished but its output fails a check."""


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def digest_text(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


class PlanWorkload:
    """A builtin study plan run on a sequential ``CampaignRunner``."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.api import plans
        from repro.campaign import CampaignRunner

        if name == "table2":
            self.plan = plans.table2_plan(seed=seed, **TABLE2)
        else:
            self.plan = plans.fig6_plan(seed=seed, **FIG6)
        self.n_specs = n_scenarios(name)
        self.runner = CampaignRunner(1)

    def run(self) -> Dict:
        result = self.plan.run(runner=self.runner)
        report = result.format()
        return {
            "report": report,
            "frame": json.dumps(result.frame.to_json(), sort_keys=True),
            "n_results": len(result.campaign.results),
            "metric_values": [
                v for r in result.campaign.results
                for v in r.metrics.values()
            ],
        }

    def check(self, out: Dict) -> None:
        if out["n_results"] != self.n_specs:
            raise BadOutput(
                f"{out['n_results']} results for {self.n_specs} specs"
            )


#: Footer fields that vary with the run, not with the results.
_VOLATILE = re.compile(r"\d+ worker\(s\), [0-9.]+s wall")
_HITS = re.compile(r"(\d+) cache hit")


class CampaignGrow:
    """``python -m repro campaign``: a cold pass, then a grown pass."""

    def __init__(self, seed: int, cache_dir: Path, workers: int) -> None:
        from repro.__main__ import main

        self.main = main
        self.cache_dir = cache_dir
        n = CAMPAIGN["scenarios"]
        common = [
            "campaign", "--seed", str(seed),
            "--graphs", str(CAMPAIGN["graphs"]),
            "--battery", CAMPAIGN["battery"],
            "--workers", str(workers),
            "--cache-dir", str(cache_dir),
        ]
        self.argvs = [common + ["--scenarios", str(k)] for k in (n, 2 * n)]
        self.expected_hits = [0, n * N_SCHEMES]

    def run(self) -> Dict:
        reports = []
        for argv in self.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                self.main(argv)
            reports.append(buf.getvalue())
        files = sorted(self.cache_dir.glob("*.json"))
        blobs = [p.name + "\n" + p.read_text() for p in files]
        values: List[float] = []
        for blob in blobs:
            data = json.loads(blob.split("\n", 1)[1])
            values.extend(data["metrics"].values())
        return {
            "report": "".join(_VOLATILE.sub("<volatile>", r) for r in reports),
            "frame": "\n".join(blobs),
            "hits": [int(_HITS.search(r).group(1)) for r in reports],
            "n_files": len(files),
            "metric_values": values,
        }

    def check(self, out: Dict) -> None:
        if out["hits"] != self.expected_hits:
            raise BadOutput(
                f"cache hits {out['hits']}, expected {self.expected_hits}"
            )
        distinct = 2 * CAMPAIGN["scenarios"] * N_SCHEMES
        if out["n_files"] != distinct:
            raise BadOutput(
                f"{out['n_files']} cached results for {distinct} specs"
            )


def build(workload: str, seed: int, cache_dir: Path, *, inline: bool):
    """Plan and runner for one rep.  ``inline`` runs the campaign in one
    process, as traced runs do, so no span is lost in a pool worker."""
    if workload == "campaign_grow":
        workers = 1 if inline else CAMPAIGN["workers"]
        return CampaignGrow(seed, cache_dir, workers)
    if workload in ("table2", "fig6"):
        return PlanWorkload(workload, seed)
    raise SystemExit(f"unknown workload {workload!r}")


def outcome(work, out: Dict) -> Dict:
    """Check a finished run; returns its digest and verdict."""
    verdict = {"digest": digest_text(out["report"], out["frame"])}
    try:
        work.check(out)
        if not _finite(out["metric_values"]):
            raise BadOutput("a scenario metric is not finite")
    except BadOutput as exc:
        verdict["error"] = str(exc)
    return verdict


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache-dir", type=Path, required=True)
    ap.add_argument("--trace", type=Path, default=None)
    ap.add_argument("--inline", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    work = build(args.workload, args.seed, args.cache_dir,
                 inline=args.inline or args.trace is not None)
    proto = sys.stdout
    proto.write("READY\n")
    proto.flush()
    if args.setup_only:
        return 0

    tracer = restore = None
    if args.trace is not None:
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
    self_cpu0 = _cpu(resource.RUSAGE_SELF)
    kids_cpu0 = _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    out = work.run()
    wall = time.perf_counter() - t0
    self_cpu = _cpu(resource.RUSAGE_SELF) - self_cpu0
    kids_cpu = _cpu(resource.RUSAGE_CHILDREN) - kids_cpu0
    if restore is not None:
        restore()
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "wall_s": wall,
        "cpu_s": self_cpu + kids_cpu,
        "parent_cpu_s": self_cpu,
        "children_cpu_s": kids_cpu,
        "peak_rss_mb": rss_kb / 1024.0,
        **outcome(work, out),
    }
    if tracer is not None:
        tracer.dump(args.trace)
        record["layers"] = spans.summarize(tracer, wall)
    proto.write(json.dumps(record) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
