"""End-to-end benchmark of the paper artifacts, with per-layer tracing.

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 30 \\
        --trace 0

Each *rep* is a fresh interpreter (``artifacts.py``) with a fresh
result-cache directory and a scrubbed environment.  ``--trace 0``
repeats reps for ``--seconds`` and reports the end-to-end metrics as
medians; ``--trace 1`` runs untraced reps for reference, then two
traced reps (spans recorded in-process by ``spans.py``) and an
``-X importtime`` child, and reports the per-layer metrics.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from artifacts import CAMPAIGN, WORKLOADS, n_scenarios  # noqa: E402
from spans import COUNTS  # noqa: E402

#: Development seed and the held-out seed a claimed gain must also
#: hold on.
DEV_SEED = 0
HELD_OUT_SEED = 1
MIN_REPS = 1
SETUP_SAMPLES = 5
#: Children still running this long after the start are killed and
#: counted as failed, so a run always ends within three minutes.
DEADLINE_S = 170.0
#: Environment variables that would switch the program into another
#: mode (fault injection, plugin replay, contract locks).
SCRUBBED = ("REPRO_FAULT_PLAN", "REPRO_PLUGINS", "REPRO_CONTRACT_LOCKS")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

def child_env(base: Dict[str, str], tmp: Path) -> Dict[str, str]:
    """The environment every child runs in."""
    env = {k: v for k, v in base.items() if k not in SCRUBBED}
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    env["REPRO_CAMPAIGN_CACHE"] = str(tmp / "cache-unused")
    return env


class Rep:
    """The outcome of one child: timings, digest, or an error."""

    def __init__(self, setup_s: Optional[float], record: Optional[Dict],
                 error: Optional[str]) -> None:
        self.setup_s = setup_s
        self.record = record
        self.error = error or (record or {}).get("error")

    @property
    def ok(self) -> bool:
        return self.error is None and self.record is not None


class Bench:
    def __init__(self, workload: str, seed: int, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.env = child_env(dict(os.environ), tmp)
        self.n_children = 0
        self.deadline = time.perf_counter() + DEADLINE_S

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self, *flags: str, trace: Optional[Path] = None) -> Rep:
        if self.time_left() <= 0:
            return Rep(None, None, "timed out")
        self.n_children += 1
        cache = self.tmp / f"cache-{self.n_children}"
        cmd = [
            sys.executable, str(HERE / "artifacts.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--cache-dir", str(cache), *flags,
        ]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        errlog = self.tmp / f"stderr-{self.n_children}.txt"
        with open(errlog, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, env=self.env,
                cwd=str(ROOT), text=True,
            )
            try:
                ready, _, _ = select.select(
                    [proc.stdout], [], [], max(0.0, self.time_left())
                )
                if not ready:
                    raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
                first = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                rest, _ = proc.communicate(
                    timeout=max(0.0, self.time_left())
                )
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return Rep(None, None, "timed out")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        shutil.rmtree(cache, ignore_errors=True)
        if first.strip() != "READY":
            return Rep(None, None, _tail(errlog) or "no READY line")
        if "--setup-only" in flags:
            return Rep(setup_s, None, None)
        if proc.returncode != 0 or not rest.strip():
            return Rep(setup_s, None,
                       _tail(errlog) or f"exit {proc.returncode}")
        return Rep(setup_s, json.loads(rest.strip().splitlines()[-1]), None)

    def reps(self, seconds: float, *flags: str) -> List[Rep]:
        """At least ``MIN_REPS`` reps; more while the next one is
        expected to end within ``seconds``."""
        out: List[Rep] = []
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            out.append(self.spawn(*flags))
            took = time.perf_counter() - start
            if len(out) >= MIN_REPS and (
                time.perf_counter() - t0 + took > seconds
                or self.time_left() <= 0
            ):
                return out

    def setup_samples(self, reps: List[Rep]) -> List[float]:
        samples = [r.setup_s for r in reps if r.setup_s is not None]
        while len(samples) < SETUP_SAMPLES:
            rep = self.spawn("--setup-only")
            if rep.setup_s is None:
                break
            samples.append(rep.setup_s)
        return samples

    def importtime(self) -> Dict[str, float]:
        try:
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import repro"],
                capture_output=True, text=True, env=self.env,
                cwd=str(ROOT), timeout=max(1.0, self.time_left()),
            )
        except subprocess.TimeoutExpired:
            return {"startup.import_s": math.nan,
                    "startup.scipy_import_s": math.nan}
        return parse_importtime(proc.stderr)


def _tail(path: Path, n: int = 5) -> str:
    lines = path.read_text().strip().splitlines()
    return " | ".join(lines[-n:])


def parse_importtime(text: str) -> Dict[str, float]:
    """``import repro`` and its ``scipy`` share, from ``-X importtime``.

    Lines come children-first, indented by depth; a ``scipy`` module
    counts when no ``scipy`` module encloses it.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        rows.append((depth, int(cumulative), name.strip()))
    repro_us = scipy_us = 0
    stack: List[tuple] = []
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "repro":
            repro_us = cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s[1] for s in stack):
            scipy_us += cumulative
        stack.append((depth, is_scipy))
    return {
        "startup.import_s": repro_us / 1e6,
        "startup.scipy_import_s": scipy_us / 1e6,
    }


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def check_outputs(reps: List[Rep], pinned: Optional[str]) -> List[str]:
    """Digest agreement across reps, and with the pinned digest; marks
    each disagreeing rep as wrong.  Returns the problems found."""
    problems = []
    for rep in reps:
        if rep.ok and pinned is not None and rep.record["digest"] != pinned:
            rep.error = "digest differs from the pinned digest"
    digests = {r.record["digest"] for r in reps if r.ok}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different digests across reps")
        for rep in reps:
            if rep.ok:
                rep.error = "digests disagree across reps"
    problems += sorted({r.error for r in reps if r.error})
    return problems


def end_to_end(workload: str, reps: List[Rep],
               setup: List[float]) -> Dict[str, List[float]]:
    good = [r.record for r in reps if r.ok]
    scenarios = n_scenarios(workload)
    return {
        "wall_s": [r["wall_s"] for r in good],
        "scenarios_per_s": [scenarios / r["wall_s"] for r in good],
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "cpu_s": [r["cpu_s"] for r in good],
    }


def per_layer(bench: Bench, timed: List[Rep], reference: List[Rep],
              traced: List[Rep]) -> Dict[str, float]:
    layers = [r.record["layers"] for r in traced if r.ok]
    if not layers:
        return {}
    out = {
        name: statistics.mean(layer[name] for layer in layers)
        for name in layers[0]
    }
    good = [r.record for r in timed if r.ok]
    workers = CAMPAIGN["workers"] if bench.workload == "campaign_grow" else 1
    out["campaign.pool_util"] = median([
        r["children_cpu_s"] / (workers * r["wall_s"]) for r in good
    ])
    out["campaign.parent_cpu_s"] = median([r["parent_cpu_s"] for r in good])
    out["sim.nodes_per_s"] = _ratio(out["sim.nodes"], out["sim.run_s"])
    out["sim.batch_width_mean"] = _ratio(
        out.pop("sim.batch_items"), out["sim.batches"]
    )
    out["battery.sim_life_s_per_s"] = _ratio(
        out.pop("battery.life_s"), out["battery.run_profile_s"]
    )
    out["campaign.cache_hit_ratio"] = _ratio(
        out["campaign.cache_hits"], out["campaign.cache_lookups"]
    )
    ref = median([r.record["wall_s"] for r in reference if r.ok])
    out["trace.overhead_frac"] = out["trace.wall_s"] / ref - 1.0
    out.update(bench.importtime())
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counts_repeat(traced: List[Rep]) -> bool:
    layers = [r.record["layers"] for r in traced if r.ok]
    return len(layers) == len(traced) and all(
        layer[name] == layers[0][name] for layer in layers for name in COUNTS
    )


def environment() -> Dict[str, str]:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": str(os.cpu_count()),
    }


def declared(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_pins() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def report(title: str, samples: Dict[str, List[float]],
           units: Dict[str, str], failed: int, attempted: int) -> None:
    print(title)
    print(f"{'metric':<26}{'median':>14}  {'unit':<6}{'n':>4}"
          f"{'min':>14}{'max':>14}")
    for name, unit in units.items():
        values = samples.get(name, [])
        print(f"{name:<26}{median(values):>14.6g}  {unit:<6}"
              f"{len(values):>4}{min(values, default=float('nan')):>14.6g}"
              f"{max(values, default=float('nan')):>14.6g}")
    frac = failed / attempted if attempted else float("nan")
    print(f"{'failed_frac':<26}{frac:>14.6g}  {'1':<6}{attempted:>4}"
          "  (scenarios failed or wrong / attempted)")


def run(args) -> int:
    bench_tmp = OUT / f"tmp-{os.getpid()}"
    bench_tmp.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, bench_tmp)
    try:
        return _run(bench, args)
    finally:
        shutil.rmtree(bench_tmp, ignore_errors=True)


def _run(bench: Bench, args) -> int:
    pins = load_pins().get(args.workload, {})
    pinned = pins.get(str(args.seed))
    env = environment()
    bench.spawn("--setup-only")  # compiles bytecode; not measured
    if args.trace:
        timed = bench.reps(args.seconds / 2)
        reference = (
            bench.reps(args.seconds / 4, "--inline")
            if args.workload == "campaign_grow" else timed
        )
        traced = []
        for k in range(2):
            path = OUT / f"spans-{args.workload}-seed{args.seed}-{k}.jsonl"
            traced.append(bench.spawn(trace=path))
        everything = timed + (reference if reference is not timed else [])
        everything += traced
    else:
        timed = everything = bench.reps(args.seconds)
    problems = check_outputs(everything, pinned)
    if args.trace and not counts_repeat(traced):
        problems.append("exact counts differ between the traced runs")
    per_rep = n_scenarios(args.workload)
    attempted = per_rep * len(everything)
    failed = per_rep * sum(1 for r in everything if not r.ok)
    correct = not problems

    if args.trace:
        units = declared("per_layer")
        measured = per_layer(bench, timed, reference, traced)
        samples = {k: [v] for k, v in measured.items()}
    else:
        units = declared("end_to_end")
        samples = end_to_end(
            args.workload, timed, bench.setup_samples(timed)
        )
    undeclared = sorted(set(samples) - set(units))
    if undeclared:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {undeclared}")
    # A declared metric no rep could measure is reported as null.
    metrics = {name: median(samples.get(name, [])) for name in units}
    digests = sorted({r.record["digest"] for r in everything if r.ok})
    seed_role = {DEV_SEED: "dev", HELD_OUT_SEED: "held-out"}.get(
        args.seed, "other"
    )
    if pinned is None:
        pin_state = "none pinned"
    else:
        pin_state = "matches pin" if digests == [pinned] else "MISMATCH"
    report(
        f"perfbench {args.workload} seed={args.seed} ({seed_role}) "
        f"trace={int(args.trace)} python {env['python']} numpy "
        f"{env['numpy']} scipy {env['scipy']} nproc {env['nproc']}\n"
        f"digest {digests[0][:16] if digests else '-'} ({pin_state})",
        samples, units, failed, attempted,
    )
    for problem in problems:
        print(f"problem: {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        # NaN is not JSON.
        "metrics": {
            name: {"value": value if math.isfinite(value) else None,
                   "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace"
     f"{int(args.trace)}.json").write_text(json.dumps(
        {**result, "environment": env, "samples": samples,
         "digests": digests, "problems": problems}, indent=1))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
