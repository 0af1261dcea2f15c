"""Lifetime kernels — scalar vs vectorized wall-clock and speedup.

Times the two code paths of the single hottest operation in the
reproduction — tiling a hyperperiod current profile through a battery
model until the cell dies (``run_profile(repeat=None)``, what
``evaluate_lifetime`` runs for every Table 2 cell) and the guideline-1
survival bisection (``survival_scale``) — across every battery model.
The vectorized path uses the closed-form period kernels of
``repro.battery.kernels``; ``fast=False`` forces the per-segment
scalar reference loop.  Results are verified equivalent (relative
1e-9) before speedups are reported, and written machine-readable to
``BENCH_lifetime.json`` at the repo root.

The stochastic model has no kernel (its RNG draw order *is* its
semantics); its row times the base per-segment ``advance`` walk
(``BatteryModel._run_profile_scalar``) against the model's own
slot-tiling driver, on two fresh cells with the same seed, and
requires bit-identical results.

Also runnable standalone (the CI smoke test)::

    PYTHONPATH=src python benchmarks/bench_lifetime.py \\
        --segments 200 --min-diffusion-speedup 10
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow standalone runs without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.lifetime import evaluate_lifetime, survival_scale
from repro.battery import (
    BatteryModel,
    paper_cell_diffusion,
    paper_cell_kibam,
    paper_cell_stochastic,
    PeukertBattery,
    StochasticKiBaM,
)
from repro.sim.profile import CurrentProfile

REPO_ROOT = Path(__file__).resolve().parents[1]


class _PerSegmentStochastic(StochasticKiBaM):
    """The stochastic cell tiled by the base per-segment ``advance``
    walk instead of its own driver."""

    _run_profile_scalar = BatteryModel._run_profile_scalar


def _models():
    """``name -> (fast cell, scalar cell, bitwise)``.

    Deterministic models time both paths on one cell and agree to
    float noise; the stochastic pair are fresh cells with one seed
    whose results must match bit for bit.
    """
    diffusion = paper_cell_diffusion()
    kib = paper_cell_kibam()
    peukert = PeukertBattery(kib.capacity, exponent=1.2, i_ref=2.0)
    sto = paper_cell_stochastic(seed=0)
    ref = _PerSegmentStochastic(
        sto.capacity, sto.c, sto.kp, dt=sto.dt, noise=sto.noise, seed=0
    )
    return {
        "diffusion": (diffusion, diffusion, False),
        "kibam": (kib, kib, False),
        "peukert": (peukert, peukert, False),
        "stochastic": (sto, ref, True),
    }


def _schedule_profile(n: int, seg_s: float, seed: int) -> CurrentProfile:
    """A schedule-shaped profile: busy staircases with idle valleys."""
    rng = np.random.default_rng(seed)
    durations = rng.uniform(0.5 * seg_s, 1.5 * seg_s, n)
    levels = np.array([0.03, 0.45, 0.8, 1.25, 2.0, 2.8])
    currents = levels[rng.integers(0, levels.size, n)]
    return CurrentProfile(durations, currents)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def bench_model(name, cell, scalar_cell, bitwise, n_segments, seed):
    """One model's run_profile + survival_scale scalar-vs-fast row."""
    # Tiled-to-death lifetime: short segments so the hyperperiod tiles
    # through many periods before exhaustion (the Table 2 shape).
    life_prof = _schedule_profile(n_segments, 0.1, seed)
    # StochasticKiBaM walks 1 s slots per segment; the same profile is
    # valid but its cost is dominated by slots, not segments.
    fast_report, t_fast = _timed(
        lambda: evaluate_lifetime(life_prof, cell, max_time=1e7)
    )
    scalar_report, t_scalar = _timed(
        lambda: evaluate_lifetime(
            life_prof, scalar_cell, max_time=1e7, fast=False
        )
    )
    f_run, s_run = fast_report.run, scalar_report.run
    if bitwise:
        assert s_run == f_run, (s_run, f_run)
    else:
        assert s_run.died == f_run.died
        assert abs(s_run.lifetime - f_run.lifetime) <= (
            1e-9 * max(1.0, s_run.lifetime)
        ), (s_run, f_run)
        assert abs(s_run.delivered_charge - f_run.delivered_charge) <= (
            1e-9 * max(1.0, s_run.delivered_charge)
        ), (s_run, f_run)

    # Survival bisection: one long pass whose death scale sits inside
    # the default (0.1, 10) bracket.
    surv_prof = _schedule_profile(
        n_segments, 6000.0 / n_segments, seed + 1
    )
    scale_fast, ts_fast = _timed(
        lambda: survival_scale(cell, surv_prof)
    )
    scale_scalar, ts_scalar = _timed(
        lambda: survival_scale(scalar_cell, surv_prof, fast=False)
    )
    tol = 0.0 if bitwise else 1e-6 * scale_scalar
    assert abs(scale_fast - scale_scalar) <= tol, (scale_fast, scale_scalar)

    return {
        "model": name,
        "segments": int(n_segments),
        "run_profile": {
            "lifetime_s": float(f_run.lifetime),
            "tiled_periods": float(
                f_run.lifetime / life_prof.total_time
            ),
            "scalar_s": t_scalar,
            "fast_s": t_fast,
            "speedup": t_scalar / t_fast if t_fast > 0 else float("inf"),
        },
        "survival_scale": {
            "scale": float(scale_fast),
            "scalar_s": ts_scalar,
            "fast_s": ts_fast,
            "speedup": (
                ts_scalar / ts_fast if ts_fast > 0 else float("inf")
            ),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--segments", type=int, default=1000,
        help="profile segments per period (default: paper scale 1000)",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_lifetime.json",
        help="machine-readable results path (repo root by default)",
    )
    ap.add_argument(
        "--min-diffusion-speedup", type=float, default=None,
        help="fail (exit 1) if the diffusion run_profile speedup is "
        "below this floor — the CI smoke threshold",
    )
    ap.add_argument(
        "--skip", nargs="*", default=(),
        help="model names to skip (e.g. stochastic on slow machines)",
    )
    args = ap.parse_args(argv)

    results = []
    for name, (cell, scalar_cell, bitwise) in _models().items():
        if name in args.skip:
            continue
        # The stochastic model walks ~1 s slots on both paths; cap its
        # size so the smoke stays fast.
        n = args.segments if name != "stochastic" else min(
            args.segments, 200
        )
        row = bench_model(name, cell, scalar_cell, bitwise, n, args.seed)
        results.append(row)
        rp, sv = row["run_profile"], row["survival_scale"]
        print(
            f"{name:>10}: run_profile {rp['scalar_s']:8.3f}s -> "
            f"{rp['fast_s']:8.4f}s ({rp['speedup']:7.1f}x, "
            f"{rp['tiled_periods']:.0f} periods) | survival "
            f"{sv['scalar_s']:8.3f}s -> {sv['fast_s']:8.4f}s "
            f"({sv['speedup']:6.1f}x)"
        )

    payload = {
        "bench": "lifetime",
        "segments": args.segments,
        "seed": args.seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.min_diffusion_speedup is not None:
        diff_rows = [r for r in results if r["model"] == "diffusion"]
        if not diff_rows:
            print("diffusion row missing; cannot enforce threshold")
            return 1
        speedup = diff_rows[0]["run_profile"]["speedup"]
        if speedup < args.min_diffusion_speedup:
            print(
                f"FAIL: diffusion speedup {speedup:.1f}x below floor "
                f"{args.min_diffusion_speedup:.1f}x"
            )
            return 1
        print(
            f"ok: diffusion speedup {speedup:.1f}x >= "
            f"{args.min_diffusion_speedup:.1f}x floor"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
