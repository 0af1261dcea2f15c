"""Stochastic battery model (substitute for Rao et al. 2005, paper ref [13]).

Table 2 of the paper estimates lifetimes with "the stochastic battery
model from [13]" — a stochastic refinement of the two-well kinetic
picture whose full specification lives in a bachelor's thesis we cannot
access.  Per DESIGN.md §5 we build the closest published description:
a time-slotted KiBaM in which the bound→available recovery flow per
slot is a non-negative random variable whose *mean* equals the kinetic
flow ``k_flow · (h2 - h1) · dt``.  Fluctuations model the stochastic
nature of the electrochemical recovery process (Chiasserini–Rao style);
with ``noise = 0`` the model degenerates to the forward-Euler
discretization of KiBaM, and its expectation matches KiBaM for any
noise level (property-tested in ``tests/battery/test_stochastic.py``).

Determinism: the model takes an explicit seed, so experiment runs are
reproducible; Table 2 averages over seeds exactly like the paper
averages over task-graph sets.

Speed: there is no closed-form period kernel (the draw order is the
semantics), so the model overrides the base per-segment driver with
its own slot-tiling loop, which :meth:`StochasticKiBaM.advance` shares.
It keeps the state in plain floats and takes recovery draws from a
bounded ``standard_gamma`` buffer; on exit the generator is rewound to
exactly the draws used, so results and the random stream match one
``rng.gamma`` call per slot bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import BatteryError
from .base import BatteryModel, BatteryRun
from .kibam import KiBaM

__all__ = ["StochasticKiBaM"]

#: Most recovery draws held at once; a long life refills in chunks.
_DRAW_CHUNK = 4096


@dataclass(frozen=True)
class _StochState:
    y1: float
    y2: float


class _GammaDraws:
    """Standard-gamma draws taken from ``rng`` in bounded chunks.

    ``scale * standard_gamma(shape)`` is bitwise what
    ``rng.gamma(shape, scale)`` returns, and a chunk of ``n`` draws
    leaves the generator where ``n`` single draws would.  ``close``
    rewinds to the start of the last chunk and redraws only the part
    that was used, so the generator ends exactly where per-slot
    ``rng.gamma`` calls would have left it.
    """

    def __init__(self, rng: np.random.Generator, shape: float, first: float):
        self.rng = rng
        self.shape = shape
        self.size = (
            max(1, math.ceil(first)) if first < _DRAW_CHUNK else _DRAW_CHUNK
        )
        self.mark = None
        self.taken = 0

    def take(self) -> list:
        if self.mark is not None:
            self.size = min(2 * self.size, _DRAW_CHUNK)
        self.mark = self.rng.bit_generator.state
        self.taken = self.size
        return self.rng.standard_gamma(self.shape, size=self.size).tolist()

    def close(self, used: int) -> None:
        if self.mark is not None and used < self.taken:
            self.rng.bit_generator.state = self.mark
            if used:
                self.rng.standard_gamma(self.shape, size=used)


class StochasticKiBaM(BatteryModel):
    """Time-slotted KiBaM with stochastic recovery flow.

    Parameters
    ----------
    capacity, c, kp:
        As in :class:`~repro.battery.kibam.KiBaM`.
    dt:
        Slot length in seconds.  Must be small relative to ``1/kp``
        (the kinetic time constant) for the discretization to track the
        analytic model; a guard rejects ``dt > 0.2 / kp``.
    noise:
        Relative standard deviation of the per-slot recovery flow
        (gamma-distributed with the kinetic mean).  0 disables
        stochasticity.
    seed:
        Seed for the internal random generator.
    """

    def __init__(
        self,
        capacity: float,
        c: float,
        kp: float,
        *,
        dt: float = 1.0,
        noise: float = 0.25,
        seed: Optional[int] = 0,
    ) -> None:
        if not (capacity > 0):
            raise BatteryError(f"capacity must be > 0, got {capacity}")
        if not (0 < c < 1):
            raise BatteryError(f"c must be in (0, 1), got {c}")
        if not (kp > 0):
            raise BatteryError(f"kp must be > 0, got {kp}")
        if not (dt > 0):
            raise BatteryError(f"dt must be > 0, got {dt}")
        if dt > 0.2 / kp:
            raise BatteryError(
                f"slot dt={dt:.4g}s too coarse for kp={kp:.4g}/s "
                f"(need dt <= {0.2 / kp:.4g}s for a stable discretization)"
            )
        if not (noise >= 0 and math.isfinite(noise)):
            raise BatteryError(
                f"noise must be finite and >= 0, got {noise}"
            )
        self.capacity = float(capacity)
        self.c = float(c)
        self.kp = float(kp)
        self.dt = float(dt)
        self.noise = float(noise)
        self._k_flow = kp * c * (1.0 - c)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def fresh_state(self) -> _StochState:
        return _StochState(
            self.c * self.capacity, (1 - self.c) * self.capacity
        )

    def theoretical_capacity(self) -> float:
        return self.capacity

    def as_kibam(self) -> KiBaM:
        """The deterministic analytic model this one fluctuates around."""
        return KiBaM(self.capacity, self.c, self.kp)

    # ------------------------------------------------------------------
    def advance(
        self, state: _StochState, current: float, dt: float
    ) -> Tuple[_StochState, Optional[float]]:
        if dt < 0:
            raise BatteryError(f"dt must be >= 0, got {dt}")
        if state.y1 <= 0:
            return state, 0.0
        y1, y2, death, _, died = self._walk(
            state.y1, state.y2, ((dt, current),), dt / self.dt,
            1, math.inf, 0.0, 0.0, 0,
        )
        return _StochState(y1, y2), (death if died else None)

    def _run_profile_scalar(
        self,
        d: np.ndarray,
        i: np.ndarray,
        repeat: Optional[int],
        max_time: float,
        *,
        state: Optional[_StochState] = None,
        t: float = 0.0,
        delivered: float = 0.0,
        cycle: int = 0,
    ) -> BatteryRun:
        """The base per-segment driver, with the slot walk inlined.

        Same arguments, checks and results as
        :meth:`BatteryModel._run_profile_scalar` over :meth:`advance`,
        bit for bit, and the generator ends where per-slot draws would
        have left it.
        """
        if state is None:
            state = self.fresh_state()
        _, _, t, delivered, died = self._walk(
            state.y1, state.y2, list(zip(d.tolist(), i.tolist())),
            float(np.ceil(d / self.dt).sum()),
            repeat, max_time, t, delivered, cycle,
        )
        return BatteryRun(died=died, lifetime=t, delivered_charge=delivered)

    def _walk(
        self,
        y1: float,
        y2: float,
        segments: Sequence[Tuple[float, float]],
        slots: float,
        repeat: Optional[int],
        max_time: float,
        t: float,
        delivered: float,
        cycle: int,
    ) -> Tuple[float, float, float, float, bool]:
        """Tile ``(duration, current)`` segments slot by slot from
        ``(y1, y2)``: the one copy of the slot recurrence.

        Returns ``(y1, y2, t, delivered, died)``; after a death ``t``
        and ``delivered`` are the lifetime and the charge delivered by
        then.  ``slots`` estimates the slots of one pass and sizes the
        first chunk of recovery draws.  Each slot's recovery flow is
        gamma-distributed with the kinetic mean (shape ``1/noise²``,
        scale ``mean/shape``); reverse flow (available -> bound) and
        ``noise == 0`` stay deterministic.
        """
        c = self.c
        c_bound = 1.0 - c
        k_flow = self._k_flow
        slot = self.dt
        noisy = self.noise != 0
        shape = 1.0 / (self.noise**2) if noisy else 0.0
        draws = _GammaDraws(self._rng, shape, slots)
        buf: list = []
        pos = size = 0
        try:
            while True:
                if cycle:
                    if repeat is not None and cycle >= repeat:
                        return y1, y2, t, delivered, False
                    if t > max_time:
                        raise BatteryError(
                            f"battery survived past max_time="
                            f"{max_time:.3g}s under repeat=None; the load "
                            f"is too light to ever exhaust it"
                        )
                for dt, cur in segments:
                    if y1 <= 0:
                        # A dead cell dies again at offset 0 (advance).
                        death = 0.0
                        return y1, y2, t + death, delivered + cur * death, True
                    elapsed = 0.0
                    remaining = dt
                    while remaining > 0:
                        # Partial final slots are fine: the flow
                        # scales with step.
                        step = remaining if remaining < slot else slot
                        mean = k_flow * (y2 / c_bound - y1 / c) * step
                        if mean <= 0 or not noisy:
                            flow = mean
                        else:
                            if pos == size:
                                buf = draws.take()
                                pos, size = 0, len(buf)
                            flow = mean / shape * buf[pos]
                            pos += 1
                        if flow > 0:
                            if y2 < flow:
                                flow = y2
                        elif -y1 > flow:
                            flow = -y1
                        y1_new = y1 - cur * step + flow
                        if y1_new <= 0:
                            # Death inside the slot: linear
                            # interpolation of y1.
                            drop = y1 - y1_new
                            frac = y1 / drop if drop > 0 else 0.0
                            death = min(max(elapsed + frac * step, 0.0), dt)
                            return (
                                0.0, y2 - flow, t + death,
                                delivered + cur * death, True,
                            )
                        y1 = y1_new
                        y2 -= flow
                        elapsed += step
                        remaining -= step
                    t += dt
                    delivered += cur * dt
                cycle += 1
        finally:
            draws.close(pos)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StochasticKiBaM(capacity={self.capacity:.6g}C, c={self.c:.4g}, "
            f"kp={self.kp:.4g}/s, dt={self.dt:.3g}s, noise={self.noise:.3g})"
        )
