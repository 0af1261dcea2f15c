"""Unit + property tests for the stochastic KiBaM (paper ref [13]
substitute)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lifetime import survival_scale
from repro.battery.base import BatteryModel, as_segments
from repro.battery.calibrate import paper_cell_kibam
from repro.battery.kibam import KiBaM
from repro.battery.stochastic import StochasticKiBaM, _StochState
from repro.campaign import SurvivalSpec, run_spec
from repro.campaign.registry import resolve_battery
from repro.errors import BatteryError
from repro.sim.profile import CurrentProfile


class PerSlotKiBaM(StochasticKiBaM):
    """The per-slot reference: one ``rng.gamma`` call, one ``_flow``
    call and one state object per slot, tiled by the base class's
    per-segment driver."""

    def _flow(self, y1, y2, dt):
        h1 = y1 / self.c
        h2 = y2 / (1.0 - self.c)
        mean = self._k_flow * (h2 - h1) * dt
        if mean <= 0:
            return mean
        if self.noise == 0:
            return mean
        shape = 1.0 / (self.noise**2)
        return float(self._rng.gamma(shape, mean / shape))

    def advance(self, state, current, dt):
        if dt < 0:
            raise BatteryError(f"dt must be >= 0, got {dt}")
        if state.y1 <= 0:
            return state, 0.0
        y1, y2 = state.y1, state.y2
        elapsed = 0.0
        remaining = dt
        while remaining > 0:
            step = min(self.dt, remaining)
            flow = self._flow(y1, y2, step)
            flow = min(flow, y2) if flow > 0 else max(flow, -y1)
            y1_new = y1 - current * step + flow
            y2_new = y2 - flow
            if y1_new <= 0:
                drop = y1 - y1_new
                frac = y1 / drop if drop > 0 else 0.0
                death = min(max(elapsed + frac * step, 0.0), dt)
                return _StochState(0.0, y2_new), death
            y1, y2 = y1_new, y2_new
            elapsed += step
            remaining -= step
        return _StochState(y1, y2), None

    _run_profile_scalar = BatteryModel._run_profile_scalar


@pytest.fixture
def cell():
    return StochasticKiBaM(100.0, 0.5, 0.01, dt=1.0, noise=0.25, seed=7)


class TestValidation:
    def test_rejects_coarse_dt(self):
        with pytest.raises(BatteryError, match="too coarse"):
            StochasticKiBaM(100.0, 0.5, kp=0.5, dt=1.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(BatteryError):
            StochasticKiBaM(100.0, 0.5, 0.01, noise=-0.1)

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_rejects_non_finite_noise(self, noise):
        with pytest.raises(BatteryError, match="noise must be finite"):
            resolve_battery(f"stochastic:noise={noise}", 0)

    @pytest.mark.parametrize(
        "cap,c,kp", [(0, 0.5, 0.01), (100, 1.0, 0.01), (100, 0.5, 0)]
    )
    def test_rejects_bad_kinetics(self, cap, c, kp):
        with pytest.raises(BatteryError):
            StochasticKiBaM(cap, c, kp)


class TestDeterministicLimit:
    def test_zero_noise_matches_kibam(self):
        """noise=0 is forward-Euler KiBaM: states track the analytic
        model closely at small dt."""
        sto = StochasticKiBaM(100.0, 0.5, 0.01, dt=0.1, noise=0.0, seed=0)
        ana = KiBaM(100.0, 0.5, 0.01)
        s_sto = sto.fresh_state()
        s_ana = ana.fresh_state()
        for _ in range(30):
            s_sto, d1 = sto.advance(s_sto, 1.0, 1.0)
            s_ana, d2 = ana.advance(s_ana, 1.0, 1.0)
            assert d1 is None and d2 is None
        assert s_sto.y1 == pytest.approx(s_ana.y1, rel=2e-3)
        assert s_sto.y2 == pytest.approx(s_ana.y2, rel=2e-3)

    def test_zero_noise_death_matches_kibam(self):
        sto = StochasticKiBaM(100.0, 0.5, 0.01, dt=0.05, noise=0.0, seed=0)
        ana = KiBaM(100.0, 0.5, 0.01)
        r_sto = sto.lifetime_constant(5.0)
        r_ana = ana.lifetime_constant(5.0)
        assert r_sto.lifetime == pytest.approx(r_ana.lifetime, rel=0.02)


class TestStochasticBehaviour:
    def test_reproducible_given_seed(self):
        a = StochasticKiBaM(100.0, 0.5, 0.01, seed=42).lifetime_constant(3.0)
        b = StochasticKiBaM(100.0, 0.5, 0.01, seed=42).lifetime_constant(3.0)
        assert a.lifetime == b.lifetime

    def test_seeds_differ(self):
        a = StochasticKiBaM(100.0, 0.5, 0.01, seed=1).lifetime_constant(3.0)
        b = StochasticKiBaM(100.0, 0.5, 0.01, seed=2).lifetime_constant(3.0)
        assert a.lifetime != b.lifetime

    def test_mean_tracks_kibam(self):
        """Expectation over seeds matches the analytic model (DESIGN.md
        substitution property)."""
        ana = KiBaM(100.0, 0.5, 0.01).lifetime_constant(3.0)
        lifetimes = [
            StochasticKiBaM(100.0, 0.5, 0.01, noise=0.3, seed=s)
            .lifetime_constant(3.0)
            .lifetime
            for s in range(30)
        ]
        assert np.mean(lifetimes) == pytest.approx(ana.lifetime, rel=0.05)

    def test_charge_never_negative(self, cell):
        state = cell.fresh_state()
        for _ in range(300):
            state, d = cell.advance(state, 2.0, 1.0)
            if d is not None:
                break
            assert state.y1 >= 0
            assert state.y2 >= -1e-9

    def test_conservation_within_slots(self, cell):
        """Total charge decreases exactly by I*dt while alive."""
        state = cell.fresh_state()
        new, d = cell.advance(state, 1.0, 10.0)
        assert d is None
        total_drop = (state.y1 + state.y2) - (new.y1 + new.y2)
        assert total_drop == pytest.approx(10.0, rel=1e-9)


class TestDeath:
    def test_heavy_load_dies(self, cell):
        _, death = cell.advance(cell.fresh_state(), 10.0, 100.0)
        assert death is not None
        assert 3.0 < death < 9.0

    def test_dead_stays_dead(self, cell):
        state, _ = cell.advance(cell.fresh_state(), 10.0, 100.0)
        _, d2 = cell.advance(state, 1.0, 1.0)
        assert d2 == 0.0

    def test_rate_capacity_effect(self, cell):
        q = [
            cell.lifetime_constant(i).delivered_charge
            for i in (0.5, 2.0, 8.0)
        ]
        assert q[0] > q[1] > q[2]

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_property_death_within_physical_bounds(self, seed):
        """Lifetime under I is bounded by [available/I, capacity/I]."""
        cell = StochasticKiBaM(100.0, 0.5, 0.01, noise=0.4, seed=seed)
        run = cell.lifetime_constant(2.0)
        assert 50.0 / 2.0 - 1.0 <= run.lifetime <= 100.0 / 2.0 + 1.0


# ----------------------------------------------------------------------
# The tiling driver against the per-slot reference
# ----------------------------------------------------------------------
@st.composite
def cells_and_loads(draw):
    """Paired (driver, reference) cells plus a profile that kills the
    cell within a few thousand slots."""
    capacity = draw(st.floats(5.0, 500.0))
    c = draw(st.floats(0.2, 0.8))
    kp = draw(st.floats(1e-4, 0.05))
    # Any slot up to the stability guard, rarely a round number.
    dt = draw(st.floats(0.05, 1.0)) * 0.2 / kp
    noise = draw(st.just(0.0) | st.floats(0.01, 1.5))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 6))
    durations = np.array(
        draw(st.lists(st.floats(0.05, 6.0), min_size=n, max_size=n))
    ) * dt
    shape = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    )
    shape[draw(st.integers(0, n - 1))] = 1.0
    # Scale the load so an average cell lives ``life_slots`` slots.
    life_slots = draw(st.integers(5, 3000))
    mean = float(np.dot(durations, shape) / durations.sum())
    currents = shape * capacity / (life_slots * dt * mean)
    args = (capacity, c, kp)
    kw = dict(dt=dt, noise=noise, seed=seed)
    return (
        StochasticKiBaM(*args, **kw),
        PerSlotKiBaM(*args, **kw),
        durations,
        currents,
    )


def _same_call(fast, ref, call):
    """Run ``call`` on both cells: same result or same error, and the
    generators left in the same state."""
    outcomes = []
    for cell in (fast, ref):
        try:
            outcomes.append(call(cell))
        except BatteryError as exc:
            outcomes.append(("error", str(exc)))
    assert outcomes[0] == outcomes[1]
    assert (
        fast._rng.bit_generator.state == ref._rng.bit_generator.state
    )
    return outcomes[0]


class TestDriverMatchesPerSlotReference:
    @given(
        load=cells_and_loads(),
        repeat=st.sampled_from([None, 1, 3]),
        max_time=st.sampled_from([1e7, 50.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_profile(self, load, repeat, max_time):
        fast, ref, d, i = load
        _same_call(
            fast, ref,
            lambda cell: cell.run_profile(
                d, i, repeat=repeat, max_time=max_time
            ),
        )

    @given(
        load=cells_and_loads(),
        first=st.sampled_from([None, 1, 3]),
        second=st.sampled_from([None, 1, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_back_to_back_calls_share_the_stream(self, load, first, second):
        fast, ref, d, i = load
        for repeat, scale in ((first, 1.0), (second, 0.5)):
            _same_call(
                fast, ref,
                lambda cell: cell.run_profile(d, i * scale, repeat=repeat),
            )

    @given(
        load=cells_and_loads(),
        fill=st.tuples(st.floats(-0.1, 1.0), st.floats(0.0, 1.0)),
        t=st.floats(0.0, 1e4),
        delivered=st.floats(0.0, 1e4),
        cycle=st.integers(0, 3),
        repeat=st.sampled_from([None, 1, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_resume_keywords(self, load, fill, t, delivered, cycle, repeat):
        fast, ref, d, i = load
        d, i = as_segments(d, i)
        state = _StochState(
            fill[0] * fast.c * fast.capacity,
            fill[1] * (1 - fast.c) * fast.capacity,
        )
        _same_call(
            fast, ref,
            lambda cell: cell._run_profile_scalar(
                d, i, repeat, 1e7,
                state=state, t=t, delivered=delivered, cycle=cycle,
            ),
        )

    @given(
        load=cells_and_loads(),
        steps=st.lists(
            st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 3.0)),
            min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_advance(self, load, steps):
        fast, ref, _, _ = load
        states = [fast.fresh_state(), ref.fresh_state()]
        for duration, current in steps:
            out = _same_call(
                fast, ref,
                lambda cell: cell.advance(
                    states[cell is ref], current, duration * cell.dt
                ),
            )
            states = [out[0], out[0]]

    def test_survival_spec_pinned_to_reference(self):
        """``SurvivalSpec`` runs 42 probes on one cell; the driver's
        stream matches per-slot draws probe after probe."""
        d = (300.0, 450.0, 250.0, 500.0)
        i = (1.2, 0.3, 2.5, 0.8)
        got = run_spec(
            SurvivalSpec(
                battery="stochastic", durations=d, currents=i,
                battery_seed=3,
            )
        ).metrics["survival_scale"]
        kib = paper_cell_kibam()
        ref = PerSlotKiBaM(kib.capacity, kib.c, kib.kp, seed=3)
        want = survival_scale(
            ref, CurrentProfile(np.array(d), np.array(i))
        )
        assert got == want
