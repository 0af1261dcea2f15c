"""Shared fixtures for the campaign tests."""

from __future__ import annotations

import pytest

from repro.campaign import ScenarioSpec


@pytest.fixture
def long_specs():
    """Fixed 0.5 actuals over 20 hyperperiods (every task set here has
    a 40 s hyperperiod): a long converged deterministic cycle, where
    any path that shortcuts the event loop shows up as dust-different
    charge/energy bits."""
    return [
        ScenarioSpec(
            scheme=scheme, n_graphs=2, seed=seed, actual_low=0.5,
            actual_high=0.5, horizon=20 * 40.0, battery=battery,
        )
        for scheme, seed, battery in (
            ("BAS-1", 1, None), ("BAS-2", 4, "kibam"), ("ccEDF", 5, None),
        )
    ]
