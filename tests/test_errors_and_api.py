"""Error hierarchy and public-API surface tests."""

import pytest

import repro
from repro.errors import (
    BatteryError,
    CalibrationError,
    DeadlineMissError,
    ProfileError,
    ReproError,
    SchedulingError,
    TaskGraphError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            TaskGraphError,
            SchedulingError,
            BatteryError,
            ProfileError,
        ],
    )
    def test_subclasses_of_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_deadline_miss_is_scheduling_error(self):
        assert issubclass(DeadlineMissError, SchedulingError)

    def test_calibration_is_battery_error(self):
        assert issubclass(CalibrationError, BatteryError)

    def test_deadline_miss_message(self):
        err = DeadlineMissError("G", 10.0, 10.5)
        assert "G" in str(err)
        assert err.graph_name == "G"
        assert err.deadline == 10.0
        assert err.time == 10.5


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_paper_constants_exposed(self):
        assert len(repro.PAPER_TABLE) == 3
        assert repro.PAPER_TABLE.f_max == 1e9

    @pytest.mark.parametrize(
        "module", ["repro.campaign", "repro.api", "repro"]
    )
    def test_imports_cleanly_in_a_fresh_interpreter(self, module):
        """No import order hides a cycle: each front door loads first."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": src if not path else src + os.pathsep + path,
        }
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_experiments_exports_only_the_worked_examples(self):
        from repro.analysis import experiments

        assert sorted(experiments.__all__) == sorted(
            ["run_scheme", "fig4", "Fig4Result", "fig5", "Fig5Result"]
        )
