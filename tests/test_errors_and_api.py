"""Error hierarchy and public-API surface tests."""

import inspect
import pickle

import pytest

import repro
import repro.errors
from repro.errors import (
    BatteryError,
    CalibrationError,
    DeadlineMissError,
    ProfileError,
    ReproError,
    SchedulingError,
    SpecFailure,
    SpecTimeout,
    TaskGraphError,
)

#: Every exception class ``repro.errors`` defines.
ERROR_CLASSES = sorted(
    (
        cls
        for _, cls in inspect.getmembers(repro.errors, inspect.isclass)
        if issubclass(cls, BaseException)
        and cls.__module__ == "repro.errors"
    ),
    key=lambda cls: cls.__name__,
)

#: Constructor arguments for the classes that need more than a message.
_ERROR_ARGS = {
    DeadlineMissError: (("G", 10.0, 10.5), {}),
    SpecFailure: (
        ("boom",),
        {"exc_type": "ValueError", "traceback_text": "Traceback ..."},
    ),
    SpecTimeout: (
        ("late",),
        {"exc_type": "SpecTimeout", "traceback_text": "Traceback ..."},
    ),
}


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

    @pytest.mark.parametrize(
        "cls", ERROR_CLASSES, ids=[c.__name__ for c in ERROR_CLASSES]
    )
    def test_pickle_roundtrip(self, cls):
        """Every error survives a process boundary with its fields."""
        args, kwargs = _ERROR_ARGS.get(cls, (("boom",), {}))
        err = cls(*args, **kwargs)
        again = pickle.loads(pickle.dumps(err))
        assert type(again) is cls
        assert str(again) == str(err)
        assert again.args == err.args
        assert vars(again) == vars(err)

    def test_roundtrip_covers_the_fielded_errors(self):
        assert set(_ERROR_ARGS) <= set(ERROR_CLASSES)
        assert len(ERROR_CLASSES) >= 9


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
