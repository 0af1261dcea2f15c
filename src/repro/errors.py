"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TaskGraphError(ReproError):
    """Raised when a task graph is malformed (cycles, bad WCETs, ...)."""


class SchedulingError(ReproError):
    """Raised when a scheduling policy is mis-configured or infeasible."""


class DeadlineMissError(SchedulingError):
    """Raised by the simulator when a task graph misses its deadline.

    The paper's methodology guarantees deadline adherence; a miss in
    simulation therefore indicates either a bug or an over-utilized task
    set, and is surfaced loudly instead of being silently recorded.
    """

    def __init__(self, graph_name: str, deadline: float, time: float):
        self.graph_name = graph_name
        self.deadline = deadline
        self.time = time
        super().__init__(
            f"task graph {graph_name!r} missed deadline {deadline:.6g} "
            f"(violation detected at t={time:.6g})"
        )

    def __reduce__(self):
        # The default reduce replays ``self.args`` (the formatted
        # message) into ``__init__``, which takes three fields.
        return type(self), (self.graph_name, self.deadline, self.time)


class SpecFailure(SchedulingError):
    """One spec's execution failed, with structured provenance.

    Carries the original exception's class name, message, and traceback
    text so a failure observed on a remote worker (or quarantined into
    a :class:`~repro.campaign.failures.FailureReport`) stays
    diagnosable after it crossed a process or wire boundary.  Every
    campaign runner raises it under ``on_error="raise"`` once a spec
    has spent its retry budget.
    """

    def __init__(
        self,
        message: str,
        *,
        exc_type: str = "",
        traceback_text: str = "",
    ):
        self.exc_type = exc_type or type(self).__name__
        self.traceback_text = traceback_text
        super().__init__(message)


class SpecTimeout(SpecFailure):
    """A spec ran past its execution deadline and was interrupted.

    Raised by the local pool watchdog (:func:`repro.campaign.failures.
    spec_deadline`) and synthesized by the broker when a distributed
    worker holds a spec past its lease-backed deadline.  Charged to the
    spec's retry budget like any failure: a timeout says nothing about
    the spec itself — the worker may have been descheduled, swapping,
    or wedged.
    """


class BatteryError(ReproError):
    """Raised for invalid battery model parameters or usage."""


class CalibrationError(BatteryError):
    """Raised when battery parameter calibration fails to converge."""


class ProfileError(ReproError):
    """Raised for malformed load-current profiles."""
