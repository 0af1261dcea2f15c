"""Failure containment for campaigns: budgets, backoff, quarantine.

:class:`RetryPolicy` is the one retry/quarantine decision every
campaign runner charges failures through.  Each failing spec is
retried up to ``max_retries`` times with deterministic seeded
exponential backoff; a spec that exhausts its budget is either
*quarantined* — recorded in a :class:`FailureReport` with its
structured traceback, and the campaign completes with partial results
(``on_error="quarantine"``) — or raised as a
:class:`~repro.errors.SpecFailure` (``on_error="raise"``, the
default).

Also home to the execution watchdog (:func:`spec_deadline`), which
interrupts a spec that runs past its deadline with a
:class:`~repro.errors.SpecTimeout`.
"""

from __future__ import annotations

import contextlib
import json
import signal
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import SchedulingError, SpecFailure, SpecTimeout
from .spec import Spec, content_hash, is_cacheable

__all__ = [
    "FailureInfo",
    "FailureReport",
    "QuarantinedSpec",
    "RetryPolicy",
    "backoff_delay",
    "spec_deadline",
]

ON_ERROR_POLICIES = ("raise", "quarantine")


@dataclass(frozen=True)
class FailureInfo:
    """One failure, flattened for transport and reports.

    Captures what matters for diagnosis — exception class, message,
    traceback text — as plain strings so it survives JSON round-trips
    across process and wire boundaries.
    """

    exc_type: str
    message: str
    traceback_text: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException) -> "FailureInfo":
        # A SpecFailure keeps the provenance of the error it wraps.
        if isinstance(exc, SpecFailure):
            exc_type, tb = exc.exc_type, exc.traceback_text
        else:
            exc_type, tb = type(exc).__name__, ""
        if not tb:
            tb = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
        return cls(exc_type=exc_type, message=str(exc), traceback_text=tb)

    def to_exception(self, context: str = "") -> SpecFailure:
        """Rehydrate as a :class:`SpecFailure` (timeout-aware), its
        message prefixed with ``context``."""
        cls = SpecTimeout if self.exc_type == "SpecTimeout" else SpecFailure
        return cls(
            context + self.message,
            exc_type=self.exc_type,
            traceback_text=self.traceback_text,
        )

    def to_json(self) -> Dict:
        return {
            "type": self.exc_type,
            "message": self.message,
            "traceback": self.traceback_text,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "FailureInfo":
        return cls(
            exc_type=str(data.get("type", "SpecFailure")),
            message=str(data.get("message", "")),
            traceback_text=str(data.get("traceback", "")),
        )


@dataclass(frozen=True)
class QuarantinedSpec:
    """A spec that exhausted its retry budget, with provenance."""

    index: int
    spec_hash: str
    attempts: int
    failure: FailureInfo

    def to_json(self) -> Dict:
        return {
            "index": self.index,
            "spec_hash": self.spec_hash,
            "attempts": self.attempts,
            "failure": self.failure.to_json(),
        }

    @classmethod
    def from_json(cls, data: Dict) -> "QuarantinedSpec":
        return cls(
            index=int(data["index"]),
            spec_hash=str(data.get("spec_hash", "")),
            attempts=int(data.get("attempts", 1)),
            failure=FailureInfo.from_json(data.get("failure", {})),
        )


@dataclass
class FailureReport:
    """What went wrong during a campaign, and what it cost.

    ``quarantined`` lists the specs given up on; ``retries`` counts
    every re-execution charged to a budget; ``timeouts`` counts
    deadline interruptions (a subset of the failures that drove
    retries).  Empty report == clean campaign.
    """

    quarantined: List[QuarantinedSpec] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0

    def __bool__(self) -> bool:
        return bool(self.quarantined or self.retries or self.timeouts)

    @property
    def quarantined_indices(self) -> Tuple[int, ...]:
        return tuple(sorted(q.index for q in self.quarantined))

    def to_json(self) -> Dict:
        return {
            "quarantined": [q.to_json() for q in self.quarantined],
            "retries": self.retries,
            "timeouts": self.timeouts,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "FailureReport":
        return cls(
            quarantined=[
                QuarantinedSpec.from_json(q)
                for q in data.get("quarantined", ())
            ],
            retries=int(data.get("retries", 0)),
            timeouts=int(data.get("timeouts", 0)),
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2) + "\n"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FailureReport":
        return cls.from_json(json.loads(Path(path).read_text()))

    def merge(self, other: "FailureReport") -> None:
        self.quarantined.extend(other.quarantined)
        self.retries += other.retries
        self.timeouts += other.timeouts


class RetryPolicy:
    """The retry/quarantine decision and one campaign's books.

    Validates the containment knobs once; per campaign (:meth:`begin`)
    counts attempts and fills :attr:`report`.  Runners only schedule
    retries (rounds locally, a monotonic due-queue on brokers);
    :meth:`charge` decides everything else.
    """

    def __init__(
        self,
        max_retries: int = 0,
        on_error: str = "raise",
        spec_timeout: Optional[float] = None,
    ) -> None:
        if max_retries < 0:
            raise SchedulingError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if spec_timeout is not None and spec_timeout <= 0:
            raise SchedulingError(
                f"spec_timeout must be positive, got {spec_timeout}"
            )
        if on_error not in ON_ERROR_POLICIES:
            raise SchedulingError(
                f"on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {on_error!r}"
            )
        self.max_retries = int(max_retries)
        self.on_error = on_error
        self.spec_timeout = (
            float(spec_timeout) if spec_timeout is not None else None
        )
        self.begin()

    def begin(self) -> None:
        """Start a campaign: no attempts charged, an empty report."""
        self.report = FailureReport()
        self._attempts: Dict[int, int] = {}

    @property
    def is_default(self) -> bool:
        """No retries, no deadline, first failure raises."""
        return (
            self.max_retries == 0
            and self.spec_timeout is None
            and self.on_error == "raise"
        )

    @property
    def backstop_grace(self) -> Optional[float]:
        """Seconds a broker lets one attempt hold its unit before it
        charges a timeout itself: twice the deadline plus a second, so
        it only acts when the worker-side watchdog could not."""
        if self.spec_timeout is None:
            return None
        return 2.0 * self.spec_timeout + 1.0

    def charge(
        self,
        index: int,
        spec: Optional[Spec],
        failure: FailureInfo,
        *,
        context: str = "",
    ) -> Optional[float]:
        """Charge one failed attempt of spec ``index``: the backoff
        (s) before its retry, or ``None`` once quarantined.  Under
        ``"raise"`` a spent budget raises ``failure`` as a
        :class:`~repro.errors.SpecFailure` prefixed with ``context``.
        """
        if failure.exc_type == "SpecTimeout":
            self.report.timeouts += 1
        attempts = self._attempts.get(index, 0) + 1
        self._attempts[index] = attempts
        if attempts <= self.max_retries:
            self.report.retries += 1
            seed = int(getattr(spec, "seed", 0) or 0)
            return backoff_delay(seed, attempts)
        if self.on_error == "raise":
            raise failure.to_exception(context)
        self.report.quarantined.append(
            QuarantinedSpec(
                index=index,
                spec_hash=(
                    content_hash(spec)
                    if spec is not None and is_cacheable(spec)
                    else ""
                ),
                attempts=attempts,
                failure=failure,
            )
        )
        return None


def backoff_delay(
    seed: int,
    attempt: int,
    *,
    base: float = 0.05,
    cap: float = 5.0,
) -> float:
    """Deterministic exponential backoff with jitter.

    ``base * 2**(attempt-1)``, capped, scaled by a jitter factor in
    [0.5, 1.0) drawn from ``SeedSequence([seed, attempt])`` — the
    same derivation pattern the campaign uses for spec seeds, so the
    full retry schedule is a pure function of (spec seed, attempt)
    and replays identically across runs and hosts.
    """
    if attempt < 1:
        return 0.0
    raw = min(float(cap), float(base) * (2.0 ** (attempt - 1)))
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFF, int(attempt)])
    )
    return raw * (0.5 + 0.5 * float(rng.random()))


@contextlib.contextmanager
def spec_deadline(seconds: Optional[float], *, what: str = "spec"):
    """Interrupt the enclosed block if it runs past ``seconds``.

    Implemented with ``SIGALRM``/``setitimer``, so it fires even when
    the block is wedged in a pure-Python hot loop.  Only armable on
    platforms with ``SIGALRM`` and from the main thread (the only
    place Python delivers signals); elsewhere this is a no-op and the
    broker's lease-backed deadline is the backstop.  ``seconds=None``
    disables the watchdog entirely.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise SpecTimeout(
            f"{what} exceeded its {float(seconds):.3g}s execution "
            "deadline",
            exc_type="SpecTimeout",
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
