"""Broker side of the distributed campaign backends.

A broker owns one campaign at a time: :meth:`submit` publishes the
``(index, spec)`` work units, :meth:`outcomes` blocks yielding
``(index, ScenarioResult)`` pairs as workers finish — deduplicated by
index, with lost leases requeued — until every unit is resolved.  A
worker-reported execution error is charged to the broker's
:class:`~repro.campaign.failures.RetryPolicy`, the same one the local
runner uses: within budget (``max_retries``) the spec is republished
after a deterministic backoff; once the budget is spent it either
fails the campaign with a :class:`~repro.errors.SpecFailure` (the
default) or, under ``on_error="quarantine"``, is recorded in the
policy's :class:`~repro.campaign.failures.FailureReport` and the
campaign completes without it.

Fault tolerance:

* **Heartbeat leases** — workers renew their lease while executing
  (in-payload stamps over the directory, ``heartbeat`` messages over
  TCP), so a lease expiring really means a dead worker, and requeue
  timeouts can stay short even with hour-long scenarios.
* **Resume ledger** — every accepted ``(index, result)`` is journaled
  to an append-only JSON-lines ledger, headed by the campaign's
  content hash.  A restarted broker given ``resume=True`` replays the
  ledger (validated per entry against the resubmitted specs) instead
  of re-running completed work.
* **Chunked leases with stealing** — ``chunk_size > 1`` leases
  index-contiguous runs of tasks; when the queue runs dry, the broker
  splits the largest outstanding chunk so idle workers steal its tail.
* **Worker health scoring** — every worker token accumulates a score
  (error outcome +1, crash/stale lease +2, corrupt payload +2); at
  ``health_threshold`` the broker *retires* the worker — blacklists
  its token so it stops winning leases — instead of letting one bad
  host grind a campaign down via its retry budgets.
* **Spec deadlines** — ``spec_timeout`` travels inside task payloads
  (workers arm a watchdog) and is backstopped broker-side: a unit
  leased to the same worker for well past the deadline is charged as
  a timeout even if the worker keeps heartbeating through the hang.

Two transports implement the interface: :class:`DirectoryBroker` over
a shared filesystem (see :mod:`~repro.campaign.distributed.workdir`)
and :class:`TCPBroker` over line-delimited JSON sockets.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import queue
import socketserver
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ... import faults
from ...errors import SchedulingError, SpecTimeout
from ...locks import assert_held, contract_lock
from ..failures import FailureInfo, FailureReport, RetryPolicy
from ..spec import ScenarioResult, Spec, content_hash
from .protocol import (
    PROTOCOL_VERSION,
    outcome_worker,
    parse_outcome,
    recv_msg,
    send_msg,
    task_payload,
)
from .workdir import WorkDir

__all__ = ["DirectoryBroker", "TCPBroker", "campaign_hash"]

#: Bumped on incompatible ledger format changes.
LEDGER_VERSION = 1


def _fresh_job_id() -> str:
    return uuid.uuid4().hex[:12]


def campaign_hash(items: List[Tuple[int, Spec]]) -> str:
    """A stable identity for a submitted ``(index, spec)`` work list.

    Built from the per-spec content hashes in index order, so the same
    campaign resubmitted after a broker restart hashes identically —
    and anything else (different sweep, different subset) does not.
    """
    blob = json.dumps(
        [[int(i), content_hash(spec)] for i, spec in items],
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class _BrokerBase:
    """Job bookkeeping and the resume ledger, shared by both transports.

    ``ledger_path=None`` disables journaling (and therefore resume).
    """

    def __init__(
        self,
        *,
        poll: float,
        result_timeout: Optional[float],
        ledger_path: Optional[Path] = None,
        max_retries: int = 0,
        on_error: str = "raise",
        spec_timeout: Optional[float] = None,
        health_threshold: Optional[int] = None,
    ):
        if poll <= 0:
            raise SchedulingError(f"poll must be > 0, got {poll}")
        if health_threshold is not None and health_threshold < 1:
            raise SchedulingError(
                f"health_threshold must be >= 1, got {health_threshold}"
            )
        self.policy = RetryPolicy(max_retries, on_error, spec_timeout)
        self.poll = float(poll)
        self.result_timeout = result_timeout
        self.ledger_path = ledger_path
        self.health_threshold = health_threshold
        self.job: Optional[str] = None
        self.requeued_total = 0
        self._expected: Set[int] = set()
        self._resolved: Set[int] = set()
        self._replayed: List[Tuple[int, ScenarioResult]] = []
        self._items: Dict[int, Spec] = {}
        self._retry_due: List[Tuple[float, int]] = []
        self._health: Dict[str, int] = {}
        self.retired_workers: Set[str] = set()

    def _begin(
        self,
        items: List[Tuple[int, Spec]],
        *,
        resume: bool = False,
        campaign: Optional[str] = None,
    ) -> Tuple[str, List[Tuple[int, Spec]]]:
        """Start a job; returns ``(job_id, still-to-run items)``.

        With ``resume=True`` the ledger's validated entries are marked
        resolved and excluded from the returned work list.

        ``campaign`` is the *full* campaign's content hash.  Callers
        that submit a filtered subset (the runner strips result-cache
        hits before submitting) must pass the digest of the unfiltered
        campaign — otherwise cache-state differences between the
        crashed run and the resume run would change the hash and
        defeat the ledger.  Defaults to hashing ``items`` itself.
        """
        if self._expected - self._resolved:
            raise SchedulingError(
                "broker already has an unfinished campaign"
            )
        if resume and self.ledger_path is None:
            raise SchedulingError(
                "resume requested but this broker has no ledger: the "
                "TCP transport only journals when ledger_path= is set"
            )
        self.job = _fresh_job_id()
        self._expected = {index for index, _spec in items}
        self._resolved = set()
        self._replayed = []
        self.requeued_total = 0
        self._items = {int(i): spec for i, spec in items}
        self._retry_due = []
        self.policy.begin()
        self._health = {}
        self.retired_workers = set()
        if self.ledger_path is not None:
            digest = campaign or campaign_hash(items)
            try:
                self._open_ledger(items, resume, digest)
            except SchedulingError:
                # A refused resume must not wedge the broker in
                # "unfinished campaign" state: the caller may retry
                # submit() (e.g. without resume) on this instance.
                self.job = None
                self._expected = set()
                self._resolved = set()
                raise
        todo = [
            (index, spec)
            for index, spec in items
            if index not in self._resolved
        ]
        return self.job, todo

    # ------------------------------------------------------------------
    # Resume ledger
    # ------------------------------------------------------------------
    def _open_ledger(
        self, items: List[Tuple[int, Spec]], resume: bool, digest: str
    ) -> None:
        header = {
            "kind": "header",
            "version": LEDGER_VERSION,
            "campaign": digest,
        }
        if resume and self.ledger_path.exists():
            replayed = self._load_ledger(items, digest)
            if replayed is None:
                # Never truncate on a failed resume: the journal may
                # hold hours of another campaign's completed work, and
                # a fat-fingered rerun must not destroy it silently.
                raise SchedulingError(
                    f"--resume: ledger {self.ledger_path} does not "
                    f"match this campaign (content hash {digest}); "
                    "check the sweep parameters, or delete the ledger "
                    "/ rerun without resume to start fresh"
                )
            for index, result in sorted(replayed.items()):
                self._resolved.add(index)
                self._replayed.append((index, result))
            return  # keep appending to the validated ledger
        self.ledger_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.ledger_path, "w") as handle:
            handle.write(json.dumps(header) + "\n")

    def _load_ledger(
        self, items: List[Tuple[int, Spec]], digest: str
    ) -> Optional[Dict[int, ScenarioResult]]:
        """Validated ``index -> result`` entries, or ``None`` to discard.

        The header must carry this campaign's content hash (a ledger
        from a *different* sweep in the same directory is ignored) and
        every entry must match the resubmitted spec at its index — a
        belt-and-braces check against torn or alien lines.  A torn
        final line (broker killed mid-append) is skipped, not fatal.
        """
        specs = {int(i): spec for i, spec in items}
        entries: Dict[int, ScenarioResult] = {}
        try:
            lines = self.ledger_path.read_text().splitlines()
        except OSError:
            return None
        header_ok = False
        for lineno, line in enumerate(lines):
            try:
                data = json.loads(line)
            except ValueError:
                continue  # torn append; later lines may still parse
            if not isinstance(data, dict):
                continue
            if lineno == 0:
                header_ok = (
                    data.get("kind") == "header"
                    and data.get("version") == LEDGER_VERSION
                    and data.get("campaign") == digest
                )
                if not header_ok:
                    return None
                continue
            try:
                index = int(data["index"])
                spec = specs.get(index)
                if spec is None:
                    continue  # not part of this submission
                if data.get("spec_hash") != content_hash(spec):
                    continue  # alien entry; do not trust it
                entries[index] = ScenarioResult.from_json(data["result"])
            except (KeyError, TypeError, ValueError):
                continue
        return entries if header_ok else None

    def _journal(self, index: int, result: ScenarioResult) -> None:
        if self.ledger_path is None:
            return
        line = json.dumps(
            {
                "index": int(index),
                "spec_hash": result.spec_hash,
                "result": result.to_json(),
            }
        )
        if faults.fire("ledger.append", index) == "corrupt":
            line = faults.corrupt_text(line)
        try:
            with open(self.ledger_path, "a") as handle:
                handle.write(line + "\n")
                # fsync each append: a resumed campaign trusts the
                # ledger to know what is done, so a host crash must
                # not be able to eat acknowledged results that were
                # still sitting in the page cache.
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            pass  # journaling is best-effort; the campaign continues

    @property
    def replayed(self) -> int:
        """Results recovered from the ledger by the last ``submit``."""
        return len(self._replayed)

    @property
    def failure_report(self) -> FailureReport:
        """Retries, timeouts and quarantined specs of the campaign."""
        return self.policy.report

    @property
    def telemetry(self) -> Dict[str, int]:
        """Fault/balance counters for the current campaign.

        ``requeued`` counts work units returned to the queue (expired
        leases, dead connections); ``stolen`` counts chunk-steal
        events (splits of a busy worker's lease for an idle one);
        ``retried`` counts re-executions charged to retry budgets;
        ``quarantined`` counts specs abandoned after exhausting
        theirs; ``retired`` counts workers blacklisted by health
        scoring.  Transports override to fold in their own counters.
        """
        return {
            "requeued": self.requeued_total,
            "stolen": 0,
            "retried": self.failure_report.retries,
            "quarantined": len(self.failure_report.quarantined),
            "retired": len(self.retired_workers),
        }

    def _drain_replayed(self) -> Iterator[Tuple[int, ScenarioResult]]:
        while self._replayed:
            yield self._replayed.pop(0)

    # ------------------------------------------------------------------
    def _accept(self, payload: Dict) -> Optional[Tuple[int, ScenarioResult]]:
        """Validate one outcome payload; ``None`` if stale/duplicate.

        Error outcomes flow into the retry/quarantine machinery; a
        *corrupt* payload (unparseable at all) charges the sending
        worker's health score and requeues the index it claimed.
        """
        try:
            job, index, outcome = parse_outcome(payload)
        except SchedulingError:
            self._note_worker(outcome_worker(payload), 2)
            try:
                index = int(payload.get("index", -1))
            except (TypeError, ValueError, AttributeError):
                index = -1
            if (
                payload.get("job") == self.job
                and index in self._expected
                and index not in self._resolved
            ):
                self.requeued_total += 1
                self._requeue_index(index)
            return None
        if job != self.job or index not in self._expected:
            return None  # another campaign's straggler
        if index in self._resolved:
            return None  # duplicate after a lease requeue
        if isinstance(outcome, FailureInfo):
            self._spec_failed(index, outcome, outcome_worker(payload))
            return None
        self._resolved.add(index)
        self._journal(index, outcome)
        return index, outcome

    def _spec_failed(
        self, index: int, failure: FailureInfo, worker: str = ""
    ) -> None:
        """Charge one failed execution of ``index`` to the policy.

        A quarantined spec resolves without a result and is never
        journaled, so a resumed run gets a fresh chance at it.
        """
        self._note_worker(worker, 1)
        delay = self.policy.charge(
            index,
            self._items.get(index),
            failure,
            context=f"worker failed executing scenario {index}: ",
        )
        if delay is None:
            self._resolved.add(index)
        else:
            self._retry_due.append((time.monotonic() + delay, index))

    def _overdue(self, index: int, worker: str, why: str) -> None:
        """Broker backstop: charge ``index`` as a timeout after its
        unit outlived :attr:`RetryPolicy.backstop_grace`."""
        self._note_worker(worker, 1)
        timeout = SpecTimeout(
            f"spec {index} exceeded its {self.policy.spec_timeout:.3g}s "
            f"deadline (broker backstop; {why})"
        )
        self._spec_failed(index, FailureInfo.from_exception(timeout))

    def _flush_retries(self) -> None:
        """Republish every retry whose backoff has elapsed."""
        if not self._retry_due:
            return
        now = time.monotonic()
        due = [entry for entry in self._retry_due if entry[0] <= now]
        if not due:
            return
        self._retry_due = [
            entry for entry in self._retry_due if entry[0] > now
        ]
        for _, index in sorted(due, key=lambda entry: entry[1]):
            if index not in self._resolved:
                self._requeue_index(index)

    def _requeue_index(self, index: int) -> None:
        """Transport hook: republish one work unit."""
        raise NotImplementedError

    def _pending_retries(self) -> bool:
        return bool(self._retry_due)

    # ------------------------------------------------------------------
    # Worker health
    # ------------------------------------------------------------------
    def _note_worker(self, worker: str, weight: int) -> None:
        """Add ``weight`` to a worker's failure score; retire at the
        threshold (error outcome +1, crash/stale lease +2, corrupt
        payload +2)."""
        if not worker:
            return
        self._health[worker] = self._health.get(worker, 0) + weight
        if (
            self.health_threshold is not None
            and worker not in self.retired_workers
            and self._health[worker] >= self.health_threshold
        ):
            self.retired_workers.add(worker)
            self._retire_worker(worker)

    def _retire_worker(self, worker: str) -> None:
        """Transport hook: stop ``worker`` from winning further leases."""

    @property
    def worker_health(self) -> Dict[str, int]:
        """Current per-worker failure scores (telemetry snapshot)."""
        return dict(self._health)

    @property
    def done(self) -> bool:
        return self._expected == self._resolved

    @property
    def remaining(self) -> int:
        """Unresolved work units (drives the runner's autoscaler)."""
        return len(self._expected - self._resolved)

    def _check_stalled(self, last_progress: float) -> None:
        if (
            self.result_timeout is not None
            and time.monotonic() - last_progress > self.result_timeout
        ):
            missing = sorted(self._expected - self._resolved)
            raise SchedulingError(
                f"no worker progress in {self.result_timeout:.0f}s; "
                f"{len(missing)} unit(s) unresolved (first: "
                f"{missing[:5]}) — are any workers attached?"
            )


# ----------------------------------------------------------------------
# Shared-directory transport
# ----------------------------------------------------------------------
class DirectoryBroker(_BrokerBase):
    """Serve a campaign out of a shared work directory.

    The resume ledger lives at ``<root>/ledger.jsonl``; pass
    ``submit(..., resume=True)`` after a broker crash to re-collect
    journaled results instead of re-running them.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        poll: float = 0.05,
        lease_timeout: float = 60.0,
        result_timeout: Optional[float] = None,
        chunk_size: int = 1,
        max_retries: int = 0,
        on_error: str = "raise",
        spec_timeout: Optional[float] = None,
        health_threshold: Optional[int] = None,
    ) -> None:
        workdir = WorkDir(root)
        super().__init__(
            poll=poll,
            result_timeout=result_timeout,
            ledger_path=workdir.ledger_path,
            max_retries=max_retries,
            on_error=on_error,
            spec_timeout=spec_timeout,
            health_threshold=health_threshold,
        )
        if lease_timeout <= 0:
            raise SchedulingError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        if chunk_size < 1:
            raise SchedulingError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workdir = workdir
        self.lease_timeout = float(lease_timeout)
        self.chunk_size = int(chunk_size)
        self.split_total = 0
        # Persistent scan state for change-based lease/demand expiry:
        # worker clocks never enter the comparisons (NFS fleets skew).
        self._lease_obs: Dict[str, Tuple[float, float]] = {}
        self._starve_obs: Dict[str, Tuple[float, float]] = {}
        # Overdue-spec backstop state: (chunk, index) -> first seen
        # as the active task, plus the set already charged.
        self._active_obs: Dict[Tuple[str, int], float] = {}
        self._overdue_fired: Set[Tuple[str, int]] = set()
        self.workdir.ensure_layout()

    def submit(
        self,
        items: List[Tuple[int, Spec]],
        *,
        resume: bool = False,
        campaign: Optional[str] = None,
    ) -> None:
        job, todo = self._begin(items, resume=resume, campaign=campaign)
        self.workdir.publish(
            job,
            todo,
            chunk_size=self.chunk_size,
            timeout=self.policy.spec_timeout,
        )

    def _requeue_index(self, index: int) -> None:
        spec = self._items.get(index)
        if spec is None:
            return
        self.workdir.enqueue(
            str(self.job),
            [(index, spec)],
            chunk_size=1,
            timeout=self.policy.spec_timeout,
        )

    def _retire_worker(self, worker: str) -> None:
        self.workdir.retire(worker)

    def _scan_overdue(self) -> None:
        """Broker-side spec-deadline backstop for the directory queue.

        A hung spec keeps its lease alive (the heartbeat thread is
        separate from the wedged executor), so lease expiry can never
        catch it.  Instead, watch each claimed chunk's *active* task:
        if the same index stays active well past ``spec_timeout``,
        charge it as a timeout.  The worker-side watchdog fires at
        exactly the deadline; this backstop waits twice that plus a
        second so it only acts when the watchdog could not (worker
        thread, non-POSIX platform, wedged C extension).
        """
        grace = self.policy.backstop_grace
        if grace is None:
            return
        now = time.monotonic()
        live: Set[Tuple[str, int]] = set()
        for path in sorted(self.workdir.claimed.glob("chunk-*.json")):
            payload = self.workdir.refresh(path.name)
            if payload is None or payload.get("job") != self.job:
                continue
            active = payload.get("active")
            if not isinstance(active, dict):
                continue
            try:
                index = int(active.get("index", -1))
            except (TypeError, ValueError):
                continue
            key = (path.name, index)
            live.add(key)
            first_seen = self._active_obs.setdefault(key, now)
            if key in self._overdue_fired:
                continue
            if now - first_seen <= grace:
                continue
            self._overdue_fired.add(key)
            if index in self._resolved or index not in self._expected:
                continue
            self._overdue(
                index,
                str(payload.get("worker") or ""),
                "worker still holds the lease",
            )
        for key in list(self._active_obs):
            if key not in live:
                del self._active_obs[key]
                self._overdue_fired.discard(key)

    def outcomes(self) -> Iterator[Tuple[int, ScenarioResult]]:
        yield from self._drain_replayed()
        # Expiry/steal scans read every claimed chunk's payload; on a
        # big fleet over NFS that is real I/O, and their resolution
        # only needs to be a fraction of the lease timeout — not every
        # poll tick.
        scan_interval = min(1.0, self.lease_timeout / 4.0)
        timeout = self.policy.spec_timeout
        if timeout is not None:
            scan_interval = min(scan_interval, timeout / 2.0)
        last_scan = -scan_interval
        last_progress = time.monotonic()
        while not self.done:
            got_any = False
            for payload in self.workdir.pop_outcomes(self.job):
                accepted = self._accept(payload)
                if accepted is not None:
                    got_any = True
                    yield accepted
            self._flush_retries()
            if got_any:
                last_progress = time.monotonic()
                continue
            now = time.monotonic()
            if now - last_scan >= scan_interval:
                last_scan = now
                expired_workers: List[str] = []
                self.requeued_total += self.workdir.requeue_expired(
                    self.lease_timeout,
                    self._lease_obs,
                    expired_workers=expired_workers,
                )
                for worker in expired_workers:
                    self._note_worker(worker, 2)
                self._scan_overdue()
                if self.chunk_size > 1:  # single-task chunks never split
                    self.split_total += self.workdir.split_starved(
                        observed=self._starve_obs
                    )
            if not self._pending_retries():
                self._check_stalled(last_progress)
            else:
                last_progress = time.monotonic()
            time.sleep(self.poll)

    @property
    def telemetry(self) -> Dict[str, int]:
        data = super().telemetry
        data["requeued"] = self.requeued_total
        data["stolen"] = self.split_total
        return data

    def close(self) -> None:
        """Tell idle workers to exit (the shutdown marker persists)."""
        self.workdir.shutdown()

    def abort(self) -> None:
        """Stop serving without telling workers to exit.

        The directory broker holds no live resources — workers keep
        polling the directory and will serve whichever broker
        publishes (or resumes) next.  Exists for interface symmetry
        with :meth:`TCPBroker.abort` (crash simulation in tests,
        emergency preemption).
        """


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------
class _TCPState:
    """Queue state shared between the server threads and the broker.

    ``pending`` holds chunks (lists of task payloads); ``owner`` maps
    every leased task index to the session that holds it, ``sessions``
    the reverse; ``last_beat`` is per-session heartbeat time driving
    the optional lease timeout; ``stolen`` collects indices taken from
    a session so its next outcome ack tells it to skip them.
    """

    def __init__(self, poll: float) -> None:
        # A contract lock (plain Lock unless REPRO_CONTRACT_LOCKS is
        # set): every helper below runs with it held by the caller
        # and declares so via assert_held — statically checked by
        # RACE001, verified at runtime in assertion mode.
        self.lock = contract_lock("tcp-state")
        self.poll = poll
        self.job: Optional[str] = None
        self.pending: collections.deque = collections.deque()
        self.tasks: Dict[int, Dict] = {}
        self.owner: Dict[int, str] = {}
        self.sessions: Dict[str, Set[int]] = {}
        self.last_beat: Dict[str, float] = {}
        self.stolen: Dict[str, Set[int]] = {}
        self.conns: Dict[str, object] = {}
        self.outcomes: "queue.Queue[Dict]" = queue.Queue()
        self.closing = False
        self.requeued = 0
        self.steals = 0
        #: Worker health plumbing: session -> self-reported worker
        #: token, retired (blacklisted) tokens, and (token, weight)
        #: events the connection threads leave for the broker thread.
        self.worker_by_session: Dict[str, str] = {}
        self.retired: Set[str] = set()
        self.health_events: List[Tuple[str, int]] = []
        #: When each leased index started executing (spec-deadline
        #: backstop); keyed by index, reset on every (re)lease.
        self.lease_start: Dict[int, float] = {}

    # All methods below assume ``self.lock`` is held by the caller.
    def lease_to(self, session_id: str, chunk: List[Dict]) -> None:
        assert_held(self.lock)
        now = time.monotonic()
        for task in chunk:
            index = int(task["index"])
            self.tasks[index] = task
            self.owner[index] = session_id
            self.sessions.setdefault(session_id, set()).add(index)
            self.lease_start[index] = now
        self.last_beat[session_id] = time.monotonic()

    def release(self, index: int) -> None:
        assert_held(self.lock)
        self.tasks.pop(index, None)
        self.lease_start.pop(index, None)
        session_id = self.owner.pop(index, None)
        if session_id is not None:
            self.sessions.get(session_id, set()).discard(index)

    def requeue_session(self, session_id: str) -> int:
        """Return a dead/stale session's leased tasks to the queue."""
        assert_held(self.lock)
        indices = sorted(self.sessions.pop(session_id, set()))
        chunk = []
        for index in indices:
            task = self.tasks.pop(index, None)
            self.owner.pop(index, None)
            self.lease_start.pop(index, None)
            if task is not None:
                chunk.append(task)
        if chunk:
            self.pending.appendleft(chunk)
            self.requeued += len(chunk)
        self.last_beat.pop(session_id, None)
        self.stolen.pop(session_id, None)
        return len(chunk)

    def steal_for(self, thief_id: str) -> Optional[List[Dict]]:
        """Split the biggest outstanding lease's tail off for a thief.

        The victim keeps the front half (it executes front-to-back, so
        the tail is the least likely to be in flight); the stolen
        indices are remembered and reported on the victim's next
        outcome ack so it stops before executing them.
        """
        assert_held(self.lock)
        victim_id, victim_indices = None, ()
        for session_id, indices in self.sessions.items():
            if session_id == thief_id or len(indices) < 2:
                continue
            if len(indices) > len(victim_indices):
                victim_id, victim_indices = session_id, indices
        if victim_id is None:
            return None
        ordered = sorted(victim_indices)
        take = ordered[(len(ordered) + 1) // 2 :]
        if not take:
            return None
        chunk = []
        for index in take:
            task = self.tasks.get(index)
            if task is None:
                continue
            self.sessions[victim_id].discard(index)
            self.stolen.setdefault(victim_id, set()).add(index)
            chunk.append(task)
        if not chunk:
            return None
        self.lease_to(thief_id, chunk)
        self.steals += 1
        return chunk


class _WorkerConnection(socketserver.StreamRequestHandler):
    """One worker's session: hello, then lease/heartbeat/outcome."""

    def handle(self) -> None:  # noqa: D102 - socketserver hook
        state: _TCPState = self.server.state  # type: ignore[attr-defined]
        session_id = uuid.uuid4().hex
        worker_token = ""
        with state.lock:
            state.conns[session_id] = self.connection
        try:
            while True:
                msg = recv_msg(self.rfile)
                if msg is None:
                    break
                op = msg.get("op")
                if op == "hello":
                    if msg.get("version") != PROTOCOL_VERSION:
                        send_msg(
                            self.wfile,
                            {
                                "op": "reject",
                                "reason": (
                                    "protocol version mismatch: broker "
                                    f"speaks {PROTOCOL_VERSION}"
                                ),
                            },
                        )
                        break
                    worker_token = str(msg.get("worker") or "")
                    with state.lock:
                        if worker_token:
                            state.worker_by_session[session_id] = (
                                worker_token
                            )
                    send_msg(self.wfile, {"op": "welcome"})
                elif op == "lease":
                    with state.lock:
                        if state.closing or (
                            worker_token
                            and worker_token in state.retired
                        ):
                            reply = {"op": "shutdown"}
                        elif state.pending:
                            chunk = state.pending.popleft()
                            state.lease_to(session_id, chunk)
                            reply = {"op": "task", "tasks": chunk}
                        else:
                            chunk = state.steal_for(session_id)
                            if chunk is not None:
                                reply = {"op": "task", "tasks": chunk}
                            else:
                                reply = {"op": "wait", "poll": state.poll}
                    send_msg(self.wfile, reply)
                elif op == "heartbeat":
                    with state.lock:
                        state.last_beat[session_id] = time.monotonic()
                    send_msg(self.wfile, {"op": "ok"})
                elif op == "outcome":
                    payload = msg.get("outcome")
                    if not isinstance(payload, dict) or "index" not in payload:
                        break
                    index = int(payload["index"])
                    with state.lock:
                        # Only the live campaign's outcomes release a
                        # lease: a straggler from a previous job would
                        # be dropped by the broker's job filter, and
                        # disowning the current holder's lease here
                        # would leave the index unrecoverable if that
                        # holder later dies.
                        if payload.get("job") == state.job:
                            state.release(index)
                        state.last_beat[session_id] = time.monotonic()
                        stolen = sorted(state.stolen.pop(session_id, ()))
                    state.outcomes.put(payload)
                    send_msg(self.wfile, {"op": "ok", "stolen": stolen})
                else:
                    break
        except (OSError, ValueError):
            pass  # connection died; fall through to requeue
        finally:
            with state.lock:
                state.conns.pop(session_id, None)
                requeued = state.requeue_session(session_id)
                state.worker_by_session.pop(session_id, None)
                if requeued and worker_token:
                    # Died holding work: a crash signal for the
                    # broker thread's health scoring.
                    state.health_events.append((worker_token, 2))


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class TCPBroker(_BrokerBase):
    """Serve a campaign over a listening TCP socket.

    Binding happens in the constructor, so ``address`` (useful with
    port 0 for an ephemeral port) is known before any worker starts.
    The accept loop runs in a daemon thread; lost connections requeue
    their outstanding leases automatically, and ``lease_timeout``
    (heartbeat-based) additionally requeues leases of workers that are
    connected but silent — e.g. hung mid-scenario.  ``ledger_path``
    enables the resume ledger for TCP campaigns too.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        poll: float = 0.05,
        result_timeout: Optional[float] = None,
        lease_timeout: Optional[float] = None,
        chunk_size: int = 1,
        ledger_path: Union[str, Path, None] = None,
        max_retries: int = 0,
        on_error: str = "raise",
        spec_timeout: Optional[float] = None,
        health_threshold: Optional[int] = None,
    ) -> None:
        super().__init__(
            poll=poll,
            result_timeout=result_timeout,
            ledger_path=Path(ledger_path) if ledger_path else None,
            max_retries=max_retries,
            on_error=on_error,
            spec_timeout=spec_timeout,
            health_threshold=health_threshold,
        )
        if lease_timeout is not None and lease_timeout <= 0:
            raise SchedulingError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        if chunk_size < 1:
            raise SchedulingError(f"chunk_size must be >= 1, got {chunk_size}")
        self.lease_timeout = lease_timeout
        self.chunk_size = int(chunk_size)
        self._state = _TCPState(self.poll)
        self._server = _TCPServer((host, port), _WorkerConnection)
        self._server.state = self._state  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-campaign-broker",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def submit(
        self,
        items: List[Tuple[int, Spec]],
        *,
        resume: bool = False,
        campaign: Optional[str] = None,
    ) -> None:
        job, todo = self._begin(items, resume=resume, campaign=campaign)
        with self._state.lock:
            self._state.job = job
            self._state.pending.clear()
            self._state.tasks.clear()
            self._state.owner.clear()
            self._state.sessions.clear()
            self._state.stolen.clear()
            self._state.lease_start.clear()
            self._state.retired.clear()
            self._state.health_events.clear()
            for lo in range(0, len(todo), self.chunk_size):
                batch = todo[lo : lo + self.chunk_size]
                self._state.pending.append(
                    [
                        task_payload(
                            job, i, spec, timeout=self.policy.spec_timeout
                        )
                        for i, spec in batch
                    ]
                )

    def _requeue_index(self, index: int) -> None:
        spec = self._items.get(index)
        if spec is None:
            return
        task = task_payload(
            str(self.job), index, spec, timeout=self.policy.spec_timeout
        )
        with self._state.lock:
            if index not in self._state.owner:
                self._state.pending.append([task])

    def _retire_worker(self, worker: str) -> None:
        with self._state.lock:
            self._state.retired.add(worker)

    def _requeue_stale_leases(self) -> None:
        if self.lease_timeout is None:
            return
        deadline = time.monotonic() - self.lease_timeout
        crashed: List[str] = []
        with self._state.lock:
            stale = [
                session_id
                for session_id, indices in self._state.sessions.items()
                if indices
                and self._state.last_beat.get(session_id, 0.0) < deadline
            ]
            for session_id in stale:
                requeued = self._state.requeue_session(session_id)
                self.requeued_total += requeued
                token = self._state.worker_by_session.get(session_id)
                if requeued and token:
                    crashed.append(token)
        for token in crashed:
            self._note_worker(token, 2)

    def _drain_health_events(self) -> None:
        with self._state.lock:
            events = list(self._state.health_events)
            self._state.health_events.clear()
        for token, weight in events:
            self._note_worker(token, weight)

    def _requeue_overdue(self) -> None:
        """Spec-deadline backstop: reclaim units a worker has held far
        past the deadline even while heartbeating (hung executor).

        The reclaimed index is marked stolen for its session — when
        (if) the wedged worker comes back, its next ack tells it to
        skip the unit — and charged as a timeout through the normal
        retry/quarantine path.
        """
        grace = self.policy.backstop_grace
        if grace is None:
            return
        cutoff = time.monotonic() - grace
        overdue: List[Tuple[int, str]] = []
        with self._state.lock:
            for index, started in list(self._state.lease_start.items()):
                if started >= cutoff or index in self._resolved:
                    continue
                session_id = self._state.owner.get(index)
                if session_id is None:
                    continue
                self._state.sessions.get(session_id, set()).discard(
                    index
                )
                self._state.stolen.setdefault(session_id, set()).add(
                    index
                )
                self._state.tasks.pop(index, None)
                self._state.owner.pop(index, None)
                self._state.lease_start.pop(index, None)
                token = self._state.worker_by_session.get(
                    session_id, ""
                )
                overdue.append((index, token))
        for index, token in overdue:
            self._overdue(index, token, "worker still heartbeating")

    @property
    def telemetry(self) -> Dict[str, int]:
        data = super().telemetry
        with self._state.lock:
            data["requeued"] = self.requeued_total + self._state.requeued
            data["stolen"] = self._state.steals
        return data

    def outcomes(self) -> Iterator[Tuple[int, ScenarioResult]]:
        yield from self._drain_replayed()
        last_progress = time.monotonic()
        while not self.done:
            self._drain_health_events()
            self._flush_retries()
            try:
                payload = self._state.outcomes.get(timeout=self.poll)
            except queue.Empty:
                self._requeue_stale_leases()
                self._requeue_overdue()
                if self._pending_retries():
                    last_progress = time.monotonic()
                self._check_stalled(last_progress)
                continue
            accepted = self._accept(payload)
            if accepted is not None:
                last_progress = time.monotonic()
                yield accepted

    def close(self) -> None:
        with self._state.lock:
            self._state.closing = True
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def abort(self) -> None:
        """Stop serving abruptly, *without* telling workers to exit.

        Severs the listening socket and every live worker connection,
        as a crashing broker would.  Workers started with a
        ``reconnect_grace`` keep retrying and rejoin a broker
        restarted on the same port with ``resume=True`` (crash
        simulation in tests, emergency preemption in production).
        """
        self._server.shutdown()
        self._server.server_close()
        with self._state.lock:
            conns = list(self._state.conns.values())
        for conn in conns:
            try:
                conn.shutdown(2)  # socket.SHUT_RDWR
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._thread.join(timeout=5.0)
