"""Execution traces recorded by the simulator.

A trace is the full record of what ran when, at which operating point,
drawing how much battery current.  It reduces to a
:class:`~repro.sim.profile.CurrentProfile` for battery evaluation and
renders as ASCII for the paper's trace figures (Figures 4 and 5).

Storage is columnar (struct-of-arrays): per-field numpy arrays grown
geometrically, with task labels interned to integer ids.  Every
reduction the experiment drivers hit per scenario — ``to_profile``,
``charge``, ``busy_time``, ``label_runs``, ``node_order``,
``idle_mask`` — is a cached O(1)-allocation numpy reduction over those
columns instead of a Python scan over dataclasses.  The segment-level
API is preserved: iteration, indexing and :meth:`busy_segments` yield
:class:`TraceSegment` views materialized on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ProfileError
from .profile import CurrentProfile

__all__ = ["TraceSegment", "ExecutionTrace", "IDLE"]

#: Label used for idle segments.
IDLE = "<idle>"


@dataclass(frozen=True)
class TraceSegment:
    """One homogeneous stretch of execution.

    Attributes
    ----------
    start, duration:
        Wall-clock placement in seconds.
    graph, node:
        What ran (``IDLE``/empty for idle time).
    speed:
        Normalized frequency in [0, 1] (0 when idle).
    voltage:
        Supply voltage of the operating point (0 when idle).
    current:
        Battery current drawn (amperes).
    """

    start: float
    duration: float
    graph: str
    node: str
    speed: float
    voltage: float
    current: float

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def is_idle(self) -> bool:
        return self.graph == IDLE

    @property
    def label(self) -> str:
        return IDLE if self.is_idle else f"{self.graph}.{self.node}"

    @property
    def cycles(self) -> float:
        """Work executed, in normalized cycles (seconds at f_max)."""
        return self.speed * self.duration


class ExecutionTrace:
    """An append-only, columnar sequence of contiguous segments."""

    _INITIAL_CAPACITY = 64

    def __init__(self) -> None:
        cap = self._INITIAL_CAPACITY
        self._n = 0
        self._start = np.empty(cap)
        self._duration = np.empty(cap)
        self._speed = np.empty(cap)
        self._voltage = np.empty(cap)
        self._current = np.empty(cap)
        self._label_id = np.empty(cap, dtype=np.intp)
        self._names: List[Tuple[str, str]] = []  # id -> (graph, node)
        self._name_ids: Dict[Tuple[str, str], int] = {}
        self._idle_flags: List[bool] = []  # id -> is_idle
        self._cache: Dict[str, object] = {}

    # -- recording -----------------------------------------------------
    def _grow(self) -> None:
        cap = max(2 * self._start.size, self._INITIAL_CAPACITY)
        for name in (
            "_start", "_duration", "_speed", "_voltage", "_current",
            "_label_id",
        ):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def record(
        self,
        start: float,
        duration: float,
        graph: str,
        node: str,
        speed: float,
        voltage: float,
        current: float,
    ) -> None:
        """Append one segment without materializing a dataclass."""
        if duration <= 0:
            return  # zero-length dispatches carry no information
        n = self._n
        if n:
            prev_end = self._start[n - 1] + self._duration[n - 1]
            gap = start - prev_end
            if abs(gap) > 1e-6:
                raise ProfileError(
                    f"trace segments must be contiguous: previous ends at "
                    f"{prev_end:.9g}, next starts at "
                    f"{start:.9g}"
                )
        if n == self._start.size:
            self._grow()
        key = (graph, node)
        label_id = self._name_ids.get(key)
        if label_id is None:
            label_id = len(self._names)
            self._name_ids[key] = label_id
            self._names.append(key)
            self._idle_flags.append(graph == IDLE)
        self._start[n] = start
        self._duration[n] = duration
        self._speed[n] = speed
        self._voltage[n] = voltage
        self._current[n] = current
        self._label_id[n] = label_id
        self._n = n + 1
        if self._cache:
            self._cache.clear()

    def append(self, segment: TraceSegment) -> None:
        self.record(
            segment.start, segment.duration, segment.graph, segment.node,
            segment.speed, segment.voltage, segment.current,
        )

    def extend_columns(
        self,
        starts: np.ndarray,
        durations: np.ndarray,
        speeds: np.ndarray,
        voltages: np.ndarray,
        currents: np.ndarray,
        labels: np.ndarray,
        names: List[Tuple[str, str]],
    ) -> None:
        """Bulk-append pre-built columns (the vector-engine handoff).

        ``labels`` holds integer indices into ``names`` (``(graph,
        node)`` pairs; an idle row's pair is ``(IDLE, "")``).  Label
        interning follows first-occurrence order and zero-duration rows
        are dropped, so the resulting columns are bit-identical to what
        an equivalent sequence of :meth:`record` calls would have
        stored — including the contiguity guarantee, which is validated
        here with the same ``1e-6`` gap bound.
        """
        starts = np.asarray(starts, dtype=float)
        durations = np.asarray(durations, dtype=float)
        keep = durations > 0
        if not keep.all():
            starts, durations = starts[keep], durations[keep]
            speeds = np.asarray(speeds, dtype=float)[keep]
            voltages = np.asarray(voltages, dtype=float)[keep]
            currents = np.asarray(currents, dtype=float)[keep]
            labels = np.asarray(labels)[keep]
        m = starts.size
        if m == 0:
            return
        prev_ends = np.empty(m)
        prev_ends[1:] = starts[:-1] + durations[:-1]
        if self._n:
            prev_ends[0] = (
                self._start[self._n - 1] + self._duration[self._n - 1]
            )
            check = slice(0, m)
        else:
            check = slice(1, m)
        gaps = np.abs(starts[check] - prev_ends[check])
        if gaps.size and float(gaps.max()) > 1e-6:
            k = int(np.argmax(gaps)) + check.start
            raise ProfileError(
                f"trace segments must be contiguous: previous ends at "
                f"{prev_ends[k]:.9g}, next starts at "
                f"{starts[k]:.9g}"
            )
        labels = np.asarray(labels, dtype=np.intp)
        uniq, first, inv = np.unique(
            labels, return_index=True, return_inverse=True
        )
        trace_ids = np.empty(uniq.size, dtype=np.intp)
        # Intern in first-occurrence order so label ids match what the
        # per-segment record() path would have assigned.
        for pos in np.argsort(first, kind="stable"):
            key = names[int(uniq[pos])]
            label_id = self._name_ids.get(key)
            if label_id is None:
                label_id = len(self._names)
                self._name_ids[key] = label_id
                self._names.append(key)
                self._idle_flags.append(key[0] == IDLE)
            trace_ids[pos] = label_id
        while self._start.size < self._n + m:
            self._grow()
        n = self._n
        self._start[n:n + m] = starts
        self._duration[n:n + m] = durations
        self._speed[n:n + m] = speeds
        self._voltage[n:n + m] = voltages
        self._current[n:n + m] = currents
        self._label_id[n:n + m] = trace_ids[inv]
        self._n = n + m
        if self._cache:
            self._cache.clear()

    # -- columnar views ------------------------------------------------
    @property
    def starts(self) -> np.ndarray:
        return self._start[: self._n]

    @property
    def durations(self) -> np.ndarray:
        return self._duration[: self._n]

    @property
    def speeds(self) -> np.ndarray:
        return self._speed[: self._n]

    @property
    def voltages(self) -> np.ndarray:
        return self._voltage[: self._n]

    @property
    def currents(self) -> np.ndarray:
        return self._current[: self._n]

    @property
    def label_ids(self) -> np.ndarray:
        return self._label_id[: self._n]

    @property
    def idle(self) -> np.ndarray:
        """Boolean idle mask aligned with the columns (cached)."""
        mask = self._cache.get("idle")
        if mask is None:
            flags = np.asarray(self._idle_flags, dtype=bool)
            mask = (
                flags[self.label_ids]
                if flags.size
                else np.zeros(0, dtype=bool)
            )
            self._cache["idle"] = mask
        return mask

    def _label_str(self, label_id: int) -> str:
        graph, node = self._names[label_id]
        return IDLE if graph == IDLE else f"{graph}.{node}"

    def _segment(self, k: int) -> TraceSegment:
        graph, node = self._names[self._label_id[k]]
        return TraceSegment(
            float(self._start[k]),
            float(self._duration[k]),
            graph,
            node,
            float(self._speed[k]),
            float(self._voltage[k]),
            float(self._current[k]),
        )

    # -- sequence API --------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        for k in range(self._n):
            yield self._segment(k)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._segment(k) for k in range(*i.indices(self._n))]
        k = i.__index__()
        if k < 0:
            k += self._n
        if not (0 <= k < self._n):
            raise IndexError("trace index out of range")
        return self._segment(k)

    @property
    def end_time(self) -> float:
        if not self._n:
            return 0.0
        return float(self._start[self._n - 1] + self._duration[self._n - 1])

    # ------------------------------------------------------------------
    def busy_segments(self) -> Tuple[TraceSegment, ...]:
        return tuple(
            self._segment(int(k)) for k in np.flatnonzero(~self.idle)
        )

    @staticmethod
    def _seq_sum(values: np.ndarray) -> float:
        """Strict left-to-right float accumulation (``cumsum`` is
        sequential, unlike the pairwise ``np.sum``) — bit-identical to
        the Python ``sum`` loop this storage replaced, which the golden
        trace fixtures pin exactly."""
        if values.size == 0:
            return 0.0
        return float(np.cumsum(values)[-1])

    def busy_time(self) -> float:
        out = self._cache.get("busy_time")
        if out is None:
            out = self._seq_sum(self.durations[~self.idle])
            self._cache["busy_time"] = out
        return out

    def executed_cycles(self) -> float:
        out = self._cache.get("executed_cycles")
        if out is None:
            busy = ~self.idle
            out = self._seq_sum(
                self.speeds[busy] * self.durations[busy]
            )
            self._cache["executed_cycles"] = out
        return out

    def charge(self) -> float:
        """Total battery charge drawn (coulombs)."""
        out = self._cache.get("charge")
        if out is None:
            out = self._seq_sum(self.currents * self.durations)
            self._cache["charge"] = out
        return out

    def energy(self, v_bat: float) -> float:
        """Battery-side energy in joules for terminal voltage ``v_bat``."""
        return self.charge() * v_bat

    def node_order(self) -> Tuple[str, ...]:
        """Distinct task labels in first-execution order (idle skipped)."""
        ids = self.label_ids[~self.idle]
        if ids.size == 0:
            return ()
        uniq, first = np.unique(ids, return_index=True)
        order = np.argsort(first)
        return tuple(self._label_str(int(uniq[k])) for k in order)

    def completion_order(self) -> Tuple[str, ...]:
        """Task labels ordered by the end of their *last* segment."""
        busy = ~self.idle
        ids = self.label_ids[busy]
        if ids.size == 0:
            return ()
        ends = (self.starts + self.durations)[busy]
        uniq, first = np.unique(ids, return_index=True)
        _, rev_idx = np.unique(ids[::-1], return_index=True)
        last_end = ends[ids.size - 1 - rev_idx]
        # First-occurrence order, then a stable sort by last end time —
        # the same tuple the label -> last-end dict scan produced.
        first_order = np.argsort(first)
        by_end = np.argsort(last_end[first_order], kind="stable")
        return tuple(
            self._label_str(int(uniq[first_order[k]])) for k in by_end
        )

    # ------------------------------------------------------------------
    def to_profile(self, *, merge: bool = True) -> CurrentProfile:
        """The battery-facing current profile of this trace."""
        if not self._n:
            raise ProfileError("empty trace has no profile")
        prof = CurrentProfile(self.durations.copy(), self.currents.copy())
        return prof.merged() if merge else prof

    def idle_mask(self) -> np.ndarray:
        """Boolean mask aligned with the *unmerged* profile segments."""
        return self.idle.copy()

    def label_runs(self) -> Tuple[Tuple[float, float, str, float, bool], ...]:
        """Consecutive same-label segments coalesced.

        Returns ``(start, duration, label, mean_current, is_idle)``
        tuples.  A run is one uninterrupted stretch of a task (or of
        idleness); within a run the two-level frequency mix may toggle
        the instantaneous current, but the run's *mean* current tracks
        the reference frequency — the quantity battery guideline 1
        constrains.
        """
        if not self._n:
            return ()
        ids = self.label_ids
        head = np.concatenate(
            [[0], np.flatnonzero(ids[1:] != ids[:-1]) + 1]
        )
        run_dur = np.add.reduceat(self.durations, head)
        run_charge = np.add.reduceat(
            self.durations * self.currents, head
        )
        idle = self.idle
        return tuple(
            (
                float(self.starts[j]),
                float(run_dur[k]),
                self._label_str(int(ids[j])),
                float(run_charge[k] / run_dur[k]),
                bool(idle[j]),
            )
            for k, j in enumerate(head)
        )

    # ------------------------------------------------------------------
    def render_ascii(
        self, *, width: int = 72, until: Optional[float] = None
    ) -> str:
        """A compact timeline like the paper's Figure 4/5 traces.

        One row per distinct label; columns are time bins; a cell shows
        a block if the label ran for the majority of that bin.
        """
        horizon = until if until is not None else self.end_time
        if horizon <= 0:
            return "(empty trace)"
        labels = []
        for s in self:
            if s.label not in labels:
                labels.append(s.label)
        bin_w = horizon / width
        rows = {lab: [" "] * width for lab in labels}
        for s in self:
            b0 = int(np.clip(s.start / bin_w, 0, width - 1))
            b1 = int(np.clip(np.ceil(s.end / bin_w), 1, width))
            for b in range(b0, b1):
                rows[s.label][b] = "#" if not s.is_idle else "."
        name_w = max(len(lab) for lab in labels)
        lines = [
            f"{lab.rjust(name_w)} |{''.join(rows[lab])}|" for lab in labels
        ]
        axis = f"{'t'.rjust(name_w)}  0{' ' * (width - 8)}{horizon:.4g}"
        return "\n".join(lines + [axis])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionTrace(segments={len(self)}, end={self.end_time:.6g}s, "
            f"busy={self.busy_time():.6g}s)"
        )
