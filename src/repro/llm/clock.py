"""A virtual clock for simulated latency accounting.

Palimpzest's execution statistics report wall-clock runtime; our LLM calls are
simulated, so sleeping for their real latency would make the benchmarks take
hours.  Instead every component that "takes time" advances a shared
:class:`VirtualClock`.  The clock supports *lanes* so a parallel executor can
model `max_workers` concurrent LLM calls: each lane accumulates time
independently and the elapsed time of the whole execution is the maximum lane.

Every executor drives its clock from the thread that called ``execute``;
lanes model concurrency, threads do not.  The clock still keeps the
*current lane* selection thread-local and mutates the lane table under a
lock, so a clock shared by server threads stays consistent: each thread
advances its own lane without seeing other threads' selections (one
implicit thread, lane 0 by default).
"""

from __future__ import annotations

import threading


class _ThreadState:
    """One thread's view of a :class:`VirtualClock`."""

    __slots__ = ("lane", "advanced", "tape")

    def __init__(self):
        #: The lane this thread's advances are charged to.
        self.lane = 0
        #: Total seconds this thread has advanced the clock by.
        self.advanced = 0.0
        #: See :meth:`VirtualClock.record_advances`.
        self.tape = None


class VirtualClock:
    """Tracks simulated elapsed seconds, optionally across parallel lanes.

    A clock starts at time zero.  ``advance(seconds)`` adds time to the
    calling thread's current lane; ``now`` reports that lane's local time,
    and ``elapsed`` reports the makespan across all lanes (the number a user
    would read off a stopwatch for the whole run).
    """

    _GUARDED_BY = {"_lane_times": "_lock"}

    def __init__(self, lanes: int = 1):
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self._lane_times = [0.0] * lanes
        self._lock = threading.RLock()
        self._local = threading.local()

    # -- thread-local state ---------------------------------------------------

    @property
    def _state(self) -> "_ThreadState":
        """The calling thread's lane selection and advance accounting: one
        thread-local read, however many of the three the caller needs."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    @property
    def _current_lane(self) -> int:
        return self._state.lane

    @_current_lane.setter
    def _current_lane(self, lane: int) -> None:
        self._state.lane = lane

    @property
    def current_lane(self) -> int:
        """The lane the calling thread's advances are charged to."""
        return self._current_lane

    @property
    def lanes(self) -> int:
        with self._lock:
            return len(self._lane_times)

    def lane_times(self) -> list:
        """A snapshot copy of every lane's accumulated time."""
        with self._lock:
            return list(self._lane_times)

    @property
    def now(self) -> float:
        """Local time of the calling thread's current lane, in seconds."""
        with self._lock:
            return self._lane_times[self._current_lane]

    @property
    def elapsed(self) -> float:
        """Makespan: the maximum time accumulated by any lane."""
        with self._lock:
            return max(self._lane_times)

    @property
    def total_busy(self) -> float:
        """Sum of busy time across all lanes (aggregate compute-seconds)."""
        with self._lock:
            return sum(self._lane_times)

    @property
    def local_advanced(self) -> float:
        """Total seconds the *calling thread* has advanced this clock.

        Unlike ``now`` (the current lane's time, which a barrier's
        :meth:`synchronize` or another thread can move), this is a
        per-thread monotonic accumulator — so a delta of
        ``local_advanced`` around a block of work measures exactly that
        block's own charges.  The executors meter per-operator time (and
        span durations) with it.
        """
        return self._state.advanced

    def advance(self, seconds: float) -> float:
        """Add ``seconds`` to the current lane and return its new local time."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock by {seconds} seconds")
        state = self._state
        state.advanced += seconds
        if state.tape is not None:
            state.tape.append(seconds)
        with self._lock:
            times = self._lane_times
            times[state.lane] += seconds
            return times[state.lane]

    def record_advances(self, tape) -> None:
        """Append every amount the *calling thread* advances by to ``tape``
        (a list) until called again with ``None``.

        Journey capture (:mod:`repro.execution.incremental`) reads an
        operator visit's individual charges from it: replaying the same
        amounts in the same order is what keeps a spliced re-run's lane
        times — float for float — equal to a cold run's.
        """
        self._state.tape = tape

    def pick_least_busy_lane(self) -> int:
        """Select (and return) the lane with the least accumulated time.

        This models a work queue: the next task is handed to whichever worker
        frees up first.  The selection applies to the calling thread only.
        """
        with self._lock:
            lane = min(
                range(len(self._lane_times)), key=lambda i: self._lane_times[i]
            )
            self._current_lane = lane
            return lane

    def use_lane(self, lane: int) -> None:
        """Bind the calling thread to ``lane`` for subsequent advances."""
        with self._lock:
            if not 0 <= lane < len(self._lane_times):
                raise IndexError(
                    f"lane {lane} out of range [0, {len(self._lane_times)})"
                )
            self._current_lane = lane

    def ensure_lanes(self, lanes: int) -> None:
        """Grow the lane table to at least ``lanes`` entries.

        New lanes start at time zero, so neither ``elapsed`` nor
        ``total_busy`` changes.  Used by executors whose worker count is
        only known once the plan's stage structure is built.
        """
        with self._lock:
            missing = lanes - len(self._lane_times)
            if missing > 0:
                self._lane_times.extend([0.0] * missing)

    def synchronize(self) -> float:
        """Barrier: set every lane to the makespan and return it.

        Used at pipeline stage boundaries that must wait for all workers.
        """
        with self._lock:
            makespan = max(self._lane_times)
            self._lane_times = [makespan] * len(self._lane_times)
            return makespan

    def reset(self) -> None:
        with self._lock:
            self._lane_times = [0.0] * len(self._lane_times)
            self._current_lane = 0

    def __repr__(self) -> str:
        return f"VirtualClock(lanes={self.lanes}, elapsed={self.elapsed:.3f}s)"
