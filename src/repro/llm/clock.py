"""A virtual clock for simulated latency accounting.

Palimpzest's execution statistics report wall-clock runtime; our LLM calls are
simulated, so sleeping for their real latency would make the benchmarks take
hours.  Instead every component that "takes time" advances a shared
:class:`VirtualClock`.  The clock supports *lanes* so a parallel executor can
model `max_workers` concurrent LLM calls: each lane accumulates time
independently and the elapsed time of the whole execution is the maximum lane.

A clock belongs to one run (or one chat session) and is driven from the
thread that called ``execute``; lanes model concurrency, threads do not, so
the clock holds no lock.
"""

from __future__ import annotations


class VirtualClock:
    """Tracks simulated elapsed seconds, optionally across parallel lanes.

    A clock starts at time zero.  ``advance(seconds)`` adds time to the
    current lane; ``now`` reports that lane's local time, and ``elapsed``
    reports the makespan across all lanes (the number a user would read off
    a stopwatch for the whole run).
    """

    def __init__(self, lanes: int = 1):
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self._lane_times = [0.0] * lanes
        #: The lane advances are charged to.
        self.current_lane = 0
        #: Total seconds advanced.  Unlike ``now``, which a barrier's
        #: :meth:`synchronize` can move, a delta of it around a block of
        #: work is exactly that block's own charges: the executors meter
        #: per-operator time (and span durations) with it.
        self.local_advanced = 0.0
        self._tape = None

    @property
    def lanes(self) -> int:
        return len(self._lane_times)

    def lane_times(self) -> list:
        """A snapshot copy of every lane's accumulated time."""
        return list(self._lane_times)

    @property
    def now(self) -> float:
        """Local time of the current lane, in seconds."""
        return self._lane_times[self.current_lane]

    @property
    def elapsed(self) -> float:
        """Makespan: the maximum time accumulated by any lane."""
        return max(self._lane_times)

    @property
    def total_busy(self) -> float:
        """Sum of busy time across all lanes (aggregate compute-seconds)."""
        return sum(self._lane_times)

    def advance(self, seconds: float) -> float:
        """Add ``seconds`` to the current lane and return its new local time."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock by {seconds} seconds")
        self.local_advanced += seconds
        if self._tape is not None:
            self._tape.append(seconds)
        times = self._lane_times
        times[self.current_lane] += seconds
        return times[self.current_lane]

    def record_advances(self, tape) -> None:
        """Append every amount the clock advances by to ``tape`` (a list)
        until called again with ``None``.

        Journey capture (:mod:`repro.execution.incremental`) reads an
        operator visit's individual charges from it: replaying the same
        amounts in the same order is what keeps a spliced re-run's lane
        times — float for float — equal to a cold run's.
        """
        self._tape = tape

    def pick_least_busy_lane(self) -> int:
        """Select (and return) the lane with the least accumulated time.

        This models a work queue: the next task is handed to whichever worker
        frees up first.
        """
        times = self._lane_times
        self.current_lane = min(range(len(times)), key=times.__getitem__)
        return self.current_lane

    def use_lane(self, lane: int) -> None:
        """Charge subsequent advances to ``lane``."""
        if not 0 <= lane < len(self._lane_times):
            raise IndexError(
                f"lane {lane} out of range [0, {len(self._lane_times)})"
            )
        self.current_lane = lane

    def ensure_lanes(self, lanes: int) -> None:
        """Grow the lane table to at least ``lanes`` entries.

        New lanes start at time zero, so neither ``elapsed`` nor
        ``total_busy`` changes.  Used by executors whose worker count is
        only known once the plan's stage structure is built.
        """
        missing = lanes - len(self._lane_times)
        if missing > 0:
            self._lane_times.extend([0.0] * missing)

    def synchronize(self) -> float:
        """Barrier: set every lane to the makespan and return it.

        Used at pipeline stage boundaries that must wait for all workers.
        """
        makespan = max(self._lane_times)
        self._lane_times = [makespan] * len(self._lane_times)
        return makespan

    def reset(self) -> None:
        self._lane_times = [0.0] * len(self._lane_times)
        self.current_lane = 0

    def __repr__(self) -> str:
        return f"VirtualClock(lanes={self.lanes}, elapsed={self.elapsed:.3f}s)"
