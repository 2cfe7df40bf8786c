"""The serving lock: the one lock of a ``repro serve`` process.

Whoever holds it may touch any server state: tenants, sessions, turns,
budgets, run stores, telemetry, and the engine's process-wide memos.
The HTTP dispatcher holds it around every handler, a turn worker around
every job, and each public :class:`~repro.server.store.SessionStore`
method takes it itself, so in-process callers need no ceremony.

Threads still exist (one per HTTP connection, a few turn workers), but
the GIL serializes their CPU work anyway; what they overlap is I/O —
reading request bodies and writing responses, which happen outside the
lock.  Inside, a long turn gives the lock up at each progress event
(:meth:`ServingLock.pause`), and a long-poll or a queued turn gives it up
while it sleeps (:meth:`ServingLock.wait`).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

__all__ = ["ServingLock"]


class ServingLock:
    """A re-entrant lock with first-come, first-served hand-off.

    One stdlib lock guards the four fields below and carries the one
    condition every waiter sleeps on; holding the serving lock means
    being its ``_owner``.  Waiters draw tickets, so
    :meth:`pause` hands the lock to the threads queued behind its holder
    instead of taking it straight back, as a bare release/acquire under
    the GIL usually would.
    """

    def __init__(self):
        self._cond = threading.Condition(threading.Lock())
        self._owner: Optional[int] = None
        self._depth = 0
        self._tickets = 0  # tickets drawn so far
        self._serving = 0  # the ticket whose holder owns (or may take) it

    def __enter__(self) -> "ServingLock":
        me = threading.get_ident()
        with self._cond:
            if self._owner == me:
                self._depth += 1
            else:
                self._take(me, 1)
        return self

    def __exit__(self, *exc_info) -> None:
        with self._cond:
            self._depth -= 1
            if not self._depth:
                self._give()

    def _take(self, me: int, depth: int) -> None:
        ticket = self._tickets
        self._tickets += 1
        while self._serving != ticket:
            self._cond.wait()
        self._owner, self._depth = me, depth

    def _give(self) -> int:
        """Release ownership; returns the depth given up."""
        depth = self._depth
        self._owner, self._depth = None, 0
        self._serving += 1
        self._cond.notify_all()
        return depth

    def pause(self) -> None:
        """Let every thread queued for the lock hold it once, then take
        it back (a no-op when nobody is queued or the caller does not
        hold it)."""
        me = threading.get_ident()
        with self._cond:
            if self._owner == me and self._tickets - self._serving > 1:
                self._take(me, self._give())

    def wait(self, predicate: Callable[[], bool],
             timeout: Optional[float] = None) -> None:
        """Sleep until ``predicate()`` holds or ``timeout`` passes.

        A holder gives the lock up while it sleeps and holds it again on
        return; re-check ``predicate`` then, since another holder may
        have run in between.  State the predicate reads changes under
        the lock, followed by :meth:`notify`.
        """
        me = threading.get_ident()
        with self._cond:
            if self._owner != me:
                self._cond.wait_for(predicate, timeout)
            elif not predicate():
                depth = self._give()
                try:
                    self._cond.wait_for(predicate, timeout)
                finally:
                    self._take(me, depth)

    def notify(self) -> None:
        """Wake every :meth:`wait` to re-check its predicate."""
        with self._cond:
            self._cond.notify_all()
