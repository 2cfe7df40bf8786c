"""The multi-tenant session store behind ``repro serve``.

Every tenant owns an isolated slice of state under
``<root>/<tenant-id>/``::

    <root>/<tenant-id>/
        tenant.json           # quota caps + spent totals (restart restore)
        runs/                 # the tenant's private RunRegistry
        sessions/<sid>.json   # replayable workspace payload + turn log

and an in-process :class:`TenantState` bundling the tenant's
:class:`~repro.llm.usage.BudgetMeter`, its run store and its live chat
sessions.  Only the store creates a tenant's state, rooted in the
tenant's own directory, so two tenants never share a registry or a
budget.  All of it, for every tenant, is touched under the store's one
:class:`~repro.server.serving.ServingLock` (``SessionStore.serving``):
every public method takes it, and the HTTP layer holds it around every
handler.  A turn gives it up at each progress event, so other tenants'
requests and long-polls run between a pipeline's records.

Quota semantics (see ``docs/server.md``):

* **pre-turn**: a turn against an exhausted budget is rejected before
  any agent or pipeline spend (:meth:`BudgetMeter.precheck` —
  ``spent >= cap`` rejects, so an *exactly-at-budget* meter is spent).
* **mid-run**: every simulated LLM call charges the meter *after* the
  ledger records it (no lost accounting), and the breach aborts the
  pipeline at the next inter-operator checkpoint; the turn completes
  with status ``quota_rejected`` and the partial spend stands.
* **admin**: raising the caps via :meth:`SessionStore.set_quota`
  unblocks the tenant immediately.
"""

from __future__ import annotations

import json
import logging
import queue
import re
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.llm.usage import BudgetMeter, QuotaExceededError
from repro.obs.persist import write_json
from repro.obs.registry import RunRegistry, RunStore
from repro.obs.telemetry import (
    Telemetry,
    bind_context,
    current_context,
    wall_perf,
)
from repro.server.progress import ProgressBuffer, progress_events_from_trace
from repro.server.serving import ServingLock

__all__ = ["SessionStore", "TenantState", "ServerSession", "TurnState",
           "TurnWorkerPool", "WorkerPoolSaturated",
           "DEFAULT_TENANTS_ROOT"]

DEFAULT_TENANTS_ROOT = ".repro/tenants"

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: How many events a persisted turn keeps (the live stream is unbounded
#: in memory for the turn's lifetime; disk keeps the tail).
_PERSISTED_EVENTS = 500

#: The marker every quota failure carries (``QuotaExceededError``
#: messages all start with ``"quota exhausted (<stage>)"``); the store
#: scans agent error observations for it to classify a turn that
#: aborted mid-run inside a tool.
_QUOTA_MARKER = "quota exhausted"

#: Last-resort channel for worker-pool jobs that escape their own error
#: handling — operational telemetry is per-store, the pool is not.
_log = logging.getLogger(__name__)


class WorkerPoolSaturated(RuntimeError):
    """The async-turn worker pool's bounded queue is full.

    The HTTP layer maps this to ``503`` with a ``Retry-After`` header;
    the store never queues unboundedly on behalf of ``wait=false``.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class TurnWorkerPool:
    """Fixed-size worker pool with a bounded queue for async turns.

    ``wait=false`` turns are submitted here: at most ``workers`` threads
    run them, at most ``queue_size`` wait, and anything beyond that is
    rejected with :class:`WorkerPoolSaturated` — back-pressure instead
    of thread exhaustion.  A worker holds ``lock`` (the store's serving
    lock) around each job; its turn gives it up at progress events.
    Worker threads are lazy (a store that never sees an async turn
    spawns none) and daemonized.
    """

    def __init__(self, workers: int = 4, queue_size: int = 16,
                 name: str = "turn-worker",
                 lock: Optional[ServingLock] = None):
        self.workers = max(1, int(workers))
        self.queue_size = max(1, int(queue_size))
        self.name = name
        self.lock = lock if lock is not None else ServingLock()
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.queue_size)
        self._threads: List[threading.Thread] = []
        self._active = 0

    def submit(self, fn) -> None:
        """Enqueue one job; raises :class:`WorkerPoolSaturated` when full."""
        with self.lock:
            while len(self._threads) < self.workers:
                worker = threading.Thread(
                    target=self._worker,
                    name=f"{self.name}-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(worker)
                worker.start()
        try:
            self._queue.put_nowait(fn)
        except queue.Full:
            raise WorkerPoolSaturated(
                f"turn worker pool saturated ({self.workers} workers, "
                f"{self.queue_size} queued); retry shortly",
            ) from None

    def _worker(self) -> None:
        while True:
            fn = self._queue.get()
            if fn is None:
                return
            with self.lock:
                self._active += 1
                try:
                    fn()
                except Exception:
                    # A job that escapes its own error handling must not
                    # kill the worker: dead threads stay in ``_threads``,
                    # so submit() would never replace them and each
                    # failure would permanently shrink the pool by one.
                    _log.exception("%s: job raised", self.name)
                finally:
                    self._active -= 1
            self._queue.task_done()

    def stats(self) -> Dict[str, Any]:
        """Best-effort occupancy snapshot (feeds the saturation gauge)."""
        queued = self._queue.qsize()  # nondet: ok(best-effort pool occupancy for operational telemetry only)
        capacity = self.workers + self.queue_size
        return {
            "workers": self.workers,
            "started": len(self._threads),
            "active": self._active,
            "queued": queued,
            "capacity": capacity,
            "saturation": round((self._active + queued) / capacity, 4),
        }

    def close(self) -> None:
        """Stop accepting work and let idle workers drain out."""
        for _ in range(len(self._threads)):
            try:
                self._queue.put_nowait(None)
            except queue.Full:  # workers will still exit on next get
                break


def _check_id(kind: str, value: str) -> str:
    if not _ID_RE.match(value or ""):
        raise ValueError(
            f"invalid {kind} id {value!r}: ids are 1-64 chars of "
            "[A-Za-z0-9_.-] and start alphanumeric"
        )
    return value


class TurnState:
    """One chat turn: request, outcome, usage, progress events.

    Written by the turn and read by HTTP handlers, all under the serving
    lock, which the turn's :class:`~repro.server.progress.ProgressBuffer`
    also sleeps on (``lock``).
    """

    def __init__(self, turn_id: str, message: str,
                 request_id: Optional[str] = None,
                 lock: Optional[ServingLock] = None):
        self.turn_id = turn_id
        self.message = message
        #: Correlation id of the HTTP request that created the turn —
        #: immutable after construction, shared with every telemetry
        #: log line and progress event the turn produces.
        self.request_id = request_id
        self.events = ProgressBuffer(lock)
        self.status = "running"  # running | ok | quota_rejected | error
        self.reply: Optional[str] = None
        self.tools: List[str] = []
        self.error: Optional[str] = None
        self.usage_delta: Dict[str, Any] = {}
        #: The chat session's step count when the turn's ``chat`` call
        #: ended — the turn's mark in the session's turn log; None when
        #: the turn never reached it.
        self.steps: Optional[int] = None

    def finish(
        self,
        status: str,
        reply: Optional[str],
        tools: List[str],
        usage: Dict[str, Any],
        error: Optional[str] = None,
    ) -> None:
        self.status = status
        self.reply = reply
        self.tools = list(tools)
        self.usage_delta = dict(usage)
        self.error = error
        self.events.close()

    def fail_if_running(self, error: str) -> bool:
        """Error out a turn that never finished; no-op otherwise.

        The infrastructure-failure path in
        :meth:`SessionStore._run_turn` uses this so a turn whose worker
        crashed outside the normal chat error handling (session evicted
        mid-queue, persistence I/O error) is never left in ``running``
        forever.  Returns whether this call performed the transition.
        """
        if self.status != "running":
            return False
        self.status = "error"
        self.reply = error
        self.error = error
        self.usage_delta = {"cost_usd": 0.0, "tokens": 0}
        self.events.close()
        return True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "turn_id": self.turn_id,
            "message": self.message,
            "request_id": self.request_id,
            "status": self.status,
            "reply": self.reply,
            "tools": list(self.tools),
            "usage": dict(self.usage_delta),
            "error": self.error,
            "events": len(self.events),
            "steps": self.steps,
        }

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-able form persisted in the session file."""
        payload = self.to_dict()
        payload["events"] = self.events.snapshot()[-_PERSISTED_EVENTS:]
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TurnState":
        turn = cls(payload["turn_id"], payload.get("message", ""),
                   request_id=payload.get("request_id"))
        turn.events.extend(payload.get("events") or [])
        turn.steps = payload.get("steps")
        turn.finish(
            payload.get("status", "ok"),
            payload.get("reply"),
            list(payload.get("tools") or []),
            dict(payload.get("usage") or {}),
            payload.get("error"),
        )
        return turn


class SessionMeter:
    """The tenant's :class:`BudgetMeter` as one session charges it.

    Caps, checks and totals are the tenant's: every charge lands on the
    shared meter.  The session also tallies its own charges since
    :meth:`start_turn`, so a turn bills exactly what it spent even when
    another session of the tenant spends while it runs.
    """

    def __init__(self, tenant_budget: BudgetMeter):
        self.tenant_budget = tenant_budget
        self.turn_cost_usd = 0.0
        self.turn_tokens = 0

    def start_turn(self) -> None:
        self.turn_cost_usd = 0.0
        self.turn_tokens = 0

    def charge(self, usage) -> None:
        self.turn_cost_usd += usage.cost_usd
        self.turn_tokens += usage.total_tokens
        self.tenant_budget.charge(usage)

    def __getattr__(self, name: str):
        return getattr(self.tenant_budget, name)


class ServerSession:
    """One tenant chat session: the live PalimpChat session + turn log.

    A session runs one turn at a time: ``active`` is the turn in the
    engine, and a second turn waits (lock given up) until it is ``None``.
    Sessions of the same tenant, and of different tenants, interleave at
    progress events.
    """

    def __init__(self, session_id: str, chat_session, title: str,
                 meter: SessionMeter):
        self.session_id = session_id
        self.chat = chat_session
        self.title = title
        self.meter = meter
        self.active: Optional[TurnState] = None
        self.turns: List[TurnState] = []

    def next_turn_id(self) -> str:
        return f"t-{len(self.turns) + 1:04d}"

    def find_turn(self, turn_id: str) -> TurnState:
        for turn in self.turns:
            if turn.turn_id == turn_id:
                return turn
        raise KeyError(
            f"no turn {turn_id!r} in session {self.session_id!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "title": self.title,
            "turns": len(self.turns),
            "pipeline": self.chat.workspace.describe_pipeline(),
        }

    def to_payload(self) -> Dict[str, Any]:
        return {
            "session_id": self.session_id,
            "title": self.title,
            "workspace": self.chat.workspace.to_payload(),
            "turns": [turn.to_payload() for turn in self.turns],
        }


class TenantState:
    """One tenant's isolated state; touch it under the serving lock."""

    def __init__(self, tenant_id: str, root: Path, budget: BudgetMeter):
        self.tenant_id = tenant_id
        self.root = root
        self.budget = budget
        self.sessions: Dict[str, ServerSession] = {}
        #: The run store every session of the tenant shares: its runs
        #: live in ``<root>/runs``, the recently used ones in memory.
        self.runs = RunStore(str(root / "runs"))

    def registry(self):
        """The tenant's private run registry (``<root>/runs``)."""
        return RunRegistry(str(self.root / "runs"))

    def get_session(self, session_id: str) -> ServerSession:
        try:
            return self.sessions[session_id]
        except KeyError:
            raise KeyError(
                f"tenant {self.tenant_id!r} has no session "
                f"{session_id!r}") from None

    def peek_session(self, session_id: str) -> Optional[ServerSession]:
        return self.sessions.get(session_id)

    def put_session(self, session: ServerSession) -> None:
        self.sessions[session.session_id] = session

    def pop_session(self, session_id: str) -> Optional[ServerSession]:
        return self.sessions.pop(session_id, None)

    def session_ids(self) -> List[str]:
        return sorted(self.sessions)

    def session_rows(self) -> List[Dict[str, Any]]:
        return [self.sessions[sid].to_dict() for sid in sorted(self.sessions)]

    def sessions_dir(self) -> Path:
        return self.root / "sessions"

    def usage(self) -> Dict[str, Any]:
        return self.budget.snapshot()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenant_id": self.tenant_id,
            "usage": self.usage(),
            "sessions": len(self.sessions),
            "runs": len(self.registry().list()),
        }


class SessionStore:
    """Tenant registry + session lifecycle + quota accounting.

    The single shared object behind the HTTP layer.  It owns the
    process's one lock, ``serving``; every public method takes it (it is
    re-entrant, so a handler already holding it just goes on).
    """

    def __init__(
        self,
        root: str = DEFAULT_TENANTS_ROOT,
        default_max_cost_usd: Optional[float] = None,
        default_max_tokens: Optional[int] = None,
        agent_model: Optional[str] = "gpt-4o",
        telemetry=None,
        telemetry_root: Optional[str] = None,
        async_workers: int = 4,
        async_queue: int = 16,
    ):
        """``telemetry`` accepts an explicit :class:`Telemetry`, ``None``
        (construct one logging under ``telemetry_root``, default
        ``<root>/../telemetry``), or ``False`` (no log file; metrics and
        SLOs are still kept in memory).  ``async_workers`` /
        ``async_queue`` bound the ``wait=false`` turn worker pool."""
        self.root = Path(root)
        self.default_max_cost_usd = default_max_cost_usd
        self.default_max_tokens = default_max_tokens
        self.agent_model = agent_model
        if telemetry is None or telemetry is True:
            telemetry = Telemetry(
                root=telemetry_root or self.root.parent / "telemetry")
        elif telemetry is False:
            telemetry = Telemetry(root=None)
        self.telemetry = telemetry
        self.serving = ServingLock()
        self.worker_pool = TurnWorkerPool(
            workers=async_workers, queue_size=async_queue, lock=self.serving)
        self._tenants: Dict[str, TenantState] = {}
        self.telemetry.ops.set("pool.workers", self.worker_pool.workers)

    # -- tenant lifecycle ----------------------------------------------

    @contextmanager
    def acquire(self, tenant_id: str):
        """``with store.acquire(tid) as tenant:`` — the tenant's state
        with the serving lock held (for callers outside a handler)."""
        with self.serving:
            yield self.tenant(tenant_id)

    def tenant(self, tenant_id: str) -> TenantState:
        """The tenant's state, created on first use (restoring persisted
        quota/usage if ``tenant.json`` exists); call it holding the
        serving lock, as every handler does."""
        _check_id("tenant", tenant_id)
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            tenant = self._tenants[tenant_id] = self._load_tenant(tenant_id)
        return tenant

    def _load_tenant(self, tenant_id: str) -> TenantState:
        root = self.root / tenant_id
        root.mkdir(parents=True, exist_ok=True)
        budget = BudgetMeter(
            max_cost_usd=self.default_max_cost_usd,
            max_tokens=self.default_max_tokens,
        )
        meta_path = root / "tenant.json"
        if meta_path.is_file():
            with open(meta_path, encoding="utf-8") as handle:
                meta = json.load(handle)
            quota = meta.get("quota") or {}
            budget.set_limits(
                max_cost_usd=quota.get("max_cost_usd"),
                max_tokens=quota.get("max_tokens"),
            )
            spent = meta.get("usage") or {}
            budget.charge_totals(
                cost_usd=float(spent.get("cost_usd", 0.0)),
                tokens=int(spent.get("tokens", 0)),
                calls=int(spent.get("calls", 0)),
            )
        return TenantState(tenant_id, root, budget)

    def tenant_ids(self) -> List[str]:
        """Known tenants: in-memory plus any persisted on disk."""
        with self.serving:
            known = set(self._tenants)
            if self.root.is_dir():
                for entry in self.root.iterdir():
                    if entry.is_dir() and _ID_RE.match(entry.name):
                        known.add(entry.name)
            return sorted(known)

    # -- sessions -------------------------------------------------------

    def ensure_session(
        self,
        tenant_id: str,
        session_id: Optional[str] = None,
        title: str = "PalimpChat session",
    ) -> Dict[str, Any]:
        """Create a session — or resume one from memory or disk.

        Returns the session row plus ``"resumed": bool``.  A fresh
        session gets the next sequential id (``s-0001``, ...); naming
        an id resumes it (from the persisted payload when the process
        restarted since it was created).
        """
        with self.acquire(tenant_id) as tenant:
            if session_id is not None:
                _check_id("session", session_id)
                existing = tenant.peek_session(session_id)
                if existing is not None:
                    return {**existing.to_dict(), "resumed": True}
                persisted = tenant.sessions_dir() / f"{session_id}.json"
                if persisted.is_file():
                    session = self._resume_session(tenant, persisted)
                    return {**session.to_dict(), "resumed": True}
            session = self._new_session(
                tenant, session_id or self._next_session_id(tenant), title)
            tenant.put_session(session)
            self._persist_session(tenant, session)
            self._persist_tenant(tenant)
            return {**session.to_dict(), "resumed": False}

    def _new_session(self, tenant: TenantState, session_id: str,
                     title: str,
                     chat_payload: Optional[Dict[str, Any]] = None
                     ) -> ServerSession:
        from repro.chat.session import PalimpChatSession

        chat = PalimpChatSession.from_payload(
            chat_payload or {}, agent_model=self.agent_model)
        chat.workspace.runs = tenant.runs
        # The agent's own reasoning spend counts against the tenant
        # quota too, not just pipeline execution.
        meter = SessionMeter(tenant.budget)
        chat.workspace.budget = meter
        chat.agent_ledger.attach_budget(meter)
        # Wall-clock ops hook only — the engine times optimize/execute
        # phases into OpsMetrics; deterministic artifacts are untouched.
        chat.workspace.telemetry = self.telemetry
        return ServerSession(session_id, chat, title, meter)

    def _next_session_id(self, tenant: TenantState) -> str:
        highest = 0
        taken = set(tenant.session_ids())
        sessions_dir = tenant.sessions_dir()
        if sessions_dir.is_dir():
            taken.update(p.stem for p in sessions_dir.glob("*.json"))
        for sid in sorted(taken):
            match = re.match(r"^s-(\d+)$", sid)
            if match:
                highest = max(highest, int(match.group(1)))
        return f"s-{highest + 1:04d}"

    def _resume_session(self, tenant: TenantState,
                        path: Path) -> ServerSession:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        turns = [TurnState.from_payload(row)
                 for row in payload.get("turns") or []]
        # The chat session's turn log is the rows of the turns that
        # reached it; a turn that raised there has no reply.
        chat_turns = [
            {"message": turn.message, "tool_sequence": turn.tools,
             "text": None if turn.error else turn.reply,
             "steps": turn.steps}
            for turn in turns if turn.steps is not None
        ]
        session = self._new_session(
            tenant, payload["session_id"],
            payload.get("title", "PalimpChat session"),
            {"workspace": payload.get("workspace"), "turns": chat_turns})
        session.turns.extend(turns)
        tenant.put_session(session)
        return session

    def evict_session(self, tenant_id: str, session_id: str) -> bool:
        """Drop a session from memory and disk; True if it existed."""
        with self.acquire(tenant_id) as tenant:
            existed = tenant.pop_session(session_id) is not None
            persisted = tenant.sessions_dir() / f"{session_id}.json"
            if persisted.is_file():
                persisted.unlink()
                existed = True
            return existed

    # -- turns ----------------------------------------------------------

    def run_turn(
        self,
        tenant_id: str,
        session_id: str,
        message: str,
        wait: bool = True,
    ) -> TurnState:
        """Run one chat turn against a tenant session.

        Raises :class:`QuotaExceededError` *before* creating the turn
        when the tenant's budget is already exhausted (the 429 path).
        With ``wait=False`` the turn runs on the bounded
        :class:`TurnWorkerPool` and the returned :class:`TurnState`
        starts in status ``running`` — poll the turn resource or stream
        its events; a saturated pool raises
        :class:`WorkerPoolSaturated` (the 503 path) without creating a
        turn.
        """
        telemetry = self.telemetry
        with self.acquire(tenant_id) as tenant:
            request_id = (current_context().get("request_id")
                          or telemetry.new_request_id())
            session = tenant.get_session(session_id)
            try:
                tenant.budget.precheck()
            except QuotaExceededError:
                telemetry.ops.inc("quota.rejections_total", tenant=tenant_id)
                telemetry.ops.observe("turn.quota_outcome", 1.0)
                telemetry.event("quota_rejected", tenant=tenant_id,
                                session=session_id, stage="pre_turn")
                raise
            turn = TurnState(session.next_turn_id(), message,
                             request_id=request_id, lock=self.serving)
            session.turns.append(turn)
            if wait:
                self._run_turn(tenant_id, session_id, turn)
                return turn
            context_fields = dict(current_context())
            context_fields.update(request_id=request_id, tenant=tenant_id,
                                  session=session_id, turn=turn.turn_id)

            def job():  # pool thread: re-bind the submitter's correlation ids
                with bind_context(**context_fields):
                    try:
                        self._run_turn(tenant_id, session_id, turn)
                    finally:
                        self._update_pool_gauges()

            try:
                self.worker_pool.submit(job)
            except WorkerPoolSaturated:
                # Remove by identity, not position: the rejected turn must
                # not survive as a ghost "running" row, whatever else was
                # appended since.
                try:
                    session.turns.remove(turn)
                except ValueError:
                    pass
                telemetry.ops.inc("pool.rejected_total")
                telemetry.ops.observe("pool.saturation_rejections", 1.0)
                telemetry.event("turn_rejected_saturated", tenant=tenant_id,
                                session=session_id)
                self._update_pool_gauges()
                raise
            self._update_pool_gauges()
            return turn

    def _update_pool_gauges(self) -> None:
        stats = self.worker_pool.stats()
        ops = self.telemetry.ops
        ops.set("pool.workers", stats["workers"])
        ops.set("pool.active", stats["active"])
        ops.set("pool.queued", stats["queued"])
        ops.set("pool.saturation", stats["saturation"])

    def _run_turn(self, tenant_id: str, session_id: str,
                  turn: TurnState) -> None:
        """Run one turn without ever leaving it stuck in ``running``.

        The chat call's own failures are handled inside
        :meth:`_run_turn_body`; this wrapper catches *infrastructure*
        failures around it (session evicted while the turn was queued,
        persistence I/O errors, trace-export bugs), marks the turn
        errored, keeps the in-flight gauge balanced, and re-raises —
        synchronous callers still see the exception, and the worker
        pool's barrier logs it for async turns instead of dying.
        """
        telemetry = self.telemetry
        with self.serving:
            telemetry.ops.add("turns.in_flight", 1, tenant=tenant_id)
            try:
                self._run_turn_body(tenant_id, session_id, turn)
            except Exception as exc:
                with bind_context(request_id=turn.request_id,
                                  tenant=tenant_id, session=session_id,
                                  turn=turn.turn_id):
                    telemetry.error("turn_infra_error", exc)
                    if turn.fail_if_running(f"{type(exc).__name__}: {exc}"):
                        telemetry.ops.inc(
                            "turns.completed_total", tenant=tenant_id,
                            status="error")
                raise
            finally:
                telemetry.ops.add("turns.in_flight", -1, tenant=tenant_id)

    def _run_turn_body(self, tenant_id: str, session_id: str,
                       turn: TurnState) -> None:
        tenant = self.tenant(tenant_id)
        session = tenant.get_session(session_id)
        while session.active is not None:
            self.serving.wait(lambda: session.active is None)
        session.active = turn
        try:
            self._drive_chat(tenant, session, turn)
        finally:
            session.active = None
            self.serving.notify()

    def _drive_chat(self, tenant: TenantState, session: ServerSession,
                    turn: TurnState) -> None:
        """The turn itself: chat, finish, metrics, persist."""
        telemetry = self.telemetry
        serving = self.serving
        buffer = turn.events
        request_id = turn.request_id

        def tee_event(event):
            # Live progress events carry the turn's correlation id so a
            # streaming client can join them back to its HTTP request.
            tagged = dict(event)
            tagged["request_id"] = request_id
            buffer.emit(tagged)
            # Whoever queued for the lock meanwhile goes now.
            serving.pause()

        with bind_context(request_id=request_id, tenant=tenant.tenant_id,
                          session=session.session_id, turn=turn.turn_id):
            telemetry.event("turn_start",
                            message_chars=len(turn.message))
            started = wall_perf()
            session.meter.start_turn()
            chat = session.chat
            chat.on_event = tee_event
            ran_before = len(chat.workspace.run_ids)
            try:
                response = chat.chat(turn.message)
            except QuotaExceededError as exc:
                status, reply, tools, error = (
                    "quota_rejected", str(exc), [], str(exc))
                telemetry.event("quota_rejected", stage="mid_run")
            except Exception as exc:  # surfaced as the turn's error
                status = "error"
                reply = error = f"{type(exc).__name__}: {exc}"
                tools = []
                telemetry.error("turn_error", exc)
            else:
                tools = list(response.tool_sequence)
                reply, error = response.text, None
                status = "ok"
                if self._turn_hit_quota(response):
                    status = "quota_rejected"
                    telemetry.event("quota_rejected",
                                    stage="mid_run_tool")
            finally:
                chat.on_event = None
                turn.steps = len(chat.workspace.steps)
            # Span-derived tail: when this turn executed a pipeline,
            # summarize its tracer spans into the event stream so late
            # (and post-restart) readers see where the time went.
            run_ids = chat.workspace.run_ids
            if len(run_ids) > ran_before:
                tail = progress_events_from_trace(
                    chat.workspace.runs.get(run_ids[-1]).trace)
                for event in tail:
                    event["request_id"] = request_id
                buffer.extend(tail)
            elapsed = wall_perf() - started
            usage = {
                "cost_usd": round(session.meter.turn_cost_usd, 6),
                "tokens": session.meter.turn_tokens,
            }
            turn.finish(status, reply, tools, usage, error)
            self._record_turn_metrics(tenant, status, elapsed)
            telemetry.event(
                "turn_finish", status=status, tools=len(tools),
                cost_usd=usage["cost_usd"], tokens=usage["tokens"],
                seconds=round(elapsed, 6),
            )
            self._persist_session(tenant, session)
            self._persist_tenant(tenant)

    def _record_turn_metrics(self, tenant: TenantState, status: str,
                             elapsed: float) -> None:
        """Feed one finished turn into the wall-clock metrics registry."""
        ops = self.telemetry.ops
        tenant_id = tenant.tenant_id
        ops.inc("turns.completed_total", tenant=tenant_id, status=status)
        # turns.in_flight is owned by _run_turn's try/finally — never
        # decremented here, so an exception anywhere in the body cannot
        # leak the gauge.
        ops.observe("turn.wall_seconds", elapsed)
        ops.observe("turn.wall_seconds", elapsed, tenant=tenant_id)
        rejected = 1.0 if status == "quota_rejected" else 0.0
        ops.observe("turn.quota_outcome", rejected)
        if rejected:
            ops.inc("quota.rejections_total", tenant=tenant_id)
        snapshot = tenant.usage()
        ops.set("tenant.spent_cost_usd", snapshot["spent_cost_usd"],
                tenant=tenant_id)
        ops.set("tenant.spent_tokens", snapshot["spent_tokens"],
                tenant=tenant_id)
        if snapshot.get("max_cost_usd") is not None:
            ops.set("tenant.quota_cost_usd", snapshot["max_cost_usd"],
                    tenant=tenant_id)

    @staticmethod
    def _turn_hit_quota(response) -> bool:
        """Did any agent step abort on the budget mid-turn?

        The ReAct agent converts tool exceptions into error
        observations; a quota breach inside ``execute_pipeline`` (or
        the agent's own reasoning calls) surfaces there rather than
        propagating, so the store scans for the canonical marker.
        """
        result = getattr(response, "result", None)
        trace = getattr(result, "trace", None)
        for step in getattr(trace, "steps", []) or []:
            observation = getattr(step, "observation", "") or ""
            if _QUOTA_MARKER in observation.lower():
                return True
        return False

    # -- persistence ----------------------------------------------------

    def _persist_tenant(self, tenant: TenantState) -> None:
        snapshot = tenant.budget.snapshot()
        meta = {
            "tenant_id": tenant.tenant_id,
            "quota": {
                "max_cost_usd": snapshot["max_cost_usd"],
                "max_tokens": snapshot["max_tokens"],
            },
            "usage": {
                "cost_usd": snapshot["spent_cost_usd"],
                "tokens": snapshot["spent_tokens"],
                "calls": snapshot["calls"],
            },
        }
        tenant.root.mkdir(parents=True, exist_ok=True)
        write_json(tenant.root / "tenant.json", meta)

    def _persist_session(self, tenant: TenantState,
                         session: ServerSession) -> None:
        if tenant.peek_session(session.session_id) is not session:
            return  # evicted while its turn ran: the file stays deleted
        sessions_dir = tenant.sessions_dir()
        sessions_dir.mkdir(parents=True, exist_ok=True)
        write_json(sessions_dir / f"{session.session_id}.json",
                   session.to_payload())

    # -- admin ----------------------------------------------------------

    def usage_rollup(self) -> Dict[str, Any]:
        """Per-tenant budget snapshots plus the summed totals."""
        tenants: Dict[str, Any] = {}
        total_cost = 0.0
        total_tokens = 0
        total_calls = 0
        with self.serving:
            for tenant_id in self.tenant_ids():
                snapshot = self.tenant(tenant_id).usage()
                tenants[tenant_id] = snapshot
                total_cost += snapshot["spent_cost_usd"]
                total_tokens += snapshot["spent_tokens"]
                total_calls += snapshot["calls"]
            return {
                "tenants": tenants,
                "total": {
                    "spent_cost_usd": round(total_cost, 6),
                    "spent_tokens": total_tokens,
                    "calls": total_calls,
                },
                # The admin rollup surfaces the same SLO/alert table as
                # /healthz, so one call answers "who spent what" and "is
                # the service degraded".
                "health": self.telemetry.health(),
            }

    def close(self) -> None:
        """Release the worker pool and telemetry log (tests/shutdown)."""
        with self.serving:
            self.worker_pool.close()
            self.telemetry.close()

    def set_quota(
        self,
        tenant_id: str,
        max_cost_usd: Optional[float] = None,
        max_tokens: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Admin quota edit; returns the new budget snapshot."""
        with self.acquire(tenant_id) as tenant:
            tenant.budget.set_limits(
                max_cost_usd=max_cost_usd, max_tokens=max_tokens)
            self._persist_tenant(tenant)
            return tenant.usage()
