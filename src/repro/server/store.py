"""The multi-tenant session store behind ``repro serve``.

Every tenant owns an isolated slice of state under
``<root>/<tenant-id>/``::

    <root>/<tenant-id>/
        tenant.json           # quota caps + spent totals (restart restore)
        runs/                 # the tenant's private RunRegistry
        sessions/<sid>.json   # replayable workspace payload + turn log

and an in-process :class:`TenantState` bundling the tenant's
:class:`~repro.llm.usage.BudgetMeter`, its live chat sessions, and the
re-entrant lock that serializes state access.  **All** handler access to
a tenant's registry, workspace, or sessions goes through
:meth:`SessionStore.acquire` — the contract pz-lint rule ``SV601``
enforces over server source — so two tenants never share a registry, a
budget, or a lock, and requests for different tenants proceed fully in
parallel.

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
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.llm.usage import BudgetMeter, QuotaExceededError
from repro.obs.persist import write_json
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    bind_context,
    current_context,
    wall_perf,
)
from repro.server.progress import ProgressBuffer, progress_events_from_trace

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

    Replaces the unbounded thread-per-turn model: ``wait=false`` turns
    are submitted here, at most ``workers`` run concurrently, at most
    ``queue_size`` wait, and anything beyond that is rejected with
    :class:`WorkerPoolSaturated` — back-pressure instead of thread
    exhaustion.  Worker threads are lazy (a store that never sees an
    async turn spawns none) and daemonized.
    """

    _GUARDED_BY = {"_threads": "_lock", "_active": "_lock"}

    def __init__(self, workers: int = 4, queue_size: int = 16,
                 name: str = "turn-worker"):
        self.workers = max(1, int(workers))
        self.queue_size = max(1, int(queue_size))
        self.name = name
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.queue_size)
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._active = 0

    def submit(self, fn) -> None:
        """Enqueue one job; raises :class:`WorkerPoolSaturated` when full."""
        with self._lock:
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
            with self._lock:
                self._active += 1
            try:
                fn()
            except Exception:
                # A job that escapes its own error handling must not
                # kill the worker: dead threads stay in ``_threads``,
                # so submit() would never replace them and each failure
                # would permanently shrink the pool by one.
                _log.exception("%s: job raised", self.name)
            finally:
                with self._lock:
                    self._active -= 1
                self._queue.task_done()

    def stats(self) -> Dict[str, Any]:
        """Best-effort occupancy snapshot (feeds the saturation gauge)."""
        with self._lock:
            active = self._active
            started = len(self._threads)
        queued = self._queue.qsize()  # nondet: ok(best-effort pool occupancy for operational telemetry only)
        capacity = self.workers + self.queue_size
        return {
            "workers": self.workers,
            "started": started,
            "active": active,
            "queued": queued,
            "capacity": capacity,
            "saturation": round((active + queued) / capacity, 4),
        }

    def close(self) -> None:
        """Stop accepting work and let idle workers drain out."""
        with self._lock:
            started = len(self._threads)
        for _ in range(started):
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
    """One chat turn: request, outcome, usage delta, progress events.

    Written by the turn worker, read by HTTP threads — every mutable
    field is guarded by the turn's own lock; the event stream lives in
    its :class:`~repro.server.progress.ProgressBuffer` (which carries
    its own condition variable).
    """

    _GUARDED_BY = {
        "status": "_lock",
        "reply": "_lock",
        "tools": "_lock",
        "error": "_lock",
        "usage_delta": "_lock",
    }

    def __init__(self, turn_id: str, message: str,
                 request_id: Optional[str] = None):
        self.turn_id = turn_id
        self.message = message
        #: Correlation id of the HTTP request that created the turn —
        #: immutable after construction, shared with every telemetry
        #: log line and progress event the turn produces.
        self.request_id = request_id
        self.events = ProgressBuffer()
        self._lock = threading.Lock()
        self.status = "running"  # running | ok | quota_rejected | error
        self.reply: Optional[str] = None
        self.tools: List[str] = []
        self.error: Optional[str] = None
        self.usage_delta: Dict[str, Any] = {}

    def finish(
        self,
        status: str,
        reply: Optional[str],
        tools: List[str],
        usage: Dict[str, Any],
        error: Optional[str] = None,
    ) -> None:
        with self._lock:
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
        with self._lock:
            if self.status != "running":
                return False
            self.status = "error"
            self.reply = error
            self.error = error
            self.usage_delta = {"cost_usd": 0.0, "tokens": 0}
        self.events.close()
        return True

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
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
        turn.finish(
            payload.get("status", "ok"),
            payload.get("reply"),
            list(payload.get("tools") or []),
            dict(payload.get("usage") or {}),
            payload.get("error"),
        )
        return turn


class ServerSession:
    """One tenant chat session: the live PalimpChat session + turn log.

    ``turn_lock`` serializes turns *within* the session (two concurrent
    POSTs to the same session run one after the other); sessions of the
    same tenant — and of different tenants — run concurrently.
    """

    def __init__(self, session_id: str, chat_session, title: str):
        self.session_id = session_id
        self.chat = chat_session
        self.title = title
        self.turn_lock = threading.Lock()
        #: Turn log, append-only under the owning tenant's lock.
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
    """One tenant's isolated state; mutate only under ``lock``.

    :meth:`SessionStore.acquire` hands this out with ``lock`` held;
    handlers keep their critical sections short (resolve a session,
    build a registry handle) and never hold it across a chat turn —
    otherwise streaming reads of an in-flight turn would deadlock.
    """

    _GUARDED_BY = {"sessions": "lock"}

    def __init__(self, tenant_id: str, root: Path, budget: BudgetMeter):
        self.tenant_id = tenant_id
        self.root = root
        self.budget = budget
        self.lock = threading.RLock()
        self.sessions: Dict[str, ServerSession] = {}

    # All methods below assume ``lock`` is held (acquire() guarantees
    # it for handlers; SessionStore internals re-enter the RLock).

    def registry(self):
        """The tenant's private run registry (``<root>/runs``)."""
        from repro.obs.registry import RunRegistry

        return RunRegistry(str(self.root / "runs"))

    def get_session(self, session_id: str) -> ServerSession:
        with self.lock:
            try:
                return self.sessions[session_id]
            except KeyError:
                raise KeyError(
                    f"tenant {self.tenant_id!r} has no session "
                    f"{session_id!r}") from None

    def peek_session(self, session_id: str) -> Optional[ServerSession]:
        with self.lock:
            return self.sessions.get(session_id)

    def put_session(self, session: ServerSession) -> None:
        with self.lock:
            self.sessions[session.session_id] = session

    def pop_session(self, session_id: str) -> Optional[ServerSession]:
        with self.lock:
            return self.sessions.pop(session_id, None)

    def session_ids(self) -> List[str]:
        with self.lock:
            return sorted(self.sessions)

    def session_rows(self) -> List[Dict[str, Any]]:
        with self.lock:
            return [
                self.sessions[sid].to_dict()
                for sid in sorted(self.sessions)
            ]

    def sessions_dir(self) -> Path:
        return self.root / "sessions"

    def usage(self) -> Dict[str, Any]:
        return self.budget.snapshot()

    def to_dict(self) -> Dict[str, Any]:
        with self.lock:
            session_count = len(self.sessions)
        return {
            "tenant_id": self.tenant_id,
            "usage": self.usage(),
            "sessions": session_count,
            "runs": len(self.registry().list()),
        }


class SessionStore:
    """Tenant registry + session lifecycle + quota accounting.

    The single shared object behind the HTTP layer.  Its own lock only
    guards the tenant map; everything tenant-scoped nests under the
    tenant's lock, so the store never serializes two tenants against
    each other.
    """

    _GUARDED_BY = {"_tenants": "_lock"}

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
        (construct one under ``telemetry_root``, default
        ``<root>/../telemetry``), or ``False`` (fully off —
        :data:`~repro.obs.telemetry.NULL_TELEMETRY`).  ``async_workers``
        / ``async_queue`` bound the ``wait=false`` turn worker pool."""
        self.root = Path(root)
        self.default_max_cost_usd = default_max_cost_usd
        self.default_max_tokens = default_max_tokens
        self.agent_model = agent_model
        if telemetry is None or telemetry is True:
            telemetry = Telemetry(
                root=telemetry_root or self.root.parent / "telemetry")
        elif telemetry is False:
            telemetry = NULL_TELEMETRY
        self.telemetry = telemetry
        self.worker_pool = TurnWorkerPool(
            workers=async_workers, queue_size=async_queue)
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantState] = {}
        self.telemetry.ops.gauge("pool.workers").set(
            self.worker_pool.workers)

    # -- tenant lifecycle ----------------------------------------------

    def acquire(self, tenant_id: str):
        """Context manager: the tenant's state with its lock held.

        The only sanctioned path to a tenant's registry, workspace, or
        sessions (pz-lint ``SV601``).  Creates the tenant on first use
        (restoring persisted quota/usage if ``tenant.json`` exists).
        """
        tenant = self._tenant(tenant_id)
        return _AcquiredTenant(tenant)

    def _tenant(self, tenant_id: str) -> TenantState:
        _check_id("tenant", tenant_id)
        with self._lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is None:
                tenant = self._load_tenant(tenant_id)
                self._tenants[tenant_id] = tenant
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
        with self._lock:
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
            sid = session_id or self._next_session_id(tenant)
            session = ServerSession(
                sid, self._new_chat_session(tenant), title)
            tenant.put_session(session)
            self._persist_session(tenant, session)
            self._persist_tenant(tenant)
            return {**session.to_dict(), "resumed": False}

    def _new_chat_session(self, tenant: TenantState):
        from repro.chat.session import PalimpChatSession

        chat = PalimpChatSession(agent_model=self.agent_model)
        chat.workspace.attach_root(tenant.root)
        chat.workspace.budget = tenant.budget
        # Wall-clock ops hook only — the engine times optimize/execute
        # phases into OpsMetrics; deterministic artifacts are untouched.
        chat.workspace.telemetry = (
            self.telemetry if self.telemetry.enabled else None)
        # The agent's own reasoning spend counts against the tenant
        # quota too, not just pipeline execution.
        chat.agent_ledger.attach_budget(tenant.budget)
        return chat

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
        chat = self._new_chat_session(tenant)
        chat.workspace.apply_payload(payload.get("workspace") or {})
        session = ServerSession(
            payload["session_id"], chat,
            payload.get("title", "PalimpChat session"))
        for turn_payload in payload.get("turns") or []:
            session.turns.append(TurnState.from_payload(turn_payload))
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
        request_id = (current_context().get("request_id")
                      or telemetry.new_request_id())
        with self.acquire(tenant_id) as tenant:
            session = tenant.get_session(session_id)
            try:
                tenant.budget.precheck()
            except QuotaExceededError:
                telemetry.ops.counter(
                    "quota.rejections_total", tenant=tenant_id).inc()
                telemetry.ops.histogram("turn.quota_outcome").observe(1.0)
                telemetry.event("quota_rejected", tenant=tenant_id,
                                session=session_id, stage="pre_turn")
                raise
            turn = TurnState(session.next_turn_id(), message,
                             request_id=request_id)
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
            with self.acquire(tenant_id):
                # Remove by identity, not position: a concurrent POST
                # may have appended another turn after ours, and the
                # session itself may have been deleted in between —
                # either way the rejected turn must not survive as a
                # ghost "running" row.
                try:
                    session.turns.remove(turn)
                except ValueError:
                    pass
            telemetry.ops.counter("pool.rejected_total").inc()
            telemetry.ops.histogram(
                "pool.saturation_rejections").observe(1.0)
            telemetry.event("turn_rejected_saturated", tenant=tenant_id,
                            session=session_id)
            self._update_pool_gauges()
            raise
        self._update_pool_gauges()
        return turn

    def _update_pool_gauges(self) -> None:
        stats = self.worker_pool.stats()
        ops = self.telemetry.ops
        ops.gauge("pool.workers").set(stats["workers"])
        ops.gauge("pool.active").set(stats["active"])
        ops.gauge("pool.queued").set(stats["queued"])
        ops.gauge("pool.saturation").set(stats["saturation"])

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
        telemetry.ops.gauge("turns.in_flight", tenant=tenant_id).add(1)
        try:
            self._run_turn_body(tenant_id, session_id, turn)
        except Exception as exc:
            with bind_context(request_id=turn.request_id,
                              tenant=tenant_id, session=session_id,
                              turn=turn.turn_id):
                telemetry.error("turn_infra_error", exc)  # guarded-by: ok(Telemetry.error is the structured-log method, not TurnState.error)
                if turn.fail_if_running(f"{type(exc).__name__}: {exc}"):
                    telemetry.ops.counter(
                        "turns.completed_total", tenant=tenant_id,
                        status="error").inc()
            raise
        finally:
            telemetry.ops.gauge("turns.in_flight",
                                tenant=tenant_id).add(-1)

    def _run_turn_body(self, tenant_id: str, session_id: str,
                       turn: TurnState) -> None:
        telemetry = self.telemetry
        with self.acquire(tenant_id) as tenant:
            session = tenant.get_session(session_id)
        budget = tenant.budget
        spent_cost = budget.spent_cost_usd
        spent_tokens = budget.spent_tokens
        buffer = turn.events
        request_id = turn.request_id

        def tee_event(event):
            # Live progress events carry the turn's correlation id so a
            # streaming client can join them back to its HTTP request.
            tagged = dict(event)
            tagged["request_id"] = request_id
            buffer.emit(tagged)

        with bind_context(request_id=request_id, tenant=tenant_id,
                          session=session_id, turn=turn.turn_id):
            telemetry.event("turn_start",
                            message_chars=len(turn.message))
            started = wall_perf()
            with session.turn_lock:
                chat = session.chat
                chat.on_event = tee_event  # guarded-by: ok(chat is only driven while holding session.turn_lock)
                ran_before = len(chat.workspace.run_history)
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
                    telemetry.error("turn_error", exc)  # guarded-by: ok(Telemetry.error is the structured-log method, not TurnState.error)
                else:
                    tools = list(response.tool_sequence)
                    reply, error = response.text, None
                    status = "ok"
                    if self._turn_hit_quota(response):
                        status = "quota_rejected"
                        telemetry.event("quota_rejected",
                                        stage="mid_run_tool")
                finally:
                    chat.on_event = None  # guarded-by: ok(chat is only driven while holding session.turn_lock)
                # Span-derived tail: when this turn executed a pipeline,
                # summarize its tracer spans into the event stream so late
                # (and post-restart) readers see where the time went.
                if len(chat.workspace.run_history) > ran_before:
                    trace = chat.workspace.last_trace
                    if trace is not None:
                        from repro.obs.export import to_plain_json

                        tail = progress_events_from_trace(
                            to_plain_json(trace))
                        for event in tail:
                            event["request_id"] = request_id
                        buffer.extend(tail)
            elapsed = wall_perf() - started
            usage = {
                "cost_usd": round(budget.spent_cost_usd - spent_cost, 6),
                "tokens": budget.spent_tokens - spent_tokens,
            }
            turn.finish(status, reply, tools, usage, error)
            self._record_turn_metrics(tenant_id, status, elapsed, budget)
            telemetry.event(
                "turn_finish", status=status, tools=len(tools),
                cost_usd=usage["cost_usd"], tokens=usage["tokens"],
                seconds=round(elapsed, 6),
            )
            with self.acquire(tenant_id) as tenant:
                self._persist_session(tenant, session)
                self._persist_tenant(tenant)

    def _record_turn_metrics(self, tenant_id: str, status: str,
                             elapsed: float, budget: BudgetMeter) -> None:
        """Feed one finished turn into the wall-clock metrics registry."""
        ops = self.telemetry.ops
        ops.counter("turns.completed_total", tenant=tenant_id,
                    status=status).inc()
        # turns.in_flight is owned by _run_turn's try/finally — never
        # decremented here, so an exception anywhere in the body cannot
        # leak the gauge.
        ops.histogram("turn.wall_seconds").observe(elapsed)
        ops.histogram("turn.wall_seconds", tenant=tenant_id).observe(elapsed)
        rejected = 1.0 if status == "quota_rejected" else 0.0
        ops.histogram("turn.quota_outcome").observe(rejected)
        if rejected:
            ops.counter("quota.rejections_total", tenant=tenant_id).inc()
        snapshot = budget.snapshot()
        ops.gauge("tenant.spent_cost_usd", tenant=tenant_id).set(
            snapshot["spent_cost_usd"])
        ops.gauge("tenant.spent_tokens", tenant=tenant_id).set(
            snapshot["spent_tokens"])
        if snapshot.get("max_cost_usd") is not None:
            ops.gauge("tenant.quota_cost_usd", tenant=tenant_id).set(
                snapshot["max_cost_usd"])

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
        for tenant_id in self.tenant_ids():
            with self.acquire(tenant_id) as tenant:
                snapshot = tenant.usage()
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


class _AcquiredTenant:
    """``with store.acquire(tid) as tenant:`` — lock held inside."""

    def __init__(self, tenant: TenantState):
        self._tenant = tenant

    def __enter__(self) -> TenantState:
        self._tenant.lock.acquire()
        return self._tenant

    def __exit__(self, *exc_info) -> None:
        self._tenant.lock.release()
