"""repro.server: the multi-tenant chat service layer.

PalimpChat "allows multiple users to build and run pipelines through a
chat interface"; this package is that serving surface for the
reproduction — an HTTP/JSON front end (stdlib only: ``http.server`` +
``threading``) over per-tenant :class:`~repro.chat.PalimpChatSession`
state:

* :mod:`repro.server.store` — the :class:`SessionStore`: per-tenant
  workspaces/registries under ``.repro/tenants/<id>/``, disk-persisted
  sessions that survive restarts, and
  :class:`~repro.llm.usage.BudgetMeter` quotas (pre-turn rejection,
  mid-run abort, admin edits).
* :mod:`repro.server.progress` — per-turn progress streams: live
  executor events plus tracer-span summaries, long-pollable.
* :mod:`repro.server.serving` — the serving lock, the process's one
  lock: handlers and turns hold it, and a turn hands it over at each
  progress event.
* :mod:`repro.server.http` — the resource routes (sessions, turns,
  events, runs, traces, results, usage, admin) and ``repro serve``'s
  server object.

See ``docs/server.md`` for the API table and quota semantics.
"""

from repro.server.http import ReproServer, run_in_thread, serve
from repro.server.progress import ProgressBuffer, progress_events_from_trace
from repro.server.store import (
    DEFAULT_TENANTS_ROOT,
    ServerSession,
    SessionStore,
    TenantState,
    TurnState,
    TurnWorkerPool,
    WorkerPoolSaturated,
)

__all__ = [
    "DEFAULT_TENANTS_ROOT",
    "ProgressBuffer",
    "ReproServer",
    "ServerSession",
    "SessionStore",
    "TenantState",
    "TurnState",
    "TurnWorkerPool",
    "WorkerPoolSaturated",
    "progress_events_from_trace",
    "run_in_thread",
    "serve",
]
