"""The HTTP/JSON front end: sessions as resources, stdlib only.

``repro serve`` boots a :class:`ThreadingHTTPServer` whose handler
routes every request through the shared :class:`SessionStore`.  Each
request reads its body, runs its handler under the store's serving lock,
then encodes and writes its response outside it, so a slow client never
holds the lock.  The surface (full table in ``docs/server.md``):

Tenant API::

    POST   /tenants/<tid>/sessions                   create / resume
    GET    /tenants/<tid>/sessions                   list sessions
    GET    /tenants/<tid>/sessions/<sid>             session detail
    POST   /tenants/<tid>/sessions/<sid>/turns       run a chat turn
    GET    /tenants/<tid>/sessions/<sid>/turns/<tn>  turn status/reply
    GET    .../turns/<tn>/events?offset=&wait=       progress stream
    GET    /tenants/<tid>/runs                       run registry list
    GET    /tenants/<tid>/runs/<rid>                 run meta + stats
    GET    /tenants/<tid>/traces/<rid>               recorded trace
    GET    /tenants/<tid>/results/<rid>?offset=&limit=  result slice
    GET    /tenants/<tid>/usage                      budget snapshot

Admin API::

    GET    /admin/tenants                            tenants + usage
    GET    /admin/usage                              usage rollup
    POST   /admin/tenants/<tid>/quota                edit quota caps
    DELETE /admin/tenants/<tid>/sessions/<sid>       evict a session

Error mapping: unknown resources are 404, malformed requests 400, and
an exhausted budget is **429** carrying the tenant's budget snapshot —
both when the pre-turn check rejects the turn outright and when a turn
aborts mid-run on the quota (status ``quota_rejected``).

Results come back as *handles* (id + schema + count + fingerprint) with
an explicitly sliced record window — the server never inlines a whole
result set into a response.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.llm.usage import QuotaExceededError
from repro.obs.columns import plain_trace
from repro.obs.telemetry import bind_context, wall_perf
from repro.server.store import SessionStore, WorkerPoolSaturated

__all__ = ["ReproServer", "ReproRequestHandler", "serve"]

#: Longest a single events long-poll blocks before returning empty.
_MAX_WAIT_SECONDS = 30.0

_ROUTES = [
    ("GET", re.compile(r"^/healthz$"), "_handle_health"),
    ("GET", re.compile(r"^/metrics$"), "_handle_metrics"),
    ("GET", re.compile(r"^/version$"), "_handle_version"),
    ("POST", re.compile(r"^/tenants/([^/]+)/sessions$"),
     "_handle_create_session"),
    ("GET", re.compile(r"^/tenants/([^/]+)/sessions$"),
     "_handle_list_sessions"),
    ("GET", re.compile(r"^/tenants/([^/]+)/sessions/([^/]+)$"),
     "_handle_get_session"),
    ("POST", re.compile(r"^/tenants/([^/]+)/sessions/([^/]+)/turns$"),
     "_handle_post_turn"),
    ("GET",
     re.compile(r"^/tenants/([^/]+)/sessions/([^/]+)/turns/([^/]+)$"),
     "_handle_get_turn"),
    ("GET",
     re.compile(
         r"^/tenants/([^/]+)/sessions/([^/]+)/turns/([^/]+)/events$"),
     "_handle_turn_events"),
    ("GET", re.compile(r"^/tenants/([^/]+)/runs$"), "_handle_list_runs"),
    ("GET", re.compile(r"^/tenants/([^/]+)/runs/([^/]+)$"),
     "_handle_get_run"),
    ("GET", re.compile(r"^/tenants/([^/]+)/traces/([^/]+)$"),
     "_handle_get_trace"),
    ("GET", re.compile(r"^/tenants/([^/]+)/results/([^/]+)$"),
     "_handle_get_result"),
    ("GET", re.compile(r"^/tenants/([^/]+)/usage$"), "_handle_usage"),
    ("GET", re.compile(r"^/admin/tenants$"), "_handle_admin_tenants"),
    ("GET", re.compile(r"^/admin/usage$"), "_handle_admin_usage"),
    ("POST", re.compile(r"^/admin/tenants/([^/]+)/quota$"),
     "_handle_admin_quota"),
    ("DELETE", re.compile(r"^/admin/tenants/([^/]+)/sessions/([^/]+)$"),
     "_handle_admin_evict"),
]


class ReproServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared session store."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], store: SessionStore,
                 quiet: bool = True):
        self.store = store
        self.quiet = quiet
        super().__init__(address, ReproRequestHandler)


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to ``_handle_*`` methods via :data:`_ROUTES`.

    Every handler receives its path captures and (for POST) the parsed
    JSON body, and returns ``(status, payload)``; it runs holding the
    store's serving lock, so it may touch any tenant's state.  Payloads
    are fresh values, never live state: they are encoded after the lock
    is given back.
    """

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def store(self) -> SessionStore:
        return self.server.store

    def log_message(self, format: str, *args: Any) -> None:
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    # -- plumbing -------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        path, _, query = self.path.partition("?")
        params = _parse_query(query)
        route = _route(method, path)
        body: Dict[str, Any] = {}
        bad_body: Optional[ValueError] = None
        if route is not None and method in ("POST", "PUT"):
            try:
                body = self._read_body()
            except ValueError as exc:
                bad_body = exc
        headers: Dict[str, str] = {}
        with self.store.serving:
            telemetry = self.store.telemetry
            self._request_id = telemetry.new_request_id()
            if route is None:
                telemetry.ops.inc("http.requests_total", method=method,
                                  route="unrouted", status="404")
                telemetry.ops.observe("http.availability", 1.0)
                status, payload = 404, {
                    "error": "not_found",
                    "message": f"no route for {method} {path}"}
            else:
                status, payload = self._handle(
                    method, path, route, body, bad_body, params, headers)
        self._send_json(status, payload, headers=headers)

    def _handle(self, method, path, route, body, bad_body, params,
                headers):
        """Run one routed handler and record it (serving lock held)."""
        telemetry = self.store.telemetry
        name, groups, tenant = route
        route_label = name.replace("_handle_", "", 1)
        started = wall_perf()
        # Every log line and metric sample inside this scope carries the
        # request's correlation id (and tenant, when routed).
        with bind_context(request_id=self._request_id, tenant=tenant):
            telemetry.event("request_start", method=method,
                            route=route_label, path=path)
            try:
                if bad_body is not None:
                    raise bad_body
                status, payload = getattr(self, name)(
                    *groups, body=body, params=params)
            except QuotaExceededError as exc:
                status, payload = 429, {
                    "error": "quota_exhausted",
                    "message": str(exc),
                    "spent_cost_usd": exc.spent_cost_usd,
                    "spent_tokens": exc.spent_tokens,
                }
            except WorkerPoolSaturated as exc:
                headers["Retry-After"] = str(max(1, int(exc.retry_after)))
                status, payload = 503, {
                    "error": "saturated",
                    "message": str(exc),
                    "retry_after": exc.retry_after,
                }
            except (KeyError, FileNotFoundError) as exc:
                status, payload = 404, {
                    "error": "not_found",
                    "message": _exc_text(exc),
                }
            except ValueError as exc:
                status, payload = 400, {"error": "bad_request",
                                        "message": str(exc)}
            except Exception as exc:  # defensive 500, logged
                telemetry.error("request_error", exc, route=route_label)
                status, payload = 500, {
                    "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                }
            seconds = wall_perf() - started
            telemetry.ops.inc(
                "http.requests_total", method=method, route=route_label,
                status=str(status))
            telemetry.ops.observe(
                "http.request_seconds", seconds, route=route_label)
            telemetry.ops.observe(
                "http.availability", 0.0 if status >= 500 else 1.0)
            telemetry.event("request_finish", method=method,
                            route=route_label, status=status,
                            seconds=round(seconds, 6))
        return status, payload

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _send_json(self, status: int, payload,
                   headers: Optional[Dict[str, str]] = None) -> None:
        """Send a JSON (dict) or plain-text (str) response body."""
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload, indent=2, sort_keys=True,
                              default=str).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "_request_id", None)
        if request_id:
            self.send_header("X-Request-Id", request_id)
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    # -- health / telemetry ---------------------------------------------

    def _handle_health(self, body=None, params=None):
        """Liveness + SLO verdicts: ``status`` is ``ok`` or ``degraded``
        with the firing alerts as the reason payload."""
        health = self.store.telemetry.health()
        health["service"] = "repro-serve"
        return 200, health

    def _handle_metrics(self, body=None, params=None):
        """Prometheus text exposition; ``?format=json`` for the JSON
        variant the ``repro top`` dashboard polls."""
        telemetry = self.store.telemetry
        if (params or {}).get("format") == "json":
            return 200, telemetry.metrics_payload()
        return 200, telemetry.prometheus()

    def _handle_version(self, body=None, params=None):
        from repro.cli import package_metadata

        version, description = package_metadata()
        return 200, {"service": "repro-serve", "version": version,
                     "description": description}

    # -- sessions -------------------------------------------------------

    def _handle_create_session(self, tenant_id, body=None, params=None):
        row = self.store.ensure_session(
            tenant_id,
            session_id=body.get("session_id"),
            title=body.get("title", "PalimpChat session"),
        )
        return (200 if row["resumed"] else 201), row

    def _handle_list_sessions(self, tenant_id, body=None, params=None):
        return 200, {"tenant_id": tenant_id,
                     "sessions": self.store.tenant(tenant_id).session_rows()}

    def _handle_get_session(self, tenant_id, session_id,
                            body=None, params=None):
        session = self.store.tenant(tenant_id).get_session(session_id)
        row = session.to_dict()
        row["turn_log"] = [turn.to_dict() for turn in session.turns]
        return 200, row

    # -- turns ----------------------------------------------------------

    def _handle_post_turn(self, tenant_id, session_id,
                          body=None, params=None):
        message = body.get("message")
        if not message or not isinstance(message, str):
            raise ValueError("body must carry a non-empty 'message' string")
        wait = bool(body.get("wait", True))
        turn = self.store.run_turn(tenant_id, session_id, message,
                                   wait=wait)
        row = turn.to_dict()
        row["session_id"] = session_id
        if row["status"] == "quota_rejected":
            row["usage_snapshot"] = self.store.tenant(tenant_id).usage()
            return 429, {"error": "quota_exhausted", "turn": row,
                         "message": row.get("error") or row.get("reply")}
        return (200 if row["status"] != "running" else 202), row

    def _find_turn(self, tenant_id, session_id, turn_id):
        return self.store.tenant(tenant_id).get_session(
            session_id).find_turn(turn_id)

    def _handle_get_turn(self, tenant_id, session_id, turn_id,
                         body=None, params=None):
        return 200, self._find_turn(tenant_id, session_id, turn_id).to_dict()

    def _handle_turn_events(self, tenant_id, session_id, turn_id,
                            body=None, params=None):
        turn = self._find_turn(tenant_id, session_id, turn_id)
        offset = _int_param(params, "offset", 0)
        wait = _float_param(params, "wait", 0.0)
        # The long-poll gives the serving lock up while it sleeps, so
        # the turn it streams (and every other request) goes on.
        events, done, next_offset = turn.events.read(
            offset=offset,
            wait_seconds=min(wait, _MAX_WAIT_SECONDS) if wait else None,
        )
        return 200, {
            "turn_id": turn_id,
            "events": events,
            "done": done,
            "next_offset": next_offset,
        }

    # -- runs / traces / results ---------------------------------------

    def _handle_list_runs(self, tenant_id, body=None, params=None):
        return 200, {"tenant_id": tenant_id,
                     "runs": self.store.tenant(tenant_id).registry().list()}

    def _handle_get_run(self, tenant_id, run_id, body=None, params=None):
        snapshot = self.store.tenant(tenant_id).registry().load(run_id)
        return 200, {"meta": snapshot.meta, "stats": snapshot.stats}

    def _handle_get_trace(self, tenant_id, run_id, body=None, params=None):
        snapshot = self.store.tenant(tenant_id).registry().load(run_id)
        if snapshot.trace is None:
            return 404, {"error": "not_found",
                         "message": f"run {run_id} recorded no trace"}
        return 200, {"run_id": run_id, "trace": plain_trace(snapshot.trace)}

    def _handle_get_result(self, tenant_id, run_id,
                           body=None, params=None):
        handle = self.store.tenant(tenant_id).registry().handle(run_id)
        offset = _int_param(params, "offset", 0)
        limit = _int_param(params, "limit", None)
        return 200, {
            "result": handle.to_dict(),
            "offset": offset,
            "limit": limit,
            "records": handle.slice(offset=offset, limit=limit),
        }

    def _handle_usage(self, tenant_id, body=None, params=None):
        return 200, {"tenant_id": tenant_id,
                     "usage": self.store.tenant(tenant_id).usage()}

    # -- admin ----------------------------------------------------------

    def _handle_admin_tenants(self, body=None, params=None):
        store = self.store
        return 200, {"tenants": [store.tenant(tenant_id).to_dict()
                                 for tenant_id in store.tenant_ids()]}

    def _handle_admin_usage(self, body=None, params=None):
        return 200, self.store.usage_rollup()

    def _handle_admin_quota(self, tenant_id, body=None, params=None):
        usage = self.store.set_quota(
            tenant_id,
            max_cost_usd=body.get("max_cost_usd"),
            max_tokens=body.get("max_tokens"),
        )
        return 200, {"tenant_id": tenant_id, "usage": usage}

    def _handle_admin_evict(self, tenant_id, session_id,
                            body=None, params=None):
        existed = self.store.evict_session(tenant_id, session_id)
        if not existed:
            return 404, {"error": "not_found",
                         "message": f"no session {session_id!r} for "
                                    f"tenant {tenant_id!r}"}
        return 200, {"evicted": session_id, "tenant_id": tenant_id}


def _route(method: str, path: str):
    """``(handler name, captures, tenant or None)`` for a request, or
    None when no route matches."""
    for verb, pattern, name in _ROUTES:
        if verb != method:
            continue
        match = pattern.match(path)
        if match is not None:
            tenant = (match.group(1)
                      if pattern.pattern.startswith("^/tenants/") else None)
            return name, match.groups(), tenant
    return None


def _parse_query(query: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for chunk in query.split("&"):
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        params[key] = value
    return params


def _int_param(params: Dict[str, str], name: str,
               default: Optional[int]) -> Optional[int]:
    raw = params.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"query parameter {name!r} must be an integer, "
                         f"got {raw!r}")


def _float_param(params: Dict[str, str], name: str,
                 default: float) -> float:
    raw = params.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"query parameter {name!r} must be a number, "
                         f"got {raw!r}")


def _exc_text(exc: BaseException) -> str:
    """KeyError reprs its message; unwrap for readable 404 bodies."""
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def serve(
    host: str = "127.0.0.1",
    port: int = 8787,
    root: str = None,
    max_cost_usd: Optional[float] = None,
    max_tokens: Optional[int] = None,
    data_dir: Optional[str] = None,
    quiet: bool = True,
    telemetry=None,
    telemetry_root: Optional[str] = None,
    async_workers: int = 4,
    async_queue: int = 16,
) -> ReproServer:
    """Build a ready-to-run server (demo datasets registered).

    Returns the server without starting it — call ``serve_forever()``
    (the CLI does) or drive it from a thread in tests.  ``port=0``
    binds an ephemeral port (see ``server.server_address``).

    ``telemetry`` follows :class:`SessionStore` semantics: ``None`` /
    ``True`` boots the wall-clock ops layer with JSONL logs under
    ``telemetry_root``, ``False`` keeps metrics and SLOs but writes no
    log, and a ready :class:`~repro.obs.telemetry.Telemetry` is used
    as-is.
    """
    from repro.corpora import register_demo_datasets
    from repro.server.store import DEFAULT_TENANTS_ROOT

    register_demo_datasets(data_dir)
    store = SessionStore(
        root=root or DEFAULT_TENANTS_ROOT,
        default_max_cost_usd=max_cost_usd,
        default_max_tokens=max_tokens,
        telemetry=telemetry,
        telemetry_root=telemetry_root,
        async_workers=async_workers,
        async_queue=async_queue,
    )
    return ReproServer((host, port), store, quiet=quiet)


#: ``serve_forever`` checks for ``shutdown()`` this often; the default
#: 0.5 s is what every in-process server would wait on stop.
_THREAD_POLL_INTERVAL_S = 0.02


def run_in_thread(server: ReproServer) -> threading.Thread:
    """Start ``serve_forever`` on a daemon thread (tests/smoke)."""
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": _THREAD_POLL_INTERVAL_S},
        name="repro-serve",
        daemon=True,
    )
    thread.start()
    return thread
