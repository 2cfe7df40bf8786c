"""Wall-clock operational telemetry for the service tier.

Everything else in :mod:`repro.obs` is *deterministic* observability:
spans timed by the :class:`~repro.llm.clock.VirtualClock`, metrics that
are pure functions of the plan and input, byte-identical across runs.
That explains a single run to its author — it is invisible to an
operator watching the live ``repro serve`` process.  This module is the
other half: **wall-clock, aggregate, continuously exported** telemetry
for whoever runs the service.

The boundary is strict.  Operational telemetry only *observes* — it
never feeds records, stats, traces, or provenance, so a server with
telemetry on produces byte-identical artifacts to one with it off (the
zero-observer-effect pin in ``tests/test_server.py``).  Symmetrically,
engine and executor source never reads the wall clock directly: the
only sanctioned reads are :func:`wall_now` / :func:`wall_perf` here,
waived on their lines; pz-lint rule ``CC504`` flags any other
(``docs/diagnostics.md``).

Pieces (see ``docs/observability.md`` → "Operational telemetry"):

* **correlation** — :func:`bind_context` / :func:`current_context`
  carry ``request_id`` / ``tenant`` / ``session`` / ``turn`` through a
  request, including onto worker threads, so every log line and span
  tail can be joined back to its HTTP request.
* :class:`TelemetryLog` — structured JSONL event log with size-based
  rotation under ``.repro/telemetry/``.
* :class:`OpsMetrics` — one dict of labeled counters, gauges, and
  sliding-window histograms summarized by
  :func:`~repro.obs.metrics.summarize`, the same summary as a run's
  deterministic distributions, exported in Prometheus text format and
  as JSON.
* :data:`SLOS` — the service-level objectives, one table evaluated over
  the sliding windows (availability, p95 turn latency, quota-rejection
  rate, worker-pool saturation); surfaced at ``GET /healthz``.
* :class:`Telemetry` — the facade the server wires through everything;
  ``Telemetry(root=None)`` keeps metrics and SLOs but writes no log.
* :func:`render_dashboard` — the ``repro top`` terminal view over two
  successive ``/metrics?format=json`` payloads.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import HISTOGRAM_QUANTILES, summarize

__all__ = [
    "DEFAULT_TELEMETRY_ROOT",
    "OpsMetrics",
    "SLOS",
    "Telemetry",
    "TelemetryLog",
    "bind_context",
    "current_context",
    "evaluate_slos",
    "render_dashboard",
    "stack_digest",
    "wall_now",
    "wall_perf",
]

DEFAULT_TELEMETRY_ROOT = ".repro/telemetry"

#: Sliding-window length every OpsMetrics histogram (and therefore every
#: SLO) is evaluated over, in wall seconds.
WINDOW_SECONDS = 300.0

#: The JSONL log rolls to a new file past this size and keeps this many.
LOG_FILE_BYTES = 1_000_000
LOG_FILES_KEPT = 5


# ---------------------------------------------------------------------------
# Sanctioned wall-clock reads (the CC504 boundary)
# ---------------------------------------------------------------------------


def wall_now() -> float:
    """Wall-clock epoch seconds — THE sanctioned absolute-time read.

    All operational timestamps route through here; engine/executor code
    calling ``time.time()`` directly is a ``CC504`` lint error.
    """
    return time.time()  # nondet: ok(operational telemetry is wall-clock by design and never feeds deterministic artifacts)


def wall_perf() -> float:
    """Monotonic wall seconds — THE sanctioned duration-clock read."""
    return time.perf_counter()  # nondet: ok(operational latency measurement only; never feeds deterministic artifacts)


# ---------------------------------------------------------------------------
# Correlation context
# ---------------------------------------------------------------------------

_CONTEXT = threading.local()


def current_context() -> Dict[str, Any]:
    """The correlation fields bound on this thread (a copy)."""
    return dict(getattr(_CONTEXT, "fields", None) or {})


@contextmanager
def bind_context(**fields: Any) -> Iterator[Dict[str, Any]]:
    """Bind correlation fields (``request_id``/``tenant``/...) for a scope.

    Nested binds merge (inner wins); ``None`` values are dropped so
    callers can pass optional fields unconditionally.  Worker threads
    re-bind the submitting thread's context explicitly — thread-locals
    do not cross thread boundaries on their own.
    """
    previous = getattr(_CONTEXT, "fields", None)
    merged = dict(previous or {})
    merged.update(
        (key, value) for key, value in fields.items() if value is not None
    )
    _CONTEXT.fields = merged
    try:
        yield merged
    finally:
        _CONTEXT.fields = previous


def stack_digest(exc: BaseException) -> str:
    """A short stable digest of an exception's traceback.

    Log lines carry the digest rather than the full stack, so repeated
    failures with the same shape aggregate trivially (``grep digest``)
    without bloating the JSONL stream.
    """
    text = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Structured JSONL log with size-based rotation
# ---------------------------------------------------------------------------


class TelemetryLog:
    """Append-only JSONL event log with size-based rotation.

    One record per line: ``{"ts": ..., "event": ..., <correlation>,
    <fields>}`` — correlation fields come from :func:`current_context`
    automatically, so callers never thread request ids by hand.  Files
    are ``events-00000.jsonl``, ``events-00001.jsonl``, ... under
    ``root``; when the active file would exceed :data:`LOG_FILE_BYTES`
    the writer rolls to the next index and keeps the newest
    :data:`LOG_FILES_KEPT`.  Under ``repro serve`` every writer holds the
    serving lock.
    """

    def __init__(self, root, clock=wall_now):
        self.root = Path(root)
        self._clock = clock
        self._handle = None
        self._size = 0
        self.root.mkdir(parents=True, exist_ok=True)
        indices = self._indices()
        self._index = indices[-1] if indices else 0

    def _indices(self) -> List[int]:
        found = []
        for path in self.root.glob("events-*.jsonl"):
            stem = path.stem[len("events-"):]
            if stem.isdigit():
                found.append(int(stem))
        return sorted(found)

    def _path_for(self, index: int) -> Path:
        return self.root / f"events-{index:05d}.jsonl"

    @property
    def path(self) -> Path:
        """The active log file."""
        return self._path_for(self._index)

    def log(self, event: str, **fields: Any) -> None:
        """Append one event line (correlation context auto-attached)."""
        record: Dict[str, Any] = {"ts": round(self._clock(), 6),
                                  "event": event}
        record.update(current_context())
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        data = line.encode("utf-8")
        if self._handle is None:
            path = self._path_for(self._index)
            self.root.mkdir(parents=True, exist_ok=True)
            self._handle = open(path, "ab")
            self._size = path.stat().st_size
        if self._size and self._size + len(data) > LOG_FILE_BYTES:
            self._handle.close()
            self._index += 1
            self._handle = open(self._path_for(self._index), "ab")
            self._size = 0
            self._prune(self._index - LOG_FILES_KEPT + 1)
        self._handle.write(data)
        self._handle.flush()
        self._size += len(data)

    def _prune(self, keep_below: int) -> None:
        for index in self._indices():
            if index < keep_below:
                try:
                    self._path_for(index).unlink()
                except OSError:
                    pass

    def read_events(self) -> List[Dict[str, Any]]:
        """Every retained event, oldest first (tests and validators)."""
        events: List[Dict[str, Any]] = []
        for index in self._indices():
            path = self._path_for(index)
            if not path.is_file():
                continue
            for line in path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    events.append(json.loads(line))
        return events

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# OpsMetrics: one dict of labeled wall-clock values
# ---------------------------------------------------------------------------


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _prune(samples: deque, now: float) -> None:
    horizon = now - WINDOW_SECONDS
    while samples and samples[0][0] < horizon:
        samples.popleft()


class OpsMetrics:
    """Labeled operational metrics: one dict keyed ``(kind, name, labels)``.

    A ``counter`` or ``gauge`` holds a float; a ``histogram`` holds a
    deque of ``(ts, value)`` samples pruned to the last
    :data:`WINDOW_SECONDS` and summarized by
    :func:`~repro.obs.metrics.summarize`.  Names are dotted lowercase
    paths (``http.requests_total``) like a run's metrics; labels are
    keyword arguments (``inc("turns.completed_total", tenant="acme",
    status="ok")``).  ``snapshot()`` is the JSON exposition,
    :meth:`to_prometheus` the text exposition (dots become underscores).
    """

    def __init__(self, clock=wall_now):
        self._clock = clock
        self.values: Dict[Tuple[str, str, Tuple[Tuple[str, str], ...]],
                          Any] = {}

    def inc(self, name: str, amount: float = 1.0, /, **labels: Any) -> None:
        """Add to a monotonically increasing counter."""
        key = ("counter", name, _label_key(labels))
        self.values[key] = self.values.get(key, 0.0) + amount

    def set(self, name: str, value: float, /, **labels: Any) -> None:
        """Set a gauge to a point-in-time value."""
        self.values[("gauge", name, _label_key(labels))] = float(value)

    def add(self, name: str, delta: float, /, **labels: Any) -> None:
        """Move a gauge by ``delta`` (in-flight +1/-1)."""
        key = ("gauge", name, _label_key(labels))
        self.values[key] = self.values.get(key, 0.0) + delta

    def observe(self, name: str, value: float, /, **labels: Any) -> None:
        """Add one sample to a sliding-window histogram."""
        samples = self.values.setdefault(
            ("histogram", name, _label_key(labels)), deque())
        now = self._clock()
        samples.append((now, float(value)))
        _prune(samples, now)

    def summary(self, name: str, now: Optional[float] = None, /,
                **labels: Any) -> Dict[str, float]:
        """count/sum/min/max and p50/p95/p99 of one histogram's window.

        Reading never creates a histogram: an unseen one summarizes as
        empty and stays out of the exposition until it is observed.
        """
        samples = self.values.get(("histogram", name, _label_key(labels)))
        return self._summarize(deque() if samples is None else samples, now)

    def _summarize(self, samples: deque,
                   now: Optional[float]) -> Dict[str, float]:
        _prune(samples, self._clock() if now is None else now)
        return summarize([value for _, value in samples])

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """JSON exposition: counters/gauges/histograms with labels."""
        out: Dict[str, List[Dict[str, Any]]] = {
            "counters": [], "gauges": [], "histograms": [],
        }
        for kind, name, labels in sorted(self.values):
            value = self.values[kind, name, labels]
            row: Dict[str, Any] = {"name": name, "labels": dict(labels)}
            if kind == "histogram":
                row["summary"] = self._summarize(value, now)
            else:
                row["value"] = value
            out[kind + "s"].append(row)
        return out

    def to_prometheus(self, now: Optional[float] = None) -> str:
        """Prometheus text exposition (version 0.0.4).

        Counters and gauges become single samples; sliding-window
        histograms are exported as summaries (``{quantile="0.5"}`` plus
        ``_count`` / ``_sum``) over the current window.
        """
        lines: List[str] = []
        typed: set = set()
        for kind, name, labels in sorted(self.values):
            value = self.values[kind, name, labels]
            prom = _prom_name(name)
            if (kind, prom) not in typed:
                typed.add((kind, prom))
                prom_type = ("summary" if kind == "histogram"
                             else kind)
                lines.append(f"# TYPE {prom} {prom_type}")
            label_dict = dict(labels)
            if kind == "histogram":
                summary = self._summarize(value, now)
                for quantile_label, q in HISTOGRAM_QUANTILES:
                    lines.append(_prom_sample(
                        prom, {**label_dict, "quantile": repr(q)},
                        summary[quantile_label]))
                lines.append(_prom_sample(
                    prom + "_count", label_dict, summary["count"]))
                lines.append(_prom_sample(
                    prom + "_sum", label_dict, summary["sum"]))
            else:
                lines.append(_prom_sample(prom, label_dict, value))
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_sample(name: str, labels: Dict[str, Any], value: Any) -> str:
    if labels:
        inner = ",".join(
            f'{key}="{_prom_escape(str(val))}"'
            for key, val in sorted(labels.items())
        )
        return f"{name}{{{inner}}} {_prom_value(value)}"
    return f"{name} {_prom_value(value)}"


def _prom_value(value: Any) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


# ---------------------------------------------------------------------------
# SLOs: one table over the sliding windows
# ---------------------------------------------------------------------------
#
# A measure reads the window and returns ``(value, ok)`` for its row's
# threshold; its function name is the row's ``kind`` in ``/healthz``.


def _mean(ops: OpsMetrics, name: str, now: Optional[float],
          empty: float) -> float:
    window = ops.summary(name, now)
    return window["sum"] / window["count"] if window["count"] else empty


def availability(ops: OpsMetrics, now: Optional[float], threshold: float):
    """Mean of ``http.availability`` (1 per response below 500, 0 per
    5xx); fails *below* the threshold."""
    value = _mean(ops, "http.availability", now, 1.0)
    return value, value >= threshold


def latency_p95(ops: OpsMetrics, now: Optional[float], threshold: float):
    """p95 of the aggregate ``turn.wall_seconds``; fails above it."""
    value = ops.summary("turn.wall_seconds", now)["p95"]
    return value, value <= threshold


def quota_rejection_rate(ops: OpsMetrics, now: Optional[float],
                         threshold: float):
    """Mean of ``turn.quota_outcome`` (1 per quota-rejected turn)."""
    value = _mean(ops, "turn.quota_outcome", now, 0.0)
    return value, value <= threshold


def saturation(ops: OpsMetrics, now: Optional[float], threshold: float):
    """Count of ``pool.saturation_rejections`` (503s from the worker
    pool) in the window."""
    value = ops.summary("pool.saturation_rejections", now)["count"]
    return value, value <= threshold


#: The service's objectives: ``(name, threshold, description, measure)``.
SLOS = (
    ("availability", 0.99,
     "fraction of HTTP responses below 500 over the window", availability),
    ("turn_latency_p95", 30.0,
     "p95 wall seconds per finished chat turn", latency_p95),
    ("quota_rejection_rate", 0.5,
     "fraction of turns rejected or aborted on quota", quota_rejection_rate),
    ("worker_pool_saturation", 0.0,
     "async turns bounced 503 by the saturated worker pool", saturation),
)


def evaluate_slos(ops: OpsMetrics,
                  now: Optional[float] = None) -> List[Dict[str, Any]]:
    """One status row per :data:`SLOS` entry: its value and ``ok``."""
    rows = []
    for name, threshold, description, measure in SLOS:
        value, ok = measure(ops, now, threshold)
        rows.append({
            "name": name,
            "kind": measure.__name__,
            "threshold": threshold,
            "description": description,
            "value": round(value, 6),
            "ok": ok,
        })
    return rows


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------


class Telemetry:
    """Request ids + JSONL log + OpsMetrics + SLOs, behind one object.

    The server constructs exactly one and threads it through the HTTP
    handlers, the :class:`~repro.server.store.SessionStore`, chat
    workspaces, and the execution engine.  Everything is wall-clock and
    best-effort; nothing here may influence deterministic outputs.  With
    ``root=None`` no log file is written; metrics and SLOs are kept in
    memory either way.  Under ``repro serve`` every caller holds the
    serving lock.
    """

    def __init__(self, root=DEFAULT_TELEMETRY_ROOT, clock=wall_now):
        self.log = (TelemetryLog(root, clock=clock)
                    if root is not None else None)
        self.ops = OpsMetrics(clock=clock)
        self._request_serial = 0
        # A per-process epoch keeps request ids unique across restarts
        # of the same telemetry root (ids are operational, never part of
        # deterministic artifacts): 40 bits of epoch-milliseconds (wraps
        # every ~35 years, not hours) plus the pid, so two processes
        # started in the same millisecond still mint distinct ids.
        self._epoch = (f"{int(clock() * 1000) & 0xFFFFFFFFFF:010x}"
                       f"-{os.getpid() & 0xFFFF:04x}")

    # -- correlation ----------------------------------------------------

    def new_request_id(self) -> str:
        self._request_serial += 1
        return f"req-{self._epoch}-{self._request_serial:06d}"

    # -- logging --------------------------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        """One structured log line (correlation context auto-attached)."""
        if self.log is not None:
            self.log.log(name, **fields)

    def error(self, name: str, exc: BaseException, **fields: Any) -> None:
        """Log an error event with type, message, and stack digest."""
        self.event(
            name,
            error_type=type(exc).__name__,
            error=str(exc),
            stack_digest=stack_digest(exc),
            **fields,
        )

    # -- timing ---------------------------------------------------------

    @contextmanager
    def phase(self, name: str, **fields: Any) -> Iterator[None]:
        """Time a phase into ``<name>_wall_seconds`` (tenant-labeled).

        The engine wraps optimization and execution in these; the label
        comes from the bound correlation context so the engine stays
        ignorant of tenancy.
        """
        started = wall_perf()
        try:
            yield
        finally:
            seconds = wall_perf() - started
            tenant = current_context().get("tenant")
            labels = {"tenant": tenant} if tenant else {}
            self.ops.observe(f"{name}_wall_seconds", seconds, **labels)
            self.event(f"{name}_phase", seconds=round(seconds, 6), **fields)

    # -- exposition -----------------------------------------------------

    def health(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The ``/healthz`` payload: ok/degraded + the SLO table."""
        slos = evaluate_slos(self.ops, now)
        alerts = [row for row in slos if not row["ok"]]
        return {
            "status": "degraded" if alerts else "ok",
            "ok": not alerts,
            "alerts": alerts,
            "slos": slos,
        }

    def metrics_payload(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The ``/metrics?format=json`` payload."""
        stamp = wall_now() if now is None else now
        health = self.health(now)
        return {
            "generated_at": round(stamp, 6),
            "window_seconds": WINDOW_SECONDS,
            "status": health["status"],
            "alerts": health["alerts"],
            "slos": health["slos"],
            "metrics": self.ops.snapshot(now),
        }

    def prometheus(self, now: Optional[float] = None) -> str:
        """The ``/metrics`` text exposition, SLO verdicts included."""
        lines = [self.ops.to_prometheus(now).rstrip("\n")]
        lines.append("# TYPE repro_slo_ok gauge")
        for row in evaluate_slos(self.ops, now):
            lines.append(_prom_sample(
                "repro_slo_ok", {"slo": row["name"]},
                1 if row["ok"] else 0))
        return "\n".join(line for line in lines if line) + "\n"

    def close(self) -> None:
        if self.log is not None:
            self.log.close()


# ---------------------------------------------------------------------------
# The `repro top` dashboard renderer
# ---------------------------------------------------------------------------


def _by_tenant(payload: Dict[str, Any], kind: str,
               name: str) -> Dict[str, Any]:
    """One metric's rows in a ``/metrics`` JSON payload, by tenant label.

    Counter and gauge values add up per tenant (a counter's status
    labels fold together); a histogram row maps to its summary.  Rows
    without a tenant label land under ``"-"``.
    """
    found: Dict[str, Any] = {}
    for row in payload.get("metrics", {}).get(kind, []):
        if row["name"] != name:
            continue
        tenant = row.get("labels", {}).get("tenant", "-")
        if kind == "histograms":
            found[tenant] = row["summary"]
        else:
            found[tenant] = found.get(tenant, 0.0) + row["value"]
    return found


def render_dashboard(
    payload: Dict[str, Any],
    previous: Optional[Dict[str, Any]] = None,
    elapsed: Optional[float] = None,
) -> str:
    """Render one ``repro top`` frame from a ``/metrics`` JSON payload.

    ``previous``/``elapsed`` (the prior poll and the seconds since it)
    turn the monotonic turn counters into turns/s rates; without them
    the rate column shows ``-``.
    """
    turns = _by_tenant(payload, "counters", "turns.completed_total")
    prev_turns = (_by_tenant(previous, "counters", "turns.completed_total")
                  if previous else {})
    quota = _by_tenant(payload, "counters", "quota.rejections_total")
    in_flight = _by_tenant(payload, "gauges", "turns.in_flight")
    latency = _by_tenant(payload, "histograms", "turn.wall_seconds")
    spent = _by_tenant(payload, "gauges", "tenant.spent_cost_usd")
    caps = _by_tenant(payload, "gauges", "tenant.quota_cost_usd")

    def pool(name: str) -> float:
        return _by_tenant(payload, "gauges", name).get("-", 0.0)

    tenants = sorted(set(turns) | set(in_flight) | set(spent) | set(quota))
    status = payload.get("status", "ok")
    lines = [
        f"repro top — service {status.upper()} — "
        f"window {payload.get('window_seconds', 0):.0f}s — "
        f"{len(tenants)} tenant(s)",
        "",
        f"{'TENANT':<16} {'TURNS':>6} {'T/S':>6} {'INFL':>5} "
        f"{'P50':>8} {'P95':>8} {'P99':>8} {'QUOTA':>6} "
        f"{'SPENT$':>9} {'CAP$':>9}",
    ]
    for tenant in tenants:
        total = turns.get(tenant, 0.0)
        if previous is not None and elapsed and elapsed > 0:
            rate = (total - prev_turns.get(tenant, 0.0)) / elapsed
            rate_text = f"{rate:.2f}"
        else:
            rate_text = "-"
        summary = latency.get(tenant) or {}
        cap = caps.get(tenant)
        cap_text = f"{cap:.4f}" if cap is not None else "-"
        lines.append(
            f"{tenant:<16} {total:>6.0f} {rate_text:>6} "
            f"{in_flight.get(tenant, 0.0):>5.0f} "
            f"{summary.get('p50', 0.0):>8.3f} "
            f"{summary.get('p95', 0.0):>8.3f} "
            f"{summary.get('p99', 0.0):>8.3f} "
            f"{quota.get(tenant, 0.0):>6.0f} "
            f"{spent.get(tenant, 0.0):>9.4f} "
            f"{cap_text:>9}"
        )
    if not tenants:
        lines.append("(no tenant traffic yet)")
    lines.append("")
    pool_bits = (
        f"pool: active {pool('pool.active'):.0f}"
        f"/{pool('pool.workers'):.0f} workers, "
        f"queued {pool('pool.queued'):.0f}, "
        f"saturation {pool('pool.saturation'):.2f}"
    )
    lines.append(pool_bits)
    alerts = payload.get("alerts") or []
    if alerts:
        lines.append("")
        lines.append("ALERTS FIRING:")
        for alert in alerts:
            lines.append(
                f"  ! {alert['name']}: value {alert['value']} vs "
                f"threshold {alert['threshold']} — {alert['description']}"
            )
    else:
        lines.append("alerts: none")
    return "\n".join(lines)
