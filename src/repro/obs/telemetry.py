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
enforced by pz-lint rule ``OB403`` (``docs/diagnostics.md``).

Pieces (see ``docs/observability.md`` → "Operational telemetry"):

* **correlation** — :func:`bind_context` / :func:`current_context`
  carry ``request_id`` / ``tenant`` / ``session`` / ``turn`` through a
  request, including onto worker threads, so every log line and span
  tail can be joined back to its HTTP request.
* :class:`TelemetryLog` — structured JSONL event log with size-based
  rotation under ``.repro/telemetry/``.
* :class:`OpsMetrics` — labeled counters, gauges, and sliding-window
  histograms (nearest-rank p50/p95/p99, the same quantile definition as
  the deterministic :class:`~repro.obs.metrics.Histogram`), exported in
  Prometheus text format and as JSON.
* :class:`SloEvaluator` — a declarative alert-rule table evaluated over
  the sliding windows (availability, p95 turn latency, quota-rejection
  rate, worker-pool saturation); surfaced at ``GET /healthz``.
* :class:`Telemetry` — the facade the server wires through everything,
  with :data:`NULL_TELEMETRY` as the no-op off switch.
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
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import HISTOGRAM_QUANTILES, nearest_rank

__all__ = [
    "DEFAULT_TELEMETRY_ROOT",
    "DEFAULT_SLO_RULES",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "OpsCounter",
    "OpsGauge",
    "OpsMetrics",
    "OpsWindowHistogram",
    "SloEvaluator",
    "SloRule",
    "Telemetry",
    "TelemetryLog",
    "bind_context",
    "current_context",
    "render_dashboard",
    "stack_digest",
    "wall_now",
    "wall_perf",
]

DEFAULT_TELEMETRY_ROOT = ".repro/telemetry"

#: Sliding-window length every OpsMetrics histogram (and therefore every
#: SLO) is evaluated over, in wall seconds.
DEFAULT_WINDOW_SECONDS = 300.0


# ---------------------------------------------------------------------------
# Sanctioned wall-clock reads (the OB403 boundary)
# ---------------------------------------------------------------------------


def wall_now() -> float:
    """Wall-clock epoch seconds — THE sanctioned absolute-time read.

    All operational timestamps route through here; engine/executor code
    calling ``time.time()`` directly is an ``OB403`` lint error.
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
    ``root``; when the active file would exceed ``max_bytes`` the writer
    rolls to the next index and prunes beyond ``keep_files``.
    """

    _GUARDED_BY = {"_handle": "_lock", "_size": "_lock", "_index": "_lock"}

    def __init__(
        self,
        root,
        max_bytes: int = 1_000_000,
        keep_files: int = 5,
        clock=wall_now,
    ):
        self.root = Path(root)
        self.max_bytes = max(1024, int(max_bytes))
        self.keep_files = max(1, int(keep_files))
        self._clock = clock
        self._lock = threading.Lock()
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
        with self._lock:
            return self._path_for(self._index)

    def log(self, event: str, **fields: Any) -> None:
        """Append one event line (correlation context auto-attached)."""
        record: Dict[str, Any] = {"ts": round(self._clock(), 6),
                                  "event": event}
        record.update(current_context())
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            if self._handle is None:
                path = self._path_for(self._index)
                self.root.mkdir(parents=True, exist_ok=True)
                self._handle = open(path, "ab")
                self._size = path.stat().st_size
            if self._size and self._size + len(data) > self.max_bytes:
                self._handle.close()
                self._index += 1
                self._handle = open(self._path_for(self._index), "ab")
                self._size = 0
                self._prune(self._index - self.keep_files + 1)
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
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# ---------------------------------------------------------------------------
# OpsMetrics: labeled wall-clock instruments
# ---------------------------------------------------------------------------


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class OpsCounter:
    """A monotonically increasing operational count."""

    __slots__ = ("_value", "_lock")

    _GUARDED_BY = {"_value": "_lock"}

    def __init__(self):
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class OpsGauge:
    """A point-in-time operational value (``add`` for in-flight +/-1)."""

    __slots__ = ("_value", "_lock")

    _GUARDED_BY = {"_value": "_lock"}

    def __init__(self):
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class OpsWindowHistogram:
    """Latency samples over a sliding wall-clock window.

    Unlike the run-scoped deterministic histogram, samples age out:
    ``summary()`` reports count/sum/min/max and nearest-rank p50/p95/p99
    over only the samples observed within ``window_seconds`` of *now* —
    the basis for the SLO evaluation and the ``repro top`` percentiles.
    """

    __slots__ = ("window_seconds", "_samples", "_clock", "_lock")

    _GUARDED_BY = {"_samples": "_lock"}

    def __init__(self, window_seconds: float = DEFAULT_WINDOW_SECONDS,
                 clock=wall_now):
        self.window_seconds = float(window_seconds)
        self._samples: deque = deque()
        self._clock = clock
        self._lock = threading.Lock()

    def observe(self, value: float, ts: Optional[float] = None) -> None:
        stamp = self._clock() if ts is None else ts
        with self._lock:
            self._samples.append((stamp, float(value)))
            self._prune_locked(stamp)

    def _prune_locked(self, now: float) -> None:
        horizon = now - self.window_seconds
        while self._samples and self._samples[0][0] < horizon:  # guarded-by: ok(only called with _lock held by observe/summary)
            self._samples.popleft()  # guarded-by: ok(only called with _lock held by observe/summary)

    def summary(self, now: Optional[float] = None) -> Dict[str, float]:
        stamp = self._clock() if now is None else now
        with self._lock:
            self._prune_locked(stamp)
            values = [value for _, value in self._samples]
        summary: Dict[str, float] = {
            "count": len(values),
            "sum": round(sum(values), 9),
            "min": min(values) if values else 0.0,
            "max": max(values) if values else 0.0,
        }
        ordered = sorted(values)
        for label, q in HISTOGRAM_QUANTILES:
            summary[label] = nearest_rank(ordered, q) if ordered else 0.0
        return summary


class OpsMetrics:
    """Creates-or-returns labeled operational instruments.

    Names are dotted lowercase paths (``http.requests_total``) like the
    deterministic registry; labels are keyword arguments
    (``counter("turns.completed_total", tenant="acme", status="ok")``).
    ``snapshot()`` is the JSON exposition; :meth:`to_prometheus` the
    text exposition (dots become underscores there).
    """

    _GUARDED_BY = {"_metrics": "_lock"}

    def __init__(self, window_seconds: float = DEFAULT_WINDOW_SECONDS,
                 clock=wall_now):
        self.window_seconds = float(window_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, str, Tuple[Tuple[str, str], ...]],
                            Any] = {}

    def _get_or_create(self, kind: str, name: str,
                       labels: Dict[str, Any], factory):
        key = (kind, name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: Any) -> OpsCounter:
        return self._get_or_create("counter", name, labels, OpsCounter)

    def gauge(self, name: str, **labels: Any) -> OpsGauge:
        return self._get_or_create("gauge", name, labels, OpsGauge)

    def histogram(self, name: str, **labels: Any) -> OpsWindowHistogram:
        return self._get_or_create(
            "histogram", name, labels,
            lambda: OpsWindowHistogram(self.window_seconds, self._clock),
        )

    def _items(self) -> List[Tuple[Tuple[str, str, Tuple], Any]]:
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """JSON exposition: counters/gauges/histograms with labels."""
        out: Dict[str, List[Dict[str, Any]]] = {
            "counters": [], "gauges": [], "histograms": [],
        }
        for (kind, name, labels), metric in self._items():
            row: Dict[str, Any] = {"name": name, "labels": dict(labels)}
            if kind == "histogram":
                row["summary"] = metric.summary(now)
                out["histograms"].append(row)
            else:
                row["value"] = metric.value
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
        for (kind, name, labels), metric in self._items():
            prom = _prom_name(name)
            if (kind, prom) not in typed:
                typed.add((kind, prom))
                prom_type = ("summary" if kind == "histogram"
                             else kind)
                lines.append(f"# TYPE {prom} {prom_type}")
            label_dict = dict(labels)
            if kind == "histogram":
                summary = metric.summary(now)
                for quantile_label, q in HISTOGRAM_QUANTILES:
                    lines.append(_prom_sample(
                        prom, {**label_dict, "quantile": repr(q)},
                        summary[quantile_label]))
                lines.append(_prom_sample(
                    prom + "_count", label_dict, summary["count"]))
                lines.append(_prom_sample(
                    prom + "_sum", label_dict, summary["sum"]))
            else:
                lines.append(_prom_sample(prom, label_dict, metric.value))
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
# SLOs: a declarative alert-rule table over the sliding windows
# ---------------------------------------------------------------------------


class SloRule:
    """One service-level objective evaluated over the metrics window.

    ``kind`` picks the evaluation (and the metric read):

    * ``availability`` — mean of ``http.availability`` (1 per non-5xx
      response, 0 per 5xx); fires when it drops *below* threshold.
    * ``latency_p95`` — p95 of the aggregate ``turn.wall_seconds``
      window; fires when it rises *above* threshold seconds.
    * ``quota_rejection_rate`` — mean of ``turn.quota_outcome`` (1 per
      quota-rejected turn, 0 otherwise); fires *above* threshold.
    * ``saturation`` — count of ``pool.saturation_rejections`` in the
      window (503s from the bounded turn worker pool); fires *above*
      threshold.
    """

    KINDS = ("availability", "latency_p95", "quota_rejection_rate",
             "saturation")

    def __init__(self, name: str, kind: str, threshold: float,
                 description: str = ""):
        if kind not in self.KINDS:
            raise ValueError(
                f"unknown SLO kind {kind!r}; expected one of {self.KINDS}")
        self.name = name
        self.kind = kind
        self.threshold = float(threshold)
        self.description = description

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "threshold": self.threshold,
            "description": self.description,
        }


DEFAULT_SLO_RULES = (
    SloRule(
        "availability", "availability", 0.99,
        "fraction of HTTP responses below 500 over the window",
    ),
    SloRule(
        "turn_latency_p95", "latency_p95", 30.0,
        "p95 wall seconds per finished chat turn",
    ),
    SloRule(
        "quota_rejection_rate", "quota_rejection_rate", 0.5,
        "fraction of turns rejected or aborted on quota",
    ),
    SloRule(
        "worker_pool_saturation", "saturation", 0.0,
        "async turns bounced 503 by the saturated worker pool",
    ),
)


class SloEvaluator:
    """Evaluates the rule table against an :class:`OpsMetrics`."""

    def __init__(self, ops: OpsMetrics,
                 rules: Optional[List[SloRule]] = None):
        self.ops = ops
        self.rules = list(rules if rules is not None else DEFAULT_SLO_RULES)

    def _measure(self, rule: SloRule, now: Optional[float]) -> float:
        if rule.kind == "availability":
            summary = self.ops.histogram("http.availability").summary(now)
            if not summary["count"]:
                return 1.0
            return summary["sum"] / summary["count"]
        if rule.kind == "latency_p95":
            return self.ops.histogram("turn.wall_seconds").summary(now)["p95"]
        if rule.kind == "quota_rejection_rate":
            summary = self.ops.histogram("turn.quota_outcome").summary(now)
            if not summary["count"]:
                return 0.0
            return summary["sum"] / summary["count"]
        # saturation
        return self.ops.histogram(
            "pool.saturation_rejections").summary(now)["count"]

    def evaluate(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """One status row per rule: the rule, its value, and ``ok``."""
        statuses = []
        for rule in self.rules:
            value = self._measure(rule, now)
            if rule.kind == "availability":
                ok = value >= rule.threshold
            else:
                ok = value <= rule.threshold
            status = rule.to_dict()
            status["value"] = round(value, 6)
            status["ok"] = ok
            statuses.append(status)
        return statuses


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------


class Telemetry:
    """Request ids + JSONL log + OpsMetrics + SLOs, behind one object.

    The server constructs exactly one and threads it through the HTTP
    handlers, the :class:`~repro.server.store.SessionStore`, chat
    workspaces, and the execution engine.  Everything is wall-clock and
    best-effort; nothing here may influence deterministic outputs.
    """

    _GUARDED_BY = {"_request_serial": "_lock"}

    enabled = True

    def __init__(
        self,
        root=DEFAULT_TELEMETRY_ROOT,
        slo_rules: Optional[List[SloRule]] = None,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_log_bytes: int = 1_000_000,
        keep_log_files: int = 5,
        clock=wall_now,
    ):
        self.root = Path(root)
        self.log = TelemetryLog(self.root, max_bytes=max_log_bytes,
                                keep_files=keep_log_files, clock=clock)
        self.ops = OpsMetrics(window_seconds=window_seconds, clock=clock)
        self.slos = SloEvaluator(self.ops, slo_rules)
        self._lock = threading.Lock()
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
        with self._lock:
            self._request_serial += 1
            serial = self._request_serial
        return f"req-{self._epoch}-{serial:06d}"

    # -- logging --------------------------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        """One structured log line (correlation context auto-attached)."""
        self.log.log(name, **fields)

    def error(self, name: str, exc: BaseException, **fields: Any) -> None:
        """Log an error event with type, message, and stack digest."""
        self.log.log(
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
            self.ops.histogram(f"{name}_wall_seconds",
                               **labels).observe(seconds)
            self.event(f"{name}_phase", seconds=round(seconds, 6), **fields)

    # -- exposition -----------------------------------------------------

    def health(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The ``/healthz`` payload: ok/degraded + the SLO table."""
        slos = self.slos.evaluate(now)
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
            "window_seconds": self.ops.window_seconds,
            "status": health["status"],
            "alerts": health["alerts"],
            "slos": health["slos"],
            "metrics": self.ops.snapshot(now),
        }

    def prometheus(self, now: Optional[float] = None) -> str:
        """The ``/metrics`` text exposition, SLO verdicts included."""
        lines = [self.ops.to_prometheus(now).rstrip("\n")]
        lines.append("# TYPE repro_slo_ok gauge")
        for row in self.slos.evaluate(now):
            lines.append(_prom_sample(
                "repro_slo_ok", {"slo": row["name"]},
                1 if row["ok"] else 0))
        return "\n".join(line for line in lines if line) + "\n"

    def close(self) -> None:
        self.log.close()


class NullTelemetry:
    """The off switch: same surface, no files, no samples, no cost."""

    enabled = False

    class _NullInstrument:
        def inc(self, amount: float = 1.0) -> None:
            pass

        def set(self, value: float) -> None:
            pass

        def add(self, delta: float) -> None:
            pass

        def observe(self, value: float, ts: Optional[float] = None) -> None:
            pass

        value = 0.0

        def summary(self, now: Optional[float] = None) -> Dict[str, float]:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}

    class _NullOps:
        window_seconds = DEFAULT_WINDOW_SECONDS

        def __init__(self, instrument):
            self._instrument = instrument

        def counter(self, name: str, **labels: Any):
            return self._instrument

        def gauge(self, name: str, **labels: Any):
            return self._instrument

        def histogram(self, name: str, **labels: Any):
            return self._instrument

        def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
            return {"counters": [], "gauges": [], "histograms": []}

        def to_prometheus(self, now: Optional[float] = None) -> str:
            return ""

    def __init__(self):
        instrument = self._NullInstrument()
        self.ops = self._NullOps(instrument)
        self.slos = SloEvaluator(None, rules=[])
        self._serial_lock = threading.Lock()
        self._serial = 0

    def new_request_id(self) -> str:
        with self._serial_lock:
            self._serial += 1
            serial = self._serial
        return f"req-off-{serial:06d}"

    def event(self, name: str, **fields: Any) -> None:
        pass

    def error(self, name: str, exc: BaseException, **fields: Any) -> None:
        pass

    def phase(self, name: str, **fields: Any):
        return nullcontext()

    def health(self, now: Optional[float] = None) -> Dict[str, Any]:
        return {"status": "ok", "ok": True, "alerts": [], "slos": []}

    def metrics_payload(self, now: Optional[float] = None) -> Dict[str, Any]:
        return {
            "generated_at": 0.0,
            "window_seconds": 0.0,
            "status": "ok",
            "alerts": [],
            "slos": [],
            "metrics": self.ops.snapshot(),
        }

    def prometheus(self, now: Optional[float] = None) -> str:
        return "# TYPE repro_slo_ok gauge\n"

    def close(self) -> None:
        pass


#: The shared no-op instance (``SessionStore(telemetry=False)``).
NULL_TELEMETRY = NullTelemetry()


# ---------------------------------------------------------------------------
# The `repro top` dashboard renderer
# ---------------------------------------------------------------------------


def _counter_by_tenant(payload: Dict[str, Any], name: str,
                       status: Optional[str] = None) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for row in payload.get("metrics", {}).get("counters", []):
        if row["name"] != name:
            continue
        labels = row.get("labels", {})
        if status is not None and labels.get("status") != status:
            continue
        tenant = labels.get("tenant", "-")
        totals[tenant] = totals.get(tenant, 0.0) + row["value"]
    return totals


def _gauge_by_tenant(payload: Dict[str, Any], name: str) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for row in payload.get("metrics", {}).get("gauges", []):
        if row["name"] == name and "tenant" in row.get("labels", {}):
            values[row["labels"]["tenant"]] = row["value"]
    return values


def _histogram_by_tenant(payload: Dict[str, Any],
                         name: str) -> Dict[str, Dict[str, float]]:
    summaries: Dict[str, Dict[str, float]] = {}
    for row in payload.get("metrics", {}).get("histograms", []):
        if row["name"] == name and "tenant" in row.get("labels", {}):
            summaries[row["labels"]["tenant"]] = row["summary"]
    return summaries


def _gauge_value(payload: Dict[str, Any], name: str) -> float:
    for row in payload.get("metrics", {}).get("gauges", []):
        if row["name"] == name and not row.get("labels"):
            return row["value"]
    return 0.0


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
    turns = _counter_by_tenant(payload, "turns.completed_total")
    prev_turns = (_counter_by_tenant(previous, "turns.completed_total")
                  if previous else {})
    quota = _counter_by_tenant(payload, "quota.rejections_total")
    in_flight = _gauge_by_tenant(payload, "turns.in_flight")
    latency = _histogram_by_tenant(payload, "turn.wall_seconds")
    spent = _gauge_by_tenant(payload, "tenant.spent_cost_usd")
    caps = _gauge_by_tenant(payload, "tenant.quota_cost_usd")

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
        f"pool: active {_gauge_value(payload, 'pool.active'):.0f}"
        f"/{_gauge_value(payload, 'pool.workers'):.0f} workers, "
        f"queued {_gauge_value(payload, 'pool.queued'):.0f}, "
        f"saturation {_gauge_value(payload, 'pool.saturation'):.2f}"
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
