"""Metrics: named counters, gauges, and histograms for one run.

A :class:`MetricsRegistry` lives on the
:class:`~repro.physical.context.ExecutionContext` and is snapshotted into
:class:`~repro.execution.stats.ExecutionStats` after every run — traced or
not, so a traced run reports byte-identical stats to an untraced one.

Metrics come in two determinism classes:

* **deterministic** (the default) — pure functions of the plan and input
  (llm_calls, cache hits, records in/out per operator, virtual busy time
  per pipeline stage).  These are what ``snapshot()`` returns and what
  lands in ``ExecutionStats.metrics``.
* **best-effort** (``best_effort=True``) — real-scheduling observables
  (queue depth high-water marks, queue poll retries) that legitimately
  vary run to run.  They are excluded from the stats snapshot and only
  appear in trace exports via ``snapshot(include_best_effort=True)``.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Optional, Sequence


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "best_effort", "_value", "_lock")

    _GUARDED_BY = {"_value": "_lock"}

    def __init__(self, name: str, best_effort: bool = False):
        self.name = name
        self.best_effort = best_effort
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot_value(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value; ``set_max`` keeps the high-water mark."""

    __slots__ = ("name", "best_effort", "_value", "_lock")

    _GUARDED_BY = {"_value": "_lock"}

    def __init__(self, name: str, best_effort: bool = False):
        self.name = name
        self.best_effort = best_effort
        self._value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def set_max(self, value: float) -> None:
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot_value(self) -> float:
        return self.value


#: Quantiles reported by every histogram snapshot, in reporting order.
HISTOGRAM_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def nearest_rank(ordered: List[float], q: float) -> float:
    """Exact nearest-rank quantile over pre-sorted samples.

    1-based rank ``ceil(q * n)``, computed in integer arithmetic (q
    quantized to 1e-6) so float rounding can't shift the rank.  Shared
    by the run-scoped :class:`Histogram` and the wall-clock sliding
    windows of :mod:`repro.obs.telemetry`, so both report the same
    quantile definition.
    """
    rank = -(-len(ordered) * int(round(q * 1000000)) // 1000000)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


class Histogram:
    """Summary statistics over observed samples, with quantiles.

    Samples are retained so ``snapshot_value`` can report exact
    nearest-rank p50/p95/p99 — a deterministic definition: the q-th
    quantile of n sorted samples is the one at rank ``ceil(q * n)``
    (1-based), so identical sample multisets yield identical quantiles
    regardless of observation order or worker count.  Run-scoped
    histograms observe at most one sample per record or LLM call, so
    retention stays proportional to run size.
    """

    __slots__ = ("name", "best_effort", "_count", "_min", "_max",
                 "_samples", "_lock")

    _GUARDED_BY = {
        "_count": "_lock",
        "_min": "_lock",
        "_max": "_lock",
        "_samples": "_lock",
    }

    def __init__(self, name: str, best_effort: bool = False):
        self.name = name
        self.best_effort = best_effort
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: List[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe every one of ``values`` under one lock hold (a run's
        per-call distributions arrive all at once, at run end)."""
        if not values:
            return
        low, high = min(values), max(values)
        with self._lock:
            self._count += len(values)
            self._samples.extend(values)
            if self._min is None or low < self._min:
                self._min = low
            if self._max is None or high > self._max:
                self._max = high

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        with self._lock:
            if not self._count:
                return 0.0
            # fsum over the retained samples: exact and order-independent,
            # where a running sum would carry arrival-order ulp jitter.
            return math.fsum(self._samples) / self._count

    @staticmethod
    def _nearest_rank(ordered: List[float], q: float) -> float:
        return nearest_rank(ordered, q)

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile (0 < q <= 1) over all samples."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            if not self._samples:
                return 0.0
            return self._nearest_rank(sorted(self._samples), q)

    def snapshot_value(self) -> Dict[str, float]:
        with self._lock:
            snapshot = {
                "count": self._count,
                "sum": round(math.fsum(self._samples), 9),
                "min": self._min if self._min is not None else 0.0,
                "max": self._max if self._max is not None else 0.0,
            }
            ordered = sorted(self._samples)
            for label, q in HISTOGRAM_QUANTILES:
                snapshot[label] = (
                    self._nearest_rank(ordered, q) if ordered else 0.0
                )
            return snapshot


class MetricsRegistry:
    """Creates-or-returns named metrics and snapshots them all.

    Metric names are dotted lowercase paths (``llm.calls``,
    ``op.2.records_out``, ``pipeline.stage0.busy_seconds``) — the same
    convention pz-lint's ``OB401`` enforces for span names.
    """

    _GUARDED_BY = {"_metrics": "_lock"}

    def __init__(self):
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls, best_effort: bool):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, best_effort=best_effort)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {cls.__name__}"
                )
            return metric

    def counter(self, name: str, best_effort: bool = False) -> Counter:
        return self._get_or_create(name, Counter, best_effort)

    def gauge(self, name: str, best_effort: bool = False) -> Gauge:
        return self._get_or_create(name, Gauge, best_effort)

    def histogram(self, name: str, best_effort: bool = False) -> Histogram:
        return self._get_or_create(name, Histogram, best_effort)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self, include_best_effort: bool = False) -> Dict[str, Any]:
        """All metric values keyed by name, sorted, deterministic by
        default (best-effort metrics only when explicitly requested)."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {
            name: metric.snapshot_value()
            for name, metric in sorted(metrics)
            if include_best_effort or not metric.best_effort
        }

    def clear(self) -> None:
        with self._lock:
            self._metrics = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} metrics)"
