"""Metrics: named counters, gauges, and histograms for one run.

A :class:`MetricsRegistry` lives on the
:class:`~repro.physical.context.ExecutionContext` and is snapshotted into
:class:`~repro.execution.stats.ExecutionStats` after every run — traced or
not, so a traced run reports byte-identical stats to an untraced one.

Every metric is deterministic: a pure function of the plan and input
(llm_calls, cache hits, records in/out per operator, virtual busy time
per pipeline stage).  ``snapshot()`` is what lands in
``ExecutionStats.metrics``.  A registry belongs to its run, so neither it
nor its metrics take a lock.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot_value(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

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

    __slots__ = ("name", "_count", "_min", "_max", "_samples")

    def __init__(self, name: str):
        self.name = name
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe every one of ``values`` in one pass (a run's per-call
        distributions arrive all at once, at run end)."""
        if not values:
            return
        low, high = min(values), max(values)
        self._count += len(values)
        self._samples.extend(values)
        if self._min is None or low < self._min:
            self._min = low
        if self._max is None or high > self._max:
            self._max = high

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if not self._count:
            return 0.0
        # fsum over the retained samples: exact and order-independent,
        # where a running sum would carry arrival-order ulp jitter.
        return math.fsum(self._samples) / self._count

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile (0 < q <= 1) over all samples."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if not self._samples:
            return 0.0
        return nearest_rank(sorted(self._samples), q)

    def snapshot_value(self) -> Dict[str, float]:
        snapshot = {
            "count": self._count,
            "sum": round(math.fsum(self._samples), 9),
            "min": self._min if self._min is not None else 0.0,
            "max": self._max if self._max is not None else 0.0,
        }
        ordered = sorted(self._samples)
        for label, q in HISTOGRAM_QUANTILES:
            snapshot[label] = nearest_rank(ordered, q) if ordered else 0.0
        return snapshot


class MetricsRegistry:
    """Creates-or-returns named metrics and snapshots them all.

    Metric names are dotted lowercase paths (``llm.calls``,
    ``op.2.records_out``, ``pipeline.stage0.busy_seconds``) — the same
    convention pz-lint's ``OB401`` enforces for span names.
    """

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """All metric values keyed by name, sorted."""
        return {
            name: metric.snapshot_value()
            for name, metric in sorted(self._metrics.items())
        }

    def clear(self) -> None:
        self._metrics = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} metrics)"
