"""Execution statistics: per-operator, per-plan, and per-run accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:
    from repro.core.records import DataRecord
    from repro.physical.context import ExecutionContext
    from repro.physical.plan import PhysicalPlan


@dataclass
class OperatorStats:
    """Measured behaviour of one physical operator during a run."""

    op_label: str
    logical_describe: str
    records_in: int = 0
    records_out: int = 0
    time_seconds: float = 0.0
    cost_usd: float = 0.0
    llm_calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    #: Per-call float deltas behind ``time_seconds`` / ``cost_usd``.  Naive
    #: ``+=`` accumulation depends on summation order, and the schedules
    #: meter one operator's calls in different orders (stage by stage,
    #: shard by shard) — so the same calls can land on either side of a
    #: decimal rounding boundary.  ``finalize``
    #: re-reduces the parts with an order-independent exact sum so every
    #: executor reports the same float for the same multiset of calls.
    time_parts: List[float] = field(default_factory=list, repr=False,
                                    compare=False)
    cost_parts: List[float] = field(default_factory=list, repr=False,
                                    compare=False)

    def add_time(self, seconds: float) -> None:
        self.time_seconds += seconds
        self.time_parts.append(seconds)

    def add_cost(self, usd: float) -> None:
        self.cost_usd += usd
        self.cost_parts.append(usd)

    def finalize(self) -> None:
        """Replace the running float totals with order-independent sums."""
        if self.time_parts:
            self.time_seconds = math.fsum(self.time_parts)
        if self.cost_parts:
            self.cost_usd = math.fsum(self.cost_parts)

    @property
    def selectivity(self) -> float:
        """Output/input ratio (1.0 for an empty input)."""
        if self.records_in == 0:
            return 1.0
        return self.records_out / self.records_in

    def to_dict(self) -> Dict[str, Any]:
        return {
            "operator": self.op_label,
            "logical": self.logical_describe,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "time_seconds": round(self.time_seconds, 3),
            "cost_usd": round(self.cost_usd, 6),
            "llm_calls": self.llm_calls,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
        }


@dataclass
class ModelUsageRow:
    """Aggregated LLM usage for one model during a run."""

    model: str
    calls: int
    input_tokens: int
    output_tokens: int
    cost_usd: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "calls": self.calls,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "cost_usd": round(self.cost_usd, 6),
        }


@dataclass
class PlanStats:
    """Measured behaviour of one physical plan execution."""

    plan_id: str
    plan_describe: str
    operator_stats: List[OperatorStats] = field(default_factory=list)
    total_time_seconds: float = 0.0
    total_cost_usd: float = 0.0
    records_out: int = 0
    #: Output records failing schema validation (missing required fields or
    #: type-invalid values) — LLM extraction degrades, it doesn't crash, so
    #: validation problems are counted and reported rather than raised.
    invalid_records: int = 0
    model_usage: List[ModelUsageRow] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan_id": self.plan_id,
            "plan": self.plan_describe,
            "total_time_seconds": round(self.total_time_seconds, 3),
            "total_cost_usd": round(self.total_cost_usd, 6),
            "records_out": self.records_out,
            "invalid_records": self.invalid_records,
            "operators": [op.to_dict() for op in self.operator_stats],
            "models": [row.to_dict() for row in self.model_usage],
        }


def _fill_run_metrics(
    context: "ExecutionContext",
    op_stats: List[OperatorStats],
    sink: "List[DataRecord]",
) -> None:
    """Populate the context's MetricsRegistry from the finished run.

    Every value here is a deterministic function of the plan and input —
    computed once at run end from the same OperatorStats / ledger the
    stats report, never sampled in the hot path — so the snapshot that
    lands in ``ExecutionStats.metrics`` is identical traced or untraced,
    at any worker count.
    """
    metrics = context.metrics
    ledger_total = context.ledger.total()
    metrics.counter("llm.calls").inc(len(context.ledger))
    metrics.counter("llm.input_tokens").inc(ledger_total.input_tokens)
    metrics.counter("llm.output_tokens").inc(ledger_total.output_tokens)
    # Per-call distributions.  Cost and token counts are batch-invariant
    # (identical per-record or batched); latency is not, so no latency
    # histogram — it would differ between batch sizes.
    usages = context.ledger.records
    metrics.histogram("llm.call_cost_usd").observe_many(
        [usage.cost_usd for usage in usages])
    metrics.histogram("llm.call_input_tokens").observe_many(
        [usage.input_tokens for usage in usages])
    metrics.histogram("llm.call_output_tokens").observe_many(
        [usage.output_tokens for usage in usages])
    metrics.counter("run.records_out").inc(len(sink))
    metrics.gauge("run.elapsed_seconds").set(round(context.clock.elapsed, 9))
    for index, stats in enumerate(op_stats):
        prefix = f"op.{index}.{stats.op_label}"
        metrics.counter(f"{prefix}.records_in").inc(stats.records_in)
        metrics.counter(f"{prefix}.records_out").inc(stats.records_out)
        metrics.counter(f"{prefix}.llm_calls").inc(stats.llm_calls)
        metrics.gauge(f"{prefix}.busy_seconds").set(
            round(stats.time_seconds, 9)
        )


def build_plan_stats(
    plan: "PhysicalPlan",
    op_stats: List[OperatorStats],
    context: "ExecutionContext",
    sink: "List[DataRecord]",
) -> PlanStats:
    """Assemble the :class:`PlanStats` for a finished run.

    Shared by every schedule so their reports are structurally identical.
    Scan parse time is charged to the clock inside ``records()`` where no
    meter wraps it, so the scan's time line is the residual
    ``total_busy - sum(downstream op times)`` — computed *before* the
    PlanStats object is built, so per-op times already sum to the clock's
    busy time in the stats a caller receives.
    """
    for stats in op_stats:
        # Canonicalize float totals before anything reads them: each
        # schedule accumulated time/cost in its own call order, which moves
        # the last ulp.
        stats.finalize()
    scan_stats, downstream_stats = op_stats[0], op_stats[1:]
    accounted = sum(stats.time_seconds for stats in downstream_stats)
    scan_stats.time_seconds = max(0.0, context.clock.total_busy - accounted)
    _fill_run_metrics(context, op_stats, sink)
    invalid = sum(
        1
        for record in sink
        if record.missing_required()
        or any(
            not field.validate(record.get(name))
            for name, field in record.schema.field_map().items()
        )
    )
    model_usage = [
        ModelUsageRow(
            model=model,
            calls=totals.calls,
            input_tokens=totals.input_tokens,
            output_tokens=totals.output_tokens,
            cost_usd=totals.cost_usd,
        )
        for model, totals in sorted(context.ledger.by_model().items())
    ]
    return PlanStats(
        plan_id=plan.plan_id,
        plan_describe=plan.describe(),
        operator_stats=op_stats,
        total_time_seconds=context.clock.elapsed,
        total_cost_usd=context.ledger.total().cost_usd,
        records_out=len(sink),
        invalid_records=invalid,
        model_usage=model_usage,
    )


@dataclass
class ExecutionStats:
    """Everything a run reports back to the user (the Fig. 5 payload).

    Includes the optimization preamble (policy, plan-space size, sentinel
    sampling cost) and the executed plan's statistics.
    """

    plan_stats: PlanStats
    policy: str = ""
    plans_considered: int = 0
    optimization_cost_usd: float = 0.0
    optimization_time_seconds: float = 0.0
    max_workers: int = 1
    #: Which executor ran the plan: "sequential", "parallel", "pipelined",
    #: "sharded", or "async".
    executor: str = "sequential"
    #: LLM-stage batch size the plan ran with (1 = per-record calls).
    batch_size: int = 1
    #: Shard count (parallelism degree) for the sharded/async executors;
    #: 1 for the single-chain executors.
    shards: int = 1
    #: CallCache activity during this run (deltas, since the cache may be
    #: shared across runs); zeros when no cache was attached.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: Deterministic metric snapshot (MetricsRegistry.snapshot()).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: The finalized Trace when the run was traced, else None.  Excluded
    #: from serialization/comparison — export it via repro.obs.export.
    trace: Optional[Any] = field(default=None, repr=False, compare=False)
    #: The canonical ProvenanceGraph when the run recorded provenance,
    #: else None.  Excluded from serialization/comparison — persist it
    #: via repro.obs.registry.RunRegistry.
    provenance: Optional[Any] = field(default=None, repr=False,
                                      compare=False)
    #: Per-document source manifest payload (see
    #: :func:`repro.execution.incremental.build_source_manifest`) when the
    #: run captured one, else None.  Excluded from serialization and
    #: comparison — an incremental re-run must report byte-identical
    #: ``to_dict`` stats to the cold run it reproduces.
    source_manifest: Optional[Any] = field(default=None, repr=False,
                                           compare=False)
    #: The run's LLM call-log payload (``ReplayLog.to_payload()``) when
    #: calls were captured, else None.  Excluded like trace/provenance —
    #: persisted as ``calls.json`` by the RunRegistry.
    call_log: Optional[Any] = field(default=None, repr=False, compare=False)
    #: The run's document-journey payload (``JourneyLog.to_payload()``)
    #: when an inline schedule captured calls, else None.  Excluded like
    #: the call log — persisted as ``journeys.json`` by the RunRegistry,
    #: it lets a later incremental re-run splice unchanged documents.
    journeys: Optional[Any] = field(default=None, repr=False, compare=False)
    #: The IncrementalReport when the run executed incrementally against a
    #: base run, else None.  Excluded from serialization and comparison.
    incremental: Optional[Any] = field(default=None, repr=False,
                                       compare=False)

    @property
    def total_time_seconds(self) -> float:
        return (
            self.plan_stats.total_time_seconds
            + self.optimization_time_seconds
        )

    @property
    def total_cost_usd(self) -> float:
        return self.plan_stats.total_cost_usd + self.optimization_cost_usd

    @property
    def records_out(self) -> int:
        return self.plan_stats.records_out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "plans_considered": self.plans_considered,
            "optimization_cost_usd": round(self.optimization_cost_usd, 6),
            "optimization_time_seconds": round(
                self.optimization_time_seconds, 3
            ),
            "max_workers": self.max_workers,
            "executor": self.executor,
            "batch_size": self.batch_size,
            "shards": self.shards,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "metrics": dict(self.metrics),
            "total_time_seconds": round(self.total_time_seconds, 3),
            "total_cost_usd": round(self.total_cost_usd, 6),
            "plan": self.plan_stats.to_dict(),
        }

    def summary(self) -> str:
        """Human-readable execution summary (what the chat displays)."""
        return render_summary(self.to_dict())


def render_summary(stats: Dict[str, Any]) -> str:
    """The execution summary of :meth:`ExecutionStats.to_dict` output, so
    a live run and one reloaded from ``stats.json`` render the same."""
    plan = stats["plan"]
    lines = [
        "=== Execution summary ===",
        f"policy:            {stats['policy'] or '<none>'}",
        f"plans considered:  {stats['plans_considered']}",
        f"executed plan:     {plan['plan']}",
        f"executor:          {stats['executor']} "
        f"(shards={stats['shards']}, batch_size={stats['batch_size']})",
        f"records produced:  {plan['records_out']}",
        f"total runtime:     {stats['total_time_seconds']:.1f} s",
        f"total cost:        ${stats['total_cost_usd']:.4f}",
    ]
    hits, misses, evictions = (stats["cache_hits"], stats["cache_misses"],
                               stats["cache_evictions"])
    if hits or misses or evictions:
        lines.append(f"call cache:        {hits} hits / {misses} misses / "
                     f"{evictions} evictions")
    lines += ["", "per-operator breakdown:",
              f"  {'operator':<38} {'in':>5} {'out':>5} "
              f"{'time(s)':>9} {'cost($)':>9} {'calls':>6}"]
    for op in plan["operators"]:
        lines.append(
            f"  {op['operator']:<38} {op['records_in']:>5} "
            f"{op['records_out']:>5} {op['time_seconds']:>9.1f} "
            f"{op['cost_usd']:>9.4f} {op['llm_calls']:>6}"
        )
    if plan["models"]:
        lines += ["", "LLM invocations by model:"]
        for row in plan["models"]:
            lines.append(
                f"  {row['model']:<28} {row['calls']:>4} calls  "
                f"{row['input_tokens']:>8} in / {row['output_tokens']:>6} "
                f"out tokens  ${row['cost_usd']:.4f}"
            )
    return "\n".join(lines)
