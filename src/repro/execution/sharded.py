"""Sharded scale-out execution: scatter the operator chain over K shards.

:class:`ShardedExecutor` partitions the source stream into ``shards``
deterministic shards (round-robin by arrival index, or size-balanced by
document tokens) and runs the plan's *shardable prefix* — the maximal run of
shard-safe operators after the scan (see
:func:`repro.physical.plan.shard_safe`) — once per shard on that shard's
virtual-clock lane.  Everything after the prefix (the *suffix*: limits,
distinct, blocking aggregates, sorts, retrieves, UDF joins, ...) runs
post-gather in global arrival order, so order-sensitive semantics are
untouched.

This module is the one scatter/gather loop of both scale-out names: the
async schedule (:class:`~repro.execution.asyncexec.AsyncExecutor`) runs it
with one-record bundles and its own span names.

Equivalence contract (the core's, extended here): output records,
per-operator ``ExecutionStats``, traces, and provenance graphs are identical
to the sequential executor at any shard count.  The mechanisms:

* **Scatter** — one loop iterates the scan on lane 0 and routes
  ``(index, record)`` pairs by the same pure assignment function
  :func:`repro.core.sources.shard_assignment` uses, so online scatter and
  offline :func:`repro.core.sources.shard_source` partitioning agree.  A
  shard's buffer is processed once it holds ``batch_size`` records.
* **Ordered gather** — a processed batch leaves one output bundle per input
  record (empty ones included), keyed by arrival index; after every flush
  the contiguous ready run streams into the suffix, so the suffix sees
  exact arrival order and progress events count outputs as they appear.
* **One lane per role** — lane 0 is the scan, lanes ``1..K`` are the
  shards, lane ``K+1`` is the gather.  Each lane is charged in a fixed
  order, so live span start times are already deterministic and no
  post-hoc relayout pass is needed.
* **Prefix close on lane 1** — once every shard has flushed, the prefix
  operators close (joins flush their unmatched bookkeeping here) on lane 1
  under a dedicated span, and the flushed records become the final bundle,
  sequenced after every mainline record — exactly where a sequential flush
  would put them.
* **Shard-local pre-aggregation** — when the first suffix operator is a
  decomposable blocking op (``accumulate_seconds`` set: aggregates,
  group-bys), shards pay its per-record fold charge on their own lanes via
  :meth:`_Meter.charge_accumulate` and the gather replays only the
  unmetered state mutation (``accumulate_silent``) in global order — the
  combined accounting is identical to a sequential fold, but the time
  parallelizes.

Plans whose ``LimitOp`` can stop the source early fall back to the core's
inline schedule, because speculative parallelism upstream of such a limit
would change which records pay for LLM calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.records import DataRecord
from repro.core.sources import (
    SHARD_BALANCED,
    SHARD_ROUND_ROBIN,
    SHARD_STRATEGIES,
)
from repro.execution.pipeline import PlanExecutor, _Meter, plan_batch_size
from repro.execution.stats import PlanStats
from repro.llm.tokenizer import count_tokens
from repro.obs.metrics import count
from repro.obs.trace import SpanKind
from repro.physical.context import ExecutionContext
from repro.physical.options import ExecutionOptions
from repro.physical.plan import PhysicalPlan, shard_safe


class _ScatterRun:
    """One scatter/gather execution's state."""

    def __init__(self, prefix: List[_Meter], suffix: List[_Meter],
                 degree: int, batch_size: int):
        self.prefix = prefix
        self.suffix = suffix
        self.degree = degree
        #: Layer-batch the prefix?  Batches are composed of one shard's
        #: consecutive records, so the grouping is deterministic.
        self.batched = batch_size > 1 and bool(prefix)
        self.batch_size = batch_size
        #: The first suffix op, if its fold can be paid shard-locally.
        head = suffix[0] if suffix else None
        self.decomp_meter: Optional[_Meter] = (
            head if head is not None and head.op.is_blocking
            and head.op.accumulate_seconds is not None else None
        )
        self.sink: List[DataRecord] = []
        #: Per shard, the ``(index, record)`` pairs awaiting a full batch.
        self.batches: List[List[Tuple[int, DataRecord]]] = [
            [] for _ in range(degree)
        ]
        #: Prefix outputs by arrival index, awaiting the gather.
        self.ready: Dict[int, List[DataRecord]] = {}
        self.gathered = 0  # the arrival index the gather takes next
        # Stage spans, created by _begin:
        self.lane_spans: List = []
        self.close_span = None
        self.gather_span = None


class ShardedExecutor(PlanExecutor):
    """Scatter/gather execution over deterministic source shards.

    Args:
        context: execution context; created with ``shards`` lanes when
            omitted.
        shards: parallelism degree.  ``None`` (default) honors the degree
            the optimizer stamped onto the plan being executed
            (``plan.shards``), falling back to 2.
        strategy: shard assignment strategy — ``"round_robin"`` or
            ``"balanced"`` (greedy size balancing by document tokens).
            Either way results are identical; only lane utilization moves.
        batch_size: records per ``process_batch`` call inside a shard
            (1 honors the plan's stamp, like the pipelined executor).
        on_event: optional progress callback (see :class:`PlanExecutor`).
    """

    EXECUTOR_NAME = "sharded"
    #: Span name of one prefix bundle.
    BUNDLE_SPAN = "shard.bundle"
    #: Whether the run reports how many records each shard took (the
    #: ``shard.*.records`` counters and the lane spans' ``records``
    #: attribute).  The async name never did; the golden pin keeps both.
    REPORTS_SHARD_COUNTS = True

    def __init__(self, context: Optional[ExecutionContext] = None,
                 shards: Optional[int] = None,
                 strategy: str = SHARD_ROUND_ROBIN,
                 batch_size: int = 1, on_event=None):
        ExecutionOptions(  # validates
            self.EXECUTOR_NAME, batch_size=batch_size, shards=shards
        )
        if strategy not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {strategy!r}; "
                f"expected one of {SHARD_STRATEGIES}"
            )
        super().__init__(
            context or ExecutionContext(max_workers=shards or 2),
            on_event=on_event,
        )
        self.shards = shards
        self.strategy = strategy
        self.batch_size = batch_size

    def execute(self, plan: PhysicalPlan) -> Tuple[List[DataRecord], PlanStats]:
        # Plan stamps are resolved per call, never stored: one executor
        # instance may run plans the optimizer stamped differently.
        degree = self.shards or (
            plan.shards if getattr(plan, "shards", 1) > 1 else 2
        )
        batch_size = plan_batch_size(self.batch_size, plan)
        return self._run(
            plan,
            {"shards": degree, "batch_size": batch_size,
             "strategy": self.strategy},
            lambda meters: self._scatter_gather(
                plan, meters[0],
                self._begin(meters[1:], degree, batch_size),
            ),
        )

    def _begin(self, downstream: List[_Meter], degree: int,
               batch_size: int) -> _ScatterRun:
        """Split the chain into shardable prefix and global suffix, reserve
        the lanes, and open the run's stage spans.

        Lane map: 0 = scan, 1..degree = one per shard, degree+1 =
        gather/suffix.  Creation order fixes the spans' order in the trace.
        """
        split = next(
            (index for index, meter in enumerate(downstream)
             if not shard_safe(meter.op)),
            len(downstream),
        )
        run = _ScatterRun(
            downstream[:split], downstream[split:], degree, batch_size
        )
        clock = self.context.clock
        tracer = self.context.tracer
        clock.ensure_lanes(degree + 2)
        prefix_ops = "+".join(m.op.op_label for m in run.prefix) or "<forward>"
        suffix_ops = "+".join(m.op.op_label for m in run.suffix) or "<sink>"
        run.lane_spans = [
            self._lane_span(k, degree, prefix_ops) for k in range(degree)
        ]
        run.close_span = tracer.start_span(
            "shard.close", SpanKind.STAGE, clock=clock, ops=prefix_ops,
        )
        run.gather_span = tracer.start_span(
            "shard.gather", SpanKind.STAGE, clock=clock, ops=suffix_ops,
            shards=degree,
        )
        return run

    def _lane_span(self, k: int, degree: int, prefix_ops: str):
        """The stage span lane ``1 + k``'s prefix work nests under."""
        return self.context.tracer.start_span(
            "shard.worker", SpanKind.STAGE, clock=self.context.clock,
            shard=k, shards=degree, ops=prefix_ops, strategy=self.strategy,
        )

    # -- the scatter/gather loop ----------------------------------------------

    def _scatter_gather(self, plan: PhysicalPlan, scan_meter: _Meter,
                        run: _ScatterRun) -> List[DataRecord]:
        shards = run.degree
        clock = self.context.clock
        per_shard = [0] * shards
        loads = [0.0] * shards
        clock.use_lane(0)
        for index, record in enumerate(self._scan(plan, scan_meter)):
            if self.strategy == SHARD_BALANCED:
                # Online greedy argmin by accumulated document tokens —
                # the same function shard_assignment() computes offline.
                shard = min(range(shards), key=lambda s: (loads[s], s))
                loads[shard] += max(
                    0.0, float(count_tokens(record.document_text()))
                )
            else:
                shard = index % shards
            per_shard[shard] += 1
            batch = run.batches[shard]
            batch.append((index, record))
            if len(batch) >= run.batch_size:
                self._flush_shard(run, shard)
                clock.use_lane(0)  # the next scan pull charges lane 0
            self._emit_progress(scan_meter, len(run.sink))
        for shard in range(shards):
            self._flush_shard(run, shard)
        self._gather(run, self._close_prefix(run), close=True)
        clock.use_lane(0)  # a reused context's next run starts on lane 0

        if self.REPORTS_SHARD_COUNTS:
            metrics = self.context.metrics
            count(metrics, "shard.scatter.records", sum(per_shard))
            for k in range(shards):
                count(metrics, f"shard.{k}.records", per_shard[k])
                run.lane_spans[k].set_attribute("records", per_shard[k])
        elapsed = clock.elapsed
        for span in run.lane_spans + [run.close_span]:
            span.finish_at(elapsed)
        run.gather_span.set_attribute(
            "records_out",
            run.suffix[-1].stats.records_out if run.suffix
            else len(run.sink),
        )
        run.gather_span.finish_at(elapsed)
        return run.sink

    def _flush_shard(self, run: _ScatterRun, shard: int) -> None:
        """Process the shard's buffered records through the prefix on its
        lane, then gather every bundle that is now next in arrival order."""
        batch = run.batches[shard]
        if not batch:
            return
        self.context.clock.use_lane(1 + shard)
        with self.context.tracer.attach(run.lane_spans[shard]):
            if run.batched:
                groups = self._bundle(
                    self.BUNDLE_SPAN, batch[0][0], run.prefix,
                    [record for _, record in batch], True,
                )
            else:
                groups = [
                    self._bundle(
                        self.BUNDLE_SPAN, index, run.prefix, [record], False
                    )[0]
                    for index, record in batch
                ]
            for (index, _), outputs in zip(batch, groups):
                self._charge_fold(run, outputs)
                run.ready[index] = outputs
        batch.clear()
        while run.gathered in run.ready:
            self._gather(run, run.ready.pop(run.gathered))
            run.gathered += 1

    def _charge_fold(self, run: _ScatterRun,
                     outputs: Sequence[DataRecord]) -> None:
        """Pay a decomposable suffix head's fold on the calling lane."""
        if run.decomp_meter is not None:
            for output in outputs:
                run.decomp_meter.charge_accumulate(output)

    def _close_prefix(self, run: _ScatterRun) -> List[DataRecord]:
        """Close the prefix operators once every shard has flushed.

        Runs on lane 1 under a dedicated span.  The flushed records are
        sequenced after every mainline record — the position a sequential
        flush gives them.
        """
        self.context.clock.use_lane(1)
        with self.context.tracer.attach(run.close_span):
            flushed = self._close_and_flush(run.prefix, sync_barriers=False)
            self._charge_fold(run, flushed)
        return flushed

    def _gather(self, run: _ScatterRun, records: Sequence[DataRecord],
                close: bool = False) -> None:
        """Stream one bundle, next in global order, into the suffix on the
        gather lane; ``close`` then closes the suffix like the sequential
        flush."""
        self.context.clock.use_lane(run.degree + 1)
        with self.context.tracer.attach(run.gather_span):
            if run.decomp_meter is not None:
                # The fold charge was paid shard-locally; replay only the
                # state mutation here so group/parent order matches
                # sequential.
                for record in records:
                    run.decomp_meter.op.accumulate_silent(record)
            elif records:
                run.sink.extend(self._run_chain(run.suffix, records))
            if close:
                run.sink.extend(
                    self._close_and_flush(run.suffix, sync_barriers=True)
                )
