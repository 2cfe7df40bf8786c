"""Sharded scale-out execution: scatter the operator chain over K shards.

:class:`ShardedExecutor` partitions the source stream into ``shards``
deterministic shards (round-robin by arrival index, or size-balanced by
document tokens) and runs the plan's *shardable prefix* — the maximal run of
shard-safe operators after the scan (see
:func:`repro.physical.plan.shard_safe`) — once per shard on a dedicated
worker thread.  Everything after the prefix (the *suffix*: limits, distinct,
blocking aggregates, sorts, retrieves, UDF joins, ...) runs post-gather in
global arrival order, so order-sensitive semantics are untouched.

This module also holds the scatter/gather *skeleton* the async schedule
(:class:`~repro.execution.asyncexec.AsyncExecutor`) shares: span set-up
(:meth:`ShardedExecutor._begin`), prefix close on lane 1
(:meth:`~ShardedExecutor._close_prefix`), gather feed/close
(:meth:`~ShardedExecutor._gather`), and span finish
(:meth:`~ShardedExecutor._finish`).  The two differ only in how the prefix
is driven: threads and queues here, one loop over virtual lanes there.

Equivalence contract (the core's, extended here): output records,
per-operator ``ExecutionStats``, traces, and provenance graphs are identical
to the sequential executor at any shard count.  The mechanisms:

* **Scatter** — the orchestrator iterates the scan once on lane 0 and routes
  ``(index, record)`` pairs by the same pure assignment function
  :func:`repro.core.sources.shard_assignment` uses, so online scatter and
  offline :func:`repro.core.sources.shard_source` partitioning agree.
* **Sequence-numbered bundles + reorder buffer** — shard workers emit one
  ``(index, outputs)`` bundle for *every* input record (empty outputs
  included), so the gather sees dense global indices and restores exact
  arrival order before the suffix runs.
* **Single-writer lanes** — lane 0 is the orchestrator, lanes ``1..K`` each
  have exactly one shard thread, lane ``K+1`` is the gather.  Every lane has
  one writer, so live span start times are already deterministic and no
  post-hoc relayout pass is needed.
* **Prefix close by last worker out** — the last shard worker to exit closes
  the prefix operators (joins flush their unmatched bookkeeping here) on
  lane 1 under a dedicated span, and the flushed records become the final
  bundle, sequenced after every mainline record — exactly where a
  sequential flush would put them.
* **Shard-local pre-aggregation** — when the first suffix operator is a
  decomposable blocking op (``accumulate_seconds`` set: aggregates,
  group-bys), shard workers pay its per-record fold charge in parallel via
  :meth:`_Meter.charge_accumulate` and the gather replays only the
  unmetered state mutation (``accumulate_silent``) in global order — the
  combined accounting is identical to a sequential fold, but the time
  parallelizes.

Plans whose ``LimitOp`` can stop the source early fall back to the core's
inline schedule, because speculative parallelism upstream of such a limit
would change which records pay for LLM calls.
"""

from __future__ import annotations

import queue
import threading
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.records import DataRecord
from repro.core.sources import (
    SHARD_BALANCED,
    SHARD_ROUND_ROBIN,
    SHARD_STRATEGIES,
)
from repro.execution.pipeline import (
    QUEUE_DEPTH_PER_WORKER,
    PlanExecutor,
    _Eos,
    _Meter,
    plan_batch_size,
)
from repro.execution.stats import PlanStats
from repro.llm.tokenizer import count_tokens
from repro.obs.trace import SpanKind
from repro.physical.context import ExecutionContext
from repro.physical.options import ExecutionOptions
from repro.physical.plan import PhysicalPlan, shard_safe


class _ScatterRun:
    """One scatter/gather execution's state, shared by its threads."""

    #: ``total`` is writes-only: the closing worker reads it after every
    #: shard worker has exited (the last-one-out check is itself locked).
    _GUARDED_BY = {"exited": "exit_lock", "total": ("exit_lock", "writes")}

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
        #: Shard workers -> gather thread (the threaded schedule only).
        self.gather_queue: Optional["queue.Queue"] = None
        self.exit_lock = threading.Lock()
        self.exited = 0
        self.total = 0  # global record count, learned from the scatter's EOS
        # Stage spans, created by _begin on the orchestrator:
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
            worker (1 honors the plan's stamp, like the pipelined
            executor).
        on_event: optional progress callback (see :class:`PlanExecutor`).
    """

    EXECUTOR_NAME = "sharded"

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

    # -- the scatter/gather skeleton ---------------------------------------

    def _begin(self, downstream: List[_Meter], degree: int,
               batch_size: int) -> _ScatterRun:
        """Split the chain into shardable prefix and global suffix, reserve
        the lanes, and open the run's stage spans.

        Lane map: 0 = orchestrator (scan parses), 1..degree = one per
        shard, degree+1 = gather/suffix.  The spans are created here, on
        the orchestrator under plan.run, so workers can attach before any
        bundle flows; creation order fixes the child order in the trace.
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

    def _charge_fold(self, run: _ScatterRun,
                     outputs: Sequence[DataRecord]) -> None:
        """Pay a decomposable suffix head's fold on the calling lane."""
        if run.decomp_meter is not None:
            for output in outputs:
                run.decomp_meter.charge_accumulate(output)

    def _close_prefix(self, run: _ScatterRun) -> List[DataRecord]:
        """Close the prefix operators once every lane has stopped charging.

        Runs on lane 1 under a dedicated span, so the trace layout does not
        depend on which thread happened to exit last.  The flushed records
        are sequenced after every mainline record — the position a
        sequential flush gives them.
        """
        self.context.clock.use_lane(1)
        with self.context.tracer.attach(run.close_span):
            flushed = self._close_and_flush(run.prefix, sync_barriers=False)
            self._charge_fold(run, flushed)
        return flushed

    def _gather(self, run: _ScatterRun,
                bundles: Iterable[Sequence[DataRecord]]) -> None:
        """Stream ``bundles`` (already in global order) into the suffix on
        the gather lane, then close it like the sequential flush."""
        self.context.clock.use_lane(run.degree + 1)
        with self.context.tracer.attach(run.gather_span):
            for records in bundles:
                if run.decomp_meter is not None:
                    # The fold charge was paid shard-locally; replay only
                    # the state mutation here so group/parent order matches
                    # sequential.
                    for record in records:
                        run.decomp_meter.op.accumulate_silent(record)
                elif records:
                    run.sink.extend(self._run_chain(run.suffix, records))
            run.sink.extend(
                self._close_and_flush(run.suffix, sync_barriers=True)
            )

    def _finish(self, run: _ScatterRun) -> List[DataRecord]:
        elapsed = self.context.clock.elapsed
        for span in run.lane_spans + [run.close_span]:
            span.finish_at(elapsed)
        run.gather_span.set_attribute(
            "records_out",
            run.suffix[-1].stats.records_out if run.suffix
            else len(run.sink),
        )
        run.gather_span.finish_at(elapsed)
        return run.sink

    # -- driving the prefix with threads ------------------------------------

    def _scatter_gather(self, plan: PhysicalPlan, scan_meter: _Meter,
                        run: _ScatterRun) -> List[DataRecord]:
        shards = run.degree
        clock = self.context.clock
        depth = max(2, QUEUE_DEPTH_PER_WORKER * run.batch_size)
        shard_queues = [queue.Queue(maxsize=depth) for _ in range(shards)]
        run.gather_queue = queue.Queue(maxsize=max(4, depth * shards))
        threads = [
            self._spawn(f"shard-w{k}", self._shard_worker,
                        run, k, shard_queues[k])
            for k in range(shards)
        ]
        threads.append(self._spawn(
            "shard-gather", self._gather, run,
            self._in_order(run.gather_queue),
        ))
        per_shard = [0] * shards

        def scatter() -> None:
            """Orchestrator: pull the scan on lane 0, route by assignment."""
            loads = [0.0] * shards
            clock.use_lane(0)
            fed = 0
            for record in self._scan(plan, scan_meter):
                if self.strategy == SHARD_BALANCED:
                    # Online greedy argmin by accumulated document tokens —
                    # the same function shard_assignment() computes offline.
                    shard = min(range(shards), key=lambda s: (loads[s], s))
                    loads[shard] += max(
                        0.0, float(count_tokens(record.document_text()))
                    )
                else:
                    shard = fed % shards
                self._put(shard_queues[shard], (fed, record))
                per_shard[shard] += 1
                fed += 1
                self._emit_progress(scan_meter, len(run.sink))
            for shard_queue in shard_queues:
                self._put(shard_queue, _Eos(fed))

        self._guarded(scatter)
        self._join(threads)

        metrics = self.context.metrics
        metrics.counter("shard.scatter.records").inc(sum(per_shard))
        for k in range(shards):
            metrics.counter(f"shard.{k}.records").inc(per_shard[k])
            run.lane_spans[k].set_attribute("records", per_shard[k])
        return self._finish(run)

    def _shard_worker(self, run: _ScatterRun, shard: int,
                      in_queue: "queue.Queue") -> None:
        self.context.clock.use_lane(1 + shard)
        batch: List[Tuple[int, DataRecord]] = []
        with self.context.tracer.attach(run.lane_spans[shard]):
            while True:
                item = self._get(in_queue)
                if isinstance(item, _Eos):
                    self._flush_shard_batch(run, batch)
                    with run.exit_lock:
                        run.exited += 1
                        run.total = item.count
                        last_out = run.exited == run.degree
                    if last_out:
                        flushed = self._close_prefix(run)
                        self._put(run.gather_queue, (run.total, flushed))
                        self._put(run.gather_queue, _Eos(run.total + 1))
                    return
                batch.append(item)
                if len(batch) >= run.batch_size:
                    self._flush_shard_batch(run, batch)

    def _flush_shard_batch(self, run: _ScatterRun,
                           batch: List[Tuple[int, DataRecord]]) -> None:
        """Process buffered records through the prefix; emit one bundle per
        input record so the gather's reorder buffer sees dense indices."""
        if not batch:
            return
        indices = [index for index, _ in batch]
        records = [record for _, record in batch]
        if run.batched:
            groups = self._bundle(
                "shard.bundle", indices[0], run.prefix, records, True
            )
        else:
            groups = [
                self._bundle(
                    "shard.bundle", index, run.prefix, [record], False
                )[0]
                for index, record in zip(indices, records)
            ]
        for index, outputs in zip(indices, groups):
            self._charge_fold(run, outputs)
            self._put(run.gather_queue, (index, outputs))
        batch.clear()
