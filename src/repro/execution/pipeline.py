"""The execution core, and the stage-pipelined schedule built on it.

Every executor name — sequential, parallel, pipelined, sharded, async — is
one algorithm under a different *schedule*.  The algorithm lives here, in
:class:`PlanExecutor`, once: one meter (:class:`_Meter` — every operator
call is timed by its own clock advances and billed through a ledger
capture, O(1) per call), one depth-first chain runner
(:meth:`PlanExecutor._run_chain`, which also carries the cooperative quota
checkpoint) and one close-and-flush routine
(:meth:`PlanExecutor._close_and_flush`).

Every schedule runs on the calling thread.  A schedule is a *lane policy*
— which virtual-clock lane each piece of work is charged to — plus a span
family; the simulated client answers from the virtual clock, so modelled
concurrency needs no host concurrency.

The *inline schedule* (:meth:`PlanExecutor._run_inline`) is the sequential
executor, the parallel executor (same loop, least-busy clock lane per
source record), and what every other schedule falls back to when a
``LimitOp`` can stop the source early — speculative parallelism upstream
of such a limit would change which records get (and pay for) LLM calls.

:class:`PipelinedExecutor` is the *stage* schedule.  It splits the plan
into stages, each with its own lanes:

* a **parallel stage** is a maximal run of consecutive LLM-bound operators
  (filters, converts, semantic joins); bundle ``seq`` is charged to lane
  ``lane_base + seq % max_workers``, modelling a pool of workers;
* a **serial stage** is a run of order-sensitive streaming operators
  (limits, distinct, UDFs, code-synthesis converts) on one lane;
* a **barrier stage** wraps one blocking operator (aggregate, group-by,
  retrieve, sort); it accumulates on one lane and flushes on close.

One loop pulls the scan on lane 0 and pushes each bundle through the
stages in scan order, so every lane is charged the same amounts in the
same order on every run.  Determinism contract: every schedule produces
*byte-identical records* and identical per-operator ``records_in`` /
``records_out`` / ``llm_calls``, for any worker count:

* answers are pure functions of ``(model, document, task)`` (seeded per
  record), so the schedule cannot change them;
* every stage sees its input in scan order;
* simulated time is charged to a lane chosen by *sequence number*, so the
  simulated makespan is a function of the plan and the input.

After the run, bundle spans are laid out per lane in ``seq`` order
(:meth:`PipelinedExecutor._canonicalize_stage`).  That is the layout the
golden traces pin; the live starts differ from it where a barrier's
``clock.synchronize()`` moved a lane clock between bundles.

Batching (``batch_size > 1``) bundles consecutive records into one
``process_batch`` call per operator.  The client guarantees batched answers
and token/cost accounting are identical to per-record calls — a per-record
call is the batch-of-one case of the same client code — so what changes
is simulated latency only: calls after the first in a batch amortize the
model's fixed per-call overhead.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.records import DataRecord
from repro.execution.stats import OperatorStats, PlanStats, build_plan_stats
from repro.obs.trace import SpanKind
from repro.physical.base import PhysicalOperator
from repro.physical.context import ExecutionContext
from repro.physical.converts import CodeSynthesisConvert
from repro.physical.options import ExecutionOptions
from repro.physical.plan import PhysicalPlan
from repro.physical.structural import LimitOp


def parallel_safe(op: PhysicalOperator) -> bool:
    """Can ``op`` process records out of order with identical results?

    True for stateless LLM-bound streaming operators — the ones worth
    spreading over lanes.  CodeSynthesisConvert is LLM-bound but
    order-sensitive (the first records seen become the exemplars), so it
    stays serial.
    """
    return (
        op.is_llm_op
        and not op.is_blocking
        and not isinstance(op, CodeSynthesisConvert)
    )


def _early_stop(plan: PhysicalPlan) -> Optional[LimitOp]:
    """The first LimitOp with only streaming operators upstream."""
    for op in plan.downstream:
        if op.is_blocking:
            return None
        if isinstance(op, LimitOp):
            return op
    return None


def plan_batch_size(requested: int, plan: PhysicalPlan) -> int:
    """One call's batch size: the constructor's, or — when the caller did
    not pick one — the size the optimizer stamped onto the plan.  Resolved
    per ``execute`` call, so an executor reused on a second plan does not
    keep the first plan's stamp."""
    if requested == 1 and getattr(plan, "batch_size", 1) > 1:
        return plan.batch_size
    return requested


class _PinnedSpan:
    """Context manager: a span whose duration is *pinned* to the block's
    own clock charges (``busy``, available once the block has run).

    Busy time is the clock's advance accumulator across the block, not the
    lane's time, so a barrier that moves the lane does not leak into it.
    Pinning the span to the same delta the stats accumulate makes span
    durations reconcile with ``OperatorStats.time_seconds`` exactly.  With
    tracing off the span is the shared no-op span and only the delta is
    computed.  ``outputs`` is the slot a metered call reports its output
    count in; ``usages`` is where the meter leaves the LLM usage the call
    was billed.
    """

    __slots__ = ("_clock", "_active", "_before", "span", "busy", "outputs",
                 "usages")

    def __init__(self, context: ExecutionContext, name: str, kind: str,
                 **attributes):
        self._clock = context.clock
        self._active = context.tracer.span(
            name, kind, clock=self._clock, **attributes
        )
        self.busy = 0.0
        self.outputs = 0
        self.usages: Sequence = ()

    def __enter__(self) -> "_PinnedSpan":
        self.span = self._active.__enter__()
        self._before = self._clock.local_advanced
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.busy = self._clock.local_advanced - self._before
        self.span.finish_at(self.span.start + self.busy)
        self._active.__exit__(exc_type, exc, tb)


class _Meter:
    """Per-operator stats accumulation, for every schedule.

    ``open_reports_outputs``: whether the ``op.open`` span carries a
    ``records_out`` attribute.  The sequential/parallel names never
    reported one and the pipelined family always did; the cross-commit
    golden pin keeps both trace shapes byte-stable.
    """

    def __init__(self, op: PhysicalOperator, context: ExecutionContext,
                 open_reports_outputs: bool = True):
        self.op = op
        self.context = context
        self.open_reports_outputs = open_reports_outputs
        self.stats = OperatorStats(
            op_label=op.op_label,
            logical_describe=op.logical_op.describe(),
        )
        #: The run's :class:`~repro.execution.incremental.JourneyLog` while
        #: this meter's operator is in the streaming prefix of an inline
        #: run that records (and splices) document journeys, else None.
        self.journeys = None

    @contextmanager
    def _span_and_capture(self, span_name: str, inputs: int,
                          report_outputs: bool = True
                          ) -> Iterator[_PinnedSpan]:
        """Meter the block as one operator call: under an ``op.*`` span
        pinned to its own clock charges and inside a ledger capture, so
        the call is billed exactly the time and LLM usage it caused.  The
        block reports its output count on the yielded pin; a block that
        raises is not accounted."""
        with _PinnedSpan(self.context, span_name, SpanKind.OPERATOR,
                         op=self.op.op_label) as pin, \
                self.context.ledger.capture() as bucket:
            yield pin
        pin.usages = bucket
        pin.span.set_attribute("records_in", inputs)
        if report_outputs:
            pin.span.set_attribute("records_out", pin.outputs)
        self._account(inputs, pin.outputs, pin.busy, bucket)

    def _account(self, inputs: int, outputs: int, busy: float,
                 usages: Sequence) -> None:
        stats = self.stats
        stats.records_in += inputs
        stats.records_out += outputs
        stats.add_time(busy)
        stats.llm_calls += len(usages)
        for usage in usages:
            stats.add_cost(usage.cost_usd)
            stats.input_tokens += usage.input_tokens
            stats.output_tokens += usage.output_tokens

    def open(self) -> None:
        """Open the operator, attributing any setup work (e.g. a join's
        right-side materialization) to this operator's stats."""
        with self._span_and_capture(
                "op.open", 0, report_outputs=self.open_reports_outputs):
            self.op.open(self.context)

    def process(self, record: DataRecord) -> List[DataRecord]:
        log = self.journeys
        if log is not None:
            visit = log.next_visit()
            if visit is not None:
                return self._splice(record, visit, log)
            log.begin_visit()
        with self._span_and_capture("op.process", 1) as call:
            outputs = self.op.process(record)
            call.outputs = len(outputs)
        if log is not None:
            log.end_visit(self.op, record, outputs, call.usages)
        return outputs

    def _splice(self, record: DataRecord, visit: list,
                log) -> List[DataRecord]:
        """Serve one ``process`` call from the base run's journey.

        Everything a cold call leaves behind is reproduced — the clock
        advances (same amounts, same order, so lane times and this span's
        pinned duration come out float-identical), the ledger rows and
        their budget charge, the ``op.process`` / ``llm.call`` spans, the
        stats, the provenance event, the output records derived from the
        live ``record`` — and only the operator's own work is skipped.  A
        quota breach raises out of the ledger at the same call, leaving
        the visit unaccounted, exactly as it would mid-operator.
        """
        charges, derived = visit
        op = self.op
        with _PinnedSpan(self.context, "op.process", SpanKind.OPERATOR,
                         op=op.op_label) as pin:
            usages = log.replay_charges(charges, self.context)
        outputs: List[DataRecord] = []
        for values in derived:
            outputs.append(
                record if values is None
                else record.derive(op.logical_op.output_schema, dict(values))
            )
        pin.span.set_attribute("records_in", 1)
        pin.span.set_attribute("records_out", len(outputs))
        self._account(1, len(outputs), pin.busy, usages)
        log.replay_event(op, record, outputs, usages)
        return outputs

    def process_batch(
        self, records: Sequence[DataRecord]
    ) -> List[List[DataRecord]]:
        with self._span_and_capture("op.batch", len(records)) as call:
            groups = self.op.process_batch(records)
            call.outputs = sum(len(group) for group in groups)
        return groups

    def close(self) -> List[DataRecord]:
        with self._span_and_capture("op.close", 0) as call:
            outputs = self.op.close()
            call.outputs = len(outputs)
        return outputs

    def charge_accumulate(self, record: DataRecord) -> None:
        """Pay a decomposable blocking op's per-record fold cost here.

        Scale-out executors call this on a shard's lane (counting the
        record in and charging ``accumulate_seconds``) and later replay only
        the unmetered state mutation — ``accumulate_silent`` — in global
        order at the gather, so the combined accounting matches a
        sequential ``accumulate`` exactly.
        """
        op = self.op
        seconds = op.accumulate_seconds
        assert seconds is not None, f"{op.op_label} fold is not decomposable"
        with self._span_and_capture("op.accumulate", 1):
            op._charge_local_time(seconds)


class PlanExecutor:
    """The execution core every executor name is a schedule of.

    ``on_event`` (optional) receives progress dictionaries as the run
    advances: ``plan_start``, ``record_processed`` (one per source record,
    with the running output count), ``operator_flush`` (blocking operators
    emitting), and ``plan_end`` — the hook a UI like the demo's Fig. 5
    progress panel subscribes to.  Every event arrives on the thread that
    called ``execute``, in run order.
    """

    #: Name recorded on the plan.run span and in ExecutionStats.
    EXECUTOR_NAME = ""
    #: The inline schedule's lane policy.  False: stay on the calling
    #: thread's lane.  True: assign each source record's journey to the
    #: least-busy virtual-clock lane — modelling ``max_workers`` concurrent
    #: LLM calls — and synchronize lanes at blocking operators, exactly
    #: like a thread pool with a stage barrier would.
    LANE_PER_RECORD = False
    #: See :class:`_Meter`.
    OPEN_SPAN_REPORTS_OUTPUTS = True

    def __init__(self, context: ExecutionContext, on_event=None,
                 journeys=None):
        self.context = context
        self._on_event = on_event
        #: Optional :class:`~repro.execution.incremental.JourneyLog` the
        #: inline schedule records document journeys into and splices
        #: unchanged documents from; the engine hands one to the
        #: sequential/parallel names only.
        self.journeys = journeys

    def _emit(self, event: dict) -> None:
        if self._on_event is not None:
            self._on_event(event)

    # -- record movement through an operator chain ------------------------

    def _run_chain(self, meters: List[_Meter],
                   records: Sequence[DataRecord]) -> List[DataRecord]:
        """Send records through ``meters`` one at a time, depth-first;
        returns the records that fall off the end of the chain.

        Blocking operators swallow records here; their buffered output is
        released by :meth:`_close_and_flush`.  Depth-first order is kept
        with an explicit work stack rather than recursion: a chain of
        high-fanout operators (one-to-many converts, joins) multiplies the
        depth, and Python's recursion limit must not bound plan depth
        times fanout.
        """
        sink: List[DataRecord] = []
        checkpoint = self.context.checkpoint
        depth = len(meters)
        stack: List[Tuple[DataRecord, int]] = [
            (record, 0) for record in reversed(records)
        ]
        while stack:
            current, index = stack.pop()
            if index == depth:
                sink.append(current)
                continue
            # Cooperative quota-abort point: a shared budget breached by a
            # concurrent run stops this one between operators, before the
            # next operator spends anything.
            checkpoint()
            outputs = meters[index].process(current)
            # Reversed so outputs are visited in their emitted order.
            for output in reversed(outputs):
                stack.append((output, index + 1))
        return sink

    def _run_chain_grouped(
        self, meters: List[_Meter], records: Sequence[DataRecord]
    ) -> List[List[DataRecord]]:
        """Layer-batched processing: one ``process_batch`` call per
        operator over the whole bundle, one output group per input record.
        Flattened, the groups are in :meth:`_run_chain` order."""
        groups: List[List[DataRecord]] = [[record] for record in records]
        for meter in meters:
            flat = [record for group in groups for record in group]
            if not flat:
                break
            self.context.checkpoint()
            batched = iter(meter.process_batch(flat))
            groups = [
                [output for _ in group for output in next(batched)]
                for group in groups
            ]
        return groups

    def _bundle(self, span_name: str, seq: int, meters: List[_Meter],
                records: Sequence[DataRecord],
                batched: bool) -> List[List[DataRecord]]:
        """Process one bundle through ``meters`` under its span (duration
        pinned to the bundle's own charges); returns one output group per
        input record."""
        with _PinnedSpan(self.context, span_name, SpanKind.BUNDLE,
                         seq=seq, records=len(records)):
            if batched:
                return self._run_chain_grouped(meters, records)
            return [self._run_chain(meters, [record]) for record in records]

    def _close_and_flush(self, meters: List[_Meter],
                         sync_barriers: bool) -> List[DataRecord]:
        """Close ``meters`` in order, pushing flushed records downstream;
        returns what falls off the end of the chain.

        ``sync_barriers`` models every lane arriving at a blocking
        operator before it emits (schedules that spread work over lanes).
        """
        out: List[DataRecord] = []
        for index, meter in enumerate(meters):
            if sync_barriers and meter.op.is_blocking:
                self.context.clock.synchronize()
            self.context.checkpoint()
            flushed = meter.close()
            if flushed and meter.op.is_blocking:
                self._emit({
                    "type": "operator_flush",
                    "operator": meter.op.op_label,
                    "records": len(flushed),
                })
            out.extend(self._run_chain(meters[index + 1:], flushed))
        return out

    # -- the source ----------------------------------------------------------

    def _scan(self, plan: PhysicalPlan, scan_meter: _Meter):
        """Iterate the source, metering each pull as an ``op.scan`` span.

        The parse time charged inside ``records()`` lands on the current
        lane, so the span is timed by that lane's delta.
        """
        clock = self.context.clock
        tracer = self.context.tracer
        scan_label = scan_meter.op.op_label
        scan_stats = scan_meter.stats
        source_iter = plan.scan.records()
        while True:
            if self.LANE_PER_RECORD:
                # Pick the lane *before* pulling, so the parse time lands
                # on the worker that handles the record.
                clock.pick_least_busy_lane()
            scan_start = clock.now if tracer.enabled else 0.0
            try:
                record = next(source_iter)
            except StopIteration:
                return
            if tracer.enabled:
                tracer.record(
                    "op.scan", SpanKind.OPERATOR, scan_start, clock.now,
                    clock.current_lane, op=scan_label,
                    records_in=1, records_out=1,
                )
            self.context.provenance.source(record)
            scan_stats.records_in += 1
            scan_stats.records_out += 1
            yield record

    def _emit_progress(self, scan_meter: _Meter, outputs_so_far: int) -> None:
        if self._on_event is None:
            return  # per-record hot path: skip the dict and the clock read
        self._emit({
            "type": "record_processed",
            "index": scan_meter.stats.records_in,
            "outputs_so_far": outputs_so_far,
            "elapsed_seconds": self.context.clock.elapsed,
        })

    # -- the run skeleton and the inline schedule ---------------------------

    def _run(
        self, plan: PhysicalPlan, span_attrs: dict,
        schedule: Optional[
            Callable[[List[_Meter]], List[DataRecord]]] = None,
    ) -> Tuple[List[DataRecord], PlanStats]:
        """What every ``execute`` does around its schedule.

        ``schedule(meters)`` is the schedule's own way to drive the chain
        (stages or shards over lanes); ``None`` — or a plan it cannot
        speed up without changing the run's LLM calls — runs the inline
        schedule instead.
        """
        self._emit({
            "type": "plan_start",
            "plan_id": plan.plan_id,
            "plan": plan.describe(),
            "operators": len(plan),
        })
        context = self.context
        context.provenance.begin_plan(plan)
        with context.tracer.span(
            "plan.run", SpanKind.PLAN, clock=context.clock,
            plan_id=plan.plan_id, executor=self.EXECUTOR_NAME, **span_attrs,
        ) as plan_span:
            meters = [
                _Meter(op, context, self.OPEN_SPAN_REPORTS_OUTPUTS)
                for op in plan
            ]
            for meter in meters:
                meter.open()
            stop_limit = _early_stop(plan)
            if (schedule is None or stop_limit is not None
                    or not plan.downstream):
                sink = self._run_inline(plan, meters, stop_limit)
            else:
                sink = schedule(meters)
            plan_span.finish_at(context.clock.elapsed)

        plan_stats = build_plan_stats(
            plan, [m.stats for m in meters], context, sink
        )
        self._emit({
            "type": "plan_end",
            "records_out": len(sink),
            "elapsed_seconds": context.clock.elapsed,
            "cost_usd": plan_stats.total_cost_usd,
        })
        return sink, plan_stats

    def _run_inline(self, plan: PhysicalPlan, meters: List[_Meter],
                    stop_limit: Optional[LimitOp]) -> List[DataRecord]:
        """The inline schedule: each record through the whole chain.

        When a LimitOp can stop the source early, which records reach the
        LLM operators depends on the limit's feedback after every single
        record — so the source is abandoned the moment it is exhausted,
        and limits genuinely save LLM calls.  A limit that is exhausted
        before the first pull (``limit(0)``) skips the scan altogether.
        """
        scan_meter, downstream = meters[0], meters[1:]
        sink: List[DataRecord] = []
        if stop_limit is not None and stop_limit.exhausted:
            return self._close_and_flush(downstream, self.LANE_PER_RECORD)
        log = self.journeys
        if log is not None:
            # Route the streaming prefix's meters through the journey log:
            # per source document it either serves their visits from the
            # base run's journey or records a new one.
            log.attach(self.context, downstream[:len(log.prefix_ids)])
        try:
            for index, record in enumerate(self._scan(plan, scan_meter)):
                if log is not None:
                    log.begin_document(index)
                sink.extend(self._run_chain(downstream, [record]))
                if log is not None:
                    log.end_document()
                self._emit_progress(scan_meter, len(sink))
                if stop_limit is not None and stop_limit.exhausted:
                    break
        finally:
            if log is not None:
                log.detach(self.context)
        sink.extend(
            self._close_and_flush(downstream, self.LANE_PER_RECORD)
        )
        return sink


class _Stage:
    """One segment of the operator chain, its lanes and its output buffer."""

    def __init__(self, meters: List[_Meter], parallel: bool,
                 workers: int, lane_base: int, batch_size: int):
        self.meters = meters
        self.parallel = parallel
        self.workers = workers if parallel else 1
        self.lane_base = lane_base
        #: Records per bundle this stage takes, and whether it runs them
        #: layer-batched.
        self.in_bundle = batch_size if parallel else 1
        self.batched = parallel and batch_size > 1
        self.out_bundle = 1  # records per bundle the next stage takes
        #: Bundles taken so far: a serial stage numbers its input with it,
        #: and a parallel stage sends its close output at this seq.
        self.received = 0
        # Serial-stage output: records awaiting a full bundle, bundles sent.
        self.pending: List[DataRecord] = []
        self.sent = 0
        self.span = None  # the pipeline.stage span its bundles nest under

    @property
    def is_barrier(self) -> bool:
        return len(self.meters) == 1 and self.meters[0].op.is_blocking

    def describe(self) -> str:
        kind = (
            "barrier" if self.is_barrier
            else "parallel" if self.parallel else "serial"
        )
        ops = "+".join(m.op.op_label for m in self.meters)
        return f"{kind}({ops})"


class PipelinedExecutor(PlanExecutor):
    """Stage-pipelined, optionally batched execution over clock lanes.

    Args:
        context: execution context; created with ``max_workers`` lanes when
            omitted.
        max_workers: modelled workers (lanes) per parallel (LLM-bound)
            stage; defaults to the context's ``max_workers``.
        batch_size: records per ``process_batch`` call in parallel stages;
            1 means per-record calls (byte-identical accounting to the
            sequential executor) unless the optimizer stamped a batch
            size onto the plan being executed.
        on_event: optional progress callback (see :class:`PlanExecutor`).
    """

    EXECUTOR_NAME = "pipelined"

    def __init__(self, context: Optional[ExecutionContext] = None,
                 max_workers: Optional[int] = None, batch_size: int = 1,
                 on_event=None):
        if context is None:
            context = ExecutionContext(max_workers=max_workers or 4)
        super().__init__(context, on_event=on_event)
        options = ExecutionOptions(  # validates
            self.EXECUTOR_NAME, max_workers or context.max_workers,
            batch_size,
        )
        self.max_workers = options.max_workers
        self.batch_size = options.batch_size

    def execute(self, plan: PhysicalPlan) -> Tuple[List[DataRecord], PlanStats]:
        batch_size = plan_batch_size(self.batch_size, plan)
        return self._run(
            plan, {"workers": self.max_workers, "batch_size": batch_size},
            lambda meters: self._run_stages(plan, meters, batch_size),
        )

    # -- plan segmentation -------------------------------------------------

    def _build_stages(self, meters: List[_Meter],
                      batch_size: int) -> List[_Stage]:
        """Split downstream meters into parallel/serial/barrier stages."""
        stages: List[_Stage] = []
        run: List[_Meter] = []
        run_parallel = False
        lane_base = 1  # lane 0 belongs to the scan

        def flush_run():
            nonlocal run, lane_base
            if run:
                stage = _Stage(run, run_parallel, self.max_workers,
                               lane_base, batch_size)
                lane_base += stage.workers
                stages.append(stage)
                run = []

        for meter in meters:
            safe = parallel_safe(meter.op)
            if run and (meter.op.is_blocking or safe != run_parallel):
                flush_run()
            run_parallel = safe
            run.append(meter)
            if meter.op.is_blocking:
                # A blocking operator is a stage of its own (a barrier).
                flush_run()
        flush_run()
        self.context.clock.ensure_lanes(lane_base)
        return stages

    # -- the stage schedule ------------------------------------------------

    def _run_stages(self, plan: PhysicalPlan, meters: List[_Meter],
                    batch_size: int) -> List[DataRecord]:
        """Pull the scan on lane 0, push bundles through the stages, then
        close the stages in order."""
        scan_meter = meters[0]
        stages = self._build_stages(meters[1:], batch_size)
        clock = self.context.clock
        tracer = self.context.tracer
        for index, stage in enumerate(stages):
            stage.span = tracer.start_span(
                "pipeline.stage", SpanKind.STAGE, clock=clock, stage=index,
                ops=stage.describe(), workers=stage.workers,
                parallel=stage.parallel,
            )
        for stage, successor in zip(stages, stages[1:]):
            stage.out_bundle = successor.in_bundle

        sink: List[DataRecord] = []
        # Lane times before any stage runs: the relayout pass below lays
        # each lane's bundles out cumulatively from these baselines.
        base_lane_times = clock.lane_times()
        first = stages[0]
        bundle: List[DataRecord] = []
        fed = 0
        clock.use_lane(0)
        for record in self._scan(plan, scan_meter):
            bundle.append(record)
            if len(bundle) >= first.in_bundle:
                self._push(stages, 0, fed, bundle, sink)
                fed += 1
                bundle = []
                clock.use_lane(0)  # the next scan pull charges lane 0
            self._emit_progress(scan_meter, len(sink))
        if bundle:
            self._push(stages, 0, fed, bundle, sink)
        for position in range(len(stages)):
            self._close_stage(stages, position, sink)
        clock.use_lane(0)  # a reused context's next run starts on lane 0

        # Finish stage spans and record deterministic per-stage busy time
        # (the sum of the stage's operator lane-time deltas — the same
        # numbers OperatorStats reports, so trace and stats reconcile).
        elapsed = clock.elapsed
        metrics = self.context.metrics
        for index, stage in enumerate(stages):
            busy = round(
                sum(m.stats.time_seconds for m in stage.meters), 9
            )
            metrics[f"pipeline.stage{index}.busy_seconds"] = busy
            if tracer.enabled:
                self._canonicalize_stage(stage, base_lane_times)
            stage.span.set_attribute("busy_seconds", busy)
            stage.span.set_attribute(
                "records_out", stage.meters[-1].stats.records_out
            )
            stage.span.finish_at(elapsed)
        return sink

    def _push(self, stages: List[_Stage], position: int, seq: int,
              records: Sequence[DataRecord], sink: List[DataRecord]) -> None:
        """Hand bundle ``seq`` to stage ``position`` and forward what it
        emits; past the last stage, bundles land in ``sink``.

        A parallel stage charges lane ``lane_base + seq % workers`` and
        forwards every bundle, empty ones included, under the same seq.
        A serial or barrier stage numbers its input in arrival order and
        forwards ``out_bundle``-sized bundles.
        """
        if position == len(stages):
            sink.extend(records)
            return
        stage = stages[position]
        if stage.parallel:
            self.context.clock.use_lane(
                stage.lane_base + seq % stage.workers
            )
        else:
            self.context.clock.use_lane(stage.lane_base)
            seq = stage.received
        stage.received += 1
        with self.context.tracer.attach(stage.span):
            groups = self._bundle(
                "pipeline.bundle", seq, stage.meters, records, stage.batched
            )
        outputs = [record for group in groups for record in group]
        if stage.parallel:
            self._push(stages, position + 1, seq, outputs, sink)
        else:
            stage.pending.extend(outputs)
            self._send_bundles(stages, position, sink)

    def _close_stage(self, stages: List[_Stage], position: int,
                     sink: List[DataRecord]) -> None:
        """Close stage ``position``'s operators on its first lane and
        forward what they flush."""
        stage = stages[position]
        self.context.clock.use_lane(stage.lane_base)
        with self.context.tracer.attach(stage.span):
            outputs = self._close_and_flush(stage.meters, sync_barriers=True)
        if not stage.parallel:
            stage.pending.extend(outputs)
            self._send_bundles(stages, position, sink, flush=True)
        elif outputs:
            self._push(stages, position + 1, stage.received, outputs, sink)

    def _send_bundles(self, stages: List[_Stage], position: int,
                      sink: List[DataRecord], flush: bool = False) -> None:
        """Forward a serial stage's pending records a full bundle at a
        time (and the remainder too, when ``flush``)."""
        stage = stages[position]
        pending = stage.pending
        while len(pending) >= stage.out_bundle or (flush and pending):
            bundle = pending[:stage.out_bundle]
            del pending[:stage.out_bundle]
            self._push(stages, position + 1, stage.sent, bundle, sink)
            stage.sent += 1

    # -- the pinned span layout ----------------------------------------------

    @staticmethod
    def _canonicalize_stage(stage: _Stage,
                            base_lane_times: List[float]) -> None:
        """Lay the stage's bundle spans out in the pinned layout: per lane,
        bundles in seq order, abutting, starting from the lane's pre-run
        baseline.

        Each bundle's *duration* is its own charges and its lane is a pure
        function of its ``seq``, so this layout is deterministic.  It is
        not the live one: a barrier's ``clock.synchronize()`` moves lane
        clocks between bundles, which the live starts record and the
        golden traces do not.
        """
        bundles = sorted(
            (c for c in stage.span.children if c.name == "pipeline.bundle"),
            key=lambda c: c.attributes.get("seq", 0),
        )
        cursors = {}
        for bundle in bundles:
            seq = bundle.attributes.get("seq", 0)
            lane = stage.lane_base + (
                seq % stage.workers if stage.parallel else 0
            )
            start = cursors.get(
                lane,
                base_lane_times[lane] if lane < len(base_lane_times) else 0.0,
            )
            PipelinedExecutor._relayout_span(bundle, start)
            cursors[lane] = start + bundle.duration

    @staticmethod
    def _relayout_span(span, start: float) -> None:
        """Move ``span`` to ``start`` and lay its children out abutting.

        Durations are preserved exactly; only offsets change.  Operator
        spans inside a bundle account for all of the bundle's advances, so
        the abutting layout is exact at the operator level (LLM-call
        placement within an operator is approximate but deterministic).
        """
        duration = span.duration
        span.start = start
        span.end = start + duration
        cursor = start
        for child in span.children:
            PipelinedExecutor._relayout_span(child, cursor)
            cursor += child.duration
