"""The execution core, and the stage-pipelined schedule built on it.

Every executor name — sequential, parallel, pipelined, sharded, async — is
one algorithm under a different *schedule*.  The algorithm lives here, in
:class:`PlanExecutor`, once: one meter (:class:`_Meter` — every operator
call is timed by the calling thread's own clock advances and billed
through a thread-local ledger capture, exact under any interleaving and
O(1) per call), one depth-first chain runner (:func:`_depth_first`, which
also carries the cooperative quota checkpoint), one sequence-ordered
reorder buffer (:meth:`PlanExecutor._in_order`) and one close-and-flush
routine (:meth:`PlanExecutor._close_and_flush`).

The *inline schedule* (:meth:`PlanExecutor._run_inline`) runs all of it on
the calling thread: that is the sequential executor, the parallel executor
(same loop, least-busy clock lane per source record), and what every other
schedule falls back to when a ``LimitOp`` can stop the source early —
speculative parallelism upstream of such a limit would change which records
get (and pay for) LLM calls.

:class:`PipelinedExecutor` is the *stage* schedule.  It splits the plan
into stages connected by bounded queues and runs them on OS threads:

* a **parallel stage** is a maximal run of consecutive LLM-bound operators
  (filters, converts, semantic joins); it gets a pool of ``max_workers``
  threads that pull record bundles from the stage's input queue;
* a **serial stage** is a run of order-sensitive streaming operators
  (limits, distinct, UDFs, code-synthesis converts); one thread processes
  its input strictly in source order;
* a **barrier stage** wraps one blocking operator (aggregate, group-by,
  retrieve, sort); it accumulates in source order and flushes on close.

Determinism contract — the whole point of the design — is that every
schedule produces *byte-identical records* and identical per-operator
``records_in`` / ``records_out`` / ``llm_calls``, for any thread count and
any thread interleaving:

* answers are pure functions of ``(model, document, task)`` (seeded per
  record), so processing order cannot change them;
* serial and barrier stages consume through the reorder buffer, and the
  sink reassembles final output in sequence order;
* simulated time is charged to a virtual-clock lane chosen by *sequence
  number* (``lane_base + seq % workers``), not by whichever OS thread got
  the bundle, so even the simulated makespan is reproducible run to run.

Batching (``batch_size > 1``) bundles consecutive records into one
``process_batch`` call per operator.  The client guarantees batched answers
and token/cost accounting are identical to per-record calls — a per-record
call is the batch-of-one case of the same client code — so what changes
is simulated latency only: calls after the first in a batch amortize the
model's fixed per-call overhead.

Backpressure: all queues are bounded, so a slow downstream stage throttles
the source instead of buffering the whole corpus in flight.
"""

from __future__ import annotations

import queue
import threading
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

#: Bundles in flight per stage queue (per worker): bounds memory and gives
#: the pipeline its backpressure.
QUEUE_DEPTH_PER_WORKER = 2


class _Eos:
    """End-of-stream marker; ``count`` is the number of bundles sent."""

    __slots__ = ("count",)

    def __init__(self, count: int):
        self.count = count


class _Aborted(Exception):
    """Internal: another thread failed; unwind quietly."""


def parallel_safe(op: PhysicalOperator) -> bool:
    """Can ``op`` process records out of order with identical results?

    True for stateless LLM-bound streaming operators — the ones worth
    threading.  CodeSynthesisConvert is LLM-bound but order-sensitive (the
    first records seen become the exemplars), so it stays serial.
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

    Busy time is measured with the thread-local advance accumulator, not
    the lane's wall time: another worker charged to the same lane (bundle
    seqs that collide modulo ``workers``) would otherwise leak its
    advances into this delta.  Pinning the span to the same delta the
    stats accumulate makes span durations reconcile with
    ``OperatorStats.time_seconds`` exactly.  With tracing off the span is
    the shared no-op span and only the delta is computed.  ``outputs`` is
    the slot a metered call reports its output count in; ``usages`` is
    where the meter leaves the LLM usage the call was billed.
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
    """Thread-safe per-operator stats accumulation, for every schedule.

    ``open_reports_outputs``: whether the ``op.open`` span carries a
    ``records_out`` attribute.  The sequential/parallel names never
    reported one and the pipelined family always did; the cross-commit
    golden pin keeps both trace shapes byte-stable.
    """

    #: Writes-only: readers (build_plan_stats, after all workers joined)
    #: see a quiesced meter.
    _GUARDED_BY = {"stats": ("_lock", "writes")}

    def __init__(self, op: PhysicalOperator, context: ExecutionContext,
                 open_reports_outputs: bool = True):
        self.op = op
        self.context = context
        self.open_reports_outputs = open_reports_outputs
        self.stats = OperatorStats(
            op_label=op.op_label,
            logical_describe=op.logical_op.describe(),
        )
        self._lock = threading.Lock()
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
        concurrent calls attribute time and LLM usage correctly.  The
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
        with self._lock:
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

        Scale-out executors call this on a shard worker's lane (counting the
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


def _depth_first(meters: List[_Meter], record: DataRecord):
    """The chain's visiting order, defined once.

    A generator: yields each ``(meter, record)`` visit, takes that visit's
    outputs back through ``send()``, and returns the records that fell off
    the end of the chain.  Blocking operators swallow records here; their
    buffered output is released by :meth:`PlanExecutor._close_and_flush`.

    Depth-first order is kept with an explicit work stack rather than
    recursion: a chain of high-fanout operators (one-to-many converts,
    joins) multiplies the depth, and Python's recursion limit must not
    bound plan depth times fanout.
    """
    sink: List[DataRecord] = []
    stack: List[Tuple[DataRecord, int]] = [(record, 0)]
    while stack:
        current, index = stack.pop()
        if index >= len(meters):
            sink.append(current)
            continue
        outputs = yield meters[index], current
        # Reversed so outputs are visited in their emitted order.
        for output in reversed(outputs):
            stack.append((output, index + 1))
    return sink


class PlanExecutor:
    """The execution core every executor name is a schedule of.

    ``on_event`` (optional) receives progress dictionaries as the run
    advances: ``plan_start``, ``record_processed`` (one per source record,
    with the running output count — best-effort under threads),
    ``operator_flush`` (blocking operators emitting), and ``plan_end`` —
    the hook a UI like the demo's Fig. 5 progress panel subscribes to.  It
    may be invoked from worker threads, never concurrently.
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

    #: Writes-only: the post-join read in _join() happens after every
    #: worker thread has exited.
    _GUARDED_BY = {"_errors": ("_error_lock", "writes")}

    def __init__(self, context: ExecutionContext, on_event=None,
                 journeys=None):
        self.context = context
        self._on_event = on_event
        #: Optional :class:`~repro.execution.incremental.JourneyLog` the
        #: inline schedule records document journeys into and splices
        #: unchanged documents from; the engine hands one to the
        #: sequential/parallel names only.
        self.journeys = journeys
        self._event_lock = threading.Lock()
        self._abort = threading.Event()
        self._errors: List[BaseException] = []
        self._error_lock = threading.Lock()

    # -- event / error / thread plumbing -----------------------------------

    def _emit(self, event: dict) -> None:
        if self._on_event is not None:
            with self._event_lock:
                self._on_event(event)

    def _fail(self, exc: BaseException) -> None:
        with self._error_lock:
            self._errors.append(exc)
        self._abort.set()

    def _guarded(self, target: Callable, *args) -> None:
        """Run ``target`` under the abort protocol: a failure is reported
        to the caller of ``execute`` and aborts every other thread."""
        try:
            target(*args)
        except _Aborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - re-raised by _join
            self._fail(exc)

    def _spawn(self, name: str, target: Callable, *args) -> threading.Thread:
        thread = threading.Thread(
            target=self._guarded, args=(target,) + args,
            name=name, daemon=True,
        )
        thread.start()
        return thread

    def _join(self, threads: List[threading.Thread]) -> None:
        for thread in threads:
            thread.join()
        if self._errors:
            raise self._errors[0]

    def _put(self, target: "queue.Queue", item) -> None:
        while True:
            if self._abort.is_set():
                raise _Aborted()
            try:
                target.put(item, timeout=0.05)
                return
            except queue.Full:
                continue

    def _get(self, source: "queue.Queue", poll_counter=None):
        while True:
            if self._abort.is_set():
                raise _Aborted()
            try:
                return source.get(timeout=0.05)
            except queue.Empty:
                if poll_counter is not None:
                    poll_counter.inc()
                continue

    def _in_order(self, source: "queue.Queue", stage: "Optional[_Stage]" = None):
        """The reorder buffer: yield ``(seq, payload)`` messages' payloads
        strictly in sequence order until end-of-stream.

        EOS is always enqueued after every bundle it counts, so by then
        each bundle has been released; anything still held is a gap.
        """
        held: dict = {}
        next_seq = 0
        while True:
            item = self._get(
                source, stage.poll_counter if stage is not None else None
            )
            if isinstance(item, _Eos):
                assert not held, "sequence gap in pipeline"
                return
            seq, payload = item
            held[seq] = payload
            if stage is not None:
                stage.depth_gauge.set_max(source.qsize())
            while next_seq in held:
                yield held.pop(next_seq)
                next_seq += 1

    # -- record movement through an operator chain ------------------------

    def _run_chain(self, meters: List[_Meter],
                   records: Sequence[DataRecord]) -> List[DataRecord]:
        """Send records through ``meters`` one at a time, depth-first."""
        sink: List[DataRecord] = []
        for record in records:
            walk = _depth_first(meters, record)
            outputs = None
            try:
                while True:
                    meter, current = walk.send(outputs)
                    # Cooperative quota-abort point: a shared budget
                    # breached by a concurrent run stops this one between
                    # operators, before the next operator spends anything.
                    self.context.checkpoint()
                    outputs = meter.process(current)
            except StopIteration as done:
                sink.extend(done.value)
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
        """Process one bundle through ``meters`` under its span; returns
        one output group per input record.

        The bundle's duration is pinned to the thread's own charges; where
        same-lane *starts* observed live are racy, the schedule
        canonicalizes them after its threads join.
        """
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

        The parse time charged inside ``records()`` lands on the calling
        thread's current lane, so the span is timed by that lane's delta.
        """
        clock = self.context.clock
        tracer = self.context.tracer
        scan_label = scan_meter.op.op_label
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
            with scan_meter._lock:
                scan_meter.stats.records_in += 1
                scan_meter.stats.records_out += 1
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
        concurrent: Optional[
            Callable[[List[_Meter]], List[DataRecord]]] = None,
    ) -> Tuple[List[DataRecord], PlanStats]:
        """What every ``execute`` does around its schedule.

        ``concurrent(meters)`` is the schedule's own way to drive the
        chain (stage threads, shard threads, virtual lanes); ``None`` — or
        a plan it cannot speed up without changing the run's LLM calls —
        runs the inline schedule instead.
        """
        self._abort.clear()
        with self._error_lock:
            self._errors.clear()
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
            if (concurrent is None or stop_limit is not None
                    or not plan.downstream):
                sink = self._run_inline(plan, meters, stop_limit)
            else:
                sink = concurrent(meters)
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
        """The inline schedule: everything on the calling thread.

        When a LimitOp can stop the source early, which records reach the
        LLM operators depends on the limit's feedback after every single
        record — so the source is abandoned the moment it is exhausted,
        and limits genuinely save LLM calls.
        """
        scan_meter, downstream = meters[0], meters[1:]
        sink: List[DataRecord] = []
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
    """One segment of the operator chain plus its plumbing."""

    _GUARDED_BY = {"exited": "exit_lock"}

    def __init__(self, meters: List[_Meter], parallel: bool,
                 workers: int, lane_base: int, batch_size: int):
        self.meters = meters
        self.parallel = parallel
        self.workers = workers if parallel else 1
        self.lane_base = lane_base
        #: Records per bundle this stage wants on its input queue, and
        #: whether it runs them layer-batched.
        self.in_bundle = batch_size if parallel else 1
        self.batched = parallel and batch_size > 1
        self.in_queue: "queue.Queue" = queue.Queue(
            maxsize=max(2, QUEUE_DEPTH_PER_WORKER * self.workers)
        )
        # Wired by the executor before threads start:
        self.out_queue: Optional["queue.Queue"] = None
        self.next_consumers = 1  # sentinel fan-out (next stage's workers)
        self.out_bundle = 1  # records per bundle the next stage wants
        # Parallel-stage shutdown bookkeeping (last worker out closes ops).
        self.exit_lock = threading.Lock()
        self.exited = 0
        # Serial-stage output: records awaiting a full bundle, bundles sent.
        self.pending: List[DataRecord] = []
        self.sent = 0
        # Observability (wired by the executor before threads start):
        self.span = None  # pipeline.stage span workers attach under
        self.depth_gauge = None  # best-effort in-queue high-water mark
        self.poll_counter = None  # best-effort empty-poll retries

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
    """Stage-pipelined, optionally batched, multi-threaded execution.

    Args:
        context: execution context; created with ``max_workers`` lanes when
            omitted.
        max_workers: thread-pool size per parallel (LLM-bound) stage;
            defaults to the context's ``max_workers``.
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
        lane_base = 1  # lane 0 belongs to the orchestrator (scan parses)

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

    # -- stage workers -----------------------------------------------------

    def _stage_bundle(self, stage: _Stage, seq: int,
                      records: Sequence[DataRecord]) -> List[DataRecord]:
        groups = self._bundle(
            "pipeline.bundle", seq, stage.meters, records, stage.batched
        )
        return [record for group in groups for record in group]

    def _parallel_worker(self, stage: _Stage) -> None:
        clock = self.context.clock
        # Attach the stage span so bundle / op / llm spans created on this
        # worker thread nest under it (bundles carry a ``seq`` attribute,
        # so canonical ordering erases the thread race).
        with self.context.tracer.attach(stage.span):
            while True:
                item = self._get(stage.in_queue, stage.poll_counter)
                if isinstance(item, _Eos):
                    with stage.exit_lock:
                        stage.exited += 1
                        last_out = stage.exited == stage.workers
                    if last_out:
                        self._close_parallel_stage(stage, item.count)
                    return
                seq, records = item
                stage.depth_gauge.set_max(stage.in_queue.qsize())
                # Lane by sequence number, not by thread: simulated time
                # is then independent of which OS thread won the race.
                clock.use_lane(stage.lane_base + seq % stage.workers)
                self._put(
                    stage.out_queue,
                    (seq, self._stage_bundle(stage, seq, records)),
                )

    def _close_parallel_stage(self, stage: _Stage,
                              mainline_bundles: int) -> None:
        """Last worker of a parallel stage: close ops, emit, propagate EOS."""
        self.context.clock.use_lane(stage.lane_base)
        outputs = self._close_and_flush(stage.meters, sync_barriers=True)
        seq = mainline_bundles
        if outputs:
            self._put(stage.out_queue, (seq, outputs))
            seq += 1
        for _ in range(stage.next_consumers):
            self._put(stage.out_queue, _Eos(seq))

    def _serial_worker(self, stage: _Stage) -> None:
        self.context.clock.use_lane(stage.lane_base)
        with self.context.tracer.attach(stage.span):
            for seq, records in enumerate(
                    self._in_order(stage.in_queue, stage)):
                stage.pending.extend(self._stage_bundle(stage, seq, records))
                self._send_bundles(stage)
            stage.pending.extend(
                self._close_and_flush(stage.meters, sync_barriers=True)
            )
            self._send_bundles(stage, flush=True)
            for _ in range(stage.next_consumers):
                self._put(stage.out_queue, _Eos(stage.sent))

    def _send_bundles(self, stage: _Stage, flush: bool = False) -> None:
        """Send the stage's pending records on, a full bundle at a time."""
        pending = stage.pending
        while len(pending) >= stage.out_bundle or (flush and pending):
            bundle = pending[:stage.out_bundle]
            del pending[:stage.out_bundle]
            self._put(stage.out_queue, (stage.sent, bundle))
            stage.sent += 1

    def _sink_worker(self, source: "queue.Queue",
                     sink: List[DataRecord]) -> None:
        for records in self._in_order(source):
            sink.extend(records)

    # -- the stage schedule ------------------------------------------------

    def _run_stages(self, plan: PhysicalPlan, meters: List[_Meter],
                    batch_size: int) -> List[DataRecord]:
        scan_meter = meters[0]
        stages = self._build_stages(meters[1:], batch_size)
        clock = self.context.clock
        tracer = self.context.tracer
        metrics = self.context.metrics
        for index, stage in enumerate(stages):
            # Created on the orchestrator thread (under plan.run) so
            # worker threads can attach to it before any bundle flows.
            stage.span = tracer.start_span(
                "pipeline.stage", SpanKind.STAGE, clock=clock, stage=index,
                ops=stage.describe(), workers=stage.workers,
                parallel=stage.parallel,
            )
            stage.depth_gauge = metrics.gauge(
                f"pipeline.stage{index}.queue_depth_peak", best_effort=True
            )
            stage.poll_counter = metrics.counter(
                f"pipeline.stage{index}.queue_poll_retries", best_effort=True
            )

        # Wire stage N's output to stage N+1's input; the last stage feeds
        # the sink queue (drained by a dedicated thread so bounded queues
        # can never deadlock against the feeding orchestrator).
        sink_queue: "queue.Queue" = queue.Queue(
            maxsize=max(2, QUEUE_DEPTH_PER_WORKER * self.max_workers)
        )
        for stage, successor in zip(stages, stages[1:]):
            stage.out_queue = successor.in_queue
            stage.next_consumers = successor.workers
            stage.out_bundle = successor.in_bundle
        stages[-1].out_queue = sink_queue

        sink: List[DataRecord] = []
        # Lane times before any worker runs: the relayout pass below lays
        # each lane's bundles out cumulatively from these baselines.
        base_lane_times = clock.lane_times()
        threads = [
            self._spawn(
                f"pipeline-s{number}-w{wid}",
                self._parallel_worker if stage.parallel
                else self._serial_worker,
                stage,
            )
            for number, stage in enumerate(stages)
            for wid in range(stage.workers)
        ]
        threads.append(
            self._spawn("pipeline-sink", self._sink_worker, sink_queue, sink)
        )

        def feed() -> None:
            """Orchestrator: pull the scan on lane 0, bundle, feed stage 0."""
            first = stages[0]
            clock.use_lane(0)
            bundle: List[DataRecord] = []
            fed = 0
            for record in self._scan(plan, scan_meter):
                bundle.append(record)
                if len(bundle) >= first.in_bundle:
                    self._put(first.in_queue, (fed, bundle))
                    fed += 1
                    bundle = []
                self._emit_progress(scan_meter, len(sink))
            if bundle:
                self._put(first.in_queue, (fed, bundle))
                fed += 1
            for _ in range(first.workers):
                self._put(first.in_queue, _Eos(fed))

        self._guarded(feed)
        self._join(threads)

        # Finish stage spans and record deterministic per-stage busy time
        # (the sum of the stage's operator lane-time deltas — the same
        # numbers OperatorStats reports, so trace and stats reconcile).
        elapsed = clock.elapsed
        for index, stage in enumerate(stages):
            busy = round(
                sum(m.stats.time_seconds for m in stage.meters), 9
            )
            metrics.gauge(f"pipeline.stage{index}.busy_seconds").set(busy)
            if tracer.enabled:
                self._canonicalize_stage(stage, base_lane_times)
            stage.span.set_attribute("busy_seconds", busy)
            stage.span.set_attribute(
                "records_out", stage.meters[-1].stats.records_out
            )
            stage.span.finish_at(elapsed)
        return sink

    # -- canonical span layout (after threads join) ------------------------

    @staticmethod
    def _canonicalize_stage(stage: _Stage,
                            base_lane_times: List[float]) -> None:
        """Rewrite the stage's bundle span start times deterministically.

        Start times observed live are racy when two bundles charge the same
        lane concurrently (seqs colliding modulo ``workers``), but each
        bundle's *duration* is race-free (thread-local advance delta) and
        the lane a bundle charges is a pure function of its ``seq``.  So
        the canonical layout is: per lane, bundles in seq order, abutting,
        starting from the lane's pre-run baseline.
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
