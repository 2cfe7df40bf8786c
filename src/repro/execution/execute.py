"""The ``Execute`` entry point (Fig. 6, line 28).

    records, execution_stats = Execute(dataset, policy=pz.MaxQuality())
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Tuple, Union

from repro.core.dataset import Dataset
from repro.core.records import DataRecord
from repro.core.sources import MemorySource
from repro.execution.asyncexec import AsyncExecutor
from repro.execution.executors import ParallelExecutor, SequentialExecutor
from repro.execution.incremental import (
    IncrementalReport,
    JourneyLog,
    build_source_manifest,
    delta_impact,
    diff_manifests,
)
from repro.execution.pipeline import PipelinedExecutor
from repro.execution.sharded import ShardedExecutor
from repro.execution.stats import ExecutionStats, metrics_snapshot
from repro.llm.models import ModelRegistry
from repro.llm.replay import ReplayLog
from repro.obs.metrics import count
from repro.obs.provenance import NULL_PROVENANCE, ProvenanceRecorder
from repro.obs.trace import NULL_TRACER, Tracer
from repro.optimizer.cost_model import CostModel
from repro.optimizer.optimizer import OptimizationReport, Optimizer
from repro.optimizer.policies import MaxQuality, Policy, parse_policy
from repro.physical.context import ExecutionContext
from repro.physical.options import BATCHING_EXECUTORS, ExecutionOptions


class ExecutionEngine:
    """Reusable engine configuration: optimize then execute.

    Args:
        policy: optimization preference (name string or Policy instance).
        executor, max_workers, batch_size, shards: how the chosen plan
            is run — validated and carried as one
            :class:`~repro.physical.options.ExecutionOptions` (see it for
            each value's meaning; ``self.options`` holds it).
        sample_size: sentinel sample size for the optimizer (0 = naive
            estimates only).
        models: model registry for both plan space and execution.
        lint: run plan lint before optimizing; error-level findings raise
            :class:`~repro.analysis.LintError` instead of executing.
        trace: observability.  ``False`` (default) disables tracing at zero
            cost; ``True`` records the run with a fresh
            :class:`~repro.obs.Tracer`; an existing ``Tracer`` instance
            records into it.  The finalized trace is attached to
            ``ExecutionStats.trace``.  Tracing never changes records,
            stats, or LLM call counts.
        provenance: record-level provenance.  ``False`` (default)
            disables it at zero cost; ``True`` records every derivation
            and drop with a fresh
            :class:`~repro.obs.provenance.ProvenanceRecorder`; an
            existing recorder instance records into it.  The canonical
            :class:`~repro.obs.provenance.ProvenanceGraph` is attached
            to ``ExecutionStats.provenance`` (query it with
            ``why``/``why_not``, persist it with
            :class:`~repro.obs.registry.RunRegistry`).  Like tracing, it
            never changes records, stats, or LLM call counts.
        capture_calls: record the run's source manifest, LLM call log
            and — on the sequential/parallel schedules — per-document
            journeys onto the stats (``stats.source_manifest`` /
            ``stats.call_log`` / ``stats.journeys``) so the RunRegistry
            can persist them — the base a later incremental re-run diffs
            against, splices and replays from.
        incremental: re-run against ``base_run``: diff the live source
            against the base run's manifest, let the cost model price
            replay-vs-cold, and (in replay mode) serve what did not
            change from the base run.  An unchanged document whose
            journey the base holds is *spliced*: its accounting is
            re-issued and its outputs rebuilt without running the
            operators (sequential/parallel schedules, same plan prefix,
            no shared ``cache``); otherwise its LLM calls are *replayed*
            one by one from the base call log (every schedule); added
            and changed documents pay *fresh* calls.  Nothing selects the
            tier but the base snapshot, the chosen plan and the schedule.
            Records, stats, traces, and provenance stay byte-identical to
            a cold run; the
            :class:`~repro.execution.incremental.IncrementalReport` on
            ``stats.incremental`` carries the spliced/executed document
            counts and the fresh-vs-reused bill.  Implies
            ``capture_calls``.
        base_run: the base for an incremental run — a
            :class:`~repro.obs.registry.RunSnapshot`, a run id string
            resolved against ``runs_dir``, or ``None`` for the most
            recent run in ``runs_dir``.
        runs_dir: registry directory run-id strings resolve against
            (default ``.repro/runs``).
        budget: a shared :class:`~repro.llm.usage.BudgetMeter` (e.g. a
            tenant's quota) charged for every LLM call of the run.  A
            call that pushes the spend strictly over a cap is recorded
            first, then aborts the run with
            :class:`~repro.llm.usage.QuotaExceededError` (partial usage
            stays accounted); executors additionally poll a cooperative
            checkpoint between operators so a budget exhausted by a
            concurrent run aborts this one too.  Optimizer sentinel runs
            never charge the budget.
        on_event: progress callback receiving executor event dicts
            (``plan_start`` / ``record_processed`` / ``operator_flush`` /
            ``plan_end``) as the run advances, under every executor.
            Every event arrives on the thread that called ``execute``, in
            run order, and ``outputs_so_far`` counts the outputs produced
            so far.
        candidate_options: plan-space ablation switches (forwarded to the
            optimizer).
    """

    def __init__(
        self,
        policy: Union[Policy, str, None] = None,
        max_workers: int = 1,
        sample_size: int = 0,
        models: Optional[ModelRegistry] = None,
        cache=None,
        lint: bool = True,
        executor: Optional[str] = None,
        batch_size: int = 1,
        shards: Optional[int] = None,
        trace: Union[bool, Tracer] = False,
        provenance: Union[bool, ProvenanceRecorder] = False,
        capture_calls: bool = False,
        incremental: bool = False,
        base_run=None,
        runs_dir: Optional[str] = None,
        budget=None,
        on_event=None,
        telemetry=None,
        **candidate_options,
    ):
        if policy is None:
            policy = MaxQuality()
        elif isinstance(policy, str):
            policy = parse_policy(policy)
        self.options = ExecutionOptions(
            executor, max_workers, batch_size, shards
        )
        self.policy = policy
        self.sample_size = sample_size
        self.models = models
        self.cache = cache
        self.lint = lint
        self.trace = trace
        self.provenance = provenance
        self.capture_calls = capture_calls or incremental
        self.incremental = incremental
        self.base_run = base_run
        self.runs_dir = runs_dir
        self.budget = budget
        self.on_event = on_event
        #: Optional wall-clock ops hook (duck-typed
        #: :class:`~repro.obs.telemetry.Telemetry`).  Observation only:
        #: it times optimize/execute phases and logs an ``engine_run``
        #: event, and must never influence records/stats/traces —
        #: telemetry-on runs are byte-identical to telemetry-off runs.
        self.telemetry = telemetry
        self.candidate_options = candidate_options

    def _phase(self, name: str):
        """Telemetry phase timer; free (no-op context) when unhooked."""
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.phase(name)

    @staticmethod
    def _observer(setting, kind, null):
        """(observer, observing?) for a ``trace=`` / ``provenance=``
        setting: an instance of ``kind`` records into itself, ``True``
        makes a fresh one, and ``False`` is the zero-cost ``null``."""
        if isinstance(setting, kind):
            return setting, True
        if setting:
            return kind(), True
        return null, False

    def _cache_counts(self) -> Tuple[int, int, int]:
        """(hits, misses, evictions) of the shared CallCache so far."""
        if self.cache is None:
            return 0, 0, 0
        stats = self.cache.stats
        return stats.hits, stats.misses, stats.evictions

    def optimize(self, dataset: Dataset,
                 tracer=None) -> OptimizationReport:
        optimizer = Optimizer(
            policy=self.policy,
            sample_size=self.sample_size,
            models=self.models,
            lint=self.lint,
            tracer=tracer,
            **self.options.resolved().kwargs(),
            **self.candidate_options,
        )
        return optimizer.optimize(dataset.logical_plan(), dataset.source)

    def explain(self, dataset: Dataset) -> str:
        """EXPLAIN-style report: the plan space, the Pareto frontier, and
        the policy's choice — without executing anything."""
        report = self.optimize(dataset)
        frontier = sorted(
            report.frontier(), key=lambda c: c.estimate.cost_usd
        )
        lines = [
            f"logical plan:     {dataset.logical_plan().describe()}",
            f"policy:           {report.policy.describe()}",
            f"plans enumerated: {report.plans_considered}",
            f"pareto frontier:  {len(frontier)} plans",
            "",
            f"{'est.cost($)':>12} {'est.time(s)':>12} {'est.quality':>12}  plan",
        ]
        for candidate in frontier:
            estimate = candidate.estimate
            marker = " *" if candidate is report.chosen else "  "
            lines.append(
                f"{estimate.cost_usd:>12.4f} {estimate.time_seconds:>12.1f} "
                f"{estimate.quality:>12.3f}{marker}"
                f"{candidate.plan.describe()}"
            )
        lines.append("")
        lines.append(f"chosen: {report.chosen.plan.describe()}")
        return "\n".join(lines)

    def _resolve_base_snapshot(self):
        """The base RunSnapshot an incremental run diffs against."""
        from repro.obs.registry import (
            DEFAULT_RUNS_DIR, RunRegistry, RunSnapshot,
        )

        if isinstance(self.base_run, RunSnapshot):
            return self.base_run
        registry = RunRegistry(self.runs_dir or DEFAULT_RUNS_DIR)
        run_id = self.base_run
        if run_id is None:
            run_id = registry.latest()
            if run_id is None:
                raise ValueError(
                    "incremental execution needs a base run, but "
                    f"{registry.root} holds no recorded runs; "
                    "record one first (capture_calls=True + "
                    "RunRegistry.record) or pass base_run="
                )
        return registry.load(str(run_id))

    def _build_executor(self, context: ExecutionContext,
                        options: ExecutionOptions, plan_shards: int,
                        journeys: Optional[JourneyLog] = None):
        """The schedule ``options.executor`` names, over ``context``
        (``journeys`` is only ever made for the two inline names)."""
        common = dict(context=context, on_event=self.on_event)
        if options.executor == "pipelined":
            return PipelinedExecutor(
                max_workers=options.max_workers,
                batch_size=options.batch_size, **common,
            )
        if options.executor == "sharded":
            return ShardedExecutor(
                shards=plan_shards, batch_size=options.batch_size, **common
            )
        if options.executor == "async":
            return AsyncExecutor(
                fanout=plan_shards, batch_size=options.batch_size, **common
            )
        if options.executor == "parallel":
            return ParallelExecutor(
                max_workers=options.max_workers, journeys=journeys, **common
            )
        return SequentialExecutor(journeys=journeys, **common)

    def execute(
        self, dataset: Dataset
    ) -> Tuple[List[DataRecord], ExecutionStats]:
        tracer, traced = self._observer(self.trace, Tracer, NULL_TRACER)
        recorder, recording = self._observer(
            self.provenance, ProvenanceRecorder, NULL_PROVENANCE
        )
        with self._phase("engine.optimize"):
            report = self.optimize(dataset, tracer=tracer)
        replay_log = None
        live_manifest = None
        parsed = None
        incremental_plan = None  # (base snapshot, delta, pricing, mode)
        if self.capture_calls:
            # Parse once: the scan yields the records the manifest read.
            parsed = list(dataset.source)
            live_manifest = build_source_manifest(dataset.source, parsed)
        if self.incremental:
            snapshot = self._resolve_base_snapshot()
            delta = diff_manifests(snapshot.manifest, live_manifest)
            base_docs = len((snapshot.manifest or {}).get("entries", []))
            calls_per_doc = (
                snapshot.meta.get("llm_calls", 0) / base_docs
                if base_docs else 1.0
            )
            pricing = CostModel.price_incremental(
                report.chosen.estimate,
                total_docs=delta.total_live,
                fresh_docs=delta.fresh_docs,
                calls_per_doc=calls_per_doc,
            )
            # Replaying never changes the chosen plan — only who pays for
            # which call — so the mode decision cannot affect the output.
            mode = (
                "replay" if pricing.use_incremental and snapshot.calls
                else "cold"
            )
            replay_log = ReplayLog(
                snapshot.replay_table() if mode == "replay" else None
            )
            incremental_plan = (snapshot, delta, pricing, mode)
        elif self.capture_calls:
            replay_log = ReplayLog()
        options = self.options.resolved()
        chosen_plan = report.chosen.plan
        # Document journeys exist where a journey is well defined: one
        # record at a time through the chain (the inline schedules; bundled
        # ones amortize latency over whoever shares the bundle) and no
        # cross-run CallCache deciding which calls are priced.
        journeys = None
        prefix = chosen_plan.streaming_prefix
        if (replay_log is not None and prefix and self.cache is None
                and options.executor not in BATCHING_EXECUTORS):
            journeys = JourneyLog(prefix, replay_log)
            if replay_log.primed:
                journeys.prime(
                    snapshot.manifest, snapshot.journeys, live_manifest
                )
        context = ExecutionContext(
            max_workers=self.options.max_workers,
            models=self.models,
            cache=self.cache,
            tracer=tracer,
            provenance=recorder,
            replay=replay_log,
            budget=self.budget,
        )
        if traced and tracer.default_clock is None:
            # Optimizer spans were recorded clockless (optimization is free
            # in virtual time); execution spans follow the run's clock.
            tracer.default_clock = context.clock
        cache_before = self._cache_counts()
        name = options.executor
        plan_shards = max(1, getattr(chosen_plan, "shards", 1))
        executor = self._build_executor(
            context, options, plan_shards, journeys
        )
        scan = chosen_plan.scan
        source = scan.source
        if parsed is not None:
            scan.source = MemorySource(parsed, source.dataset_id,
                                       source.schema)
        try:
            with self._phase("engine.execute"):
                records, plan_stats = executor.execute(chosen_plan)
        finally:
            scan.source = source
        if self.telemetry is not None:
            self.telemetry.event(
                "engine_run", executor=name,
                records=len(records), shards=plan_shards,
            )
        # Deltas: the cache may be shared across runs.
        cache_hits, cache_misses, cache_evictions = (
            after - before
            for after, before in zip(self._cache_counts(), cache_before)
        )
        metrics = context.metrics
        count(metrics, "llm.cache_hits", cache_hits)
        count(metrics, "llm.cache_misses", cache_misses)
        stats = ExecutionStats(
            plan_stats=plan_stats,
            policy=report.policy.describe(),
            plans_considered=report.plans_considered,
            optimization_cost_usd=report.sentinel_cost_usd,
            optimization_time_seconds=report.sentinel_time_seconds,
            max_workers=options.max_workers,
            executor=name,
            batch_size=options.batch_size,
            shards=plan_shards if options.scale_out else 1,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            cache_evictions=cache_evictions,
            metrics=metrics_snapshot(metrics),
            trace=tracer.finish() if traced else None,
            provenance=recorder.finalize(records) if recording else None,
        )
        if replay_log is not None:
            stats.source_manifest = live_manifest
            stats.call_log = replay_log.to_payload()
            if journeys is not None:
                stats.journeys = journeys.to_payload()
        if incremental_plan is not None:
            snapshot, delta, pricing, mode = incremental_plan
            reused = replay_log.reused_summary()
            totals = context.ledger.total()
            spliced = journeys.spliced if journeys is not None else 0
            stats.incremental = IncrementalReport(
                base_run_id=snapshot.run_id,
                mode=mode,
                delta=delta,
                impact=delta_impact(
                    snapshot.graph, delta, snapshot.manifest or {}
                ),
                replayed_calls=reused.calls,
                fresh_calls=totals.calls - reused.calls,
                reused_cost_usd=reused.cost_usd,
                reused_llm_seconds=reused.seconds,
                fresh_cost_usd=totals.cost_usd - reused.cost_usd,
                fresh_llm_seconds=totals.latency_seconds - reused.seconds,
                spliced_docs=spliced,
                executed_docs=(
                    plan_stats.operator_stats[0].records_in - spliced
                ),
                pricing=pricing,
            )
        return records, stats


def Execute(
    dataset: Dataset,
    policy: Union[Policy, str, None] = None,
    max_workers: int = 1,
    sample_size: int = 0,
    models: Optional[ModelRegistry] = None,
    cache=None,
    lint: bool = True,
    executor: Optional[str] = None,
    batch_size: int = 1,
    shards: Optional[int] = None,
    trace: Union[bool, Tracer] = False,
    provenance: Union[bool, ProvenanceRecorder] = False,
    capture_calls: bool = False,
    incremental: bool = False,
    base_run=None,
    runs_dir: Optional[str] = None,
    budget=None,
    on_event=None,
    telemetry=None,
    **candidate_options,
) -> Tuple[List[DataRecord], ExecutionStats]:
    """Optimize and execute ``dataset``'s pipeline; return (records, stats).

    This is the public one-shot API::

        records, stats = Execute(dataset, policy=MaxQuality())
        print(stats.summary())

    ``executor``, ``max_workers``, ``batch_size`` and ``shards`` choose how
    the plan is run; :class:`~repro.physical.options.ExecutionOptions`
    documents and validates the four.  Pass ``executor="pipelined"``
    (optionally with ``batch_size``) to run the plan on the stage-pipelined
    executor::

        records, stats = Execute(
            dataset, executor="pipelined", max_workers=4, batch_size=8
        )

    Pass ``executor="sharded"`` (or ``"async"``) to scatter the plan over
    deterministic source shards; omit ``shards`` to let the optimizer
    choose the degree, or pin it explicitly::

        records, stats = Execute(dataset, executor="sharded")          # chosen
        records, stats = Execute(dataset, executor="sharded", shards=4)  # pinned

    Pass ``trace=True`` to record an execution trace (``stats.trace``)::

        records, stats = Execute(dataset, trace=True)
        print(repro.obs.render_tree(stats.trace))

    Pass ``provenance=True`` to record record-level provenance
    (``stats.provenance``)::

        records, stats = Execute(dataset, provenance=True)
        print(repro.obs.render_why(
            stats.provenance.why(stats.provenance.output_ids[0])))

    Pass ``capture_calls=True`` to record the source manifest, LLM call
    log and document journeys onto the stats (persisted by
    ``RunRegistry.record``), then ``incremental=True`` to re-run against
    that base after the corpus drifts — unchanged documents are spliced
    from the base run's journeys (or, on the bundling schedules, replay
    their calls from its call log) and only the delta is paid for, with
    byte-identical output::

        records, stats = Execute(dataset, provenance=True,
                                 capture_calls=True)
        base = RunRegistry(runs_dir).record(records, stats)
        # ... corpus drifts ...
        records2, stats2 = Execute(dataset, provenance=True,
                                   incremental=True, base_run=base)
        print(stats2.incremental.render())
    """
    engine = ExecutionEngine(
        policy=policy,
        max_workers=max_workers,
        sample_size=sample_size,
        models=models,
        cache=cache,
        lint=lint,
        executor=executor,
        batch_size=batch_size,
        shards=shards,
        trace=trace,
        provenance=provenance,
        capture_calls=capture_calls,
        incremental=incremental,
        base_run=base_run,
        runs_dir=runs_dir,
        budget=budget,
        on_event=on_event,
        telemetry=telemetry,
        **candidate_options,
    )
    return engine.execute(dataset)
