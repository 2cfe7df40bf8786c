"""The optimizer: enumerate, (optionally) sample, rank, choose."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.logical import LogicalPlan
from repro.core.sources import DataSource, MemorySource
from repro.llm.models import ModelRegistry, default_registry
from repro.optimizer.cost_model import CostModel, PlanEstimate, SampleStats
from repro.obs.trace import NULL_TRACER, SpanKind
from repro.optimizer.planner import (
    EXHAUSTIVE_LIMIT,
    PlanCandidate,
    enumerate_plans,
    pareto_frontier,
    plan_space_size,
)
from repro.optimizer.policies import MaxQuality, Policy
from repro.physical.context import ExecutionContext
from repro.physical.options import ExecutionOptions
from repro.physical.plan import PhysicalPlan
from repro.physical.scan import MarshalAndScan

#: At most this many frontier plans get a sentinel (sample) run.
SENTINEL_PLAN_CAP = 6

#: Parallelism degrees the optimizer enumerates for the scale-out
#: executors when the caller doesn't pin one (filtered to the source
#: cardinality — sharding an N-record source more than N ways is waste).
SHARD_DEGREES = (1, 2, 4, 8)


@dataclass
class OptimizationReport:
    """What the optimizer did and what it picked."""

    chosen: PlanCandidate
    candidates: List[PlanCandidate]
    policy: Policy
    plans_considered: int
    sentinel_cost_usd: float = 0.0
    sentinel_time_seconds: float = 0.0
    sentinel_runs: int = 0

    def frontier(self) -> List[PlanCandidate]:
        return pareto_frontier(self.candidates)

    def describe(self) -> str:
        lines = [
            f"policy: {self.policy.describe()}",
            f"plans considered: {self.plans_considered}",
            f"sentinel runs: {self.sentinel_runs} "
            f"(${self.sentinel_cost_usd:.4f}, "
            f"{self.sentinel_time_seconds:.1f}s)",
            f"chosen: {self.chosen.estimate.describe()}",
        ]
        return "\n".join(lines)


class Optimizer:
    """Builds the plan space and selects the policy-optimal physical plan.

    Args:
        policy: user preference (defaults to :class:`MaxQuality`).
        executor, max_workers, batch_size, shards: the
            :class:`~repro.physical.options.ExecutionOptions` the plan
            will run under (``self.options``); the cost model prices them.
            A batch size > 1 is stamped onto the chosen plan via
            :meth:`~repro.physical.plan.PhysicalPlan.with_batch_size`.
            For a scale-out executor, ``shards=None`` (default) makes the
            optimizer *enumerate* the degrees in :data:`SHARD_DEGREES`
            (capped at the source cardinality) as extra plan candidates
            and lets the policy choose one jointly with the operator
            choices; an integer pins the degree.  Either way the chosen
            plan is stamped via
            :meth:`~repro.physical.plan.PhysicalPlan.with_shards`.
        sample_size: if > 0, run the Pareto-frontier plans on this many
            sample records first ("sentinel" execution) and replace the
            naive per-operator estimates with observed statistics.
        models: model registry defining the plan space.
        lint: run plan lint (``PZ1xx``) before enumerating; error-level
            findings raise :class:`~repro.analysis.LintError` so broken
            plans are rejected before any (simulated) dollars are spent.
        tracer: observability tracer; enumeration, sentinel runs, and the
            policy's choice become ``optimize.*`` spans carrying candidate
            counts and pruning attributes.
        candidate_options: keyword switches forwarded to
            :func:`repro.optimizer.candidates.candidate_operators` (ablations).
    """

    def __init__(
        self,
        policy: Optional[Policy] = None,
        max_workers: int = 1,
        sample_size: int = 0,
        models: Optional[ModelRegistry] = None,
        lint: bool = True,
        batch_size: int = 1,
        executor: str = "sequential",
        shards: Optional[int] = None,
        tracer=None,
        **candidate_options,
    ):
        self.options = ExecutionOptions(
            executor, max_workers, batch_size, shards
        )
        self.policy = policy or MaxQuality()
        self.sample_size = sample_size
        self.models = models or default_registry()
        self.lint = lint
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.candidate_options = candidate_options

    def optimize(self, logical_plan: LogicalPlan,
                 source: DataSource) -> OptimizationReport:
        if self.lint:
            from repro.analysis import LintError, lint_plan

            lint_result = lint_plan(
                logical_plan, source=source, shards=self.options.degree,
            )
            if not lint_result.ok:
                raise LintError(lint_result)
        profile = source.profile()
        options = self.options
        cost_model = CostModel(profile, **options.kwargs())
        tracer = self.tracer
        with tracer.span(
            "optimize.enumerate", SpanKind.OPTIMIZE,
            logical=logical_plan.describe(),
        ) as enum_span:
            candidates = enumerate_plans(
                logical_plan,
                source,
                self.models,
                cost_model,
                **self.candidate_options,
            )
            if tracer.enabled:
                space = plan_space_size(
                    logical_plan, self.models, source,
                    **self.candidate_options,
                )
                enum_span.set_attribute("plan_space", space)
                enum_span.set_attribute("candidates", len(candidates))
                enum_span.set_attribute(
                    "pruned", max(0, space - len(candidates))
                )
                enum_span.set_attribute(
                    "strategy",
                    "exhaustive" if space <= EXHAUSTIVE_LIMIT
                    else "pareto-dp",
                )

        sentinel_cost = 0.0
        sentinel_time = 0.0
        sentinel_runs = 0
        measured_quality: Dict[str, float] = {}
        if self.sample_size > 0 and profile.cardinality > 0:
            (sentinel_cost, sentinel_time, sentinel_runs,
             measured_quality) = self._run_sentinels(
                logical_plan, candidates, source, cost_model
            )
            # Re-estimate everything with the observed statistics folded
            # in; sentinel-run plans additionally get their *measured*
            # output quality (sample output vs perfect reference).
            candidates = [
                self._requalified(
                    candidate.plan, cost_model, measured_quality
                )
                for candidate in candidates
            ]

        if options.scale_out and options.shards is None:
            candidates = self._enumerate_degrees(
                candidates, profile, cost_model, measured_quality
            )

        estimates = [c.estimate for c in candidates]
        with tracer.span(
            "optimize.choose", SpanKind.OPTIMIZE,
            policy=self.policy.describe(), candidates=len(candidates),
        ) as choose_span:
            chosen_estimate = self.policy.choose(estimates)
            chosen = next(
                c for c in candidates if c.estimate is chosen_estimate
            )
            if tracer.enabled:
                choose_span.set_attribute("chosen_plan", chosen.plan.plan_id)
                choose_span.set_attribute(
                    "frontier", len(pareto_frontier(candidates))
                )
                if options.scale_out:
                    choose_span.set_attribute(
                        "shards",
                        options.shards if options.shards is not None
                        else chosen.plan.shards,
                    )
        if options.shards is not None:
            chosen = PlanCandidate(
                plan=chosen.plan.with_shards(options.shards),
                estimate=chosen.estimate,
            )
        if options.batch_size > 1:
            chosen = PlanCandidate(
                plan=chosen.plan.with_batch_size(options.batch_size),
                estimate=chosen.estimate,
            )
        return OptimizationReport(
            chosen=chosen,
            candidates=candidates,
            policy=self.policy,
            plans_considered=len(candidates),
            sentinel_cost_usd=sentinel_cost,
            sentinel_time_seconds=sentinel_time,
            sentinel_runs=sentinel_runs,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _requalified(
        plan: PhysicalPlan,
        cost_model: CostModel,
        measured_quality: Dict[str, float],
    ) -> PlanCandidate:
        """Estimate ``plan`` with ``cost_model``, folding in any measured
        sentinel quality (keyed by plan id, which ignores shard/batch
        stamps — a sampled plan stays sampled at every degree)."""
        estimate = cost_model.estimate_plan(plan)
        if plan.plan_id in measured_quality:
            estimate = dataclasses.replace(
                estimate,
                quality=measured_quality[plan.plan_id],
                from_sample=True,
            )
        return PlanCandidate(plan=plan, estimate=estimate)

    def _enumerate_degrees(
        self,
        candidates: List[PlanCandidate],
        profile,
        cost_model: CostModel,
        measured_quality: Dict[str, float],
    ) -> List[PlanCandidate]:
        """Cross every candidate with the shard degrees in
        :data:`SHARD_DEGREES` so the policy chooses the parallelism degree
        jointly with the operator choices.

        Degree-1 candidates are the incoming ones unchanged (the base cost
        model already priced ``shards=1``); each higher degree gets its own
        cost model sharing the sentinel-observed ``sample_stats``, and its
        plans are stamped via ``with_shards`` so the executor honors the
        choice.
        """
        cardinality = max(1, int(profile.cardinality))
        expanded = list(candidates)
        for degree in SHARD_DEGREES:
            if degree == 1 or degree > cardinality:
                continue
            degree_model = CostModel(
                profile,
                sample_stats=cost_model.sample_stats,
                **dataclasses.replace(self.options, shards=degree).kwargs(),
            )
            expanded.extend(
                self._requalified(
                    candidate.plan.with_shards(degree),
                    degree_model,
                    measured_quality,
                )
                for candidate in candidates
            )
        return expanded

    def _run_sentinels(
        self,
        logical_plan: LogicalPlan,
        candidates: List[PlanCandidate],
        source: DataSource,
        cost_model: CostModel,
    ):
        """Execute frontier plans on a sample; fold stats into the model.

        Returns ``(cost, time, runs, measured_quality)`` where
        ``measured_quality`` maps plan ids to the F1 of the plan's sample
        output against the oracle-perfect reference output.
        """
        from repro.evaluation.metrics import records_f1
        from repro.evaluation.reference import reference_output
        from repro.execution.executors import SequentialExecutor

        sample_records = source.sample(self.sample_size)
        if not sample_records:
            return 0.0, 0.0, 0, {}
        sample_source = MemorySource(
            sample_records,
            dataset_id=f"{source.dataset_id}#sample",
            schema=source.schema,
        )
        try:
            reference = reference_output(logical_plan, sample_source)
        except Exception:  # pragma: no cover - exotic plans
            reference = None

        frontier = pareto_frontier(candidates)
        frontier.sort(key=lambda c: c.estimate.cost_usd)
        frontier = frontier[:SENTINEL_PLAN_CAP]

        total_cost = 0.0
        total_time = 0.0
        measured_quality: Dict[str, float] = {}
        for candidate in frontier:
            sample_plan = PhysicalPlan(
                [
                    MarshalAndScan(
                        candidate.plan.scan.logical_op, sample_source
                    )
                ]
                + candidate.plan.downstream
            )
            # Fresh, tracer-free context: sentinel traffic is accounted
            # separately and must not pollute the main run's trace.
            context = ExecutionContext(
                max_workers=1, models=self.models
            )
            executor = SequentialExecutor(context)
            with self.tracer.span(
                "optimize.sentinel", SpanKind.OPTIMIZE,
                plan_id=candidate.plan.plan_id,
                sample_size=len(sample_records),
            ) as sentinel_span:
                sample_output, plan_stats = executor.execute(sample_plan)
                if self.tracer.enabled:
                    sentinel_span.set_attribute(
                        "sample_cost_usd", round(plan_stats.total_cost_usd, 9)
                    )
                    sentinel_span.set_attribute(
                        "sample_time_seconds",
                        round(plan_stats.total_time_seconds, 9),
                    )
            total_cost += plan_stats.total_cost_usd
            total_time += plan_stats.total_time_seconds
            if reference is not None:
                measured_quality[candidate.plan.plan_id] = records_f1(
                    sample_output, reference
                ).f1

            for op, op_stats in zip(
                sample_plan.downstream, plan_stats.operator_stats[1:]
            ):
                if op_stats.records_in == 0:
                    continue
                cost_model.update(
                    op.full_op_id,
                    SampleStats(
                        selectivity=op_stats.selectivity,
                        cost_per_record=(
                            op_stats.cost_usd / op_stats.records_in
                        ),
                        time_per_record=(
                            op_stats.time_seconds / op_stats.records_in
                        ),
                    ),
                )
        return total_cost, total_time, len(frontier), measured_quality
