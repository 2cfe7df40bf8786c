"""The Palimpzest tool suite exposed to the Archytas agent.

Each tool is a documented function (the docstring is the contract the
reasoning agent sees, exactly as in Fig. 2) closed over a
:class:`~repro.chat.workspace.PipelineWorkspace`.  The ``create_schema`` tool
reproduces the paper's Fig. 2 example — including the dynamic
``type(class_name, (Schema,), attributes)`` construction, here delegated to
:func:`repro.core.schemas.make_schema`.
"""

from __future__ import annotations

from typing import Optional

from repro.agent.tools import AgentRef, ToolError, ToolRegistry, tool
from repro.chat.workspace import PipelineWorkspace
from repro.core.sources import global_source_registry
from repro.execution.execute import Execute, ExecutionEngine
from repro.execution.stats import render_summary
from repro.obs import Trace, aggregate_ops, analyze_critical_path
from repro.obs.registry import diff_runs


def build_pz_tools(workspace: PipelineWorkspace) -> ToolRegistry:
    """Construct the tool registry bound to ``workspace``."""

    def _resolve(run_id: str = "", read=None):
        """``read(run_id)`` on the run store (default: the run's snapshot);
        an empty id names the current result."""
        run_id = run_id or workspace.current_run_id
        if run_id is None:
            raise ToolError("nothing has been executed yet")
        try:
            return (read or workspace.runs.get)(run_id)
        except KeyError:
            pass
        held = [known for known in workspace.run_ids if known in workspace.runs]
        lost = [known for known in workspace.run_ids if known not in held]
        message = (f"no result {run_id!r} in this session; "
                   f"known results: {held or '<none>'}")
        if lost:
            message += (f"; {lost} were recorded in memory by a session "
                        "that no longer holds them"
                        if workspace.runs_dir is None else
                        f"; {lost} are missing from {workspace.runs_dir}")
        raise ToolError(message)

    def _pipeline():
        if workspace.current is None:
            raise ToolError("no dataset loaded yet; call load_dataset first")
        return workspace.current

    def _execute(**modes):
        """Run the pipeline as the workspace is set up; record the run."""
        records, stats = Execute(
            workspace.current,
            policy=workspace.policy,
            **workspace.options.kwargs(),
            trace=True,  # so explain_execution can answer "what took so long"
            provenance=True,  # so explain_record can answer "why is X here"
            budget=workspace.budget,
            on_event=workspace.on_progress,
            telemetry=workspace.telemetry,
            **modes,
        )
        snapshot = workspace.runs.record(records, stats)
        workspace.run_ids.append(snapshot.run_id)
        return records, stats, snapshot

    @tool()
    def load_dataset(source: str, agent: AgentRef = None) -> str:
        """Set the input dataset of the pipeline.

        Use this tool first, before filtering or converting.  The source may
        be the path of a local folder (every file becomes one record, with
        the native schema chosen from the file extension — PDFs become
        PDFFile records) or the name of a registered dataset.

        Args:
            source: a folder path or a registered dataset id.

        Examples:
            load_dataset(source="./papers")
            load_dataset(source="sigmod-demo")
        """
        workspace.log_step("load", source=source)
        dataset = workspace.current
        return (
            f"Loaded dataset {dataset.source.dataset_id!r}: "
            f"{len(dataset.source)} records with schema "
            f"{dataset.schema.schema_name()}."
        )

    @tool()
    def create_schema(
        schema_name: str,
        schema_description: str,
        field_names: list,
        field_descriptions: list,
        agent: AgentRef = None,
    ) -> str:
        """Generate a new extraction schema.

        This tool should be used to generate a new extraction schema.  The
        inputs are a schema name and a set of fields.  For example, if the
        user is interested in extracting author information from a paper,
        the schema name might be 'Author' and the fields may be 'name',
        'email', 'affiliation'.  You should provide a short description for
        each field.  Field names cannot have spaces or special characters.

        Args:
            schema_name: the class name of the new schema.
            schema_description: one sentence describing the schema.
            field_names: list of field identifiers.
            field_descriptions: one description per field, same order.

        Examples:
            create_schema(schema_name="Author", schema_description="Paper author", field_names=["name"], field_descriptions=["The author's name"])
        """
        workspace.log_step(
            "schema",
            name=schema_name,
            description=schema_description,
            field_names=list(field_names),
            field_descriptions=list(field_descriptions),
        )
        return (
            f"Created schema {schema_name} with fields "
            f"{list(field_names)}."
        )

    @tool()
    def filter_dataset(predicate: str, agent: AgentRef = None) -> str:
        """Filter the current dataset with a natural-language predicate.

        Keeps only the records that satisfy the predicate.  Use after
        load_dataset.

        Args:
            predicate: the condition records must satisfy, in plain English.

        Examples:
            filter_dataset(predicate="The papers are about colorectal cancer")
        """
        _pipeline()
        workspace.log_step("filter", predicate=predicate)
        return f"Added filter: {predicate!r}."

    @tool()
    def convert_dataset(
        schema_name: str,
        cardinality: str = "one_to_one",
        agent: AgentRef = None,
    ) -> str:
        """Convert the current dataset to a previously created schema.

        Computes the new schema's fields from each record (LLM extraction).
        Use cardinality "one_to_many" when one input record can describe
        several output objects (e.g. several datasets per paper).

        Args:
            schema_name: name of a schema made with create_schema.
            cardinality: "one_to_one" or "one_to_many".

        Examples:
            convert_dataset(schema_name="ClinicalData", cardinality="one_to_many")
        """
        _pipeline()
        workspace.log_step(
            "convert", schema=schema_name, cardinality=cardinality
        )
        return (
            f"Added convert to {schema_name} "
            f"(cardinality: {cardinality})."
        )

    @tool()
    def set_optimization_target(target: str, agent: AgentRef = None) -> str:
        """Choose the optimization goal for plan selection.

        Args:
            target: "quality" (maximize output quality), "cost" (minimize
                dollar cost), or "runtime" (minimize execution time).

        Examples:
            set_optimization_target(target="quality")
        """
        workspace.log_step("policy", target=target)
        return f"Optimization target set to {workspace.policy.describe()}."

    @tool()
    def execute_pipeline(agent: AgentRef = None) -> str:
        """Optimize and run the pipeline built so far.

        Palimpzest enumerates the physical plans implementing the logical
        pipeline, picks the best one under the chosen optimization target,
        executes it, and stores the output as an addressable result (the
        message carries the result id; use show_records to page through
        the records, and rerun_pipeline to re-run incrementally after the
        source corpus changes).

        Examples:
            execute_pipeline()
        """
        _pipeline()
        if workspace.budget is not None:
            # Pre-turn budget gate: a fully consumed quota rejects the
            # execution before any optimization or LLM work is spent.
            workspace.budget.precheck()
        from repro.analysis import lint_plan

        lint_result = lint_plan(
            workspace.current, shards=workspace.options.degree,
        )
        if not lint_result.ok:
            raise ToolError(
                "the pipeline fails static analysis; nothing was "
                "executed.\n" + lint_result.sorted().render()
            )
        records, stats, snapshot = _execute(
            lint=False,  # already linted above, with a friendlier message
            capture_calls=True,  # so rerun_pipeline can replay unchanged docs
        )
        workspace.log_step(
            "execute",
            policy=workspace.policy.describe(),
            result_id=snapshot.run_id,
            records=len(records),
            cost_usd=round(stats.total_cost_usd, 4),
            time_seconds=round(stats.total_time_seconds, 1),
        )
        handle = snapshot.handle()
        return (
            f"Executed pipeline: {handle.describe()} — "
            f"{handle.count} records produced in "
            f"{stats.total_time_seconds:.0f}s at a cost of "
            f"${stats.total_cost_usd:.2f} "
            f"(plan: {stats.plan_stats.plan_describe}). "
            f"Use show_records(result_id={handle.result_id!r}) to view "
            "records."
        )

    @tool()
    def rerun_pipeline(agent: AgentRef = None) -> str:
        """Re-run the pipeline incrementally on the updated corpus.

        Use when the user asks to re-run after the source documents
        changed (files added, edited, or removed).  Diffs the live corpus
        against the previous run's source manifest and recomputes only
        what the delta touches — unchanged documents replay their
        recorded LLM calls — yielding byte-identical records, statistics,
        and provenance at a fraction of the cost.  The message reports
        the delta, the savings, and the new result id.

        Examples:
            rerun_pipeline()
        """
        _pipeline()
        base = None
        for run_id in reversed(workspace.run_ids):
            try:
                snapshot = workspace.runs.base(run_id)
            except KeyError:
                continue
            if snapshot.calls is not None and snapshot.manifest is not None:
                base = snapshot
                break
        if base is None:
            raise ToolError(
                "no prior run with a captured call log to re-run from; "
                "call execute_pipeline first"
            )
        if workspace.budget is not None:
            workspace.budget.precheck()
        # See the updated corpus: if a new source was registered under
        # the same dataset id, swap it into the pipeline's root scan.
        workspace.current.refresh_source()
        records, stats, snapshot = _execute(incremental=True, base_run=base)
        report = stats.incremental
        workspace.log_step(
            "rerun",
            base=base.run_id,
            result_id=snapshot.run_id,
            records=len(records),
            mode=report.mode if report is not None else "cold",
        )
        handle = snapshot.handle()
        lines = [
            f"Re-ran pipeline from {base.run_id}: {handle.describe()}."
        ]
        if report is not None:
            lines.append(report.render())
        return "\n".join(lines)

    @tool()
    def get_execution_stats(agent: AgentRef = None) -> str:
        """Report runtime, cost, and per-operator statistics of the last run.

        Use when the user asks how long the workload took or how much the
        LLM invocations costed.

        Examples:
            get_execution_stats()
        """
        return render_summary(_resolve().stats)

    @tool()
    def explain_execution(agent: AgentRef = None) -> str:
        """Explain where the time went in the last pipeline run.

        Use when the user asks what took so long, why the run was slow, or
        to explain/profile the last run.  Answers from the recorded
        execution trace: the critical path (which pipeline stage or
        operator bounded the runtime), per-operator busy time, and LLM
        call/cache behaviour.

        Examples:
            explain_execution()
        """
        snapshot = _resolve()
        if snapshot.trace is None:
            raise ToolError(
                "the last run was not traced; execute the pipeline again "
                "to record a trace"
            )
        stats = snapshot.stats
        trace = Trace.from_dict(snapshot.trace)
        report = analyze_critical_path(trace)
        lines = [report.render()]
        ops = sorted(
            aggregate_ops(trace).items(),
            key=lambda item: -item[1]["busy_seconds"],
        )
        if ops:
            lines.append("")
            lines.append("busiest operators:")
            for name, agg in ops[:5]:
                lines.append(
                    f"  {name:<42} {agg['busy_seconds']:>9.1f}s busy  "
                    f"{agg['records_in']:>4} in / {agg['records_out']:>4} out"
                )
        calls = stats["metrics"].get("llm.calls")
        if calls is not None:
            cache_note = (
                f"; {stats['cache_hits']} answered from the call cache"
                if stats["cache_hits"] else ""
            )
            lines.append("")
            lines.append(f"LLM calls: {calls}{cache_note}.")
        return "\n".join(lines)

    @tool()
    def explain_record(
        record_id: int = 0,
        source: str = "",
        agent: AgentRef = None,
    ) -> str:
        """Explain a record of the last run from its provenance graph.

        Use when the user asks why a record is in the output (pass its
        record_id) or why a source document is NOT in the output (pass
        the source name in ``source``).  With neither argument, lists
        the output records with their provenance ids.

        Args:
            record_id: provenance id of an output record to explain.
            source: a source document id/name to trace the fate of.

        Returns:
            a rendered derivation tree (why), fate report (why-not),
            or output-record listing.

        Examples:
            explain_record(record_id=3)
            explain_record(source="paper_007")
        """
        run_id = workspace.current_run_id
        graph = None if run_id is None else _resolve(run_id).graph
        if graph is None:
            raise ToolError(
                "no provenance recorded yet; execute the pipeline first"
            )
        from repro.obs import ProvenanceError, render_why, render_why_not

        if source:
            return render_why_not(graph.why_not(source))
        if record_id:
            try:
                return render_why(graph.why(int(record_id)))
            except ProvenanceError as exc:
                raise ToolError(str(exc)) from None
        if not graph.output_ids:
            return "The last execution produced no records to explain."
        lines = ["Output records (ask about one by its #id):"]
        for node_id in graph.output_ids:
            node = graph.node(node_id)
            lines.append(f"  #{node_id} [{node['schema']}] {node['preview']}")
        return "\n".join(lines)

    @tool()
    def compare_runs(agent: AgentRef = None) -> str:
        """Compare the last two pipeline executions of this session.

        Use when the user asks what changed since the last run.  Reports
        plan changes, per-operator cost/time/selectivity deltas, and the
        output records that appeared or disappeared — each explained
        from the runs' provenance graphs.

        Returns:
            the rendered run diff (plan, per-operator, and membership
            deltas).

        Examples:
            compare_runs()
        """
        run_ids = workspace.run_ids
        if len(run_ids) < 2:
            raise ToolError(
                "need at least two executions to compare; "
                f"this session has {len(run_ids)}"
            )
        return diff_runs(
            _resolve(run_ids[-2]), _resolve(run_ids[-1])).render()

    @tool()
    def show_records(
        result_id: str = "",
        offset: int = 0,
        limit: int = 10,
        agent: AgentRef = None,
    ) -> str:
        """Show a window of an execution's output records.

        Results are addressed by id (as reported by execute_pipeline /
        rerun_pipeline) and sliced on demand — the workspace never holds
        record payloads, only handles.  Omit result_id for the latest
        result; page with offset/limit.

        Args:
            result_id: which result to display (default: the latest).
            offset: index of the first record to display.
            limit: maximum number of records to display.

        Examples:
            show_records(limit=5)
            show_records(result_id="run-0002", offset=10, limit=10)
        """
        handle = _resolve(str(result_id), workspace.runs.handle)
        if handle.count == 0:
            return f"Result {handle.result_id} has no records."
        offset = max(0, int(offset))
        window = handle.slice(offset, max(1, int(limit)))
        lines = []
        for index, fields in enumerate(window, start=offset):
            rendered = ", ".join(f"{k}: {v}" for k, v in fields.items())
            lines.append(f"- [{index}] {rendered}")
        remaining = handle.count - (offset + len(window))
        if remaining > 0:
            lines.append(
                f"... and {remaining} more "
                f"(show_records(result_id={handle.result_id!r}, "
                f"offset={offset + len(window)}))"
            )
        lines.append(handle.describe())
        return "\n".join(lines)

    @tool()
    def describe_pipeline(agent: AgentRef = None) -> str:
        """Describe the logical pipeline built so far and the chosen policy.

        Examples:
            describe_pipeline()
        """
        return workspace.describe_pipeline()

    @tool()
    def list_datasets(agent: AgentRef = None) -> str:
        """List the registered dataset ids available to load_dataset.

        Examples:
            list_datasets()
        """
        ids = global_source_registry().list_ids()
        if not ids:
            return "No datasets registered; load a folder path instead."
        return "Registered datasets: " + ", ".join(ids)

    @tool()
    def generate_code(agent: AgentRef = None) -> str:
        """Produce the runnable Palimpzest program for this pipeline.

        Returns Python source equivalent to the conversation so far (the
        code an expert user could iterate on directly).

        Examples:
            generate_code()
        """
        from repro.chat.codegen import generate_program

        return generate_program(workspace.steps)

    @tool()
    def set_parallelism(workers: int, agent: AgentRef = None) -> str:
        """Set how many workers run LLM calls concurrently.

        More workers reduce wall-clock time of a pipeline execution without
        changing its cost.

        Args:
            workers: number of parallel workers (1 = sequential).

        Examples:
            set_parallelism(workers=4)
        """
        workers = int(workers)
        try:
            workspace.log_step("parallelism", workers=workers)
        except ValueError as exc:
            raise ToolError(str(exc)) from None
        return f"Pipelines will now execute with {workers} workers."

    @tool()
    def set_execution_mode(
        executor: str,
        batch_size: int = 1,
        shards: Optional[int] = None,
        agent: AgentRef = None,
    ) -> str:
        """Choose how pipelines execute: executor, batch size, shard count.

        The "pipelined" executor runs LLM operators on real worker threads
        connected by bounded queues and can batch LLM calls, amortizing the
        fixed per-call overhead; it produces exactly the same records as the
        other executors, faster.  "sharded" scatters the pipeline over
        deterministic source shards (and "async" fans it out over asyncio
        tasks) — pass ``shards`` to pin the parallelism degree, or leave it
        unset to let the optimizer choose one with the cost model.
        "parallel" models record-level parallelism on virtual-clock lanes;
        "sequential" processes one record at a time.

        Args:
            executor: "sequential", "parallel", "pipelined", "sharded",
                or "async".
            batch_size: records per LLM batch (pipelined/sharded executors;
                1 = one call per record).
            shards: parallelism degree for sharded/async (None = let the
                optimizer choose).

        Examples:
            set_execution_mode(executor="pipelined", batch_size=8)
            set_execution_mode(executor="sharded", shards=4)
            set_execution_mode(executor="async")   # optimizer picks degree
        """
        executor = str(executor).strip().lower()
        try:
            batch_size = int(batch_size)
            shards = None if shards is None else int(shards)
            workspace.log_step(
                "execution_mode", executor=executor, batch_size=batch_size,
                shards=shards,
            )
        except ValueError as exc:
            raise ToolError(str(exc)) from None
        if executor == "pipelined":
            suffix = f" with batch size {batch_size}"
        elif workspace.options.scale_out:
            suffix = (
                f" with {shards} shards" if shards is not None
                else " (optimizer chooses the shard count)"
            )
        else:
            suffix = ""
        return f"Pipelines will now use the {executor} executor{suffix}."

    @tool()
    def explain_plans(agent: AgentRef = None) -> str:
        """Show the physical plans the optimizer is considering.

        Prints the enumerated plan space, the Pareto frontier with
        estimated cost/time/quality, and which plan the current
        optimization target would pick — without executing anything.

        Examples:
            explain_plans()
        """
        engine = ExecutionEngine(
            policy=workspace.policy,
            max_workers=workspace.options.max_workers,
        )
        return engine.explain(_pipeline())

    @tool()
    def lint_pipeline(agent: AgentRef = None) -> str:
        """Statically check the pipeline built so far without running it.

        Reports unknown field references, dead fields, duplicate or
        contradictory filters, misplaced limits, and aggregate type
        mismatches — each with its rule code and a fix hint.

        Examples:
            lint_pipeline()
        """
        from repro.analysis import lint_plan

        lint_result = lint_plan(_pipeline())
        if not lint_result.diagnostics:
            return "Pipeline lint: no findings; the pipeline looks sound."
        return (
            f"Pipeline lint: {lint_result.summary()}.\n"
            + lint_result.sorted().render()
        )

    @tool()
    def reset_pipeline(agent: AgentRef = None) -> str:
        """Discard the pipeline built so far and start over.

        Examples:
            reset_pipeline()
        """
        workspace.log_step("reset")
        workspace.prune_runs()
        return "Pipeline reset; load a dataset to start again."

    registry = ToolRegistry()
    for tool_obj in (
        load_dataset,
        create_schema,
        filter_dataset,
        convert_dataset,
        set_optimization_target,
        execute_pipeline,
        rerun_pipeline,
        get_execution_stats,
        explain_execution,
        explain_record,
        compare_runs,
        show_records,
        describe_pipeline,
        list_datasets,
        generate_code,
        set_parallelism,
        set_execution_mode,
        explain_plans,
        lint_pipeline,
        reset_pipeline,
    ):
        registry.register(tool_obj)
    return registry
