"""Code generation (Fig. 6) and re-execution of generated programs."""

import pytest

from repro.chat.codegen import CodegenError, exec_program, generate_program
from repro.chat.workspace import PipelineWorkspace


@pytest.fixture()
def workspace(sigmod_demo):
    ws = PipelineWorkspace()
    ws.log_step("load", source="sigmod-demo", schema="PDFFile", records=11)
    ws.log_step("filter", predicate="The papers are about colorectal cancer")
    ws.log_step(
        "schema",
        name="ClinicalData",
        description="Datasets from papers.",
        field_names=["name", "description", "url"],
        field_descriptions=["the name", "the description", "the url"],
    )
    ws.log_step("convert", schema="ClinicalData", cardinality="one_to_many")
    ws.log_step("policy", target="quality")
    ws.log_step("execute", policy="max-quality", records=6,
                cost_usd=0.35, time_seconds=210)
    return ws


class TestGenerateProgram:
    def test_contains_fig6_sections(self, workspace):
        code = generate_program(workspace.steps)
        assert "# Set input dataset" in code
        assert "# Filter dataset" in code
        assert "# Create new schema" in code
        assert "# Perform conversion" in code
        assert "# Execute workload" in code

    def test_pipeline_statements(self, workspace):
        code = generate_program(workspace.steps)
        assert "pz.Dataset(source='sigmod-demo')" in code
        assert "dataset.filter('The papers are about colorectal cancer')" in code
        assert "pz.Cardinality.ONE_TO_MANY" in code
        assert "policy = pz.MaxQuality()" in code

    def test_policy_mapping(self, workspace):
        workspace.steps[-2].params["target"] = "cost"
        code = generate_program(workspace.steps)
        assert "pz.MinCost()" in code

    def test_unknown_policy_target_raises(self, workspace):
        from repro.chat.codegen import CodegenError

        workspace.steps[-2].params["target"] = "speeed"
        with pytest.raises(CodegenError, match="speeed"):
            generate_program(workspace.steps)

    def test_unknown_cardinality_raises(self, workspace):
        from repro.chat.codegen import CodegenError

        workspace.steps[3].params["cardinality"] = "one_to_none"
        with pytest.raises(CodegenError, match="one_to_none"):
            generate_program(workspace.steps)

    def test_empty_workspace_placeholder(self):
        code = generate_program([])
        assert "No pipeline" in code

    def test_generated_code_is_valid_python(self, workspace):
        compile(generate_program(workspace.steps), "<test>", "exec")


class TestExecProgram:
    def test_reexecution_produces_records(self, workspace):
        code = generate_program(workspace.steps)
        namespace = exec_program(code)
        assert "records" in namespace
        assert "execution_stats" in namespace
        assert len(namespace["records"]) == 6

    def test_reexecution_matches_fig5_shape(self, workspace):
        namespace = exec_program(generate_program(workspace.steps))
        stats = namespace["execution_stats"]
        assert stats.records_out == 6
        assert stats.total_cost_usd > 0


class TestExportedModes:
    """The exported program runs the way the conversation ran."""

    @pytest.mark.parametrize("mode_turn", [
        "Use 4 workers",
        "Use 4 shards",
        "Use the pipelined executor with batch size 8",
        "Use the async executor",
    ])
    def test_reexecution_matches_the_chat_run(self, sigmod_demo, mode_turn):
        import json

        from repro.chat.session import PalimpChatSession

        session = PalimpChatSession()
        for message in ("Load the sigmod-demo dataset",
                        "Keep only the papers about colorectal cancer",
                        mode_turn,
                        "Optimize for runtime and run the pipeline"):
            session.chat(message)
        workspace = session.workspace
        run = workspace.runs.get(workspace.current_run_id)
        namespace = exec_program(session.generated_code())
        stats = namespace["execution_stats"]
        assert [json.loads(r.to_json())
                for r in namespace["records"]] == run.records
        assert stats.plan_stats.plan_describe == run.meta["plan"]
        assert round(stats.total_cost_usd, 6) == run.meta["total_cost_usd"]
        assert (stats.executor, stats.max_workers, stats.batch_size) == (
            run.meta["executor"], run.meta["max_workers"],
            run.meta["batch_size"])

    def test_rerun_renders_the_same_call(self, workspace):
        workspace.log_step("execution_mode", executor="sharded",
                           batch_size=1, shards=4)
        workspace.log_step("rerun", base="run-0001", result_id="run-0002")
        code = generate_program(workspace.steps)
        call = ("records, execution_stats = pz.Execute(dataset, "
                "policy=policy, executor='sharded', shards=4)")
        assert code.rstrip().endswith(
            "# Re-run workload on the updated corpus\n"
            "policy = pz.MaxQuality()\n" + call)

    def test_unknown_step_kind_raises(self, workspace):
        workspace.log_step("teleport", where="moon")
        with pytest.raises(CodegenError, match="teleport"):
            generate_program(workspace.steps)
