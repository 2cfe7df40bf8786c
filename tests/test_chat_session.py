"""The full chat session: Fig. 3/4 flows, notebook export, state restore."""

import json

import pytest

from repro.chat.session import PalimpChatSession


@pytest.fixture()
def session(sigmod_demo):
    return PalimpChatSession()


class TestScenarioFlow:
    def test_fig3_dataset_registration(self, session):
        reply = session.chat("Load the papers from the sigmod-demo dataset")
        assert reply.tool_sequence == ["load_dataset"]
        assert "11 records" in reply.text
        assert "PDFFile" in reply.text

    def test_fig4_decomposition(self, session):
        session.chat("Load the papers from the sigmod-demo dataset")
        reply = session.chat(
            "I am interested in papers that are about colorectal cancer, "
            "and I would like to extract the dataset name, description and "
            "url for any public dataset used by the study"
        )
        assert reply.tool_sequence == [
            "filter_dataset", "create_schema", "convert_dataset"
        ]

    def test_fig5_execution_and_stats(self, session):
        session.chat("Load the papers from the sigmod-demo dataset")
        session.chat(
            "Keep only the papers about colorectal cancer and extract "
            "whatever public dataset is used by the study"
        )
        reply = session.chat("Maximize quality and run the pipeline")
        assert "execute_pipeline" in reply.tool_sequence
        assert session.last_records is not None
        assert len(session.last_records) == 6
        stats_reply = session.chat("How much did it cost?")
        assert "get_execution_stats" in stats_reply.tool_sequence
        assert "total cost" in stats_reply.text

    def test_agent_reasoning_is_metered(self, session):
        session.chat("Load the papers from the sigmod-demo dataset")
        assert session.agent_cost_usd() > 0

    def test_unmetered_session(self, sigmod_demo):
        session = PalimpChatSession(agent_model=None)
        session.chat("Load the papers from the sigmod-demo dataset")
        assert session.agent_cost_usd() == 0.0


class TestAgentStepsChargeTheWholePrompt:
    """Reasoning steps count the constant head of the agent prompt (system
    prompt + tool catalogue) once and the rest per step; what lands in the
    ledger is still the count of the whole prompt of every step."""

    #: The paper's demo conversation (``bench/serve.py`` drives the same).
    SCRIPT = [
        "Load the sigmod-demo dataset",
        "Keep only the papers about colorectal cancer and extract "
        "whatever public dataset is used by the study",
        "Maximize quality and run the pipeline",
        "How much did it cost?",
        "why is record 2 in the output?",
        "what took so long?",
        "show me the generated code",
    ]

    def test_demo_script_ledger_equals_whole_prompt_counts(
            self, session, monkeypatch):
        from repro.llm import semantics
        from repro.llm.client import SimulatedLLMClient
        from repro.llm.tokenizer import (
            _count_tokens_uncached,
            truncate_to_tokens,
        )

        prompts = []
        complete = SimulatedLLMClient.complete

        def recording(client, request):
            prompts.append(request.preamble + request.prompt)
            return complete(client, request)

        monkeypatch.setattr(SimulatedLLMClient, "complete", recording)
        for message in self.SCRIPT:
            session.chat(message)

        rows = session.agent_ledger.records
        assert len(rows) == len(prompts) > len(self.SCRIPT)
        block = session.registry.render_block()
        assert all(
            prompt.startswith(f"{session.agent.system_prompt}\n\n"
                              f"Available tools:\n{block}\n\n"
                              "Conversation so far:\n")
            and prompt.endswith("\nThought:") for prompt in prompts)
        assert [row.input_tokens for row in rows] == [
            _count_tokens_uncached(prompt) for prompt in prompts]
        completions = [
            truncate_to_tokens(semantics.summarize(prompt, 1), 512)
            for prompt in prompts]
        assert [row.output_tokens for row in rows] == [
            _count_tokens_uncached(text) for text in completions]
        model = session.agent._reasoning_client.model
        total = session.agent_ledger.total()
        assert total.input_tokens == sum(map(_count_tokens_uncached, prompts))
        assert total.cost_usd == pytest.approx(sum(
            model.cost_usd(row.input_tokens, row.output_tokens)
            for row in rows))


class TestArtifacts:
    def test_generated_code_runs(self, session):
        session.chat("Load the papers from the sigmod-demo dataset")
        session.chat("Keep only the papers about colorectal cancer")
        session.chat("run the pipeline")
        code = session.generated_code()
        from repro.chat.codegen import exec_program

        namespace = exec_program(code)
        assert len(namespace["records"]) == 8

    def test_notebook_export(self, session, tmp_path):
        session.chat("Load the papers from the sigmod-demo dataset")
        session.chat("show me something unrelated to pipelines")
        path = session.export_notebook(tmp_path / "out.ipynb")
        data = json.loads(path.read_text())
        kinds = [c["cell_type"] for c in data["cells"]]
        assert "markdown" in kinds and "code" in kinds

    def test_restore_rewinds_pipeline(self, session):
        first = session.chat("Load the papers from the sigmod-demo dataset")
        session.chat("Keep only the papers about colorectal cancer")
        assert len(session.workspace.current.logical_plan()) == 2
        session.restore(first.snapshot_index)
        assert len(session.workspace.current.logical_plan()) == 1

    def test_help_on_unknown_request(self, session):
        reply = session.chat("tell me a joke")
        assert reply.tool_sequence == []
        assert "pipeline" in reply.text.lower()


class TestExplainThroughChat:
    def test_explain_plans_tool(self, session):
        session.chat("Load the papers from the sigmod-demo dataset")
        session.chat("Keep only the papers about colorectal cancer")
        reply = session.chat("explain the plans")
        assert reply.tool_sequence == ["explain_plans"]
        assert "pareto frontier" in reply.text
        assert "chosen:" in reply.text


class TestParallelismThroughChat:
    def test_workers_speed_up_chat_run(self, session):
        session.chat("Load the papers from the sigmod-demo dataset")
        session.chat("Keep only the papers about colorectal cancer")
        session.chat("run the pipeline")
        sequential_time = session.last_stats.total_time_seconds
        session.chat("use 4 workers and run the pipeline")
        parallel_time = session.last_stats.total_time_seconds
        assert session.workspace.max_workers == 4
        assert parallel_time < sequential_time / 2


class TestNotebookKernel:
    def test_state_persists_across_executions(self, session):
        session.run_code("x = 40")
        output = session.run_code("print(x + 2)")
        assert output == "42\n"

    def test_pz_preloaded(self, session):
        output = session.run_code("print(pz.__version__)")
        assert output.strip() == "0.1.0"

    def test_cells_recorded_with_output(self, session):
        session.run_code("print('hello kernel')")
        code_cells = [c for c in session.notebook.cells if c.kind == "code"]
        assert code_cells[-1].source == "print('hello kernel')"
        assert code_cells[-1].outputs == ["hello kernel\n"]

    def test_exception_recorded_then_raised(self, session):
        with pytest.raises(ZeroDivisionError):
            session.run_code("1 / 0")
        code_cells = [c for c in session.notebook.cells if c.kind == "code"]
        assert "ZeroDivisionError" in code_cells[-1].outputs[0]

    def test_iterate_on_generated_code_in_kernel(self, session):
        session.chat("Load the papers from the sigmod-demo dataset")
        session.chat("Keep only the papers about colorectal cancer")
        session.chat("run the pipeline")
        session.run_code(session.generated_code())
        output = session.run_code("print(len(records))")
        assert output.strip() == "8"


class TestSentinelQualityCalibration:
    def test_sampled_quality_is_measured_f1(self, sigmod_demo):
        import repro as pz
        from repro.optimizer.optimizer import Optimizer

        dataset = pz.Dataset(source="sigmod-demo").filter(
            "The papers are about colorectal cancer"
        )
        report = Optimizer(pz.MaxQuality(), sample_size=5).optimize(
            dataset.logical_plan(), dataset.source
        )
        sampled = [c for c in report.candidates if c.estimate.from_sample]
        assert sampled
        # Measured qualities are valid F1 values, and the best plan on the
        # easy corpus sample is perfect.
        assert all(0.0 <= c.estimate.quality <= 1.0 for c in sampled)
        assert report.chosen.estimate.quality == 1.0
