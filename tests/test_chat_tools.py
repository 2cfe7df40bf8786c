"""The Palimpzest tool suite bound to a workspace."""

import re

import pytest

from repro.agent.tools import ToolError
import repro.chat.workspace as workspace_module
from repro.chat.tools_pz import build_pz_tools
from repro.chat.workspace import PipelineWorkspace


@pytest.fixture()
def workspace():
    return PipelineWorkspace()


@pytest.fixture()
def tools(workspace):
    return build_pz_tools(workspace)


def invoke(tools, name, **arguments):
    return tools.get(name).invoke(arguments)


class TestLoadDataset:
    def test_load_registered_id(self, tools, workspace, sigmod_demo):
        message = invoke(tools, "load_dataset", source="sigmod-demo")
        assert "11 records" in message
        assert "PDFFile" in message
        assert workspace.current is not None
        assert workspace.steps_of_kind("load")

    def test_load_folder_path(self, tools, workspace, tmp_path):
        (tmp_path / "a.txt").write_text("hello")
        message = invoke(tools, "load_dataset", source=str(tmp_path))
        assert "1 records" in message

    def test_unknown_source_raises(self, tools):
        from repro.core.errors import DatasetError

        with pytest.raises(DatasetError):
            invoke(tools, "load_dataset", source="missing-dataset-xyz")


class TestCreateSchema:
    def test_creates_and_registers(self, tools, workspace):
        message = invoke(
            tools, "create_schema",
            schema_name="Author",
            schema_description="Paper author",
            field_names=["name", "email"],
            field_descriptions=["the name", "the email"],
        )
        assert "Author" in message
        schema = workspace.get_schema("Author")
        assert schema.field_names() == ["name", "email"]

    def test_invalid_field_name_propagates(self, tools):
        from repro.core.errors import SchemaError

        with pytest.raises(SchemaError):
            invoke(
                tools, "create_schema",
                schema_name="Bad",
                schema_description="d",
                field_names=["has space"],
                field_descriptions=["x"],
            )

    def test_unknown_schema_lookup_raises(self, workspace):
        with pytest.raises(KeyError, match="no schema named"):
            workspace.get_schema("Missing")


class TestPipelineBuilding:
    def test_filter_requires_loaded_dataset(self, tools):
        with pytest.raises(ToolError, match="load_dataset first"):
            invoke(tools, "filter_dataset", predicate="about x")

    def test_filter_extends_pipeline(self, tools, workspace, sigmod_demo):
        invoke(tools, "load_dataset", source="sigmod-demo")
        invoke(tools, "filter_dataset", predicate="about colorectal cancer")
        plan = workspace.current.logical_plan()
        assert len(plan) == 2

    def test_convert_uses_created_schema(self, tools, workspace, sigmod_demo):
        invoke(tools, "load_dataset", source="sigmod-demo")
        invoke(
            tools, "create_schema",
            schema_name="Clinical",
            schema_description="d",
            field_names=["name"],
            field_descriptions=["n"],
        )
        invoke(
            tools, "convert_dataset",
            schema_name="Clinical", cardinality="one_to_many",
        )
        assert workspace.current.schema.schema_name() == "Clinical"

    def test_convert_unknown_schema(self, tools, workspace, sigmod_demo):
        invoke(tools, "load_dataset", source="sigmod-demo")
        with pytest.raises(KeyError):
            invoke(tools, "convert_dataset", schema_name="Nope")

    def test_set_policy(self, tools, workspace):
        invoke(tools, "set_optimization_target", target="cost")
        assert workspace.policy.name == "min-cost"

    def test_set_invalid_policy(self, tools):
        with pytest.raises(ValueError):
            invoke(tools, "set_optimization_target", target="vibes")

    def test_describe_pipeline_empty(self, tools):
        assert "no pipeline" in invoke(tools, "describe_pipeline")

    def test_reset(self, tools, workspace, sigmod_demo):
        invoke(tools, "load_dataset", source="sigmod-demo")
        invoke(tools, "reset_pipeline")
        assert workspace.current is None
        assert "no pipeline" in invoke(tools, "describe_pipeline")
        assert "No pipeline" in invoke(tools, "generate_code")


class TestExecution:
    def test_execute_requires_dataset(self, tools):
        with pytest.raises(ToolError):
            invoke(tools, "execute_pipeline")

    def test_stats_require_execution(self, tools):
        with pytest.raises(ToolError, match="executed"):
            invoke(tools, "get_execution_stats")

    def test_show_records_require_execution(self, tools):
        with pytest.raises(ToolError):
            invoke(tools, "show_records")

    def test_full_cycle(self, tools, workspace, sigmod_demo):
        invoke(tools, "load_dataset", source="sigmod-demo")
        invoke(tools, "filter_dataset", predicate="about colorectal cancer")
        message = invoke(tools, "execute_pipeline")
        assert "records produced" in message
        assert workspace.runs.get(workspace.current_run_id).records is not None
        stats_text = invoke(tools, "get_execution_stats")
        assert "total cost" in stats_text
        listing = invoke(tools, "show_records", limit=3)
        assert listing.startswith("-")

    def test_show_records_limit(self, tools, workspace, sigmod_demo):
        invoke(tools, "load_dataset", source="sigmod-demo")
        invoke(tools, "execute_pipeline")
        listing = invoke(tools, "show_records", limit=2)
        assert "more" in listing


class TestUtilities:
    def test_list_datasets_mentions_registered(self, tools, sigmod_demo):
        assert "sigmod-demo" in invoke(tools, "list_datasets")

    def test_generate_code_empty(self, tools):
        assert "No pipeline" in invoke(tools, "generate_code")


class TestRunIds:
    def test_rootless_ids_never_repeat_after_a_reset(
            self, tools, workspace, sigmod_demo, monkeypatch):
        monkeypatch.setattr(workspace_module, "KEEP_RUNS", 1)
        ids = []
        for executions in (2, 1):
            invoke(tools, "load_dataset", source="sigmod-demo")
            for _ in range(executions):
                message = invoke(tools, "execute_pipeline")
                ids.append(re.search(r"result (run-\d+):", message)[1])
            invoke(tools, "reset_pipeline")
        assert ids == ["run-1", "run-2", "run-3"]
        # The reset kept the newest run of the session, and only it.
        assert workspace.run_ids == ["run-3"]
        assert "run-3" in invoke(tools, "show_records", result_id="run-3")
        with pytest.raises(ToolError, match="known results"):
            invoke(tools, "show_records", result_id="run-2")
