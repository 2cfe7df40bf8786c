"""The Beaker-like notebook: cells, snapshots, restore, export."""

import dataclasses
import json

import pytest

from repro.chat.notebook import Notebook, NotebookCell
from repro.chat.workspace import PipelineWorkspace
from repro.optimizer.policies import MinCost


class TestCells:
    def test_markdown_and_code_cells(self):
        nb = Notebook()
        nb.add_markdown("**User:** hello")
        nb.add_code("print(1)", outputs=["1"])
        assert len(nb) == 2
        assert nb.cells[0].kind == "markdown"
        assert nb.cells[1].outputs == ["1"]

    def test_ipynb_cell_shapes(self):
        markdown = NotebookCell("markdown", "# title").to_ipynb()
        assert markdown["cell_type"] == "markdown"
        code = NotebookCell("code", "x = 1", outputs=["ok"]).to_ipynb()
        assert code["cell_type"] == "code"
        assert code["outputs"][0]["output_type"] == "stream"


class TestSnapshots:
    def test_snapshot_and_restore(self):
        nb = Notebook()
        ws = PipelineWorkspace()
        ws.log_step("load", source="a")
        index_before = nb.snapshot_state(ws)

        ws.log_step("filter", predicate="x")
        ws.policy = MinCost()
        nb.snapshot_state(ws)

        nb.restore_state(index_before, ws)
        assert len(ws.steps) == 1
        assert ws.policy.name == "max-quality"

    def test_restore_truncates_future_snapshots(self):
        nb = Notebook()
        ws = PipelineWorkspace()
        first = nb.snapshot_state(ws)
        nb.snapshot_state(ws)
        nb.snapshot_state(ws)
        nb.restore_state(first, ws)
        assert nb.snapshot_count == first + 1

    def test_restore_out_of_range(self):
        nb = Notebook()
        with pytest.raises(IndexError):
            nb.restore_state(0, PipelineWorkspace())

    def test_restore_rewinds_current_result(self):
        nb = Notebook()
        ws = PipelineWorkspace()
        empty = nb.snapshot_state(ws)
        ws.log_step("execute", result_id="run-1")
        first = nb.snapshot_state(ws)
        ws.log_step("execute", result_id="run-2")
        nb.snapshot_state(ws)
        assert ws.current_run_id == "run-2"
        nb.restore_state(first, ws)
        assert ws.current_run_id == "run-1"
        nb.restore_state(empty, ws)
        assert ws.current_run_id is None

    def test_snapshot_is_unchanged_by_later_steps(self):
        nb = Notebook()
        ws = PipelineWorkspace()
        ws.log_step("load", source="a")
        ws.log_step("filter", predicate="x")
        index = nb.snapshot_state(ws)
        frozen = [step.describe() for step in ws.steps]
        ws.log_step("filter", predicate="y")
        nb.restore_state(index, ws)
        ws.log_step("policy", target="cost")
        nb.restore_state(index, ws)
        assert [step.describe() for step in ws.steps] == frozen
        with pytest.raises(dataclasses.FrozenInstanceError):
            ws.steps[0].kind = "filter"


class TestExport:
    def test_ipynb_structure(self, tmp_path):
        nb = Notebook(title="My session")
        nb.add_markdown("**User:** hi")
        nb.add_code("x = 1")
        path = nb.save(tmp_path / "session.ipynb")
        data = json.loads(path.read_text())
        assert data["nbformat"] == 4
        # Header cell + 2 content cells.
        assert len(data["cells"]) == 3
        assert data["cells"][0]["source"] == ["# My session"]
        assert data["metadata"]["palimpchat"]["title"] == "My session"

    def test_multiline_sources_split(self, tmp_path):
        nb = Notebook()
        nb.add_code("a = 1\nb = 2\n")
        data = nb.to_ipynb()
        code_cell = data["cells"][1]
        assert code_cell["source"] == ["a = 1\n", "b = 2\n"]
