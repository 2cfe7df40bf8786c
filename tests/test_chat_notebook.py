"""The Beaker-like notebook: cells and export."""

import json

from repro.chat.notebook import Notebook, NotebookCell


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
