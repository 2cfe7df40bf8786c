"""Codegen lint (CG3xx): generated programs and notebook structure."""

import json

import pytest

from repro.analysis import (
    lint_notebook,
    lint_program,
    lint_workspace_steps,
)
from repro.chat.codegen import CodegenError, generate_program
from repro.chat.notebook import Notebook
from repro.chat.workspace import PipelineStep


def build_steps():
    return [
        PipelineStep("load", {"source": "demo"}),
        PipelineStep("filter", {"predicate": "about colorectal cancer"}),
        PipelineStep("schema", {
            "name": "ClinicalData",
            "description": "Datasets from papers.",
            "field_names": ["name", "url"],
            "field_descriptions": ["the name", "the url"],
        }),
        PipelineStep("convert", {"schema": "ClinicalData",
                                 "cardinality": "one_to_many"}),
        PipelineStep("policy", {"target": "cost"}),
        PipelineStep("execute"),
    ]


class TestProgramLint:
    def test_generated_program_is_clean(self):
        program = generate_program(build_steps())
        assert lint_program(program).codes() == []

    def test_cg301_syntax_error(self):
        result = lint_program("import repro as pz\nds = pz.Dataset(\n")
        assert result.codes() == ["CG301"]

    def test_cg302_unknown_attribute(self):
        result = lint_program(
            "import repro as pz\nds = pz.Datasets('x')\n"
        )
        assert "CG302" in result.codes()
        [diagnostic] = result.errors
        assert "pz.Dataset" in diagnostic.hint

    def test_cg302_unknown_cardinality_member(self):
        result = lint_program(
            "import repro as pz\nc = pz.Cardinality.MANY_TO_MANY\n"
        )
        assert "CG302" in result.codes()

    def test_cg302_unknown_dataset_method(self):
        result = lint_program(
            "import repro as pz\n"
            "ds = pz.Dataset('x')\n"
            "ds = ds.fliter('typo')\n"
        )
        assert "CG302" in result.codes()

    def test_cg303_bad_argument_shape(self):
        result = lint_program(
            "import repro as pz\n"
            "ds = pz.Dataset('x')\n"
            "ds = ds.filter()\n"
        )
        assert "CG303" in result.codes()

    def test_cg303_bad_keyword(self):
        result = lint_program(
            "import repro as pz\n"
            "ds = pz.Dataset('x')\n"
            "ds = ds.filter('p', depends='title')\n"
        )
        assert "CG303" in result.codes()

    def test_cg304_undefined_name(self):
        result = lint_program(
            "import repro as pz\nprint(never_defined)\n"
        )
        assert result.codes() == ["CG304"]

    def test_names_defined_by_assignment_are_known(self):
        result = lint_program(
            "import repro as pz\nx = 1\nprint(x)\n"
        )
        assert result.codes() == []

    def test_function_bodies_are_out_of_scope(self):
        result = lint_program(
            "import repro as pz\n"
            "def main():\n"
            "    return locally_scoped\n"
        )
        assert "CG304" not in result.codes()

    def test_non_repro_imports_are_ignored(self):
        result = lint_program("import json\nprint(json.dumps({}))\n")
        assert result.codes() == []


class TestWorkspaceSteps:
    def test_cg305_unknown_policy_target(self):
        steps = [PipelineStep("policy", {"target": "vibes"})]
        result = lint_workspace_steps(steps)
        assert result.codes() == ["CG305"]

    def test_cg305_unknown_cardinality(self):
        steps = [PipelineStep("convert", {"schema": "S",
                                          "cardinality": "many_to_many"})]
        assert lint_workspace_steps(steps).codes() == ["CG305"]

    def test_valid_steps_are_clean(self):
        assert lint_workspace_steps(build_steps()).codes() == []


class TestCodegenStrictness:
    def test_unknown_policy_target_raises(self):
        steps = [PipelineStep("load", {"source": "demo"}),
                 PipelineStep("policy", {"target": "vibes"})]
        with pytest.raises(CodegenError, match="vibes"):
            generate_program(steps)

    def test_unknown_cardinality_raises(self):
        steps = [PipelineStep("load", {"source": "demo"}),
                 PipelineStep("convert", {"schema": "S",
                                          "cardinality": "many_to_many"})]
        with pytest.raises(CodegenError, match="many_to_many"):
            generate_program(steps)

    def test_error_lists_valid_keys(self):
        steps = [PipelineStep("load", {"source": "demo"}),
                 PipelineStep("policy", {"target": "vibes"})]
        with pytest.raises(CodegenError, match="quality"):
            generate_program(steps)


def notebook_dict(**overrides):
    notebook = Notebook(title="T")
    notebook.add_markdown("**User:** hello")
    notebook.add_code("print('kernel cell, not generated')", outputs=["ok"])
    payload = notebook.to_ipynb()
    payload.update(overrides)
    return payload


class TestNotebookLint:
    def test_valid_export_is_clean(self):
        assert lint_notebook(notebook_dict()).codes() == []

    def test_cg310_wrong_nbformat(self):
        assert "CG310" in lint_notebook(
            notebook_dict(nbformat=3)
        ).codes()

    def test_cg310_missing_kernelspec(self):
        assert "CG310" in lint_notebook(
            notebook_dict(metadata={})
        ).codes()

    def test_cg310_invalid_json_text(self):
        assert "CG310" in lint_notebook("{not json").codes()

    def test_cg311_unknown_cell_type(self):
        payload = notebook_dict()
        payload["cells"].append({"cell_type": "raw", "source": "x"})
        assert "CG311" in lint_notebook(payload).codes()

    def test_cg311_code_cell_missing_outputs(self):
        payload = notebook_dict()
        payload["cells"].append({"cell_type": "code", "source": "x = 1"})
        assert "CG311" in lint_notebook(payload).codes()

    def test_cg312_non_monotonic_history(self):
        payload = notebook_dict()
        first = "import repro as pz\n\na = 1\nb = 2\n"
        second = "import repro as pz\n\nc = 3\n"  # does not extend first
        for source in (first, second):
            payload["cells"].append({
                "cell_type": "code",
                "source": source,
                "outputs": [],
                "execution_count": None,
                "metadata": {},
            })
        result = lint_notebook(payload)
        assert "CG312" in result.codes()
        assert result.ok  # warning only

    def test_monotonic_history_is_clean(self):
        payload = notebook_dict()
        first = "import repro as pz\n\na = 1\n"
        second = "import repro as pz\n\na = 1\nb = 2\n"
        for source in (first, second):
            payload["cells"].append({
                "cell_type": "code",
                "source": source,
                "outputs": [],
                "execution_count": None,
                "metadata": {},
            })
        assert "CG312" not in lint_notebook(payload).codes()

    def test_lint_notebook_from_path(self, tmp_path):
        path = tmp_path / "session.ipynb"
        path.write_text(json.dumps(notebook_dict()))
        assert lint_notebook(path).codes() == []
