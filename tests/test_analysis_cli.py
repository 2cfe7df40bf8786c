"""The ``repro lint`` CLI: broken fixtures fail, shipped artifacts pass."""

import json
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture()
def demo_data_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("lint-corpora"))


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


class TestBrokenFixturesExitNonZero:
    def test_bad_field_reference(self, tmp_path, capsys):
        fixture = write(tmp_path, "broken_pipeline.py", (
            "from repro.core.dataset import Dataset\n"
            "from repro.core.sources import MemorySource\n"
            "source = MemorySource(['a', 'b'], 'cli-lint-1')\n"
            "pipeline = Dataset(source).filter('x', depends_on=['ghost'])\n"
        ))
        code = main(["lint", "--no-demos", "--no-tools", "--load", fixture])
        assert code == 1
        assert "PZ101" in capsys.readouterr().out

    def test_docstring_signature_mismatch(self, tmp_path, capsys):
        fixture = write(tmp_path, "broken_tool.py", (
            "from repro.agent.tools import tool\n"
            "@tool()\n"
            "def summarize(text: str) -> str:\n"
            "    '''Summarize.\n\n"
            "    Args:\n"
            "        document: the text.\n"
            "    '''\n"
            "    return text\n"
        ))
        code = main(["lint", "--no-demos", "--no-tools", "--load", fixture])
        assert code == 1
        assert "AG201" in capsys.readouterr().out

    def test_dangling_template_variable(self, tmp_path, capsys):
        fixture = write(tmp_path, "broken_template.py", (
            "from repro.agent.code_tools import CodeTool\n"
            "from repro.agent.tools import ToolParameter\n"
            "shout = CodeTool(\n"
            "    name='shout', summary='Shout.',\n"
            "    template='result = {{ message }} + {{ ghost }}',\n"
            "    parameters=[ToolParameter(name='message',"
            " type_name='string')],\n"
            ")\n"
        ))
        code = main(["lint", "--no-demos", "--no-tools", "--load", fixture])
        assert code == 1
        assert "AG205" in capsys.readouterr().out

    def test_invalid_generated_program(self, tmp_path, capsys):
        fixture = write(tmp_path, "broken_program.py", (
            "import repro as pz\n"
            "dataset = pz.Datasets(source='demo')\n"
            "print(undefined_name)\n"
        ))
        code = main(["lint", "--no-demos", "--no-tools", fixture])
        assert code == 1
        out = capsys.readouterr().out
        assert "CG302" in out
        assert "CG304" in out

    def test_unloadable_fixture_reports_cg306(self, tmp_path, capsys):
        fixture = write(tmp_path, "crashes.py", "raise RuntimeError('no')\n")
        code = main(["lint", "--no-demos", "--no-tools", "--load", fixture])
        assert code == 1
        assert "CG306" in capsys.readouterr().out


class TestShippedArtifactsExitZero:
    def test_examples_lint_clean(self, capsys):
        code = main([
            "lint", "--no-demos", "--no-tools", str(EXAMPLES_DIR),
        ])
        assert code == 0, capsys.readouterr().out

    def test_demos_and_tools_lint_clean(self, demo_data_dir, capsys):
        code = main(["lint", "--data-dir", demo_data_dir])
        assert code == 0, capsys.readouterr().out


class TestFlags:
    def test_disable_suppresses_rule(self, tmp_path, capsys):
        fixture = write(tmp_path, "broken.py", (
            "import repro as pz\nprint(undefined_name)\n"
        ))
        code = main([
            "lint", "--no-demos", "--no-tools", "--disable", "CG304",
            fixture,
        ])
        assert code == 0

    def test_json_format(self, tmp_path, capsys):
        fixture = write(tmp_path, "broken.py", (
            "import repro as pz\nprint(undefined_name)\n"
        ))
        code = main([
            "lint", "--no-demos", "--no-tools", "--format", "json", fixture,
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["diagnostics"][0]["code"] == "CG304"

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("PZ101", "AG201", "CG301"):
            assert code in out

    def test_strict_fails_on_warnings(self, tmp_path):
        fixture = write(tmp_path, "warn_pipeline.py", (
            "from repro.core.dataset import Dataset\n"
            "from repro.core.sources import MemorySource\n"
            "source = MemorySource(['a', 'b'], 'cli-lint-2')\n"
            "pipeline = Dataset(source).limit(1).filter('x')\n"
        ))
        args = ["lint", "--no-demos", "--no-tools", "--load", fixture]
        assert main(args) == 0
        assert main(args + ["--strict"]) == 1


class TestFamilyFilter:
    CC_FIXTURE = (
        "import time\n"
        "def stamp(record):\n"
        "    record.at = time.time()\n"
    )

    def test_family_runs_only_that_family(self, tmp_path, capsys):
        # The fixture breaks a CG rule (undefined name) AND a CC rule
        # (wall clock); --family CC must surface only the CC finding.
        fixture = write(tmp_path, "mixed.py", (
            "import time\n"
            "print(undefined_name)\n"
            "stamp = time.time()\n"
        ))
        code = main([
            "lint", "--no-demos", "--no-tools", "--family", "CC", fixture,
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "CC504" in out
        assert "CG304" not in out

    def test_family_cc_calls_no_other_analyzer(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.analysis import codegen_lint

        fixture = write(tmp_path, "mixed.py", (
            "import time\n"
            "print(undefined_name)\n"
            "stamp = time.time()\n"
        ))
        argv = ["lint", "--no-demos", "--no-tools", fixture]
        assert main(argv) == 1
        cc_lines = [line for line in capsys.readouterr().out.splitlines()
                    if "CC5" in line]
        assert main(argv[:3] + ["--family", "CC"] + argv[3:]) == 1
        expected = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("a disabled family's analyzer ran")

        for module, name in [
            (codegen_lint, "_repro_aliases"), (codegen_lint, "_public_api"),
            (codegen_lint, "_lint_api_usage"),
            (codegen_lint, "_lint_dataset_calls"),
            (codegen_lint, "_ModuleNames"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        assert main(argv[:3] + ["--family", "CC"] + argv[3:]) == 1
        out = capsys.readouterr().out
        assert out == expected
        assert [line for line in out.splitlines() if "CC5" in line] == \
            cc_lines

    def test_family_accepts_multiple(self, tmp_path, capsys):
        fixture = write(tmp_path, "mixed2.py", (
            "import time\n"
            "print(undefined_name)\n"
            "stamp = time.time()\n"
        ))
        code = main([
            "lint", "--no-demos", "--no-tools", "--family", "CC,CG",
            fixture,
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "CC504" in out and "CG304" in out

    def test_unknown_family_exits_2(self, capsys):
        assert main(["lint", "--family", "ZZ"]) == 2
        assert "unknown rule families" in capsys.readouterr().out

    def test_family_cc_clean_on_engine_source(self, capsys):
        src = str(Path(__file__).resolve().parents[1] / "src" / "repro")
        code = main(["lint", "--no-demos", "--no-tools",
                     "--family", "CC", "--strict", src])
        assert code == 0, capsys.readouterr().out

    def test_list_rules_grouped_with_counts(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in ("PZ", "AG", "CG", "CC"):
            assert f"{family} — " in out
        assert "CC504" in out and "CC507" in out
        assert "CC501" not in out and "SV601" not in out
        assert "rules in 4 families" in out

    def test_json_families_block(self, tmp_path, capsys):
        fixture = write(tmp_path, "cc_broken.py", self.CC_FIXTURE)
        code = main([
            "lint", "--no-demos", "--no-tools", "--format", "json",
            fixture,
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["families"]["CC"]["findings"] == 1
        assert payload["families"]["CC"]["errors"] == 1
