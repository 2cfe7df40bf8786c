"""E6 (Fig. 6): fidelity of the generated Palimpzest program.

"The final code generated can be seen in Figure 6 ... users may continue to
iterate on the code produced either through the chat interface or by
downloading a Jupyter notebook."  The generated program must (a) contain the
Fig. 6 pipeline stages and (b) re-execute to the same result as the chat run.
"""

import json

import pytest

from repro.chat.codegen import exec_program
from repro.chat.session import PalimpChatSession


def build_session():
    session = PalimpChatSession()
    session.chat("Load the papers from the sigmod-demo dataset")
    session.chat(
        "Keep only the papers about colorectal cancer and extract whatever "
        "public dataset is used by the study"
    )
    session.chat("Maximize quality and run the pipeline")
    return session


def test_e6_generated_code_matches_fig6(benchmark, sigmod_registered):
    session = build_session()

    def run():
        return session.generated_code()

    code = benchmark(run)
    benchmark.extra_info["generated_code"] = code

    # The Fig. 6 structure: input dataset, filter, dynamic schema,
    # one-to-many convert, MaxQuality execute.
    assert "pz.Dataset(source='sigmod-demo')" in code
    assert "dataset.filter(" in code
    assert "pz.make_schema(" in code
    assert "pz.Cardinality.ONE_TO_MANY" in code
    assert "policy = pz.MaxQuality()" in code
    assert "records, execution_stats = pz.Execute(dataset, policy=policy)" \
        in code


def test_e6_reexecution_equivalence(benchmark, sigmod_registered):
    session = build_session()
    chat_names = sorted(r["name"] for r in session.last_run.records)

    def run():
        return exec_program(session.generated_code())

    namespace = benchmark(run)
    regenerated = sorted(r.name for r in namespace["records"])
    benchmark.extra_info.update({
        "chat_records": chat_names,
        "reexecuted_records": regenerated,
    })
    assert regenerated == chat_names
    assert namespace["execution_stats"].records_out == 6


def test_e6_notebook_download(benchmark, sigmod_registered, tmp_path):
    session = build_session()

    def run():
        return session.export_notebook(tmp_path / "session.ipynb")

    path = benchmark(run)
    data = json.loads(path.read_text())
    assert data["nbformat"] == 4
    code_cells = [
        c for c in data["cells"] if c["cell_type"] == "code"
    ]
    assert code_cells, "the notebook must contain the generated snippets"
