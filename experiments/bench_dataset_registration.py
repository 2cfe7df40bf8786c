"""E5 (Fig. 3): dataset registration through the chat interface.

"the user instructs PalimpChat to load an input dataset from PDFs of
scientific papers contained in a local folder ... The core PalimpChat
system includes a native PDFfile schema, which is automatically chosen to
parse the files in this dataset given their extension."
"""

import pytest

from repro.chat.session import PalimpChatSession
from repro.core.builtin_schemas import PDFFile
from repro.core.sources import DirectorySource


def test_e5_folder_registration_via_chat(benchmark, papers_dir):
    def run():
        session = PalimpChatSession()
        reply = session.chat(f'Load the papers from "{papers_dir}"')
        return session, reply

    session, reply = benchmark(run)
    benchmark.extra_info["reply"] = reply.text

    assert reply.tool_sequence == ["load_dataset"]
    assert "11 records" in reply.text
    # The native PDFFile schema was auto-chosen from the extension.
    assert "PDFFile" in reply.text
    assert session.workspace.current.schema is PDFFile


def test_e5_record_count_equals_file_count(benchmark, papers_dir):
    def run():
        source = DirectorySource(papers_dir, dataset_id="e5")
        return len(source), sum(1 for _ in source)

    declared, scanned = benchmark(run)
    files = len(list(papers_dir.glob("*.pdf")))
    benchmark.extra_info.update({"files": files, "records": scanned})
    assert declared == scanned == files == 11


def test_e5_text_layer_extracted(benchmark, papers_dir):
    def run():
        source = DirectorySource(papers_dir, dataset_id="e5b")
        return list(source)

    records = benchmark(run)
    # Every parsed PDF has a non-trivial text layer and a page count.
    for record in records:
        assert len(record.text_contents) > 500
        assert record.page_count >= 1
