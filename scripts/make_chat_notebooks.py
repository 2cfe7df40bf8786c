#!/usr/bin/env python
"""Cross-commit pin for the chat session's artifacts.

For three conversations with no reset and no restore, this script digests
(sha256) the exported ``.ipynb`` bytes and ``generated_code()`` of a
:class:`~repro.chat.session.PalimpChatSession`:

* ``e6`` — the three turns of claim E6 (build, then run, the demo
  pipeline);
* ``demo`` — the seven-turn demo conversation of the serving benchmark
  (seed 1) plus two notebook-kernel cells, the second of which raises;
* ``long`` — the first 12 turns of the benchmark's long session (set-up,
  then rounds of run / show records / cost / compare).

``tests/data/chat_notebooks.json`` was generated by this script before
the notebook was rendered from the session's turn log, and is asserted by
``tests/test_chat_notebooks.py``.  Regenerate it only for a change that
*intends* to move one of the pinned artifacts, and say so in the commit:

    PYTHONPATH=src python scripts/make_chat_notebooks.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "data" / "chat_notebooks.json"

LOAD = "Load the sigmod-demo dataset"
BUILD = ("Keep only the papers about colorectal cancer and extract whatever "
         "public dataset is used by the study")
FIRST_RUN = "Maximize quality and run the pipeline"
COST = "How much did it cost?"
LONG_ROUND = ["run the pipeline", "show me the records", COST,
              "what changed since the last run?"]

#: A kernel cell is a ``("code", source)`` pair; any other entry is a
#: chat message.
CONVERSATIONS = {
    "e6": ["Load the papers from the sigmod-demo dataset", BUILD, FIRST_RUN],
    "demo": [
        ("code", "x = 40\nprint(x + 2)"),
        LOAD, BUILD, FIRST_RUN,
        ("code", "print(records_of_a_later_cell)"),
        COST, "why is record 2 in the output?", "what took so long?",
        "show me the generated code",
    ],
    "long": ([LOAD, BUILD, FIRST_RUN] + LONG_ROUND * 3)[:12],
}


def converse(entries):
    """A fresh session that has been through ``entries``."""
    from repro.chat.session import PalimpChatSession

    session = PalimpChatSession()
    for entry in entries:
        if isinstance(entry, tuple):
            try:
                session.run_code(entry[1])
            except Exception:
                pass  # the failed cell is recorded with its error
        else:
            session.chat(entry)
    return session


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(session) -> dict:
    """sha256 of the session's ``.ipynb`` bytes and generated program."""
    with tempfile.TemporaryDirectory(prefix="repro-nb-") as scratch:
        path = session.export_notebook(Path(scratch) / "session.ipynb")
        ipynb = path.read_bytes()
    return {
        "ipynb": _sha(ipynb),
        "code": _sha(session.generated_code().encode("utf-8")),
    }


def compute():
    return {name: digest(converse(entries))
            for name, entries in CONVERSATIONS.items()}


def main() -> int:
    from repro.core.sources import DirectorySource, register_datasource
    from repro.corpora.papers import generate_paper_corpus

    with tempfile.TemporaryDirectory(prefix="repro-papers-") as scratch:
        register_datasource(DirectorySource(
            generate_paper_corpus(Path(scratch)), dataset_id="sigmod-demo"),
            overwrite=True)
        golden = compute()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} conversations to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
