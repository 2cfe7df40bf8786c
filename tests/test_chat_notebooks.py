"""Cross-commit pin: a chat session's notebook and program.

``tests/data/chat_notebooks.json`` holds the sha256 of the exported
``.ipynb`` bytes and of ``generated_code()`` for the conversations of
``scripts/make_chat_notebooks.py``, generated before the notebook was
rendered from the session's turn log.  A failure means a conversation's
artifacts moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (Path(__file__).resolve().parent.parent
           / "scripts" / "make_chat_notebooks.py")
_spec = importlib.util.spec_from_file_location("make_chat_notebooks",
                                               _SCRIPT)
notebooks_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(notebooks_script)

GOLDEN = json.loads(notebooks_script.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_conversation():
    assert set(GOLDEN) == set(notebooks_script.CONVERSATIONS)


@pytest.mark.parametrize("name", sorted(notebooks_script.CONVERSATIONS))
def test_artifacts_match_the_pinned_commit(sigmod_demo, name):
    session = notebooks_script.converse(notebooks_script.CONVERSATIONS[name])
    assert notebooks_script.digest(session) == GOLDEN[name]
