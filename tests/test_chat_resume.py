"""The session is its log: resume, restore and old session files.

A chat session's record is its workspace's step log plus its turn log.
These tests hold that a session rebuilt from that record — in-process
through ``from_payload(to_payload())``, or by a ``SessionStore``
restarted on the same root — is the session it was: the same notebook
bytes, the same program, and the same state at every turn ``restore``
returns to.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.agent.tools import ToolError
from repro.chat.codegen import exec_program
from repro.chat.session import PalimpChatSession
from repro.server import SessionStore

DATA = Path(__file__).resolve().parent / "data"

#: The serving benchmark's demo conversation (seed 1), then a parallelism
#: change, a reset, a reload and a run.
SCRIPT = [
    "Load the sigmod-demo dataset",
    "Keep only the papers about colorectal cancer and extract whatever "
    "public dataset is used by the study",
    "Maximize quality and run the pipeline",
    "How much did it cost?",
    "why is record 2 in the output?",
    "what took so long?",
    "show me the generated code",
    "Use 4 workers",
    "reset",
    "Load the sigmod-demo dataset",
    "run the pipeline",
]


def ipynb_bytes(chat, tmp_path, name):
    return chat.export_notebook(tmp_path / f"{name}.ipynb").read_bytes()


def state(chat):
    """What a restore must land on."""
    workspace = chat.workspace
    return (
        workspace.describe_pipeline(),
        workspace.policy.describe(),
        workspace.options,
        workspace.current_run_id,
    )


def live_chat(store, tenant_id, session_id):
    with store.acquire(tenant_id) as tenant:
        return tenant.get_session(session_id).chat


def resume_in_process(live):
    return PalimpChatSession.from_payload(live.to_payload())


@pytest.fixture()
def two_sessions(sigmod_demo, tmp_path):
    """The uninterrupted session, with the notebook it had after each
    turn, and its resume by a restarted store."""
    root = str(tmp_path / "tenants")
    store = SessionStore(root=root, telemetry=False)
    sid = store.ensure_session("acme")["session_id"]
    notebooks = []
    for message in SCRIPT:
        turn = store.run_turn("acme", sid, message)
        assert turn.status == "ok" and "tool error" not in turn.reply, (
            turn.to_dict())
        notebooks.append(ipynb_bytes(live_chat(store, "acme", sid),
                                     tmp_path, "live"))
    reborn = SessionStore(root=root, telemetry=False)
    assert reborn.ensure_session("acme", session_id=sid)["resumed"]
    yield (live_chat(store, "acme", sid), live_chat(reborn, "acme", sid),
           notebooks)
    store.close()
    reborn.close()


class TestResumeIsLossless:
    def test_a_resume_keeps_the_notebook_and_program(self, two_sessions,
                                                     tmp_path):
        live, restarted, notebooks = two_sessions
        assert ipynb_bytes(live, tmp_path, "live") == notebooks[-1]
        assert ipynb_bytes(restarted, tmp_path, "restarted") == notebooks[-1]
        assert restarted.generated_code() == live.generated_code()
        in_process = resume_in_process(live)
        assert ipynb_bytes(in_process, tmp_path, "resumed") == notebooks[-1]
        assert in_process.generated_code() == live.generated_code()

    def test_every_restore_lands_on_the_same_state(self, two_sessions,
                                                   tmp_path):
        live, restarted, notebooks = two_sessions
        in_process = resume_in_process(live)
        for index in reversed(range(len(SCRIPT))):
            states = []
            for name, chat in (("live", live), ("in-process", in_process),
                               ("restarted", restarted)):
                chat.restore(index)
                assert len(chat.turns) == index + 1, name
                assert (ipynb_bytes(chat, tmp_path, name)
                        == notebooks[index]), (name, index)
                states.append(state(chat))
            assert states[1] == states[0] and states[2] == states[0], index

    def test_the_reset_keeps_the_workers_in_the_program(self, two_sessions):
        live = two_sessions[0]
        assert live.workspace.options.max_workers == 4
        code = live.generated_code()
        assert code.count("# Set input dataset") == 1
        assert "max_workers=4" in code
        run = live.last_run
        namespace = exec_program(code)
        stats = namespace["execution_stats"]
        assert [json.loads(r.to_json())
                for r in namespace["records"]] == run.records
        assert round(stats.total_cost_usd, 6) == run.meta["total_cost_usd"]
        assert stats.to_dict() == run.stats


class TestRestore:
    def test_restore_drops_the_later_turns(self, sigmod_demo):
        session = PalimpChatSession()
        first = session.chat("Load the sigmod-demo dataset")
        session.run_code("print('kernel')")
        session.chat("Keep only the papers about colorectal cancer")
        session.restore(first.snapshot_index)
        assert [turn.message for turn in session.turns] == [
            "Load the sigmod-demo dataset"]
        assert len(session.notebook.cells) == 2
        assert len(session.workspace.steps) == 1
        with pytest.raises(IndexError):
            session.restore(1)

    def test_a_raised_turn_keeps_its_message_cell(self, sigmod_demo,
                                                  monkeypatch):
        session = PalimpChatSession()

        def broken(message, state):
            raise RuntimeError("agent down")

        monkeypatch.setattr(session.agent, "run", broken)
        with pytest.raises(RuntimeError):
            session.chat("Load the sigmod-demo dataset")
        resumed = PalimpChatSession.from_payload(session.to_payload())
        for chat in (session, resumed):
            cells = chat.notebook.cells
            assert [c.source for c in cells] == [
                "**User:** Load the sigmod-demo dataset"]
            assert chat.turns[0].text is None


class TestMissingRuns:
    def test_the_error_lists_only_what_the_store_holds(self, sigmod_demo):
        session = PalimpChatSession()
        for message in SCRIPT[:3]:
            session.chat(message)
        resumed = PalimpChatSession()
        resumed.workspace.apply_payload(session.workspace.to_payload())
        get_execution_stats = resumed.registry.get("get_execution_stats")
        with pytest.raises(ToolError) as caught:
            get_execution_stats.invoke({})
        message = str(caught.value)
        assert "known results: <none>" in message
        assert ("['run-1'] were recorded in memory by a session that no "
                "longer holds them") in message


class TestParentSessionFile:
    """A session file written before turn rows carried their step mark:
    its steps refold, and the settings it copied beside them are
    ignored."""

    def test_it_resumes_and_answers_like_before(self, sigmod_demo, tmp_path):
        fixture = DATA / "parent_session"
        expected = json.loads((fixture / "expected.json").read_text())
        root = tmp_path / "tenants"
        # Record the same run the file's session recorded.
        store = SessionStore(root=str(root), telemetry=False)
        sid = store.ensure_session("acme")["session_id"]
        for message in expected["script"]:
            assert store.run_turn("acme", sid, message).status == "ok"
        store.close()
        shutil.copy(fixture / "s-0001.json",
                    root / "acme" / "sessions" / "s-0001.json")

        reborn = SessionStore(root=str(root), telemetry=False)
        row = reborn.ensure_session("acme", session_id="s-0001")
        assert row["resumed"] and row["turns"] == len(expected["script"])
        assert row["pipeline"] == expected["pipeline"]
        assert live_chat(reborn, "acme", "s-0001").workspace.run_ids == (
            expected["run_ids"])
        turn = reborn.run_turn("acme", "s-0001", "How much did it cost?")
        reborn.close()
        assert turn.reply == expected["cost_reply"]
