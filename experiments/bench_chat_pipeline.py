"""E4 (Fig. 4): chat-driven pipeline construction and decomposition.

The figure shows one natural-language request decomposing into a chain of
tool invocations (filter -> schema generation -> convert), followed by
policy selection and execution.  This benchmark replays the full recorded
conversation and asserts the tool chain.
"""

import pytest

from repro.chat.session import PalimpChatSession

FIG4_REQUEST = (
    "I am interested in papers that are about colorectal cancer, and I "
    "would like to extract the dataset name, description and url for any "
    "public dataset used by the study"
)


def run_conversation():
    session = PalimpChatSession()
    turns = [
        session.chat("Load the papers from the sigmod-demo dataset"),
        session.chat(FIG4_REQUEST),
        session.chat("Maximize quality and run the pipeline"),
        session.chat("How much did the LLM invocations cost?"),
    ]
    return session, turns


def test_e4_chat_decomposition(benchmark, sigmod_registered):
    session, turns = benchmark(run_conversation)

    sequences = [t.tool_sequence for t in turns]
    benchmark.extra_info["tool_sequences"] = sequences
    benchmark.extra_info["agent_cost_usd"] = round(
        session.agent_cost_usd(), 4
    )

    # Fig. 3: dataset registration.
    assert sequences[0] == ["load_dataset"]
    # Fig. 4: one request -> three chained tool invocations.
    assert sequences[1] == [
        "filter_dataset", "create_schema", "convert_dataset"
    ]
    # Policy + execution.
    assert sequences[2] == ["set_optimization_target", "execute_pipeline"]
    # Stats query.
    assert sequences[3] == ["get_execution_stats"]

    # The chat-run pipeline reproduces the E1 result.
    assert len(session.last_run.records) == 6
    # The agent's own reasoning was metered (it is an LLM too).
    assert session.agent_cost_usd() > 0


def test_e4_state_restore(benchmark, sigmod_registered):
    """Beaker's 'restore previous notebook states' over a chat session."""

    def run():
        session = PalimpChatSession()
        first = session.chat("Load the papers from the sigmod-demo dataset")
        session.chat("Keep only the papers about colorectal cancer")
        depth_before = len(session.workspace.current.logical_plan())
        session.restore(first.snapshot_index)
        depth_after = len(session.workspace.current.logical_plan())
        return depth_before, depth_after

    depth_before, depth_after = benchmark(run)
    assert depth_before == 2
    assert depth_after == 1
