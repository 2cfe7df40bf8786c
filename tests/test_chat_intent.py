"""The deterministic NL -> tool-call planner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chat.intent import PalimpChatBrain, plan_requests
from repro.chat.workspace import PipelineWorkspace


@pytest.fixture()
def workspace():
    return PipelineWorkspace()


def tool_names(message, workspace):
    return [c.tool_name for c in plan_requests(message, workspace)]


class TestLoadIntent:
    def test_quoted_path(self, workspace):
        calls = plan_requests('load the files from "./papers"', workspace)
        assert calls[0].tool_name == "load_dataset"
        assert calls[0].arguments == {"source": "./papers"}

    def test_path_token(self, workspace):
        calls = plan_requests("upload data/papers please", workspace)
        assert calls[0].arguments["source"] == "data/papers"

    def test_registered_dataset_id(self, workspace):
        from repro.core.sources import MemorySource, register_datasource

        register_datasource(
            MemorySource(["x"], dataset_id="intent-demo"), overwrite=True
        )
        calls = plan_requests(
            "please load the intent-demo dataset", workspace
        )
        assert calls[0].arguments["source"] == "intent-demo"


class TestFilterIntent:
    def test_about_phrasing(self, workspace):
        calls = plan_requests(
            "keep only the papers about colorectal cancer", workspace
        )
        assert calls[0].tool_name == "filter_dataset"
        assert (
            calls[0].arguments["predicate"]
            == "The documents are about colorectal cancer"
        )

    def test_that_are_about_phrasing(self, workspace):
        calls = plan_requests(
            "I am interested in papers that are about colorectal cancer",
            workspace,
        )
        assert (
            calls[0].arguments["predicate"]
            == "The documents are about colorectal cancer"
        )

    def test_trailing_request_trimmed(self, workspace):
        calls = plan_requests(
            "filter for papers about lung cancer, and I would like a report",
            workspace,
        )
        assert calls[0].arguments["predicate"].endswith("lung cancer")


class TestExtractIntent:
    def test_field_list_parsed(self, workspace):
        calls = plan_requests(
            "extract the dataset name, description and url for any public "
            "dataset used by the study",
            workspace,
        )
        assert [c.tool_name for c in calls] == [
            "create_schema", "convert_dataset"
        ]
        schema_args = calls[0].arguments
        assert schema_args["field_names"] == [
            "dataset_name", "description", "url"
        ]
        assert calls[1].arguments["cardinality"] == "one_to_many"

    def test_default_dataset_fields(self, workspace):
        calls = plan_requests(
            "extract whatever public dataset is used by the study",
            workspace,
        )
        assert calls[0].arguments["schema_name"] == "ClinicalData"
        assert calls[0].arguments["field_names"] == [
            "name", "description", "url"
        ]

    def test_singular_extraction_one_to_one(self, workspace):
        calls = plan_requests(
            "extract the title from the paper", workspace
        )
        assert calls[1].arguments["cardinality"] == "one_to_one"

    def test_explicit_schema_name(self, workspace):
        calls = plan_requests(
            "create a schema called Contract and extract the buyer and "
            "seller",
            workspace,
        )
        schema_calls = [c for c in calls if c.tool_name == "create_schema"]
        assert any(
            c.arguments["schema_name"] == "Contract" for c in schema_calls
        )


class TestOtherIntents:
    @pytest.mark.parametrize("message,target", [
        ("maximize quality please", "quality"),
        ("minimize the cost", "cost"),
        ("optimize for runtime", "runtime"),
        ("minimise time", "runtime"),
    ])
    def test_policy(self, workspace, message, target):
        calls = plan_requests(message, workspace)
        assert calls[0].tool_name == "set_optimization_target"
        assert calls[0].arguments["target"] == target

    def test_execute(self, workspace):
        assert tool_names("run the pipeline", workspace) == [
            "execute_pipeline"
        ]

    def test_stats_question(self, workspace):
        assert tool_names(
            "how much did the LLM invocations cost?", workspace
        ) == ["get_execution_stats"]

    def test_runtime_question(self, workspace):
        assert "get_execution_stats" in tool_names(
            "how long did the workload take?", workspace
        )

    def test_show_records(self, workspace):
        assert tool_names("show the extracted records", workspace) == [
            "show_records"
        ]

    def test_export_code(self, workspace):
        assert "generate_code" in tool_names(
            "can I download the notebook?", workspace
        )

    def test_reset(self, workspace):
        assert tool_names("reset and start over", workspace) == [
            "reset_pipeline"
        ]

    def test_unrecognized_returns_empty(self, workspace):
        assert plan_requests("hello there!", workspace) == []


class TestMultiIntent:
    def test_fig4_style_request_decomposes(self, workspace):
        message = (
            "I am interested in papers that are about colorectal cancer, "
            "and I would like to extract the dataset name, description and "
            "url for any public dataset used by the study"
        )
        assert tool_names(message, workspace) == [
            "filter_dataset", "create_schema", "convert_dataset"
        ]

    def test_policy_and_run_in_one_message(self, workspace):
        assert tool_names("maximize quality and run the pipeline",
                          workspace) == [
            "set_optimization_target", "execute_pipeline"
        ]

    def test_order_follows_message(self, workspace):
        names = tool_names(
            "run the pipeline and then show the results", workspace
        )
        assert names == ["execute_pipeline", "show_records"]


class TestBrain:
    def test_brain_replays_plan_then_summarizes(self, workspace):
        from repro.agent.react import BrainContext, AgentTrace, ToolCall as TC

        brain = PalimpChatBrain(workspace)
        state = {}
        trace = AgentTrace()
        context = BrainContext(
            user_message="run the pipeline",
            registry=None, trace=trace, state=state,
        )
        first = brain.decide(context)
        assert isinstance(first, TC)
        assert first.tool_name == "execute_pipeline"
        second = brain.decide(context)
        from repro.agent.react import FinalAnswer

        assert isinstance(second, FinalAnswer)

    def test_brain_helps_on_unrecognized(self, workspace):
        from repro.agent.react import AgentTrace, BrainContext, FinalAnswer

        brain = PalimpChatBrain(workspace)
        decision = brain.decide(BrainContext(
            user_message="what's the weather?",
            registry=None, trace=AgentTrace(), state={},
        ))
        assert isinstance(decision, FinalAnswer)
        assert "pipeline" in decision.answer.lower() or "load" in (
            decision.answer.lower()
        )


class TestExplainIntent:
    def test_explain_plans_recognized(self, workspace):
        assert tool_names("explain the plans you considered", workspace) == [
            "explain_plans"
        ]

    def test_which_plan_phrasing(self, workspace):
        assert "explain_plans" in tool_names(
            "which plan will you use?", workspace
        )


class TestLoadWithoutSource:
    def test_falls_back_to_listing_datasets(self, workspace):
        calls = plan_requests("load my dataset please", workspace)
        assert [c.tool_name for c in calls] == ["list_datasets"]


class TestParallelismIntent:
    def test_explicit_worker_count(self, workspace):
        calls = plan_requests("use 8 workers please", workspace)
        assert calls[0].tool_name == "set_parallelism"
        assert calls[0].arguments == {"workers": 8}

    def test_in_parallel_defaults_to_four(self, workspace):
        calls = plan_requests("run the pipeline in parallel", workspace)
        names = [c.tool_name for c in calls]
        assert "set_parallelism" in names
        assert "execute_pipeline" in names
        parallel_call = next(
            c for c in calls if c.tool_name == "set_parallelism"
        )
        assert parallel_call.arguments["workers"] == 4


def planned(message):
    """``message``'s plan as (tool, arguments) pairs."""
    return [(call.tool_name, call.arguments)
            for call in plan_requests(message, PipelineWorkspace())]


def keyed(plan, expected):
    """``plan`` cut down to the tools and argument keys of ``expected``."""
    return [(tool, {k: arguments.get(k) for k in keys})
            for (tool, arguments), (_, keys) in zip(plan, expected)]


COST = {"target": "cost"}

# Phrasings the parser used to misplan, each with its whole plan.
@pytest.mark.parametrize("message,expected", [
    ("Run it with 4 workers",
     [("set_parallelism", {"workers": 4}), ("execute_pipeline", {})]),
    ("Execute it in parallel",
     [("set_parallelism", {"workers": 4}), ("execute_pipeline", {})]),
    ("Run it using the pipelined executor with batch size 8",
     [("set_execution_mode", {"executor": "pipelined", "batch_size": 8}),
      ("execute_pipeline", {})]),
    ("Run the pipeline with the sharded executor and 4 shards",
     [("set_execution_mode", {"executor": "sharded", "shards": 4}),
      ("execute_pipeline", {})]),
    ("Extract the dataset name, description and url, then keep only the "
     "papers about colorectal cancer",
     [("filter_dataset",
       {"predicate": "The documents are about colorectal cancer"}),
      ("create_schema",
       {"field_names": ["dataset_name", "description", "url"]}),
      ("convert_dataset", {})]),
    ("run the pipeline with minimal cost",
     [("set_optimization_target", COST), ("execute_pipeline", {})]),
    ("Run the pipeline as cheaply as possible",
     [("set_optimization_target", COST), ("execute_pipeline", {})]),
    ("run the pipeline minimizing cost",
     [("set_optimization_target", COST), ("execute_pipeline", {})]),
    ("run the pipeline as fast as possible",
     [("set_optimization_target", {"target": "runtime"}),
      ("execute_pipeline", {})]),
    ("run the pipeline with the best quality",
     [("set_optimization_target", {"target": "quality"}),
      ("execute_pipeline", {})]),
    ("Only keep papers that discuss colorectal cancer",
     [("filter_dataset",
       {"predicate": "Documents that discuss colorectal cancer"})]),
    ("Only keep papers which mention colorectal cancer",
     [("filter_dataset",
       {"predicate": "Documents that mention colorectal cancer"})]),
    # An anchor's gap stops at a clause break: "use ... dataset" is not a
    # load, "explain ... the last run" not a question about the run.
    ("use 4 workers and extract the dataset name",
     [("set_parallelism", {"workers": 4}),
      ("create_schema", {"field_names": ["dataset_name"]}),
      ("convert_dataset", {})]),
    ("explain the plans, what changed since the last run",
     [("explain_plans", {}), ("compare_runs", {})]),
    ("why was paper_07.pdf dropped",
     [("explain_record", {"source": "paper_07.pdf"})]),
    ("extract the dataset name and then switch to the pipelined executor",
     [("create_schema", {"field_names": ["dataset_name"]}),
      ("convert_dataset", {}),
      ("set_execution_mode", {"executor": "pipelined"})]),
])
def test_misplanned_phrasing(message, expected):
    plan = planned(message)
    assert len(plan) == len(expected) and keyed(plan, expected) == expected


# Phrasings the hoist and the clause breaks leave as the parser always
# planned them: a modifier said as its own clause before a later action
# stays there, nothing moves across a reset, a noun conjunction does not
# end an anchor, and an anchor spans a line break.
@pytest.mark.parametrize("message,expected", [
    ("Maximize quality and run the pipeline, then minimize cost and run it "
     "again",
     [("set_optimization_target", {"target": "quality"}),
      ("execute_pipeline", {}), ("set_optimization_target", COST),
      ("rerun_pipeline", {})]),
    ("run the pipeline and use 4 workers and re-run the pipeline",
     [("execute_pipeline", {}), ("set_parallelism", {"workers": 4}),
      ("rerun_pipeline", {})]),
    ("create a schema called Contract, start over, keep only papers about "
     "lung cancer",
     [("create_schema", {"schema_name": "Contract"}), ("reset_pipeline", {}),
      ("filter_dataset",
       {"predicate": "The documents are about lung cancer"})]),
    ("check the filter and convert pipeline", [("lint_pipeline", {})]),
    ("explain the\nlast run", [("explain_execution", {})]),
    ('use the\n"papers" folder', [("load_dataset", {"source": "papers"})]),
])
def test_kept_phrasing(message, expected):
    plan = planned(message)
    assert len(plan) == len(expected) and keyed(plan, expected) == expected


DEMO = [
    ("Load the sigmod-demo dataset", ["load_dataset"]),
    ("Keep only the papers about colorectal cancer and extract whatever "
     "public dataset is used by the study",
     ["filter_dataset", "create_schema", "convert_dataset"]),
    ("Maximize quality and run the pipeline",
     ["set_optimization_target", "execute_pipeline"]),
    ("How much did it cost?", ["get_execution_stats"]),
    ("what took so long?", ["explain_execution"]),
    ("show me the generated code", ["show_records", "generate_code"]),
] + [(f"why is record {n} in the output?", ["explain_record"])
     for n in range(1, 7)]
LONG_ROUND = [
    ("run the pipeline", ["execute_pipeline"]),
    ("show me the records", ["show_records"]),
    ("what changed since the last run?", ["compare_runs"]),
]
E4 = [
    ("Load the papers from the sigmod-demo dataset", ["load_dataset"]),
    ("I am interested in papers that are about colorectal cancer, and I "
     "would like to extract the dataset name, description and url for "
     "any public dataset used by the study",
     ["filter_dataset", "create_schema", "convert_dataset"]),
    ("How much did the LLM invocations cost?", ["get_execution_stats"]),
    ("Keep only the papers about colorectal cancer", ["filter_dataset"]),
]


# The serving benchmark's demo and long-session scripts, claim E4's turns
# and the pinned notebook conversations (which reuse those strings); they
# plan as they did before the intent table.
@pytest.mark.parametrize("message,tools", DEMO + LONG_ROUND + E4)
def test_fixed_point(sigmod_demo, message, tools):
    assert [tool for tool, _ in planned(message)] == tools


# ---------------------------------------------------------------------------
# The phrasing generator: every row of the intent table, said six ways.
# ---------------------------------------------------------------------------

def _policy(target, phrase, after):
    return phrase, after, [("set_optimization_target", {"target": target})]


def _schema(fields, cardinality, phrase):
    return phrase, None, [("create_schema", {"field_names": fields}),
                          ("convert_dataset", {"cardinality": cardinality})]


def _fixed(tool, *phrases):
    return [(phrase, None, [(tool, {})]) for phrase in phrases]


DATASET_FIELDS = ["dataset_name", "description", "url"]

#: intent -> its phrasings: (phrase, the phrase after its verb for a
#: modifier, [(tool, key arguments)] it plans).
PHRASES = {
    "load": [
        ("load the papers from ./papers", None,
         [("load_dataset", {"source": "./papers"})]),
        ('load the files from "./papers"', None,
         [("load_dataset", {"source": "./papers"})])],
    "filter": [
        (f"{lead} colorectal cancer", None,
         [("filter_dataset", {"predicate": predicate + " colorectal cancer"})])
        for lead, predicate in (
            ("keep only the papers about", "The documents are about"),
            ("only keep papers that discuss", "Documents that discuss"),
            ("only keep papers which mention", "Documents that mention"))],
    "schema": [("create a schema called Contract", None,
                [("create_schema", {"schema_name": "Contract"})])],
    "extract": [
        _schema(DATASET_FIELDS, "one_to_one",
                "extract the dataset name, description and url"),
        _schema(DATASET_FIELDS, "one_to_many",
                "extract the dataset name, description and url for any "
                "public dataset used by the study"),
        _schema(["name", "description", "url"], "one_to_many",
                "extract whatever public dataset is used by the study")],
    "policy": [
        _policy("cost", "minimize cost", "as cheaply as possible"),
        _policy("quality", "maximize quality", "with the best quality"),
        _policy("runtime", "minimize runtime", "as fast as possible"),
        _policy("cost", "minimize cost", "with minimal cost"),
        _policy("cost", "minimize cost", "minimizing cost")],
    "explain_run": _fixed("explain_execution", "what took so long",
                          "explain the last run"),
    "why_not": [
        (phrase, None, [("explain_record", {"source": "paper_07.pdf"})])
        for phrase in ("why isn't paper_07.pdf in the output",
                       "why was paper_07.pdf dropped")],
    "why_record": [("why is record 3 in the output", None,
                    [("explain_record", {"record_id": 3})])],
    "compare_runs": _fixed("compare_runs", "what changed since the last run"),
    "rerun": _fixed("rerun_pipeline", "re-run the pipeline", "run it again",
                    "re-run it on the updated corpus"),
    "execute": _fixed("execute_pipeline", "run the pipeline", "execute it"),
    "stats": _fixed("get_execution_stats", "how much did it cost",
                    "how long did it take"),
    "show": _fixed("show_records", "show the results", "show me the records"),
    "code": _fixed("generate_code", "export the notebook"),
    "workers": [
        ("use 4 workers", "with 4 workers",
         [("set_parallelism", {"workers": 4})]),
        ("use 8 workers", "with 8 workers",
         [("set_parallelism", {"workers": 8})]),
        ("use 4 workers", "in parallel",
         [("set_parallelism", {"workers": 4})])],
    "executor": [
        ("switch to the pipelined executor with batch size 8",
         "using the pipelined executor with batch size 8",
         [("set_execution_mode",
           {"executor": "pipelined", "batch_size": 8})]),
        ("use the sharded executor with 4 shards",
         "with the sharded executor and 4 shards",
         [("set_execution_mode", {"executor": "sharded", "shards": 4})])],
    "explain": _fixed("explain_plans", "explain the plans"),
    "lint": _fixed("lint_pipeline", "lint the pipeline",
                   "check the pipeline for problems"),
    "reset": _fixed("reset_pipeline", "start over", "reset the pipeline"),
    "list": _fixed("list_datasets", "which datasets are there"),
    "describe": _fixed("describe_pipeline", "describe the pipeline"),
}

ACTIONS = ("execute", "rerun")
MODIFIERS = ("policy", "workers", "executor")
JOINERS = {"sentences": " ", "commas": ", ", "and": " and ",
           "and then": " and then ", "semicolons": "; ", "after verb": ", "}
STYLES = tuple(JOINERS)
CONNECTORS = {"and", "then", "also", "next", "afterwards"}


def spoken(intents, style):
    """The order in which ``render`` says ``intents`` in ``style``.

    In the "after verb" style every modifier follows the first action
    ("run the pipeline with 4 workers"); otherwise the order is as given.
    """
    actions = [i for i in intents if i in ACTIONS]
    if style != "after verb" or not actions:
        return list(intents)
    rest = [i for i in intents if i not in MODIFIERS]
    cut = rest.index(actions[0]) + 1
    return rest[:cut] + [i for i in intents if i in MODIFIERS] + rest[cut:]


def phrasing(intent, variant):
    variants = PHRASES[intent]
    return variants[variant % len(variants)]


def render(intents, style, variant=0):
    """One utterance that asks for ``intents`` in ``style``."""
    after_verb = style == "after verb" and any(i in ACTIONS for i in intents)
    pieces = []
    for intent in spoken(intents, style):
        phrase, after, _ = phrasing(intent, variant)
        if after_verb and intent in MODIFIERS:
            pieces[-1] += " " + after
        else:
            pieces.append(phrase)
    if style == "sentences":
        pieces = [p[0].upper() + p[1:] + "." for p in pieces]
    return JOINERS[style].join(pieces)


BEFORE = {**{m: ACTIONS for m in MODIFIERS}, "filter": ("schema", "extract")}


def hoisted(order, attached):
    """Planning order.  A run of modifiers of one kind moves just ahead of
    the target said right before it, unless an action also follows the
    run and the run is its own clause (``attached`` is the "after verb"
    style, where modifiers share the clause of their action).  The rest
    keeps the order said."""
    order, k = list(order), 0
    while k < len(order):
        targets, end = BEFORE.get(order[k]), k
        while end < len(order) and BEFORE.get(order[end]) == targets:
            end += 1
        if targets and k and order[k - 1] in targets and (
                (attached and order[k] in MODIFIERS)
                or end == len(order) or order[end] not in targets):
            order[k - 1:end] = order[k:end] + [order[k - 1]]
        k = end
    return order


def check_phrasing(intents, style, variant):
    """The generator's laws for one drawn utterance."""
    from repro.chat.intent import INTENTS

    assert set(PHRASES) == {row.name for row in INTENTS}
    message = render(intents, style, variant)
    plan = planned(message)
    attached = style == "after verb" and any(i in ACTIONS for i in intents)
    order = hoisted(spoken(intents, style), attached)
    # The planner drops a call that repeats the one before it.
    expected = [call for k, intent in enumerate(order)
                if not k or order[k - 1] != intent
                for call in phrasing(intent, variant)[2]]
    assert len(plan) == len(expected), message
    assert keyed(plan, expected) == expected, message
    for _, arguments in plan:
        for field in arguments.get("field_names", ()):
            assert not CONNECTORS & set(field.split("_")), message


# An intent may come back ("run it, then minimize cost and run it again"),
# but not straight after itself.
UTTERANCES = st.lists(st.sampled_from(sorted(PHRASES)), min_size=1,
                      max_size=4).map(
    lambda xs: [x for k, x in enumerate(xs) if not k or xs[k - 1] != x])


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(UTTERANCES, st.sampled_from(STYLES), st.integers(0, 4))
def test_phrasing_grid(intents, style, variant):
    check_phrasing(intents, style, variant)
