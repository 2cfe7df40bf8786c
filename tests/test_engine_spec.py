"""The engine against its one independent spec.

``repro.evaluation.reference.reference_output`` restates every logical
operator over plain lists.  Hypothesis draws random logical plans over a
small source with duplicate titles, a ``None`` and a non-numeric string in
its numeric field.  Every candidate physical plan the optimizer builds for
one runs on every executor schedule:

* with a registry of perfect (``quality=1.0``) models, each run returns
  exactly the reference output;
* with the default registry (plus a small-window model), lossy operators
  included, each run matches the sequential run of the same plan in
  records, per-operator stats and ledger;
* every schedule records the same provenance graph, byte for byte;
* observing a run (trace, provenance, progress listener) changes nothing,
  and a rerun on a warm call cache returns the same records for $0 and
  no tokens;
* every observed run obeys the accounting laws and the trace and
  provenance conventions in :func:`check_laws`.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro as pz
from repro.core.dataset import Dataset
from repro.core.schemas import make_schema
from repro.core.sources import MemorySource
from repro.evaluation.reference import reference_output
from repro.llm.cache import CallCache
from repro.llm.models import ModelCard, ModelRegistry, default_registry
from repro.llm.oracle import DocumentTruth, global_oracle
from repro.obs.provenance import DropReason
from repro.obs.trace import SpanKind
from repro.optimizer.optimizer import Optimizer
from repro.physical.aggregates import AggregateOp, GroupByOp
from repro.physical.converts import _ConvertBase
from repro.physical.filters import EmbeddingFilter, LLMFilter, NonLLMFilter
from repro.physical.joins import _JoinBase
from repro.physical.retrieve import RetrieveOp
from repro.physical.setops import DistinctOp
from repro.physical.structural import LimitOp

sys.path.insert(0, "tests")
from test_execution_pipeline import Clinical, run_plan  # noqa: E402
from test_execution_pipeline import make_source as clinical_source  # noqa: E402

Doc = make_schema(
    "SpecDoc", "A spec document",
    {"title": "The title", "body": "The body",
     "score": pz.NumericField(desc="A score")},
)
Topic = make_schema(
    "SpecTopic", "A document and its topic",
    {"topic": "The main topic of the text"}, base=Doc,
)
Note = make_schema(
    "SpecNote", "One note on a document",
    {"summary": "A one-line summary of a passage"}, base=Doc,
)
Team = make_schema(
    "SpecTeam", "A team", {"title": "The team name", "body": "Its topic"},
)

#: The numeric field holds a None and a non-numeric string.
SCORES = [3, 11, None, 7, "n/a", 2, 11]


def make_source(n):
    rows = []
    for i in range(n):
        body = f"body text {'cancer' if i % 2 else 'garden'} {i}"
        rows.append({"title": f"Document {i % 3}", "body": body,
                     "score": SCORES[i % len(SCORES)]})
        if i % 3 == 0:
            # Registered 1:N instances for some documents; on the rest a
            # perfect model returns the one row its heuristics find.
            global_oracle().register(body, DocumentTruth(
                fields={"__instances__": [{"summary": "body"},
                                          {"summary": f"n{i}"}]},
                difficulty=0.0,
            ))
    return MemorySource(rows, dataset_id=f"spec-{n}", schema=Doc)


#: Under the semantic join's predicate a "cancer" left record matches both
#: right records, and is nearer the second.
RIGHT_DOCS = MemorySource(
    [{"title": "Document 1", "body": "team garden"},
     {"title": "Document 2", "body": "team cancer"}],
    dataset_id="spec-right", schema=Team,
)
UNION_DOCS = MemorySource(
    [{"title": "Document 0", "body": "extra cancer", "score": 5},
     {"title": "Document 9", "body": "extra garden", "score": None}],
    dataset_id="spec-union", schema=Doc,
)

op_strategy = st.one_of(
    st.tuples(st.just("filter_udf"), st.integers(0, 9)),
    st.tuples(st.just("filter"), st.sampled_from(
        ["about cancer", "about gardens"])),
    st.tuples(st.just("convert"), st.sampled_from(["1:1", "1:N", "udf"])),
    st.tuples(st.just("project"), st.sampled_from(
        [["title"], ["title", "score"], ["body", "score"]])),
    st.tuples(st.just("limit"), st.integers(0, 8)),
    st.tuples(st.just("distinct"), st.sampled_from([None, ["title"]])),
    st.tuples(st.just("sort"), st.tuples(
        st.sampled_from(["title", "score"]), st.booleans())),
    st.tuples(st.just("retrieve"), st.integers(1, 4)),
    st.tuples(st.just("union"), st.none()),
    st.tuples(st.just("join"), st.sampled_from(["udf", "semantic"])),
)
terminal_strategy = st.sampled_from(
    [None, "count", "average", "sum", "min", "max", "groupby"])


def _number(value):
    return value if isinstance(value, (int, float)) else -1


def apply_ops(dataset, ops, terminal):
    """Build the drawn plan, skipping ops the current schema cannot take."""
    for kind, param in ops:
        fields = dataset.schema.field_map()
        if kind == "filter_udf":
            dataset = dataset.filter(
                lambda r, t=param: _number(r.get("score")) >= t)
        elif kind == "filter":
            dataset = dataset.filter(param)
        elif kind == "convert" and "body" in fields \
                and not {"topic", "summary"} & set(fields):
            if param == "1:1":
                dataset = dataset.convert(Topic)
            elif param == "1:N":
                dataset = dataset.convert(Note, cardinality="one_to_many")
            else:
                dataset = dataset.convert(
                    Topic, udf=lambda r: {"topic": r.get("title")})
        elif kind == "project":
            keep = [name for name in param if name in fields]
            if keep:
                dataset = dataset.project(keep)
        elif kind == "limit":
            dataset = dataset.limit(param)
        elif kind == "distinct":
            dataset = dataset.distinct(param)
        elif kind == "sort" and param[0] in fields:
            dataset = dataset.sort(param[0], descending=param[1])
        elif kind == "retrieve":
            dataset = dataset.retrieve("cancer", k=param)
        elif kind == "union" and dataset.schema is Doc:
            dataset = dataset.union(Dataset(UNION_DOCS))
        elif kind == "join" and "title" in fields and "body" in fields \
                and "right_title" not in fields:
            right = Dataset(RIGHT_DOCS)
            if param == "udf":
                dataset = dataset.join(
                    right, udf=lambda a, b: a.get("title") == b.get("title"))
            else:
                dataset = dataset.join(right, "about cancer")
    fields = dataset.schema.field_map()
    if terminal == "count":
        dataset = dataset.count()
    elif terminal == "groupby" and "title" in fields:
        aggregates = [("count", None)]
        if "score" in fields:
            aggregates.append(("sum", "score"))
        dataset = dataset.groupby(["title"], aggregates)
    elif terminal not in (None, "groupby") and "score" in fields:
        dataset = getattr(dataset, terminal)("score")
    return dataset


# ----------------------------------------------------------------------
# Registries and schedules.
# ----------------------------------------------------------------------

def _perfect_registry():
    embedder = next(c for c in default_registry().all_cards()
                    if c.is_embedding_model)
    return ModelRegistry([
        ModelCard("perfect-fast", "spec", 0.1, 0.4, overhead_seconds=0.2,
                  quality=1.0),
        ModelCard("perfect-slow", "spec", 2.0, 8.0, overhead_seconds=1.5,
                  quality=1.0),
        embedder,
    ])


PERFECT = _perfect_registry()
#: The operators that lose information by design stay out of the perfect
#: plan space.
PERFECT_OPTIONS = dict(include_token_reduction=False,
                       include_code_synthesis=False,
                       include_embedding_filter=False)

#: The default registry plus one model whose window is smaller than the
#: documents, so the planner offers its map-reduce ChunkedConvert too.
LOSSY = default_registry().copy()
LOSSY.register(ModelCard("small-window", "spec", 0.3, 0.6, quality=0.9,
                         context_window=150))

#: (name, workers or shards, batch size)
SCHEDULES = [
    ("sequential", 1, 1),
    ("parallel", 4, 1),
    ("pipelined", 1, 1), ("pipelined", 1, 8),
    ("pipelined", 4, 1), ("pipelined", 4, 8),
    ("sharded", 2, 1), ("sharded", 2, 8),
    ("sharded", 4, 1), ("sharded", 4, 8), ("sharded", 8, 1),
    ("async", 4, 1),
]


class Run:
    """One run of ``plan``; an observed run is traced, provenance-recorded
    and listened to."""

    def __init__(self, plan, schedule, models, observed=False, cache=None):
        self.plan, self.events = plan, []
        self.records, self.stats, self.context = run_plan(
            plan, *schedule, cache=cache, models=models, traced=observed,
            recorded=observed,
            on_event=self.events.append if observed else None)
        if observed:
            self.trace = self.context.tracer.finish()
            self.graph = self.context.provenance.finalize(self.records)

    def outputs(self):
        return records_view(self.records)

    def fingerprint(self):
        """Everything that must not depend on the schedule."""
        return (
            self.outputs(),
            [(op.records_in, op.records_out, op.llm_calls, op.input_tokens,
              op.output_tokens, round(op.cost_usd, 9))
             for op in self.stats.operator_stats],
            sorted((u.model, u.operation, u.input_tokens, u.output_tokens,
                    round(u.cost_usd, 12))
                   for u in self.context.ledger.records),
        )


def records_view(records):
    """Each record's values and the values along its lineage."""
    return [
        (record.to_dict(), [node.to_json() for node in record.lineage()])
        for record in records
    ]


# ----------------------------------------------------------------------
# The laws every observed run obeys.
# ----------------------------------------------------------------------

#: The drop reason each operator kind gives.
DROP_REASONS = [
    ((NonLLMFilter, LLMFilter, EmbeddingFilter), DropReason.FILTER_REJECTED),
    ((LimitOp,), DropReason.LIMIT_CUTOFF),
    ((_JoinBase,), DropReason.JOIN_NO_MATCH),
    ((AggregateOp, GroupByOp), DropReason.AGGREGATE_FOLD),
    ((RetrieveOp,), DropReason.RETRIEVE_CUTOFF),
    ((DistinctOp,), DropReason.DISTINCT_DUPLICATE),
    ((_ConvertBase,), DropReason.CONVERT_EMPTY),
]


#: Span names are ``layer.action``; kinds come from :class:`SpanKind`.
SPAN_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
SPAN_KINDS = {value for name, value in vars(SpanKind).items()
              if not name.startswith("_")}
#: The attributes the analysis and export layers read off these spans.
REQUIRED_ATTRS = {
    "op.open": {"op"}, "op.process": {"op"}, "op.batch": {"op"},
    "op.close": {"op"}, "op.scan": {"op"},
    "llm.call": {"model", "operation"},
    "pipeline.stage": {"stage", "workers"},
    "pipeline.bundle": {"seq"},
    "plan.run": {"executor"},
}


def drop_reason(op):
    return next((reason for kinds, reason in DROP_REASONS
                 if isinstance(op, kinds)), None)


def check_fates(fates):
    for fate in fates:
        assert fate["status"] != "dangling", fate
        check_fates(fate.get("children", ()))


def check_laws(run):
    stats, trace, graph = run.stats, run.trace, run.graph
    ops = stats.operator_stats
    where = (run.plan.describe(),)

    # Record flow: each operator takes exactly what the previous one made.
    for upstream, downstream in zip(ops, ops[1:]):
        assert upstream.records_out == downstream.records_in, where
    assert ops[-1].records_out == len(run.records) == stats.records_out

    # Calls: operator rows and model rows count the same ledger, and every
    # chat call has a span (embedding calls are billed without one).
    assert sum(op.llm_calls for op in ops) == sum(
        row.calls for row in stats.model_usage) == len(run.context.ledger)
    embedders = {card.name for card in run.context.models.embedding_models()}
    chat_calls = [u for u in run.context.ledger.records
                  if u.model not in embedders]
    assert len(trace.find("llm.call")) == len(chat_calls), where

    # Time: op.* spans reconcile with every downstream operator's row
    # (the scan row also absorbs lane waits; see ROADMAP's pinned warts),
    # and the outermost plan.run span lasts the whole run.
    scan_label = ops[0].op_label
    span_time, stat_time = {}, {}
    for span in trace.spans:
        label = span.attributes.get("op")
        if span.kind == SpanKind.OPERATOR and label != scan_label:
            span_time[label] = span_time.get(label, 0.0) + span.duration
    for op in ops[1:]:
        stat_time[op.op_label] = stat_time.get(op.op_label, 0.0) \
            + op.time_seconds
    assert stat_time.keys() >= span_time.keys(), where
    for label, seconds in stat_time.items():
        assert abs(span_time.get(label, 0.0) - seconds) < 1e-6, (
            where, label)
    root = trace.spans[0]
    assert root.name == "plan.run"
    assert abs(root.duration - stats.total_time_seconds) < 1e-6, where
    # Operator rows (the scan row included) account for every busy
    # lane-second of the clock.
    busy = run.context.clock.total_busy
    assert abs(sum(op.time_seconds for op in ops) - busy) <= 1e-9 * busy

    # Canonical ids and order.
    assert [s.span_id for s in trace.spans] == list(
        range(1, len(trace.spans) + 1))
    assert [n["id"] for n in graph.nodes] == list(
        range(1, len(graph.nodes) + 1))
    assert [e["op"] for e in graph.events] == sorted(
        e["op"] for e in graph.events)
    assert run.events[-1]["type"] == "plan_end"
    assert run.events[-1]["records_out"] == len(run.records)

    # Spans: dotted names, known kinds, the attributes readers rely on.
    for span in trace.spans:
        assert SPAN_NAME.match(span.name), (where, span.name)
        assert span.kind in SPAN_KINDS, (where, span.name)
        assert REQUIRED_ATTRS.get(span.name, set()) <= span.attributes.keys()

    # Provenance: events name live nodes; a drop eliminates one record
    # for its operator's reason; an emit derives at least one child from
    # at least one parent (an empty-input aggregate, folded=0, has none),
    # and a pass-through emit carries evidence.  Every source record has
    # a fate, and every output has a node.
    live = set(range(1, len(graph.nodes) + 1))
    for event in graph.events:
        parents, children = event["parents"], event["children"]
        assert {*parents, *children} <= live, (where, event)
        if event["kind"] == "drop":
            reason = drop_reason(run.plan.operators[event["op"]])
            assert reason and event["reason"] == reason, (where, event)
            assert len(parents) == 1 and not children, (where, event)
        else:
            assert event["kind"] == "emit" and not event["reason"], event
            assert children, (where, event)
            assert parents or event["attrs"].get("folded") == 0, event
            assert parents != children or event["attrs"] or event["llm"], (
                where, event)
    assert set(graph.output_ids) <= live
    for source_id in {node["source_id"] for node in graph.roots()}:
        check_fates(graph.why_not(source_id)["fates"])
    assert len(graph.output_ids) == len(run.records)


def one_per_operator_class(candidates):
    """The first candidate to use each physical operator class: every
    lossy implementation the default registry offers runs, without the
    product of all model choices."""
    chosen, seen = [], set()
    for candidate in candidates:
        kinds = {type(op) for op in candidate.plan}
        if not kinds <= seen:
            chosen.append(candidate)
            seen |= kinds
    return chosen


def check_candidates(candidates, models, expected=None):
    """Run each candidate plan on every schedule; see the module doc."""
    for index, candidate in enumerate(candidates):
        plan = candidate.plan
        runs = [Run(plan, schedule, models, observed=True)
                for schedule in SCHEDULES]
        baseline = runs[0].fingerprint()
        graph = runs[0].graph.to_dict()
        for schedule, run in zip(SCHEDULES, runs):
            check_laws(run)
            assert run.fingerprint() == baseline, (plan.describe(), schedule)
            assert run.graph.to_dict() == graph, (plan.describe(), schedule)
            if expected is not None:
                assert run.outputs() == expected, (plan.describe(), schedule)

        # One schedule per candidate, in rotation: observing changes
        # nothing, and a warm cache answers everything for free.
        schedule = SCHEDULES[index % len(SCHEDULES)]
        observed = runs[index % len(SCHEDULES)]
        plain = Run(plan, schedule, models)
        assert plain.fingerprint() == observed.fingerprint()
        assert plain.stats.to_dict() == observed.stats.to_dict()
        cache = CallCache()
        Run(plan, SCHEDULES[0], models, cache=cache)
        warm = Run(plan, schedule, models, cache=cache)
        assert warm.outputs() == baseline[0], (plan.describe(), schedule)
        assert warm.stats.total_cost_usd == 0
        assert not any(op.input_tokens or op.output_tokens
                       for op in warm.stats.operator_stats)


def check_plan(n_docs, ops, terminal):
    """Build the plan ``apply_ops`` describes over ``make_source(n_docs)``
    and check every candidate of both registries."""
    source = make_source(n_docs)
    dataset = apply_ops(Dataset(source), ops, terminal)
    logical = dataset.logical_plan()
    expected = records_view(reference_output(logical, source))
    perfect = Optimizer(models=PERFECT, **PERFECT_OPTIONS).optimize(
        logical, source).candidates
    check_candidates(perfect, PERFECT, expected)
    lossy = Optimizer(models=LOSSY).optimize(logical, source).candidates
    if len(lossy) > len(perfect):  # the plan has a semantic operator
        check_candidates(one_per_operator_class(lossy), LOSSY)


class TestEngineMatchesSpec:
    @given(st.integers(0, 7), st.lists(op_strategy, max_size=4),
           terminal_strategy)
    @settings(max_examples=20, derandomize=True, deadline=None)
    # Pinned shapes, so each operator kind runs whatever hypothesis draws.
    @example(7, [("union", None), ("distinct", None),
                 ("sort", ("score", True)), ("limit", 5)], None)
    @example(6, [("convert", "udf"), ("distinct", ["title"]),
                 ("join", "udf")], "groupby")
    @example(6, [("filter", "about cancer"), ("limit", 0)], None)
    @example(7, [("filter", "about gardens"), ("convert", "1:N"),
                 ("sort", ("title", True)), ("retrieve", 3)], "groupby")
    @example(7, [("convert", "1:1"), ("sort", ("score", False))],
             "average")
    @example(5, [("filter_udf", 3), ("join", "semantic")], "count")
    def test_every_plan_on_every_schedule(self, n_docs, ops, terminal):
        check_plan(n_docs, ops, terminal)

    def test_a_semantic_filter_passes_records(self):
        # The pinned shapes' semantic filters keep nothing (a limit of 0;
        # no document is about gardens), so one that keeps records is
        # pinned here rather than left to the draws.
        check_plan(4, [("filter", "about cancer"), ("convert", "1:N"),
                       ("retrieve", 2)], None)


class TestSpecStandsAlone:
    def test_reference_imports_no_engine_module(self):
        import repro.evaluation.reference as reference

        tree = ast.parse(Path(reference.__file__).read_text())
        imported = [
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names
        ] + [
            node.module or "" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        ]
        assert not [name for name in imported if name.startswith(
            ("repro.physical", "repro.execution"))]


class TestSpecCases:
    def test_limit_zero_scans_nothing(self):
        for name in ("sequential", "parallel", "pipelined", "sharded",
                     "async"):
            source = clinical_source(n=6, dataset_id="spec-limit0")
            records, stats = pz.Execute(
                Dataset(source).filter("about colorectal cancer")
                .convert(Clinical).limit(0),
                executor=name,
            )
            assert records == []
            assert stats.plan_stats.operator_stats[0].records_in == 0, name
            assert len(stats.plan_stats.model_usage) == 0, name

    def test_retrieve_ties_keep_arrival_order(self):
        # Documents 1 and 3 tie at the same cosine to "cancer"; the
        # descending sort puts Document 3 first.
        source = MemorySource(
            [{"title": f"Document {i}",
              "body": f"body text {'cancer' if i % 2 else 'garden'} {i}",
              "score": i} for i in range(5)],
            dataset_id="spec-ties", schema=Doc,
        )
        dataset = Dataset(source).sort("title", descending=True).retrieve(
            "cancer", k=1)
        expected = reference_output(dataset.logical_plan(), source)
        assert [r.title for r in expected] == ["Document 3"]
        for name in ("sequential", "parallel", "pipelined", "sharded",
                     "async"):
            records, _ = pz.Execute(dataset, executor=name)
            assert [r.to_dict() for r in records] == [
                r.to_dict() for r in expected], name
