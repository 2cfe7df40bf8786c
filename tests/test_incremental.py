"""Incremental execution: manifests, delta recompute, result handles.

The contract under test: an incremental re-run after a corpus delta —
through any executor, at any worker count, for adds, edits, and drops —
produces *byte-identical* records, statistics, provenance, and traces to
a cold run over the same corpus, while paying fresh LLM cost only for
the delta.  Results are addressed as :class:`ResultHandle`\\ s (id +
schema + count + fingerprint) and sliced on demand; the run registry
prunes by count and byte budget.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro as pz
from repro.core.builtin_schemas import TextFile
from repro.core.dataset import Dataset
from repro.core.schemas import make_schema
from repro.core.sources import MemorySource, global_source_registry
from repro.corpora.scale import (
    SCALE_FIELDS,
    SCALE_PREDICATE,
    generate_scale_source,
    mutate_scale_source,
)
from repro.execution.execute import Execute
from repro.execution.incremental import (
    build_source_manifest,
    delta_impact,
    diff_manifests,
)
from repro.llm.oracle import global_oracle
from repro.llm.replay import _normalize_value
from repro.obs.export import to_plain_json
from repro.obs.registry import ResultHandle, RunRegistry, RunSnapshot
from repro.optimizer.cost_model import CostModel

ScaleNote = make_schema(
    "ScaleNote",
    "Cohort and stage extracted from a clinical note",
    list(SCALE_FIELDS),
    field_descriptions=list(SCALE_FIELDS.values()),
)


def build(source):
    return Dataset(source).filter(SCALE_PREDICATE).convert(ScaleNote)


def run(dataset, executor="sequential", workers=1, **kwargs):
    return Execute(
        dataset,
        policy="quality",
        max_workers=workers,
        executor=executor,
        trace=True,
        provenance=True,
        **kwargs,
    )


def signature(records, stats):
    """Everything the incremental path must reproduce byte-for-byte."""
    return (
        [record.to_json() for record in records],
        json.dumps(stats.to_dict(), sort_keys=True, default=str),
        json.dumps(stats.provenance.to_dict(), sort_keys=True,
                   default=str),
        json.dumps(to_plain_json(stats.trace, metrics=stats.metrics),
                   sort_keys=True, default=str),
    )


# ----------------------------------------------------------------------
# Source manifests and delta detection.
# ----------------------------------------------------------------------

class TestManifests:
    def test_manifest_shape(self):
        source = generate_scale_source(12, seed=21, dataset_id="man-a")
        manifest = build_source_manifest(source)
        assert manifest["count"] == 12
        assert manifest["dataset_id"] == "man-a"
        assert len(manifest["entries"]) == 12
        entry = manifest["entries"][0]
        assert set(entry) == {"key", "fingerprint", "record_fp"}

    def test_manifest_deterministic(self):
        a = build_source_manifest(
            generate_scale_source(10, seed=3, dataset_id="man-b"))
        b = build_source_manifest(
            generate_scale_source(10, seed=3, dataset_id="man-b"))
        assert a == b

    def test_diff_detects_exact_delta(self):
        base = build_source_manifest(
            generate_scale_source(30, seed=7, dataset_id="man-c"))
        live = build_source_manifest(
            mutate_scale_source(30, seed=7, adds=2, edits=3, drops=4,
                                dataset_id="man-c"))
        delta = diff_manifests(base, live)
        assert len(delta.added) == 2
        assert len(delta.changed) == 3
        assert len(delta.dropped) == 4
        assert len(delta.unchanged) == 30 - 3 - 4
        assert delta.total_live == 30 + 2 - 4
        assert not delta.is_empty

    def test_diff_identical_manifests_is_empty(self):
        base = build_source_manifest(
            generate_scale_source(8, seed=9, dataset_id="man-d"))
        delta = diff_manifests(base, base)
        assert delta.is_empty
        assert len(delta.unchanged) == 8

    def test_mutate_is_deterministic(self):
        a = build_source_manifest(
            mutate_scale_source(20, seed=5, adds=1, edits=2, drops=3,
                                dataset_id="man-e"))
        b = build_source_manifest(
            mutate_scale_source(20, seed=5, adds=1, edits=2, drops=3,
                                dataset_id="man-e"))
        assert a == b

    def test_mutate_validates_arguments(self):
        with pytest.raises(ValueError):
            mutate_scale_source(10, edits=6, drops=5)
        with pytest.raises(ValueError):
            mutate_scale_source(10, adds=-1)
        with pytest.raises(ValueError):
            mutate_scale_source(0)


# ----------------------------------------------------------------------
# Byte identity: incremental == cold, across executors and deltas.
# ----------------------------------------------------------------------

GRID = [
    ("sequential", 1),
    ("pipelined", 4),
    ("pipelined", 8),
    ("sharded", 4),
    ("sharded", 8),
]


class TestByteIdentity:
    @pytest.mark.parametrize("executor,workers", GRID)
    def test_identical_across_executors(self, executor, workers):
        n = 40
        dataset_id = f"incr-{executor}-{workers}"
        base_source = generate_scale_source(n, seed=13,
                                            dataset_id=dataset_id)
        base_records, base_stats = run(
            build(base_source), executor=executor, workers=workers,
            capture_calls=True)
        base = RunSnapshot.from_execution("base", base_records, base_stats)

        mutated = mutate_scale_source(
            n, seed=13, adds=2, edits=2, drops=2, dataset_id=dataset_id)
        cold = run(build(mutated), executor=executor, workers=workers)
        incr = run(build(mutated), executor=executor, workers=workers,
                   incremental=True, base_run=base)

        assert signature(*cold) == signature(*incr)
        report = incr[1].incremental
        assert report is not None
        assert report.mode == "replay"
        assert report.replayed_calls > 0
        assert report.fresh_calls > 0
        assert report.fresh_cost_usd < report.reused_cost_usd

    @pytest.mark.parametrize("delta", [
        {"adds": 3},
        {"edits": 3},
        {"drops": 3},
    ])
    def test_identical_per_delta_kind(self, delta):
        n = 30
        kind = next(iter(delta))
        dataset_id = f"incr-kind-{kind}"
        base_source = generate_scale_source(n, seed=17,
                                            dataset_id=dataset_id)
        base_records, base_stats = run(build(base_source),
                                       capture_calls=True)
        base = RunSnapshot.from_execution("base", base_records, base_stats)

        mutated = mutate_scale_source(n, seed=17, dataset_id=dataset_id,
                                      **delta)
        cold = run(build(mutated))
        incr = run(build(mutated), incremental=True, base_run=base)

        assert signature(*cold) == signature(*incr)
        report = incr[1].incremental
        bucket = {"adds": "added", "edits": "changed",
                  "drops": "dropped"}[kind]
        assert report.delta.to_dict()[bucket] == 3

    def test_unchanged_corpus_replays_everything(self):
        source = generate_scale_source(20, seed=19,
                                       dataset_id="incr-same")
        base_records, base_stats = run(build(source), capture_calls=True)
        base = RunSnapshot.from_execution("base", base_records, base_stats)
        records, stats = run(build(source), incremental=True,
                             base_run=base)
        report = stats.incremental
        assert report.delta.is_empty
        assert report.fresh_calls == 0
        assert report.fresh_cost_usd == pytest.approx(0.0)
        assert [json.loads(r.to_json()) for r in records] == base.records

    def test_delta_impact_partitions_base_outputs(self):
        n = 30
        dataset_id = "incr-impact"
        base_source = generate_scale_source(n, seed=23,
                                            dataset_id=dataset_id)
        base_records, base_stats = run(build(base_source),
                                       capture_calls=True)
        manifest = base_stats.source_manifest
        live = build_source_manifest(mutate_scale_source(
            n, seed=23, edits=2, drops=1, dataset_id=dataset_id))
        delta = diff_manifests(manifest, live)
        impact = delta_impact(base_stats.provenance, delta, manifest)
        outputs = base_stats.provenance.output_ids
        assert impact["invalidated_outputs"] >= 0
        assert impact["reusable_outputs"] >= 0
        assert (impact["invalidated_outputs"]
                + impact["reusable_outputs"]) == len(outputs)
        assert impact["touched_nodes"] > 0


# ----------------------------------------------------------------------
# The headline acceptance bar: >= 5x on a ~1% delta.
# ----------------------------------------------------------------------

class TestSpeedup:
    def test_one_percent_delta_is_5x_cheaper(self):
        n = 400
        dataset_id = "incr-speedup"
        base_source = generate_scale_source(n, seed=29,
                                            dataset_id=dataset_id)
        base_records, base_stats = run(build(base_source),
                                       capture_calls=True)
        base = RunSnapshot.from_execution("base", base_records, base_stats)

        mutated = mutate_scale_source(n, seed=29, edits=4,
                                      dataset_id=dataset_id)
        records, stats = run(build(mutated), incremental=True,
                             base_run=base)
        report = stats.incremental
        assert report.mode == "replay"
        assert report.speedup_cost >= 5.0
        assert report.speedup_time >= 5.0
        # Rendered report is the chat/CLI surface.
        text = report.render()
        assert "Incremental execution" in text
        assert "speedup vs cold" in text

    def test_cost_model_prices_incremental(self):
        pricing = CostModel.price_incremental(
            _FakeEstimate(cost_usd=100.0, time_seconds=1000.0),
            total_docs=1000, fresh_docs=10)
        assert pricing.fresh_fraction == pytest.approx(0.01)
        assert pricing.incremental_cost_usd == pytest.approx(1.0)
        assert pricing.incremental_seconds < pricing.cold_seconds
        assert pricing.use_incremental
        # Fully-fresh corpus: nothing to reuse, stay cold.
        cold = CostModel.price_incremental(
            _FakeEstimate(cost_usd=100.0, time_seconds=1000.0),
            total_docs=10, fresh_docs=10)
        assert not cold.use_incremental


class _FakeEstimate:
    def __init__(self, cost_usd, time_seconds):
        self.cost_usd = cost_usd
        self.time_seconds = time_seconds


# ----------------------------------------------------------------------
# Result handles: identity + shape travels, records load on demand.
# ----------------------------------------------------------------------

class TestResultHandles:
    def _snapshot(self, n=10, dataset_id="handle-a"):
        source = generate_scale_source(n, seed=37, dataset_id=dataset_id)
        records, stats = run(build(source))
        return RunSnapshot.from_execution("run-0001", records, stats)

    def test_handle_from_snapshot(self):
        snapshot = self._snapshot()
        handle = snapshot.handle()
        assert handle.result_id == "run-0001"
        assert handle.schema == "ScaleNote"
        assert handle.count == len(snapshot.records)
        assert len(handle) == handle.count
        assert handle.records() == snapshot.records

    def test_slice_windows(self):
        snapshot = self._snapshot()
        handle = snapshot.handle()
        assert handle.slice(0, 2) == snapshot.records[:2]
        assert handle.slice(2, 2) == snapshot.records[2:4]
        assert handle.slice(1) == snapshot.records[1:]
        assert handle.slice(handle.count + 5, 3) == []
        with pytest.raises(ValueError):
            handle.slice(-1)
        with pytest.raises(ValueError):
            handle.slice(0, -2)

    def test_to_dict_carries_no_records(self):
        handle = self._snapshot().handle()
        payload = handle.to_dict()
        assert set(payload) == {"result_id", "schema", "count",
                                "fingerprint"}
        assert "records" not in payload
        assert handle.describe().startswith("result run-0001:")

    def test_registry_round_trip(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        source = generate_scale_source(8, seed=41, dataset_id="handle-b")
        records, stats = run(build(source))
        stored = registry.record(records, stats)
        handle = registry.handle(stored.run_id)
        assert handle.result_id == stored.run_id
        assert handle.count == len(stored.records)
        assert handle.fingerprint == stored.meta["result_fp"]
        assert handle.records() == stored.records
        # Loading is lazy: a meta-only handle resolves before records.
        lazy = registry.handle(stored.run_id)
        assert lazy._records is None
        assert lazy.slice(0, 1) == stored.records[:1]
        assert lazy._records is not None

    def test_same_execution_records_byte_identical_directories(
            self, tmp_path):
        source = generate_scale_source(12, seed=41, dataset_id="handle-c")
        records, stats = run(build(source), capture_calls=True)
        trees = []
        for name in ("a", "b"):
            registry = RunRegistry(str(tmp_path / name))
            run_dir = registry.root / registry.record(records, stats).run_id
            trees.append({path.name: path.read_bytes()
                          for path in run_dir.iterdir()})
        assert len(trees[0]) == 8
        assert trees[0] == trees[1]

    def test_unknown_run_raises(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        with pytest.raises(FileNotFoundError):
            registry.handle("run-9999")


# ----------------------------------------------------------------------
# Registry retention.
# ----------------------------------------------------------------------

class TestPrune:
    def _populate(self, tmp_path, count=4):
        registry = RunRegistry(str(tmp_path / "runs"))
        source = generate_scale_source(6, seed=43, dataset_id="prune-a")
        for _ in range(count):
            records, stats = run(build(source))
            registry.record(records, stats)
        return registry

    def test_keep_last(self, tmp_path):
        registry = self._populate(tmp_path, count=4)
        doomed = registry.prune(keep_last=2)
        assert doomed == ["run-0001", "run-0002"]
        ids = [m["run_id"] for m in registry.list()]
        assert ids == ["run-0003", "run-0004"]
        # Ids keep counting upward after a prune.
        assert registry.next_run_id() == "run-0005"

    def test_max_bytes_keeps_newest(self, tmp_path):
        registry = self._populate(tmp_path, count=3)
        doomed = registry.prune(max_bytes=0)
        assert doomed == ["run-0001", "run-0002"]
        ids = [m["run_id"] for m in registry.list()]
        assert ids == ["run-0003"]

    def test_noop_within_budget(self, tmp_path):
        registry = self._populate(tmp_path, count=2)
        assert registry.prune(keep_last=10) == []
        assert registry.prune(max_bytes=registry.size_bytes()) == []

    def test_validates_arguments(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        with pytest.raises(ValueError):
            registry.prune(keep_last=-1)
        with pytest.raises(ValueError):
            registry.prune(max_bytes=-1)


# ----------------------------------------------------------------------
# CLI: repro runs rerun / prune.
# ----------------------------------------------------------------------

class TestCli:
    def test_runs_rerun_and_prune(self, tmp_path, capsys):
        from repro.cli import main

        runs_dir = str(tmp_path / "runs")
        assert main(["runs", "rerun", "--docs", "40",
                     "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert "recorded base run-0001" in out
        assert "Incremental execution" in out
        assert "mode:              replay" in out
        assert "recorded run-0002" in out

        assert main(["runs", "prune", "--keep-last", "1",
                     "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 run(s): run-0001" in out
        assert [m["run_id"] for m in RunRegistry(runs_dir).list()] == \
            ["run-0002"]

    def test_prune_requires_a_bound(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["runs", "prune",
                     "--runs-dir", str(tmp_path / "runs")]) == 2
        assert "pass --keep-last" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Chat: tool messages carry result ids; "re-run" routes incrementally.
# ----------------------------------------------------------------------

class TestChat:
    def _session(self, dataset_id="chat-incr", n=24):
        from repro.chat.tools_pz import build_pz_tools
        from repro.chat.workspace import PipelineWorkspace

        source = generate_scale_source(n, seed=47, dataset_id=dataset_id)
        global_source_registry().register(source, overwrite=True)
        workspace = PipelineWorkspace()
        tools = build_pz_tools(workspace)

        def call(name, **kwargs):
            return tools.get(name).invoke(kwargs)

        return workspace, call

    def test_execute_message_carries_result_id(self):
        workspace, call = self._session(dataset_id="chat-incr-a")
        call("load_dataset", source="chat-incr-a")
        call("filter_dataset", predicate=SCALE_PREDICATE)
        message = call("execute_pipeline")
        assert "result run-1" in message
        assert workspace.current_run_id is not None
        assert workspace.current_run_id == "run-1"
        # The message references the handle, not inlined records.
        assert "text_contents" not in message

    def test_show_records_slices_by_result_id(self):
        workspace, call = self._session(dataset_id="chat-incr-b")
        call("load_dataset", source="chat-incr-b")
        call("filter_dataset", predicate=SCALE_PREDICATE)
        call("execute_pipeline")
        page = call("show_records", result_id="run-1", offset=2, limit=2)
        assert page.startswith("- [2]")
        assert "result run-1:" in page
        assert "- [2]" in page and "- [3]" in page
        assert "- [0]" not in page
        from repro.agent.tools import ToolError

        with pytest.raises(ToolError):
            call("show_records", result_id="run-99")

    def test_rerun_tool_replays_updated_corpus(self):
        workspace, call = self._session(dataset_id="chat-incr-c")
        call("load_dataset", source="chat-incr-c")
        call("filter_dataset", predicate=SCALE_PREDICATE)
        call("execute_pipeline")
        mutated = mutate_scale_source(24, seed=47, adds=1, edits=1,
                                      drops=1, dataset_id="chat-incr-c")
        global_source_registry().register(mutated, overwrite=True)
        message = call("rerun_pipeline")
        assert "Re-ran pipeline from run-1" in message
        assert "result run-2" in message
        assert "Incremental execution" in message
        assert "replayed" in message

    def test_rerun_intent_routes_before_execute(self):
        from repro.chat.intent import plan_requests
        from repro.chat.workspace import PipelineWorkspace

        workspace = PipelineWorkspace()
        for message in (
            "re-run on the updated corpus",
            "rerun the pipeline",
            "run the pipeline again",
        ):
            plan = plan_requests(message, workspace)
            assert [c.tool_name for c in plan] == ["rerun_pipeline"], \
                message
        plan = plan_requests("run the pipeline", workspace)
        assert [c.tool_name for c in plan] == ["execute_pipeline"]

    def test_workspace_reset_prunes_attached_registry(self, tmp_path,
                                                      monkeypatch):
        import repro.chat.workspace as workspace_module

        monkeypatch.setattr(workspace_module, "KEEP_RUNS", 1)
        workspace, call = self._session(dataset_id="chat-incr-d")
        workspace.runs_dir = str(tmp_path / "runs")
        call("load_dataset", source="chat-incr-d")
        call("filter_dataset", predicate=SCALE_PREDICATE)
        call("execute_pipeline")
        call("execute_pipeline")
        registry = RunRegistry(workspace.runs_dir)
        assert len(registry.list()) == 2
        call("reset_pipeline")
        assert [m["run_id"] for m in registry.list()] == ["run-0002"]
        assert len(workspace.run_ids) == 1
        assert workspace.current_run_id is None


# ----------------------------------------------------------------------
# The document-granular splice: unchanged documents never walk the chain.
# ----------------------------------------------------------------------

def plain_signature(records, stats):
    """:func:`signature` for runs that kept no trace and no provenance."""
    return (
        [record.to_json() for record in records],
        json.dumps(stats.to_dict(), sort_keys=True, default=str),
    )


def captured(stats):
    """What a run hands the next one as its base."""
    return (stats.source_manifest, stats.call_log, stats.journeys)


def note_source(keys, dataset_id, seed=41, texts=None):
    """A keyed corpus of scale notes: document ``key`` holds note number
    ``key`` of the seed (or ``texts[key]``), under filename ``doc-<key>``."""
    from repro.corpora.scale import _note_text, _scale_truth

    items = []
    for key in keys:
        number = (texts or {}).get(key, key)
        relevant = number % 2 == 0
        text = _note_text(number, seed, relevant)
        global_oracle().register(
            text, _scale_truth(number, seed, relevant, 0.0))
        items.append({"filename": f"doc-{key}", "text_contents": text})
    return MemorySource(items, dataset_id=dataset_id, schema=TextFile)


SPLICING = [("sequential", 1), ("parallel", 1), ("parallel", 4)]

DELTAS = {
    "adds": dict(adds=3),
    "edits": dict(edits=3),
    "drops": dict(drops=3),
    "all-three": dict(adds=2, edits=2, drops=2),
    "zero": dict(),
    "everything": dict(edits=24),
}


class TestSplice:
    N = 24

    def _round(self, dataset_id, delta, executor="sequential", workers=1,
               observed=True, pipeline=build, base_kwargs=None, **kwargs):
        """Base run, then cold and incremental runs over the drifted
        corpus; returns (base snapshot, cold, incremental)."""
        flags = dict(executor=executor, max_workers=workers,
                     policy="quality", trace=observed, provenance=observed)
        flags.update(kwargs)
        base_flags = dict(flags, **(base_kwargs or {}))
        base_source = generate_scale_source(
            self.N, seed=43, dataset_id=dataset_id)
        base = RunSnapshot.from_execution("base", *Execute(
            pipeline(base_source), capture_calls=True, **base_flags))
        mutated = mutate_scale_source(
            self.N, seed=43, dataset_id=dataset_id, **delta)
        cold = Execute(pipeline(mutated), capture_calls=True, **flags)
        incr = Execute(pipeline(mutated), incremental=True, base_run=base,
                       **flags)
        return base, cold, incr

    @pytest.mark.parametrize("observed", [True, False],
                             ids=["observed", "plain"])
    @pytest.mark.parametrize("delta", sorted(DELTAS))
    @pytest.mark.parametrize("executor,workers", SPLICING)
    def test_byte_identical_and_every_unchanged_document_spliced(
            self, executor, workers, delta, observed):
        _, cold, incr = self._round(
            f"splice-{executor}-{workers}-{delta}-{observed}",
            DELTAS[delta], executor, workers, observed)
        sign = signature if observed else plain_signature
        assert sign(*cold) == sign(*incr)
        report = incr[1].incremental
        assert report.spliced_docs == len(report.delta.unchanged)
        assert report.executed_docs == report.delta.fresh_docs
        assert (report.replayed_calls + report.fresh_calls
                == cold[1].to_dict()["plan"]["operators"][1]["llm_calls"]
                + cold[1].to_dict()["plan"]["operators"][2]["llm_calls"])
        # The re-run can itself be the base of the next one.
        assert captured(incr[1]) == captured(cold[1])

    def test_report_carries_the_documents_line(self):
        _, _, incr = self._round("splice-report", DELTAS["all-three"])
        report = incr[1].incremental
        assert report.to_dict()["documents"] == {
            "spliced": self.N - 4, "executed": 4}
        assert (f"documents:         {self.N - 4} spliced / 4 executed"
                in report.render())

    def test_progress_events_are_the_cold_runs(self):
        cold_events, incr_events = [], []
        for events, kwargs in ((cold_events, {}), (incr_events, None)):
            if kwargs is None:
                kwargs = dict(incremental=True, base_run=base)
            source = mutate_scale_source(
                self.N, seed=43, edits=2, dataset_id="splice-events")
            records, stats = run(build(source), capture_calls=True,
                                 on_event=events.append, **kwargs)
            base = RunSnapshot.from_execution("base", records, stats)
        assert incr_events == cold_events
        assert [e["index"] for e in incr_events
                if e["type"] == "record_processed"] == \
            list(range(1, self.N + 1))
        assert stats.incremental.spliced_docs == self.N

    @pytest.mark.parametrize("executor,workers", SPLICING)
    def test_reordered_corpus(self, executor, workers):
        """Every later document's timestamps shift; journeys still hold."""
        flags = dict(executor=executor, max_workers=workers,
                     policy="quality", trace=True, provenance=True)
        dataset_id = f"splice-reorder-{executor}-{workers}"
        keys = list(range(16))
        base = RunSnapshot.from_execution("base", *Execute(
            build(note_source(keys, dataset_id)), capture_calls=True,
            **flags))
        shuffled = keys[5:] + keys[:5][::-1]
        cold = Execute(build(note_source(shuffled, dataset_id)), **flags)
        incr = Execute(build(note_source(shuffled, dataset_id)),
                       incremental=True, base_run=base, **flags)
        assert signature(*cold) == signature(*incr)
        assert incr[1].incremental.delta.is_empty
        assert incr[1].incremental.spliced_docs == len(keys)
        assert incr[1].incremental.fresh_calls == 0

    def test_identical_text_under_different_keys(self):
        dataset_id = "splice-twins"
        twins = {1: 0, 3: 0, 5: 2}  # documents 0, 1 and 3 share one text
        keys = list(range(8))
        base = RunSnapshot.from_execution("base", *run(
            build(note_source(keys, dataset_id, texts=twins)),
            capture_calls=True))
        live = [key for key in keys if key != 1] + [9]
        twins[9] = 0  # ... and so does the added one
        cold = run(build(note_source(live, dataset_id, texts=twins)))
        incr = run(build(note_source(live, dataset_id, texts=twins)),
                   incremental=True, base_run=base)
        assert signature(*cold) == signature(*incr)
        report = incr[1].incremental
        assert report.delta.to_dict() == {
            "added": 1, "changed": 0, "dropped": 1, "unchanged": 7}
        assert report.spliced_docs == 7
        # The added twin walks the chain and replays its siblings' calls.
        assert report.fresh_calls == 0

    def test_one_to_many_convert_in_the_prefix(self):
        from repro.core.logical import Cardinality
        from repro.llm.oracle import DocumentTruth

        Mention = make_schema(
            "SpliceMention", "A dataset mention", {"name": "dataset name"})

        def source(count, dataset_id):
            items = []
            for index in range(count):
                text = (f"Survey {index}: compares datasets "
                        f"A-{index}, B-{index} and C-{index}.")
                global_oracle().register(text, DocumentTruth(
                    predicates={"about datasets": True},
                    fields={"name": f"A-{index}", "__instances__": [
                        {"name": f"{letter}-{index}"}
                        for letter in "ABC"[:1 + index % 3]]},
                    difficulty=0.0))
                items.append({"filename": f"survey-{index}",
                              "text_contents": text})
            return MemorySource(items, dataset_id=dataset_id,
                                schema=TextFile)

        def pipeline(src):
            return (Dataset(src).filter("about datasets")
                    .convert(Mention, cardinality=Cardinality.ONE_TO_MANY))

        base = RunSnapshot.from_execution("base", *run(
            pipeline(source(9, "splice-fanout")), capture_calls=True))
        cold = run(pipeline(source(12, "splice-fanout")))
        incr = run(pipeline(source(12, "splice-fanout")),
                   incremental=True, base_run=base)
        assert len(cold[0]) > 12  # the convert really fans out
        assert signature(*cold) == signature(*incr)
        assert incr[1].incremental.spliced_docs == 9
        assert [r.parent.filename for r in incr[0]] == \
            [r.parent.filename for r in cold[0]]

    @pytest.mark.parametrize("executor,workers", SPLICING)
    def test_splice_stops_at_an_aggregate_barrier(self, executor, workers):
        def pipeline(src):
            return build(src).groupby(["stage"], [("count", None)])

        _, cold, incr = self._round(
            f"splice-barrier-{executor}-{workers}", DELTAS["all-three"],
            executor, workers, pipeline=pipeline)
        assert signature(*cold) == signature(*incr)
        assert incr[1].incremental.spliced_docs == self.N - 4
        assert captured(incr[1]) == captured(cold[1])
        # The journeys cover the filter and the convert, not the group-by.
        assert len(incr[1].journeys["prefix"]) == 2

    @pytest.mark.parametrize("executor,workers", SPLICING)
    def test_splice_stops_at_a_limit(self, executor, workers):
        """Post-limit operators run as always, on spliced records too, and
        the source is still abandoned once the limit is met."""
        def pipeline(src):
            return (build(src).limit(5)
                    .filter("The cohort is enrolled in a registry"))

        _, cold, incr = self._round(
            f"splice-limit-{executor}-{workers}", dict(edits=2, drops=1),
            executor, workers, pipeline=pipeline)
        assert signature(*cold) == signature(*incr)
        report = incr[1].incremental
        scanned = incr[1].to_dict()["plan"]["operators"][0]["records_in"]
        assert scanned < self.N - 1
        assert 0 < report.spliced_docs <= scanned
        assert report.spliced_docs + report.executed_docs == scanned
        assert captured(incr[1]) == captured(cold[1])

    @pytest.mark.parametrize("fallback", [
        dict(executor="pipelined", max_workers=4),
        dict(executor="sharded", max_workers=4),
        dict(executor="async", max_workers=4),
        dict(executor="pipelined", max_workers=4, batch_size=8),
    ], ids=["pipelined", "sharded", "async", "batched"])
    def test_other_schedules_fall_back_to_call_replay(self, fallback):
        workers = fallback.pop("max_workers")
        base, cold, incr = self._round(
            f"splice-fallback-{'-'.join(map(str, fallback.values()))}",
            DELTAS["all-three"], workers=workers, **fallback)
        assert base.journeys is None and incr[1].journeys is None
        assert signature(*cold) == signature(*incr)
        report = incr[1].incremental
        assert report.mode == "replay" and report.replayed_calls > 0
        assert report.spliced_docs == 0
        assert report.executed_docs == self.N

    def test_attached_call_cache_falls_back(self):
        from repro.llm.cache import CallCache

        dataset_id = "splice-cache"
        base_source = generate_scale_source(self.N, seed=43,
                                            dataset_id=dataset_id)
        base = RunSnapshot.from_execution("base", *run(
            build(base_source), capture_calls=True))
        assert base.journeys is not None
        mutated = mutate_scale_source(self.N, seed=43, edits=2,
                                      dataset_id=dataset_id)
        cold = run(build(mutated), cache=CallCache())
        incr = run(build(mutated), cache=CallCache(), incremental=True,
                   base_run=base)
        assert signature(*cold) == signature(*incr)
        assert incr[1].incremental.spliced_docs == 0
        assert incr[1].journeys is None

    def test_base_without_journeys_falls_back(self):
        base, cold, _ = self._round("splice-legacy", DELTAS["all-three"])
        legacy = RunSnapshot(base.run_id, base.meta, base.stats,
                             base.records, graph=base.graph,
                             trace=base.trace, manifest=base.manifest,
                             calls=base.calls)
        mutated = mutate_scale_source(self.N, seed=43,
                                      dataset_id="splice-legacy",
                                      **DELTAS["all-three"])
        incr = run(build(mutated), incremental=True, base_run=legacy)
        assert signature(*cold) == signature(*incr)
        report = incr[1].incremental
        assert report.spliced_docs == 0 and report.replayed_calls > 0
        # ... and the re-run recorded journeys for whoever comes next.
        assert captured(incr[1]) == captured(cold[1])

    def test_base_under_another_policy_falls_back(self):
        base, cold, incr = self._round(
            "splice-policy", DELTAS["all-three"],
            base_kwargs=dict(policy="cost"))
        assert base.journeys["prefix"] != incr[1].journeys["prefix"]
        assert signature(*cold) == signature(*incr)
        assert incr[1].incremental.spliced_docs == 0

    def test_base_without_provenance_cannot_serve_a_run_with_it(self):
        base, cold, incr = self._round(
            "splice-unobserved-base", DELTAS["edits"],
            base_kwargs=dict(trace=False, provenance=False))
        assert signature(*cold) == signature(*incr)
        assert incr[1].incremental.spliced_docs == 0
        # The other way round splices: events are simply not replayed.
        base, cold, incr = self._round(
            "splice-observed-base", DELTAS["edits"], observed=False,
            base_kwargs=dict(trace=True, provenance=True))
        assert plain_signature(*cold) == plain_signature(*incr)
        assert incr[1].incremental.spliced_docs == self.N - 3
        assert captured(incr[1]) == captured(cold[1])

    def test_registry_reloaded_base_splices_like_the_in_memory_one(
            self, tmp_path):
        """Field order of a derived record shapes the document text a
        later operator reads when the schema holds no text field, so it
        must survive ``journeys.json`` (written with sorted keys)."""
        Tags = make_schema(
            "SpliceTags", "Stage and cohort, in that order",
            {"stage": "The cancer stage", "cohort": "The cohort name"})

        def pipeline(src):
            return (Dataset(src).filter(SCALE_PREDICATE).convert(Tags)
                    .limit(100).filter("The cohort is in stage II"))

        base, cold, incr = self._round(
            "splice-reload", DELTAS["all-three"], pipeline=pipeline)
        converted = run(Dataset(generate_scale_source(
            4, seed=43, dataset_id="splice-reload")).filter(
            SCALE_PREDICATE).convert(Tags))[0][0]
        assert list(converted._values) == ["stage", "cohort"]
        assert converted.document_text().startswith("I\nSC-43-")
        registry = RunRegistry(str(tmp_path / "runs"))
        registry.save(base)
        reloaded = registry.load(base.run_id)
        assert reloaded.journeys == base.journeys
        mutated = mutate_scale_source(self.N, seed=43,
                                      dataset_id="splice-reload",
                                      **DELTAS["all-three"])
        again = run(pipeline(mutated), incremental=True, base_run=reloaded)
        assert signature(*cold) == signature(*incr) == signature(*again)
        assert (again[1].incremental.to_dict()
                == incr[1].incremental.to_dict())
        assert again[1].incremental.spliced_docs == self.N - 4
        assert captured(again[1]) == captured(cold[1])

    def test_a_rerun_is_the_base_of_the_next(self):
        dataset_id = "splice-chain"
        first = mutate_scale_source(self.N, seed=43, dataset_id=dataset_id)
        second = mutate_scale_source(self.N, seed=43, edits=3,
                                     dataset_id=dataset_id)
        third = mutate_scale_source(self.N, seed=43, adds=2, edits=3,
                                    drops=2, dataset_id=dataset_id)
        base = None
        for number, source in enumerate((first, second, third)):
            cold = run(build(source), capture_calls=True)
            incr = (run(build(source), incremental=True, base_run=base)
                    if base is not None else cold)
            assert signature(*cold) == signature(*incr)
            assert captured(incr[1]) == captured(cold[1])
            base = RunSnapshot.from_execution(f"run-{number}", *incr)
        report = incr[1].incremental
        assert report.spliced_docs == len(report.delta.unchanged) > 0
        assert report.fresh_calls > 0

    def test_udf_in_the_prefix_runs_for_the_delta_only(self):
        seen = []

        def is_note(record):
            seen.append(record.filename)
            return "Clinical note" in record.text_contents

        def pipeline(src):
            return Dataset(src).filter(is_note).filter(
                SCALE_PREDICATE).convert(ScaleNote)

        _, cold, incr = self._round(
            "splice-udf", DELTAS["all-three"], pipeline=pipeline)
        assert signature(*cold) == signature(*incr)
        delta = incr[1].incremental.delta
        # base + cold walked every document; the re-run only the delta.
        assert len(seen) == 2 * self.N + len(delta.added + delta.changed)
        assert seen[2 * self.N:] == sorted(
            delta.added + delta.changed, key=seen[self.N:2 * self.N].index)

    def test_an_edited_udf_is_not_spliced(self):
        from repro.execution.incremental import prefix_identity

        source = generate_scale_source(8, seed=43, dataset_id="splice-edit")

        def keep(record):
            return True
        before = Dataset(source).filter(keep).filter(SCALE_PREDICATE)

        def keep(record):  # noqa: F811 - the user refined the UDF
            return "stage II" in record.text_contents
        after = Dataset(source).filter(keep).filter(SCALE_PREDICATE)

        base = RunSnapshot.from_execution("base", *run(
            before, capture_calls=True))
        cold = run(after)
        incr = run(after, incremental=True, base_run=base)
        assert len(cold[0]) < len(base.records)
        assert signature(*cold) == signature(*incr)
        assert incr[1].incremental.spliced_docs == 0
        assert incr[1].incremental.replayed_calls > 0
        # Same name, same logical signature: only the body tells them apart.
        assert base.journeys["prefix"][0].split("#")[0] == \
            incr[1].journeys["prefix"][0].split("#")[0]
        assert prefix_identity([]) == []

    def test_a_udf_without_readable_code_is_never_spliced(self):
        import functools
        import operator

        has_text = functools.partial(operator.attrgetter("text_contents"))

        def pipeline(src):
            return Dataset(src).filter(has_text).filter(SCALE_PREDICATE)

        _, cold, incr = self._round("splice-opaque", DELTAS["edits"],
                                    pipeline=pipeline)
        assert signature(*cold) == signature(*incr)
        assert incr[1].incremental.spliced_docs == 0
        assert incr[1].incremental.replayed_calls > 0

    def test_a_drifted_context_fraction_is_another_prefix(self):
        """The optimizer sizes an LLMFilter's context fraction from the
        corpus; the operator id does not carry it, the journeys must."""
        from repro.core.logical import FilteredScan, FilterSpec
        from repro.execution.incremental import prefix_identity
        from repro.llm.models import default_registry
        from repro.physical.filters import LLMFilter

        logical = FilteredScan(TextFile, FilterSpec(predicate="relevant"))
        model = default_registry().chat_models()[0]
        whole = LLMFilter(logical, model)
        truncated = LLMFilter(logical, model, context_fraction=0.4)
        assert whole.full_op_id == truncated.full_op_id
        assert prefix_identity([whole]) != prefix_identity([truncated])
        assert prefix_identity([whole]) == prefix_identity(
            [LLMFilter(logical, model)])


class TestEditedDescriptionsRunFresh:
    """What the convert's prompt says besides the field names — field and
    schema descriptions — is part of its calls' identity: after an edit
    the re-run pays for the convert again, like the cold run it must
    equal, and still replays the untouched filter."""

    N = 20
    EDITS = {
        "field": dict(field_descriptions=[
            "Cohort identifier as printed in the note header",
            SCALE_FIELDS["stage"]]),
        "schema": dict(description="One oncology registry note, summarized"),
    }

    @staticmethod
    def _edited(description=ScaleNote.__doc__,
                field_descriptions=tuple(SCALE_FIELDS.values())):
        schema = make_schema("ScaleNote", description, list(SCALE_FIELDS),
                             field_descriptions=list(field_descriptions))
        return lambda source: (
            Dataset(source).filter(SCALE_PREDICATE).convert(schema))

    @pytest.mark.parametrize("edit", sorted(EDITS))
    @pytest.mark.parametrize("executor,workers",
                             [("sequential", 1), ("pipelined", 4)])
    def test_incremental_equals_cold(self, executor, workers, edit):
        dataset_id = f"edited-{edit}-{executor}"
        source = generate_scale_source(self.N, seed=47,
                                       dataset_id=dataset_id)
        base = RunSnapshot.from_execution("base", *run(
            build(source), executor, workers, capture_calls=True))
        edited = self._edited(**self.EDITS[edit])
        cold = run(edited(source), executor, workers)
        incr = run(edited(source), executor, workers, incremental=True,
                   base_run=base)
        assert signature(*cold) == signature(*incr)
        _, judge, convert = cold[1].to_dict()["plan"]["operators"]
        assert convert["llm_calls"] == self.N  # one per field, N/2 pass
        # The quality plan asks one call per field: editing one field's
        # description leaves the other field's prompt as it was.
        stale = convert["llm_calls"] // (2 if edit == "field" else 1)
        report = incr[1].incremental
        assert report.mode == "replay" and report.spliced_docs == 0
        assert report.fresh_calls == stale
        assert report.replayed_calls == (
            judge["llm_calls"] + convert["llm_calls"] - stale)

    def test_unedited_pipeline_still_reuses_everything(self):
        source = generate_scale_source(self.N, seed=47,
                                       dataset_id="edited-none")
        base = RunSnapshot.from_execution("base", *run(
            build(source), capture_calls=True))
        _, stats = run(self._edited()(source), incremental=True,
                       base_run=base)
        assert stats.incremental.fresh_calls == 0
        assert stats.incremental.spliced_docs == self.N


class _Opaque:
    """A value JSON cannot encode (captured as ``str(value)``)."""

    def __init__(self, label):
        self.label = label

    def __str__(self):
        return f"<opaque {self.label}>"


_JSON_KEYS = st.one_of(st.text(max_size=6), st.integers(), st.booleans(),
                       st.none(), st.floats(allow_nan=False))
_CALL_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False), st.text(max_size=8),
              st.builds(_Opaque, st.text(max_size=4))),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(_JSON_KEYS, children, max_size=4),
    ),
    max_leaves=12,
)


class TestReplayTable:
    def test_one_table_per_snapshot_and_identical_reports(self, tmp_path):
        n, dataset_id = 30, "table-a"
        base = RunSnapshot.from_execution("run-0001", *run(
            build(generate_scale_source(n, seed=47, dataset_id=dataset_id)),
            capture_calls=True))
        table = base.replay_table()
        assert len(table) == len(base.calls)
        assert base.replay_table() is table
        registry = RunRegistry(str(tmp_path / "runs"))
        registry.save(base)
        reloaded = registry.load("run-0001")

        def rerun(snapshot):
            mutated = mutate_scale_source(n, seed=47, edits=3,
                                          dataset_id=dataset_id)
            records, stats = run(build(mutated), incremental=True,
                                 base_run=snapshot)
            return signature(records, stats), stats.incremental.to_dict()

        runs = [rerun(base), rerun(base), rerun(reloaded), rerun(reloaded)]
        assert all(result == runs[0] for result in runs[1:])
        # Re-runs read the shared table and leave it alone.
        assert base.replay_table() is table
        assert len(table) == len(base.calls)

    def test_reused_rows_are_carried_over_as_they_are(self):
        n, dataset_id = 20, "table-b"
        base = RunSnapshot.from_execution("run-0001", *run(
            build(generate_scale_source(n, seed=47, dataset_id=dataset_id)),
            executor="pipelined", workers=4, capture_calls=True))
        _, stats = run(build(generate_scale_source(
            n, seed=47, dataset_id=dataset_id)), executor="pipelined",
            workers=4, incremental=True, base_run=base)
        assert stats.call_log == base.calls
        by_key = {tuple(row["key"]): row for row in base.calls}
        assert all(row is by_key[tuple(row["key"])]
                   for row in stats.call_log)

    @given(value=_CALL_VALUES)
    def test_normalize_matches_a_json_round_trip(self, value):
        # Values that skip the round-trip must come out as it would.
        assert _normalize_value(value) == json.loads(
            json.dumps(value, default=str))


class _CountingGraph:
    """A ProvenanceGraph stand-in that counts passes over its events."""

    def __init__(self, roots, events, output_ids):
        self._roots, self._events = roots, events
        self.output_ids = output_ids
        self.passes = 0

    def roots(self):
        return self._roots

    @property
    def events(self):
        self.passes += 1
        return iter(self._events)

    def edges(self):
        self.passes += 1
        return ((e["parents"], e["children"]) for e in self._events)


def _chain_graph(documents, fanout=2):
    """Per document: root -> filter pass-through -> ``fanout`` children,
    each child then converted once more; the last layer is the output."""
    roots, events, outputs, manifest = [], [], [], []
    next_id = documents
    for doc in range(documents):
        roots.append({"id": doc, "fp": f"fp-{doc}"})
        manifest.append({"key": f"doc-{doc}", "fingerprint": f"text-{doc}",
                         "record_fp": f"fp-{doc}"})
        events.append({"parents": [doc], "children": [doc]})
        children = list(range(next_id, next_id + fanout))
        next_id += fanout
        events.append({"parents": [doc], "children": children})
        for child in children:
            events.append({"parents": [child], "children": [next_id]})
            outputs.append(next_id)
            next_id += 1
    return roots, events, outputs, {"entries": manifest}


def _reference_impact(graph, stale_fps):
    """The walk as it was: rescan the events for every popped node."""
    events = list(graph.events)
    frontier = [n["id"] for n in graph.roots() if n["fp"] in stale_fps]
    reached = set(frontier)
    while frontier:
        node = frontier.pop()
        for event in events:
            if node in event["parents"]:
                for child in event["children"]:
                    if child not in reached:
                        reached.add(child)
                        frontier.append(child)
    invalidated = len(set(graph.output_ids) & reached)
    return {"invalidated_outputs": invalidated,
            "reusable_outputs": len(graph.output_ids) - invalidated,
            "touched_nodes": len(reached)}


class TestDeltaImpactScaling:
    def _delta(self, manifest, every):
        from repro.execution.incremental import ManifestDelta

        keys = [entry["key"] for entry in manifest["entries"]]
        stale = keys[::every]
        return ManifestDelta(changed=stale[::2], dropped=stale[1::2],
                             unchanged=[k for k in keys if k not in stale])

    def test_same_partition_as_the_rescanning_walk(self):
        roots, events, outputs, manifest = _chain_graph(12)
        delta = self._delta(manifest, every=3)
        graph = _CountingGraph(roots, events, outputs)
        stale = {f"fp-{key.split('-')[1]}"
                 for key in delta.changed + delta.dropped}
        assert delta_impact(graph, delta, manifest) == \
            _reference_impact(_CountingGraph(roots, events, outputs), stale)

    def test_events_are_read_once_whatever_the_delta(self):
        roots, events, outputs, manifest = _chain_graph(500)
        assert len(events) >= 2000
        delta = self._delta(manifest, every=5)  # a 20 % delta
        graph = _CountingGraph(roots, events, outputs)
        impact = delta_impact(graph, delta, manifest)
        assert graph.passes == 1
        assert impact == {"invalidated_outputs": 200,
                          "reusable_outputs": 800,
                          "touched_nodes": 100 + 200 + 200}
