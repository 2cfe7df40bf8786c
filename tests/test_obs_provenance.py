"""Record-level provenance: graph semantics, explanations, registry.

Covers the per-operator event contract (which drops carry which reasons
and evidence), the ``why``/``why_not`` explanation API, serialization
round-trips, and the persistent run registry with its three-way diff.
"""

import json
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.builtin_schemas import TextFile
from repro.core.dataset import Dataset
from repro.core.sources import MemorySource
from repro.execution.execute import Execute
from repro.llm.oracle import DocumentTruth, global_oracle
from repro.obs import (
    DROP_REASONS,
    DropReason,
    ProvenanceError,
    ProvenanceGraph,
    RunRegistry,
    RunSnapshot,
    diff_runs,
    render_why,
    render_why_not,
)
from repro.obs.columns import TRACE_COLUMNS_FORMAT, plain_trace
from repro.obs.registry import RunStore

sys.path.insert(0, "tests")
from test_execution_pipeline import Clinical, make_source

PARENT_RUNS = Path(__file__).parent / "data" / "parent_runs"


def make_mixed_source(dataset_id, n=6):
    """Half the documents fail the filter predicate."""
    docs = []
    for i in range(n):
        relevant = i % 2 == 0
        topic = "colorectal cancer" if relevant else "galaxy formation"
        text = (
            f"Mixed record {i} about {topic}. "
            f"The Mix-{i} dataset is at https://example.org/mix/{i}."
        )
        docs.append(text)
        global_oracle().register(
            text,
            DocumentTruth(
                predicates={"about colorectal cancer": relevant},
                fields={"name": f"Mix-{i}", "score": str(i % 2)},
                difficulty=0.0,
            ),
        )
    return MemorySource(docs, dataset_id=dataset_id, schema=TextFile)


def recorded(dataset, **kwargs):
    records, stats = Execute(dataset, provenance=True, lint=False, **kwargs)
    return records, stats, stats.provenance


def event_reasons(graph):
    return {e["reason"] for e in graph.events if e["kind"] == "drop"}


class TestOperatorEvents:
    def test_filter_rejections_recorded_with_verdict(self):
        source = make_mixed_source("prov-filter")
        _, _, graph = recorded(
            Dataset(source).filter("about colorectal cancer"))
        rejects = [e for e in graph.events
                   if e.get("reason") == DropReason.FILTER_REJECTED]
        assert len(rejects) == 3
        for event in rejects:
            assert len(event["parents"]) == 1 and not event["children"]
            assert event["attrs"]["verdict"] is False

    def test_limit_cutoff_records_position(self):
        # A bare limit early-stops the scan (nothing arrives after
        # exhaustion, so nothing drops); the sort barrier upstream forces
        # every record through the limit.
        source = make_source(8, "prov-limit")
        _, _, graph = recorded(
            Dataset(source).convert(Clinical).sort("name").limit(3))
        cutoffs = [e for e in graph.events
                   if e.get("reason") == DropReason.LIMIT_CUTOFF]
        assert len(cutoffs) == 5
        assert all(e["attrs"]["limit"] == 3 for e in cutoffs)
        positions = sorted(e["attrs"]["position"] for e in cutoffs)
        assert positions == [4, 5, 6, 7, 8]

    def test_aggregate_folds_every_input(self):
        source = make_source(6, "prov-agg")
        records, _, graph = recorded(
            Dataset(source)
            .convert(Clinical)
            .groupby(["score"], [("count", None)]))
        folds = [e for e in graph.events
                 if e.get("reason") == DropReason.AGGREGATE_FOLD]
        assert len(folds) == 6  # every converted record folds in
        emits = [e for e in graph.events
                 if e["kind"] == "emit" and e["attrs"].get("group")]
        assert len(emits) == len(records)
        # The folded inputs reappear as parents of the group outputs.
        folded_ids = {e["parents"][0] for e in folds}
        emit_parents = {p for e in emits for p in e["parents"]}
        assert folded_ids == emit_parents
        assert all(e["attrs"]["folded"] >= 1 for e in emits)

    def test_retrieve_cutoff_records_score_and_rank(self):
        source = make_source(6, "prov-retr")
        _, _, graph = recorded(
            Dataset(source).retrieve("colorectal cancer datasets", k=2))
        cut = [e for e in graph.events
               if e.get("reason") == DropReason.RETRIEVE_CUTOFF]
        assert len(cut) == 4
        for event in cut:
            assert event["attrs"]["rank"] > 2
            assert event["attrs"]["k"] == 2
            assert "score" in event["attrs"]

    def test_distinct_duplicate_names_the_survivor(self):
        source = make_source(4, "prov-dist")
        _, _, graph = recorded(
            Dataset(source).convert(Clinical).distinct(["score"]))
        dups = [e for e in graph.events
                if e.get("reason") == DropReason.DISTINCT_DUPLICATE]
        # Scores cycle 0,1,2,0 -> one duplicate.
        assert len(dups) == 1
        survivor = dups[0]["attrs"]["duplicate_of"]
        node_ids = {n["id"] for n in graph.nodes}
        assert survivor in node_ids

    def test_all_reasons_are_registered(self):
        for reason in (DropReason.FILTER_REJECTED, DropReason.LIMIT_CUTOFF,
                       DropReason.JOIN_NO_MATCH, DropReason.AGGREGATE_FOLD,
                       DropReason.RETRIEVE_CUTOFF,
                       DropReason.DISTINCT_DUPLICATE,
                       DropReason.CONVERT_EMPTY):
            assert reason in DROP_REASONS


class TestWhy:
    @pytest.fixture(scope="class")
    def run(self):
        source = make_mixed_source("prov-why")
        return recorded(
            Dataset(source)
            .filter("about colorectal cancer")
            .convert(Clinical))

    def test_tree_reaches_the_source(self, run):
        _, _, graph = run
        tree = graph.why(graph.output_ids[0])
        assert tree["in_output"]
        assert tree["produced_by"]["op_label"]
        assert tree["parents"], "convert output must name its input"
        root = tree["parents"][0]
        assert root["origin"] == "scan"
        assert root["produced_by"] is None  # roots have no producing event
        assert root["source_id"] == "prov-why"

    def test_llm_summary_has_cost_but_no_latency(self, run):
        _, _, graph = run
        tree = graph.why(graph.output_ids[0])
        llm = tree["produced_by"]["llm"]
        assert llm["calls"] >= 1
        assert llm["cost_usd"] > 0
        assert "latency" not in llm  # latency is not batch-invariant

    def test_render_mentions_every_hop(self, run):
        _, _, graph = run
        text = render_why(graph.why(graph.output_ids[0]))
        assert "(in output)" in text
        assert "produced by:" in text
        assert "from:" in text
        assert "source" in text

    def test_unknown_id_raises(self, run):
        _, _, graph = run
        with pytest.raises(ProvenanceError):
            graph.why(len(graph.nodes) + 1)

    def test_canonical_id_maps_live_records(self, run):
        records, _, graph = run
        assert [graph.canonical_id(r) for r in records] == graph.output_ids


class TestWhyNot:
    def test_dropped_record_names_reason_and_verdict(self):
        source = make_mixed_source("prov-whynot")
        _, _, graph = recorded(
            Dataset(source).filter("about colorectal cancer"))
        result = graph.why_not("prov-whynot")
        assert result["matches"] == 6
        statuses = {f["status"] for f in result["fates"]}
        assert statuses == {"in_output", "dropped"}
        dropped = [f for f in result["fates"] if f["status"] == "dropped"]
        assert all(f["dropped_by"]["reason"] == DropReason.FILTER_REJECTED
                   for f in dropped)
        text = render_why_not(result)
        assert "eliminated by:" in text
        assert "in_output" in text or "in output" in text

    def test_folded_record_reports_aggregate_output(self):
        source = make_source(4, "prov-whynot-agg")
        _, _, graph = recorded(Dataset(source).convert(Clinical).count())
        result = graph.why_not("prov-whynot-agg")
        derived = [f for f in result["fates"] if f["status"] == "derived"]
        assert derived, "scanned records derive the converted ones"
        folded = derived[0]["children"][0]
        assert folded["status"] == "folded"
        assert folded["dropped_by"]["reason"] == DropReason.AGGREGATE_FOLD
        assert folded["children"][0]["status"] == "in_output"

    def test_no_match_renders_gracefully(self):
        source = make_source(2, "prov-whynot-none")
        _, _, graph = recorded(Dataset(source).convert(Clinical))
        result = graph.why_not("no-such-source")
        assert result["matches"] == 0
        assert "no source record matching" in render_why_not(result)

    def test_preview_containment_matches_content(self):
        source = make_source(3, "prov-whynot-prev")
        _, _, graph = recorded(Dataset(source).convert(Clinical))
        # Every root shares source_id; match one doc by its content.
        result = graph.why_not("Record 1 about colorectal")
        assert result["matches"] == 1


class TestSerialization:
    def test_round_trip_preserves_bytes(self):
        source = make_source(4, "prov-ser")
        _, _, graph = recorded(Dataset(source).convert(Clinical).limit(2))
        clone = ProvenanceGraph.from_dict(
            json.loads(json.dumps(graph.to_dict())))
        assert clone.to_json() == graph.to_json()
        assert clone.signature() == graph.signature()

    def test_why_answers_survive_round_trip(self):
        source = make_source(4, "prov-ser2")
        _, _, graph = recorded(Dataset(source).convert(Clinical))
        clone = ProvenanceGraph.from_dict(graph.to_dict())
        for output_id in graph.output_ids:
            assert render_why(clone.why(output_id)) == render_why(
                graph.why(output_id))


class TestRunRegistry:
    def snapshot_run(self, registry, dataset):
        records, stats = Execute(dataset, provenance=True, lint=False)
        return registry.record(records, stats)

    def test_sequential_ids_and_listing(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        source = make_source(4, "prov-reg")
        first = self.snapshot_run(registry, Dataset(source).convert(Clinical))
        second = self.snapshot_run(
            registry, Dataset(source).convert(Clinical))
        assert first.run_id == "run-0001"
        assert second.run_id == "run-0002"
        assert [m["run_id"] for m in registry.list()] == [
            "run-0001", "run-0002"]
        assert registry.latest() == "run-0002"
        assert registry.latest(before="run-0002") == "run-0001"

    def test_load_round_trips_everything(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        source = make_source(4, "prov-reg-rt")
        saved = self.snapshot_run(
            registry, Dataset(source).convert(Clinical).limit(2))
        loaded = registry.load(saved.run_id)
        assert loaded.meta == saved.meta
        assert loaded.records == saved.records
        assert loaded.stats == json.loads(
            json.dumps(saved.stats, default=str))
        assert loaded.graph.to_json() == saved.graph.to_json()

    def test_missing_run_lists_known_ids(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        with pytest.raises(FileNotFoundError, match="known runs"):
            registry.load("run-9999")

    def test_indented_run_directories_still_load(self, tmp_path, capsys):
        # Earlier versions wrote every run file with indent=2; such a
        # registry must keep loading, slicing, diffing and showing.
        from repro.cli import main

        registry = RunRegistry(tmp_path / "runs")
        source = make_source(4, "prov-reg-indent")
        for dataset in (Dataset(source).convert(Clinical),
                        Dataset(source).convert(Clinical).limit(2)):
            records, stats = Execute(dataset, provenance=True, trace=True,
                                     capture_calls=True, lint=False)
            registry.record(records, stats)
        ids = ["run-0001", "run-0002"]
        before = {run_id: registry.load(run_id) for run_id in ids}
        diff = registry.diff(*ids).to_dict()
        show = ["runs", "show", "--runs-dir", str(tmp_path / "runs")]
        assert main(show) == 0
        shown = capsys.readouterr().out

        for path in sorted((tmp_path / "runs").glob("run-*/*.json")):
            payload = json.loads(path.read_text())
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        assert "\n  " in (tmp_path / "runs" / "run-0001"
                          / "records.json").read_text()

        for run_id, old in before.items():
            loaded = registry.load(run_id)
            for name in ("meta", "stats", "records", "trace", "manifest",
                         "calls", "journeys"):
                assert getattr(loaded, name) == getattr(old, name), name
            assert loaded.graph.to_json() == old.graph.to_json()
            assert registry.handle(run_id).slice(0, 2) == old.records[:2]
        assert [m["run_id"] for m in registry.list()] == ids
        assert registry.diff(*ids).to_dict() == diff
        assert main(show) == 0
        assert capsys.readouterr().out == shown

    def test_meta_json_is_written_last(self, tmp_path, monkeypatch):
        import repro.obs.registry as registry_module

        written = []
        write_json = registry_module.write_json

        def spy(path, payload):
            written.append(path.name)
            write_json(path, payload)

        monkeypatch.setattr(registry_module, "write_json", spy)
        registry = RunRegistry(tmp_path / "runs")
        records, stats = Execute(
            Dataset(make_source(3, "prov-reg-meta")).convert(Clinical),
            provenance=True, trace=True, capture_calls=True, lint=False)
        registry.record(records, stats)
        assert len(written) == 8
        assert written[-1] == "meta.json"
        # A run directory without meta.json is not a run yet, but its
        # id is taken.
        (tmp_path / "runs" / "run-0002").mkdir()
        assert registry.latest() == "run-0001"
        with pytest.raises(FileNotFoundError):
            registry.handle("run-0002")
        assert registry.record(records, stats).run_id == "run-0003"

    def test_concurrent_records_take_distinct_ids(self, tmp_path):
        # Two sessions of one tenant recording at once: both scan the
        # directory before either has created its run.
        registry = RunRegistry(tmp_path / "runs")
        executions = [
            Execute(Dataset(make_source(n, f"prov-reg-race-{n}"))
                    .convert(Clinical), provenance=True, lint=False)
            for n in (3, 5)
        ]
        barrier = threading.Barrier(2, timeout=10)
        scan = registry.next_run_id

        def next_run_id():
            run_id = scan()
            barrier.wait()
            return run_id

        registry.next_run_id = next_run_id
        with ThreadPoolExecutor(max_workers=2) as pool:
            stored = list(pool.map(
                lambda execution: registry.record(*execution), executions))
        assert sorted(s.run_id for s in stored) == ["run-0001", "run-0002"]
        assert [m["run_id"] for m in registry.list()] == [
            "run-0001", "run-0002"]
        for snapshot in stored:
            assert registry.load(snapshot.run_id).records == snapshot.records


class TestParentRunDirectory:
    """A registry written in the row layout (one JSON object per
    provenance node, event and trace span), before run files held
    columns: two runs of a filter+convert pipeline over
    ``make_mixed_source("parent-runs")``, traced, with provenance and
    captured calls, the second with ``.limit(2)``.  ``expected.json``
    holds the answers the row-layout code gave for them."""

    IDS = ("run-0001", "run-0002")

    @pytest.fixture(scope="class")
    def expected(self):
        return json.loads((PARENT_RUNS / "expected.json").read_text())

    @pytest.fixture
    def runs(self, tmp_path):
        runs = tmp_path / "runs"
        shutil.copytree(PARENT_RUNS / "runs", runs)
        return runs

    def test_load_turns_rows_into_columns(self, runs):
        registry = RunRegistry(runs)
        for run_id in self.IDS:
            def read(name):
                return json.loads((runs / run_id / name).read_text())

            loaded = registry.load(run_id)
            assert loaded.trace["format"] == TRACE_COLUMNS_FORMAT
            assert plain_trace(loaded.trace) == read("trace.json")
            assert isinstance(loaded.graph.node_columns, dict)
            assert loaded.graph.to_dict() == read("provenance.json")
            for name in ("meta", "stats", "records", "manifest", "calls",
                         "journeys"):
                assert getattr(loaded, name) == read(f"{name}.json"), name
            # Saved again, the run is columnar and reads back the same.
            resaved = RunRegistry(runs.parent / "resaved")
            resaved.save(loaded)
            again = resaved.load(run_id)
            assert read("provenance.json") == again.graph.to_dict()
            assert again.trace == loaded.trace
            stored = json.loads(
                (resaved.root / run_id / "provenance.json").read_text())
            assert stored == loaded.graph.to_columns()

    def test_why_and_why_not_answer_as_they_did(self, runs, expected):
        registry = RunRegistry(runs)
        for run_id in self.IDS:
            graph = registry.load(run_id).graph
            answers = expected["runs"][run_id]
            assert {str(n): render_why(graph.why(n))
                    for n in graph.output_ids} == answers["why"]
            for source, text in answers["why_not"].items():
                assert render_why_not(graph.why_not(source)) == text

    def test_diff_answers_as_it_did(self, runs, expected):
        diff = RunRegistry(runs).diff(*self.IDS)
        assert diff.to_dict() == expected["diff"]
        assert diff.render() == expected["diff_render"]

    def test_cli_answers_as_it_did(self, runs, expected, capsys):
        from repro.cli import main

        commands = {
            "show": ["runs", "show", "run-0001"],
            "why": ["runs", "why", "1"],
            "why_list": ["runs", "why"],
            "why_not": ["runs", "why-not", "parent-runs-1", "--run",
                        "run-0001"],
            "diff": ["runs", "diff"],
        }
        for name, argv in commands.items():
            code = main(argv + ["--runs-dir", str(runs)])
            assert [code, capsys.readouterr().out] == expected["cli"][name]

    def test_chat_explanations_answer_as_they_did(self, runs, expected):
        from repro.chat.tools_pz import build_pz_tools
        from repro.chat.workspace import PipelineWorkspace

        for run_id in self.IDS:
            workspace = PipelineWorkspace()
            workspace.runs_dir = str(runs)
            workspace.run_ids = list(self.IDS)
            workspace.current_run_id = run_id
            tools = build_pz_tools(workspace)
            answers = expected["runs"][run_id]
            for tool in ("explain_execution", "explain_record"):
                assert tools.get(tool).invoke({}) == answers[tool], tool


class TestRunStore:
    @pytest.fixture(scope="class")
    def execution(self):
        return Execute(Dataset(make_source(3, "run-store")).convert(Clinical),
                       provenance=True, trace=True, capture_calls=True,
                       lint=False)

    def test_recent_runs_answer_without_the_disk(self, execution, tmp_path,
                                                 monkeypatch):
        store = RunStore(str(tmp_path / "runs"))
        ids = [store.record(*execution).run_id for _ in range(3)]
        loads = []
        load = RunRegistry.load

        def counting_load(registry, run_id):
            loads.append(run_id)
            return load(registry, run_id)

        monkeypatch.setattr(RunRegistry, "load", counting_load)
        hot = store.get(ids[-1])
        assert store.handle(ids[-2]).records() == hot.records
        assert loads == []
        # The cache leaves the replay parts on disk; base() reads them.
        assert hot.calls is None and hot.journeys is None
        assert store.base(ids[-1]).calls is not None
        assert loads == [ids[-1]]
        # An evicted run reloads and answers exactly like a hot one.
        cold = store.get(ids[0])
        assert loads[-1] == ids[0]
        assert (cold.stats, cold.records, cold.trace) == \
            (hot.stats, hot.records, hot.trace)
        assert cold.graph.to_json() == hot.graph.to_json()

    def test_drop_deletes_only_the_named_runs(self, execution, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        ids = [store.record(*execution).run_id for _ in range(3)]
        store.drop(ids[:2])
        listed = RunRegistry(tmp_path / "runs").list()
        assert [m["run_id"] for m in listed] == ids[2:]
        with pytest.raises(KeyError, match="known runs"):
            store.get(ids[0])

    def test_rootless_ids_count_up_and_never_repeat(self, execution):
        store = RunStore()
        ids = [store.record(*execution).run_id for _ in range(40)]
        assert ids == [f"run-{n}" for n in range(1, 41)]
        assert all(store.get(run_id).run_id == run_id for run_id in ids)
        with pytest.raises(KeyError):
            store.get("run-41")
        store.drop(ids[-1:])
        assert store.record(*execution).run_id == "run-41"


class TestRunDiff:
    def test_identical_runs_diff_empty(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        source = make_source(4, "prov-diff-same")
        dataset = Dataset(source).convert(Clinical)
        for _ in range(2):
            records, stats = Execute(dataset, provenance=True, lint=False)
            registry.record(records, stats)
        diff = registry.diff("run-0001", "run-0002")
        assert not diff.plan_changed
        payload = diff.to_dict()
        assert payload["totals"] == {
            "records_out": 0, "cost_usd": 0.0, "time_seconds": 0.0}
        assert payload["membership"]["appeared"] == []
        assert payload["membership"]["disappeared"] == []
        assert payload["membership"]["common"] == 4
        assert "plan: unchanged" in diff.render()

    def test_changed_plan_and_membership_explained(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        source = make_source(5, "prov-diff-chg")
        records, stats = Execute(
            Dataset(source).convert(Clinical),
            provenance=True, lint=False)
        a = registry.record(records, stats)
        records, stats = Execute(
            Dataset(source).convert(Clinical).sort("name").limit(2),
            provenance=True, lint=False)
        b = registry.record(records, stats)

        diff = diff_runs(a, b)
        payload = diff.to_dict()
        assert diff.plan_changed
        assert any("Limit" in label for label in payload["plan"]["added_ops"])
        assert payload["totals"]["records_out"] == -3
        assert payload["membership"]["common"] == 2
        disappeared = payload["membership"]["disappeared"]
        assert len(disappeared) == 3
        # Each disappearance is explained via the new run's why_not.
        assert all("limit_cutoff" in e["why_not"] for e in disappeared)
        text = diff.render()
        assert "plan: CHANGED" in text
        assert "per-operator deltas" in text
        assert "- disappeared:" in text

    def test_cli_json_format_prints_the_diff_payload(self, tmp_path, capsys):
        from repro.cli import main

        registry = RunRegistry(tmp_path / "runs")
        source = make_source(4, "prov-diff-cli")
        for dataset in (Dataset(source).convert(Clinical),
                        Dataset(source).convert(Clinical).limit(2)):
            records, stats = Execute(dataset, provenance=True, lint=False)
            registry.record(records, stats)
        assert main(["runs", "diff", "--format", "json",
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == registry.diff("run-0001", "run-0002").to_dict()
        assert printed["totals"]["records_out"] == -2

    def test_membership_keys_survive_disk_round_trip(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        source = make_source(3, "prov-diff-disk")
        records, stats = Execute(
            Dataset(source).convert(Clinical), provenance=True, lint=False)
        live = registry.record(records, stats)
        reloaded = registry.load(live.run_id)
        assert set(live.record_keys()) == set(reloaded.record_keys())
        assert diff_runs(live, reloaded).to_dict()["membership"] == {
            "appeared": [], "disappeared": [], "common": 3}
