"""Trace exporters: Chrome trace_event structure and plain JSON."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.execution.execute import Execute
from repro.obs.export import (
    to_chrome_trace,
    to_plain_json,
    write_chrome_trace,
    write_plain_json,
)
from repro.obs.trace import SpanKind, Trace, Tracer
from repro.physical.options import EXECUTORS

sys.path.insert(0, "tests")
from test_execution_pipeline import make_source, shape_filter_convert


def _load_validator():
    path = (Path(__file__).resolve().parents[1]
            / "scripts" / "validate_trace.py")
    spec = importlib.util.spec_from_file_location("validate_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


validate_trace = _load_validator()


def small_trace():
    tracer = Tracer()
    with tracer.span("plan.run", SpanKind.PLAN,
                     executor="sequential") as root:
        tracer.record("llm.call", SpanKind.LLM, 0.5, 2.0, 1,
                      model="gpt-4o", operation="filter")
        root.finish_at(2.0)
    return tracer.finish()


class TestChromeTrace:
    def test_structure(self):
        payload = to_chrome_trace(small_trace())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["tid"] for e in metadata} == {0, 1}
        assert "orchestrator" in metadata[0]["args"]["name"]
        assert payload["otherData"]["span_count"] == len(complete) == 2

    def test_microsecond_times_and_lane_tid(self):
        payload = to_chrome_trace(small_trace())
        call = next(e for e in payload["traceEvents"]
                    if e["name"] == "llm.call")
        assert call["ts"] == 500000.0
        assert call["dur"] == 1500000.0
        assert call["tid"] == 1
        assert call["args"]["model"] == "gpt-4o"
        assert call["args"]["parent_id"] == 1

    def test_metrics_land_in_other_data(self):
        payload = to_chrome_trace(small_trace(), metrics={"llm.calls": 1})
        assert payload["otherData"]["metrics"] == {"llm.calls": 1}

    def test_validator_accepts_export(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(small_trace(), str(path))
        payload = json.loads(path.read_text())
        assert validate_trace.validate_chrome_trace(payload) == []
        assert path.read_text().endswith("\n")

    def test_validator_rejects_corruption(self):
        payload = to_chrome_trace(small_trace())
        payload["otherData"]["span_count"] = 99
        del payload["traceEvents"][-1]["args"]
        errors = validate_trace.validate_chrome_trace(payload)
        assert any("span_count" in e for e in errors)
        assert any("args.span_id" in e for e in errors)
        assert validate_trace.validate_chrome_trace([]) != []

    def test_validator_cli(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        write_chrome_trace(small_trace(), str(path))
        assert validate_trace.main([str(path)]) == 0
        assert "valid Chrome trace" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert validate_trace.main([str(bad)]) == 1


class TestPlainJson:
    def test_structure(self):
        payload = to_plain_json(small_trace(), metrics={"a.b": 1})
        assert payload["format"] == "repro.obs/v1"
        assert payload["span_count"] == 2
        assert payload["makespan_seconds"] == 2.0
        assert payload["metrics"] == {"a.b": 1}
        names = [span["name"] for span in payload["spans"]]
        assert names == ["plan.run", "llm.call"]

    def test_write_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        write_plain_json(small_trace(), str(path))
        payload = json.loads(path.read_text())
        assert payload == to_plain_json(small_trace())


class TestRealRunExport:
    def test_traced_execute_exports_validly(self, tmp_path):
        source = make_source(6, "export-real")
        _, stats = Execute(shape_filter_convert(source), lint=False,
                           executor="pipelined", max_workers=2, trace=True)
        path = tmp_path / "run.json"
        write_chrome_trace(stats.trace, str(path), metrics=stats.metrics)
        payload = json.loads(path.read_text())
        assert validate_trace.validate_chrome_trace(payload) == []
        assert payload["otherData"]["metrics"] == stats.metrics


def demo_pipeline():
    """The paper's demo plan: filter the papers, extract their datasets."""
    from repro.core.cardinality import Cardinality
    from repro.core.dataset import Dataset
    from repro.core.schemas import make_schema

    schema = make_schema(
        "ClinicalData", "A public dataset used by the study",
        ["name", "description", "url"],
        field_descriptions=["the name", "a description", "the url"],
    )
    return Dataset(source="sigmod-demo").filter(
        "The papers are about colorectal cancer"
    ).convert(schema, cardinality=Cardinality.ONE_TO_MANY)


class TestTraceFromDict:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_plain_json_round_trips(self, sigmod_demo, executor):
        _, stats = Execute(demo_pipeline(), executor=executor,
                           max_workers=2, trace=True)
        payload = to_plain_json(stats.trace, metrics=stats.metrics)
        rebuilt = Trace.from_dict(payload)
        assert to_plain_json(rebuilt, metrics=stats.metrics) == payload
        assert rebuilt.signature() == Trace.from_dict(
            json.loads(json.dumps(payload))).signature()

    def test_reads_to_dict_output(self):
        trace = small_trace()
        assert Trace.from_dict(trace.to_dict()).to_dict() == trace.to_dict()
