"""The wall-clock operational telemetry layer (`repro.obs.telemetry`).

Everything here drives the layer with fake clocks so the tests are
deterministic even though the production layer is wall-clock by design:
log rotation, correlation binding across threads, sliding-window
histograms, the Prometheus exposition, the SLO table,
and the `repro top` dashboard renderer.
"""

import json
import threading

import pytest

from repro.obs import telemetry as telemetry_module
from repro.obs.telemetry import (
    SLOS,
    OpsMetrics,
    Telemetry,
    TelemetryLog,
    bind_context,
    current_context,
    evaluate_slos,
    render_dashboard,
    stack_digest,
)


class FakeClock:
    """A settable wall clock for deterministic telemetry tests."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- correlation context ------------------------------------------------


class TestBindContext:
    def test_bind_and_restore(self):
        assert current_context() == {}
        with bind_context(request_id="req-1", tenant="acme"):
            assert current_context() == {
                "request_id": "req-1", "tenant": "acme"}
        assert current_context() == {}

    def test_nested_binds_merge_inner_wins(self):
        with bind_context(request_id="req-1", tenant="acme"):
            with bind_context(tenant="globex", turn="t-1"):
                assert current_context() == {
                    "request_id": "req-1", "tenant": "globex",
                    "turn": "t-1"}
            assert current_context()["tenant"] == "acme"

    def test_none_values_are_dropped(self):
        with bind_context(request_id="req-1", tenant=None):
            assert "tenant" not in current_context()

    def test_context_is_thread_local(self):
        seen = {}

        def worker():
            seen["fields"] = current_context()

        with bind_context(request_id="req-1"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["fields"] == {}  # not inherited implicitly

    def test_restores_previous_on_exception(self):
        with pytest.raises(RuntimeError):
            with bind_context(request_id="req-1"):
                raise RuntimeError("boom")
        assert current_context() == {}


class TestStackDigest:
    def test_same_shape_same_digest(self):
        def boom():
            raise ValueError("x")

        digests = set()
        for _ in range(2):
            try:
                boom()
            except ValueError as exc:
                digests.add(stack_digest(exc))
        assert len(digests) == 1
        digest = digests.pop()
        assert len(digest) == 12 and all(
            c in "0123456789abcdef" for c in digest)


# -- the JSONL log ------------------------------------------------------


class TestTelemetryLog:
    def test_lines_carry_context_and_fields(self, tmp_path):
        clock = FakeClock()
        log = TelemetryLog(tmp_path, clock=clock)
        with bind_context(request_id="req-9", tenant="acme"):
            log.log("turn_start", message_chars=42)
        log.close()
        events = log.read_events()
        assert len(events) == 1
        assert events[0]["event"] == "turn_start"
        assert events[0]["request_id"] == "req-9"
        assert events[0]["tenant"] == "acme"
        assert events[0]["message_chars"] == 42
        assert events[0]["ts"] == 1000.0

    def test_rotation_and_pruning(self, tmp_path, monkeypatch):
        # Each line below is ~120 bytes, so ~9 lines per 1 KB file.  60
        # lines must roll several times and prune down to 2 files.
        monkeypatch.setattr(telemetry_module, "LOG_FILE_BYTES", 1024)
        monkeypatch.setattr(telemetry_module, "LOG_FILES_KEPT", 2)
        log = TelemetryLog(tmp_path, clock=FakeClock())
        for i in range(60):
            log.log("tick", index=i, padding="x" * 64)
        log.close()
        files = sorted(tmp_path.glob("events-*.jsonl"))
        assert len(files) <= 2
        events = log.read_events()
        # The newest events survived, oldest were pruned with their files.
        assert events[-1]["index"] == 59
        assert events[0]["index"] > 0

    def test_reopen_appends_to_latest_file(self, tmp_path):
        log = TelemetryLog(tmp_path, clock=FakeClock())
        log.log("first")
        log.close()
        reborn = TelemetryLog(tmp_path, clock=FakeClock())
        reborn.log("second")
        reborn.close()
        assert [e["event"] for e in reborn.read_events()] == [
            "first", "second"]

    def test_lines_are_valid_sorted_json(self, tmp_path):
        log = TelemetryLog(tmp_path, clock=FakeClock())
        log.log("zeta", beta=1, alpha=2)
        log.close()
        raw = log.path.read_text().strip()
        parsed = json.loads(raw)
        assert list(parsed) == sorted(parsed)  # sort_keys pinned


# -- sliding-window histograms and the metrics dict ---------------------


class TestOpsWindowHistogram:
    def test_summary_quantiles(self):
        ops = OpsMetrics(clock=FakeClock())
        for value in [1.0, 2.0, 3.0, 4.0, 5.0]:
            ops.observe("turn.wall_seconds", value)
        summary = ops.summary("turn.wall_seconds")
        assert summary["count"] == 5
        assert summary["sum"] == pytest.approx(15.0)
        assert summary["min"] == 1.0 and summary["max"] == 5.0
        assert summary["p50"] == 3.0
        assert summary["p95"] == 5.0 and summary["p99"] == 5.0

    def test_samples_age_out_of_the_window(self):
        clock = FakeClock()
        ops = OpsMetrics(clock=clock)
        ops.observe("turn.wall_seconds", 100.0)
        clock.advance(telemetry_module.WINDOW_SECONDS + 1.0)
        ops.observe("turn.wall_seconds", 1.0)
        summary = ops.summary("turn.wall_seconds")
        assert summary["count"] == 1
        assert summary["max"] == 1.0

    def test_empty_window_is_zeros(self):
        summary = OpsMetrics(clock=FakeClock()).summary("turn.wall_seconds")
        assert summary["count"] == 0 and summary["p95"] == 0.0

    def test_sum_is_exact_in_any_sample_order(self):
        ops = OpsMetrics(clock=FakeClock())
        for value in (1e16, 1.0, -1e16):
            ops.observe("x.y", value)
        assert ops.summary("x.y")["sum"] == 1.0

    def test_null_summary_matches_an_empty_window(self):
        off = Telemetry(root=None, clock=FakeClock())
        assert off.ops.summary("turn.wall_seconds") == OpsMetrics(
            clock=FakeClock()).summary("turn.wall_seconds")


class TestOpsMetrics:
    def test_same_name_and_labels_share_an_instrument(self):
        ops = OpsMetrics(clock=FakeClock())
        ops.inc("turns.completed_total", tenant="acme")
        ops.inc("turns.completed_total", tenant="acme")
        ops.inc("turns.completed_total", tenant="globex")
        snapshot = ops.snapshot()
        rows = {
            row["labels"]["tenant"]: row["value"]
            for row in snapshot["counters"]
        }
        assert rows == {"acme": 2.0, "globex": 1.0}

    def test_prometheus_exposition_shape(self):
        ops = OpsMetrics(clock=FakeClock())
        ops.inc("http.requests_total", route="health", status="200")
        ops.set("pool.workers", 4)
        ops.observe("turn.wall_seconds", 0.5, tenant="acme")
        text = ops.to_prometheus()
        assert "# TYPE http_requests_total counter" in text
        assert ('http_requests_total{route="health",status="200"} 1'
                in text)
        assert "# TYPE pool_workers gauge" in text
        assert "# TYPE turn_wall_seconds summary" in text
        assert ('turn_wall_seconds{quantile="0.95",tenant="acme"} 0.5'
                in text)
        assert 'turn_wall_seconds_count{tenant="acme"} 1' in text
        # every non-comment line is "name{labels} value" or "name value"
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            assert name_part and float(value) is not None

    def test_label_values_are_escaped(self):
        ops = OpsMetrics(clock=FakeClock())
        ops.inc("odd.total", label='we"ird\nvalue')
        text = ops.to_prometheus()
        assert '\\"' in text and "\\n" in text


# -- SLO evaluation -----------------------------------------------------


class TestSloEvaluation:
    def _telemetry(self, tmp_path):
        clock = FakeClock()
        return Telemetry(root=tmp_path, clock=clock), clock

    def test_all_ok_when_quiet(self, tmp_path):
        telemetry, _ = self._telemetry(tmp_path)
        health = telemetry.health()
        assert health["status"] == "ok" and health["ok"] is True
        assert health["alerts"] == []
        assert {row["name"] for row in health["slos"]} == {
            name for name, _, _, _ in SLOS}

    def test_availability_fires_on_5xx(self, tmp_path):
        telemetry, _ = self._telemetry(tmp_path)
        for _ in range(9):
            telemetry.ops.observe("http.availability", 1.0)
        telemetry.ops.observe("http.availability", 0.0)  # 90% < 99%
        alerts = {row["name"] for row in telemetry.health()["alerts"]}
        assert "availability" in alerts

    def test_latency_p95_fires_above_threshold(self, tmp_path):
        telemetry, _ = self._telemetry(tmp_path)
        for _ in range(20):
            telemetry.ops.observe("turn.wall_seconds", 40.0)  # > 30 s
        health = telemetry.health()
        assert health["status"] == "degraded"
        [alert] = health["alerts"]
        assert alert["name"] == "turn_latency_p95"
        assert alert["value"] == pytest.approx(40.0)

    def test_quota_rejection_rate(self, tmp_path):
        telemetry, _ = self._telemetry(tmp_path)
        telemetry.ops.observe("turn.quota_outcome", 1.0)
        telemetry.ops.observe("turn.quota_outcome", 1.0)
        telemetry.ops.observe("turn.quota_outcome", 0.0)
        alerts = {row["name"] for row in telemetry.health()["alerts"]}
        assert "quota_rejection_rate" in alerts  # 2/3 > 0.5

    def test_saturation_fires_and_ages_out(self, tmp_path):
        telemetry, clock = self._telemetry(tmp_path)
        telemetry.ops.observe("pool.saturation_rejections", 1.0)
        assert telemetry.health()["status"] == "degraded"
        clock.advance(301.0)  # past the window
        assert telemetry.health(now=clock())["status"] == "ok"

    def test_evaluator_reads_empty_windows_as_healthy(self):
        assert all(row["ok"]
                   for row in evaluate_slos(OpsMetrics(clock=FakeClock())))


# -- the facade ---------------------------------------------------------


class TestTelemetryFacade:
    def test_request_ids_are_unique_and_prefixed(self, tmp_path):
        telemetry = Telemetry(root=tmp_path, clock=FakeClock())
        ids = {telemetry.new_request_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(rid.startswith("req-") for rid in ids)

    def test_request_id_epoch_survives_24bit_millisecond_wrap(
            self, tmp_path):
        first = Telemetry(root=tmp_path / "a", clock=FakeClock(0.0))
        # A restart 2**24 ms later would collide under a 24-bit epoch;
        # the wider timestamp keeps the two processes' ids distinct.
        reborn = Telemetry(root=tmp_path / "b",
                           clock=FakeClock(float(2 ** 24)))
        assert first.new_request_id() != reborn.new_request_id()

    def test_error_logs_type_message_digest(self, tmp_path):
        telemetry = Telemetry(root=tmp_path, clock=FakeClock())
        try:
            raise ValueError("kaput")
        except ValueError as exc:
            telemetry.error("turn_error", exc, turn="t-1")
        telemetry.close()
        [event] = telemetry.log.read_events()
        assert event["error_type"] == "ValueError"
        assert event["error"] == "kaput"
        assert len(event["stack_digest"]) == 12
        assert event["turn"] == "t-1"

    def test_phase_records_tenant_labeled_histogram(self, tmp_path):
        telemetry = Telemetry(root=tmp_path, clock=FakeClock())
        with bind_context(tenant="acme"):
            with telemetry.phase("engine.optimize"):
                pass
        snapshot = telemetry.ops.snapshot()
        [row] = snapshot["histograms"]
        assert row["name"] == "engine.optimize_wall_seconds"
        assert row["labels"] == {"tenant": "acme"}
        assert row["summary"]["count"] == 1
        events = [e["event"] for e in telemetry.log.read_events()]
        assert events == ["engine.optimize_phase"]

    def test_prometheus_includes_slo_verdicts(self, tmp_path):
        telemetry = Telemetry(root=tmp_path, clock=FakeClock())
        text = telemetry.prometheus()
        assert "# TYPE repro_slo_ok gauge" in text
        assert 'repro_slo_ok{slo="availability"} 1' in text

    def test_metrics_payload_shape(self, tmp_path):
        telemetry = Telemetry(root=tmp_path, clock=FakeClock())
        payload = telemetry.metrics_payload(now=1234.0)
        assert set(payload) == {"generated_at", "window_seconds",
                                "status", "alerts", "slos", "metrics"}
        assert set(payload["metrics"]) == {"counters", "gauges",
                                           "histograms"}


class TestTelemetryOff:
    def test_off_writes_no_files_but_keeps_metrics(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        telemetry = Telemetry(root=None, clock=FakeClock())
        assert telemetry.log is None
        telemetry.event("anything", x=1)
        telemetry.error("boom", ValueError("x"))
        with telemetry.phase("engine.execute"):
            pass
        telemetry.ops.inc("a.b", tenant="t")
        telemetry.close()
        names = {row["name"] for rows in telemetry.ops.snapshot().values()
                 for row in rows}
        assert names == {"a.b", "engine.execute_wall_seconds"}
        assert telemetry.health()["ok"] is True
        assert 'repro_slo_ok{slo="availability"} 1' in telemetry.prometheus()
        assert not list(tmp_path.iterdir())  # no files, ever

    def test_off_request_ids_still_unique(self):
        off = Telemetry(root=None, clock=FakeClock())
        ids = {off.new_request_id() for _ in range(10)}
        assert len(ids) == 10


# -- the dashboard renderer ---------------------------------------------


class TestRenderDashboard:
    def _payload(self, turns=10.0, alerts=()):
        return {
            "status": "degraded" if alerts else "ok",
            "window_seconds": 300.0,
            "alerts": list(alerts),
            "metrics": {
                "counters": [
                    {"name": "turns.completed_total",
                     "labels": {"tenant": "acme", "status": "ok"},
                     "value": turns},
                    {"name": "quota.rejections_total",
                     "labels": {"tenant": "acme"}, "value": 2.0},
                ],
                "gauges": [
                    {"name": "turns.in_flight",
                     "labels": {"tenant": "acme"}, "value": 1.0},
                    {"name": "tenant.spent_cost_usd",
                     "labels": {"tenant": "acme"}, "value": 0.1234},
                    {"name": "pool.workers", "labels": {}, "value": 4.0},
                    {"name": "pool.active", "labels": {}, "value": 1.0},
                ],
                "histograms": [
                    {"name": "turn.wall_seconds",
                     "labels": {"tenant": "acme"},
                     "summary": {"count": 10, "sum": 5.0, "min": 0.1,
                                 "max": 1.0, "p50": 0.4, "p95": 0.9,
                                 "p99": 1.0}},
                ],
            },
        }

    def test_frame_has_tenant_row_and_pool_line(self):
        frame = render_dashboard(self._payload())
        assert "service OK" in frame
        assert "acme" in frame
        assert "0.900" in frame  # p95
        assert "pool: active 1/4 workers" in frame
        assert "alerts: none" in frame
        # No previous payload: the rate column shows a dash.
        acme_row = next(l for l in frame.splitlines()
                        if l.startswith("acme"))
        assert " - " in acme_row

    def test_rates_from_previous_frame(self):
        previous = self._payload(turns=4.0)
        frame = render_dashboard(self._payload(turns=10.0),
                                 previous=previous, elapsed=2.0)
        assert "3.00" in frame  # (10-4)/2 turns/s

    def test_alerts_section(self):
        alert = {"name": "availability", "value": 0.5, "threshold": 0.99,
                 "description": "fraction of non-5xx responses"}
        frame = render_dashboard(self._payload(alerts=[alert]))
        assert "service DEGRADED" in frame
        assert "ALERTS FIRING:" in frame
        assert "availability" in frame

    def test_empty_payload_renders(self):
        frame = render_dashboard({"status": "ok", "window_seconds": 0,
                                  "alerts": [], "metrics": {}})
        assert "(no tenant traffic yet)" in frame
