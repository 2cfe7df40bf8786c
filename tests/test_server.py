"""The multi-tenant service layer: sessions, quotas, isolation, streaming.

Covers the HTTP surface end-to-end against a live server on an
ephemeral port, the :class:`SessionStore` quota edge cases at the store
API, and the headline isolation guarantee: N concurrent tenants running
the same script produce byte-identical run artifacts to a solo
in-process session, with ledgers that sum to the admin rollup.
"""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.llm.usage import QuotaExceededError
from repro.server import ReproServer, SessionStore, run_in_thread

#: The Fig. 3-5 script every tenant (and the solo baseline) runs.
SCRIPT = [
    "Load the papers from the sigmod-demo dataset",
    "Keep only the papers about colorectal cancer",
    "run the pipeline",
]

#: The paper's 7-turn demo conversation (``bench/serve.py`` drives it too).
DEMO_SCRIPT = [
    "Load the sigmod-demo dataset",
    "Keep only the papers about colorectal cancer and extract whatever "
    "public dataset is used by the study",
    "Maximize quality and run the pipeline",
    "How much did it cost?",
    "why is record 3 in the output?",
    "what took so long?",
    "show me the generated code",
]

#: Questions a session answers from its recorded runs.
RUN_QUESTIONS = [
    "How much did it cost?",
    "why is record 3 in the output?",
    "what took so long?",
    "what changed since the last run?",
]

#: Run artifacts that must be byte-identical across tenants and solo.
ARTIFACTS = ("records.json", "stats.json", "provenance.json")


# -- plumbing -----------------------------------------------------------


def request(server, method, path, body=None):
    """One JSON request against a test server; returns (status, payload)."""
    status, _, payload = request_raw(server, method, path, body)
    return status, payload


def request_raw(server, method, path, body=None):
    """Like :func:`request` but also returns the response headers."""
    host, port = server.server_address
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            raw = resp.read().decode("utf-8")
            status, headers = resp.status, dict(resp.headers)
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode("utf-8")
        status, headers = exc.code, dict(exc.headers)
    content_type = headers.get("Content-Type", "")
    payload = (json.loads(raw) if content_type.startswith("application/json")
               else raw)
    return status, headers, payload


@pytest.fixture()
def make_store(tmp_path, sigmod_demo):
    """SessionStore factory rooted in the test tmp dir."""
    counter = {"n": 0}

    def _make(**kwargs):
        counter["n"] += 1
        root = tmp_path / f"tenants{counter['n']}"
        return SessionStore(root=str(root), **kwargs)

    return _make


@pytest.fixture()
def make_server(make_store):
    """Live-server factory (ephemeral port); servers stop on teardown."""
    servers = []

    def _make(**kwargs):
        server = ReproServer(("127.0.0.1", 0), make_store(**kwargs))
        run_in_thread(server)
        servers.append(server)
        return server

    yield _make
    for server in servers:
        server.shutdown()
        server.server_close()


def drive_script(server, tenant, script=SCRIPT):
    """Create a session and run the script; returns the turn rows."""
    status, session = request(
        server, "POST", f"/tenants/{tenant}/sessions", {})
    assert status == 201
    sid = session["session_id"]
    rows = []
    for message in script:
        status, row = request(
            server, "POST", f"/tenants/{tenant}/sessions/{sid}/turns",
            {"message": message})
        assert status == 200, row
        rows.append(row)
    return sid, rows


# -- HTTP surface -------------------------------------------------------


class TestSessionsOverHTTP:
    def test_health(self, make_server):
        server = make_server()
        status, payload = request(server, "GET", "/healthz")
        assert status == 200 and payload["ok"] is True

    def test_create_then_resume(self, make_server):
        server = make_server()
        status, row = request(server, "POST", "/tenants/acme/sessions", {})
        assert status == 201
        assert row["session_id"] == "s-0001" and row["resumed"] is False
        status, row = request(
            server, "POST", "/tenants/acme/sessions",
            {"session_id": "s-0001"})
        assert status == 200 and row["resumed"] is True
        status, listing = request(server, "GET", "/tenants/acme/sessions")
        assert [s["session_id"] for s in listing["sessions"]] == ["s-0001"]

    def test_turn_runs_the_chat(self, make_server):
        server = make_server()
        sid, rows = drive_script(server, "acme", SCRIPT[:1])
        turn = rows[0]
        assert turn["status"] == "ok"
        assert turn["tools"] == ["load_dataset"]
        assert "11 records" in turn["reply"]
        assert turn["usage"]["cost_usd"] > 0

    def test_turn_events_stream(self, make_server):
        server = make_server()
        sid, rows = drive_script(server, "acme")
        tid = rows[-1]["turn_id"]
        status, payload = request(
            server, "GET",
            f"/tenants/acme/sessions/{sid}/turns/{tid}/events")
        assert status == 200 and payload["done"] is True
        kinds = [e.get("type") for e in payload["events"]]
        assert "turn_start" in kinds and "turn_end" in kinds
        assert "plan_start" in kinds and "plan_end" in kinds
        assert "span" in kinds  # trace-derived tail

    def test_async_turn_streams_to_done(self, make_server):
        server = make_server()
        status, session = request(
            server, "POST", "/tenants/acme/sessions", {})
        sid = session["session_id"]
        status, row = request(
            server, "POST", f"/tenants/acme/sessions/{sid}/turns",
            {"message": SCRIPT[0], "wait": False})
        # 202/running normally; a fast worker may finish the turn
        # before the handler snapshots the row (then it's already 200).
        assert status in (200, 202)
        assert row["status"] in ("running", "ok")
        tid = row["turn_id"]
        offset, done, events = 0, False, []
        while not done:
            status, payload = request(
                server, "GET",
                f"/tenants/acme/sessions/{sid}/turns/{tid}/events"
                f"?offset={offset}&wait=5")
            assert status == 200
            events.extend(payload["events"])
            offset = payload["next_offset"]
            done = payload["done"]
        assert [e.get("type") for e in events].count("turn_end") == 1
        status, turn = request(
            server, "GET", f"/tenants/acme/sessions/{sid}/turns/{tid}")
        assert turn["status"] == "ok"

    def test_bad_requests(self, make_server):
        server = make_server()
        status, _ = request(
            server, "POST", "/tenants/bad..id!/sessions", {})
        assert status == 400
        status, _ = request(
            server, "GET", "/tenants/acme/sessions/s-9999")
        assert status == 404
        request(server, "POST", "/tenants/acme/sessions", {})
        status, _ = request(
            server, "POST", "/tenants/acme/sessions/s-0001/turns", {})
        assert status == 400  # missing message

    def test_admin_evict(self, make_server):
        server = make_server()
        request(server, "POST", "/tenants/acme/sessions", {})
        status, payload = request(
            server, "DELETE", "/admin/tenants/acme/sessions/s-0001")
        assert status == 200 and payload["evicted"] == "s-0001"
        status, _ = request(
            server, "DELETE", "/admin/tenants/acme/sessions/s-0001")
        assert status == 404


class TestRunsAndResults:
    def test_runs_trace_and_result_slice(self, make_server):
        server = make_server()
        drive_script(server, "acme")
        status, listing = request(server, "GET", "/tenants/acme/runs")
        assert status == 200
        run_ids = [r["run_id"] for r in listing["runs"]]
        assert run_ids == ["run-0001"]
        status, run = request(
            server, "GET", "/tenants/acme/runs/run-0001")
        assert status == 200 and run["meta"]["run_id"] == "run-0001"
        status, trace = request(
            server, "GET", "/tenants/acme/traces/run-0001")
        assert status == 200 and trace["trace"]["spans"]
        status, sliced = request(
            server, "GET",
            "/tenants/acme/results/run-0001?offset=1&limit=2")
        assert status == 200
        assert sliced["result"]["count"] == 8
        assert len(sliced["records"]) == 2

    def test_cross_tenant_fetch_is_404(self, make_server):
        server = make_server()
        drive_script(server, "acme")
        status, _ = request(
            server, "GET", "/tenants/globex/runs/run-0001")
        assert status == 404
        status, _ = request(
            server, "GET", "/tenants/globex/results/run-0001")
        assert status == 404

    def test_runs_live_under_tenant_root(self, make_server):
        server = make_server()
        drive_script(server, "acme")
        root = server.store.root
        assert (root / "acme" / "runs" / "run-0001" /
                "records.json").is_file()


# -- quotas (store API: the edge semantics) -----------------------------


class TestQuotaEdges:
    def _spend_of(self, store, tenant, script):
        store.ensure_session(tenant)
        spends = []
        for message in script:
            store.run_turn(tenant, "s-0001", message)
            with store.acquire(tenant) as state:
                spends.append(state.budget.spent_cost_usd)
        return spends

    def test_exactly_at_budget_succeeds_then_rejects(self, make_store):
        probe = make_store()
        total = self._spend_of(probe, "probe", SCRIPT)[-1]
        assert total > 0
        store = make_store(default_max_cost_usd=total)
        store.ensure_session("acme")
        for message in SCRIPT:  # lands exactly on the cap: all succeed
            turn = store.run_turn("acme", "s-0001", message)
            assert turn.status == "ok"
        with store.acquire("acme") as tenant:
            snap = tenant.usage()
        assert snap["spent_cost_usd"] == pytest.approx(total)
        assert snap["exhausted"] is True
        with pytest.raises(QuotaExceededError):  # no headroom left
            store.run_turn("acme", "s-0001", "run the pipeline")

    def test_overbudget_aborts_midrun_with_partial_ledger(
            self, make_store):
        probe = make_store()
        spends = self._spend_of(probe, "probe", SCRIPT)
        # Cap between "after turn 2" and "after turn 3": the pipeline
        # execution itself must be what breaches, mid-run.
        cap = (spends[1] + spends[2]) / 2
        store = make_store(default_max_cost_usd=cap)
        store.ensure_session("acme")
        for message in SCRIPT[:2]:
            assert store.run_turn("acme", "s-0001", message).status == "ok"
        turn = store.run_turn("acme", "s-0001", SCRIPT[2])
        assert turn.status == "quota_rejected"
        with store.acquire("acme") as tenant:
            snap = tenant.usage()
        # Partial spend is on the ledger: strictly over the cap (the
        # breaching call is recorded first), but below a full cold run.
        assert cap < snap["spent_cost_usd"] <= spends[2]
        assert snap["exhausted"] is True

    def test_admin_raise_unblocks(self, make_store):
        store = make_store(default_max_cost_usd=0.0)
        store.ensure_session("acme")
        with pytest.raises(QuotaExceededError):
            store.run_turn("acme", "s-0001", SCRIPT[0])
        store.set_quota("acme", max_cost_usd=10.0)
        turn = store.run_turn("acme", "s-0001", SCRIPT[0])
        assert turn.status == "ok"

    def test_http_429_carries_snapshot_and_admin_raise_unblocks(
            self, make_server):
        server = make_server(default_max_cost_usd=0.0)
        request(server, "POST", "/tenants/acme/sessions", {})
        status, payload = request(
            server, "POST", "/tenants/acme/sessions/s-0001/turns",
            {"message": SCRIPT[0]})
        assert status == 429
        assert payload["error"] == "quota_exhausted"
        status, quota = request(
            server, "POST", "/admin/tenants/acme/quota",
            {"max_cost_usd": 10.0})
        assert status == 200
        assert quota["usage"]["max_cost_usd"] == 10.0
        status, row = request(
            server, "POST", "/tenants/acme/sessions/s-0001/turns",
            {"message": SCRIPT[0]})
        assert status == 200 and row["status"] == "ok"


# -- persistence --------------------------------------------------------


class TestTurnUsage:
    def test_turn_bills_only_its_own_charges(self, make_store):
        """Spend another session of the tenant makes while a turn runs
        lands in the tenant's total, never in this turn's usage."""
        from repro.llm.usage import LLMUsage

        alone = make_store(telemetry=False)
        sid = alone.ensure_session("acme")["session_id"]
        expected = alone.run_turn("acme", sid, SCRIPT[0]).to_dict()["usage"]

        store = make_store(telemetry=False)
        sid = store.ensure_session("acme")["session_id"]
        with store.acquire("acme") as tenant:
            session = tenant.get_session(sid)
            budget = tenant.budget
        neighbour = LLMUsage("gpt-4o", input_tokens=900, output_tokens=100,
                             cost_usd=0.25, latency_seconds=1.0,
                             operation="agent")
        chat = session.chat.chat

        def chat_beside_a_neighbour(message):
            budget.charge(neighbour)  # another session's call, mid-turn
            return chat(message)

        session.chat.chat = chat_beside_a_neighbour
        turn = store.run_turn("acme", sid, SCRIPT[0])
        assert turn.to_dict()["usage"] == expected
        with store.acquire("acme") as tenant:
            assert tenant.usage()["spent_tokens"] == expected["tokens"] + 1000
        alone.close()
        store.close()


class TestRestartResume:
    def test_sessions_and_ledger_survive_restart(self, make_store,
                                                 tmp_path):
        store = SessionStore(root=str(tmp_path / "persist"))
        store.ensure_session("acme")
        for message in SCRIPT:
            store.run_turn("acme", "s-0001", message)
        with store.acquire("acme") as tenant:
            spent = tenant.budget.spent_cost_usd
        assert spent > 0

        reborn = SessionStore(root=str(tmp_path / "persist"))
        row = reborn.ensure_session("acme", session_id="s-0001")
        assert row["resumed"] is True
        assert row["turns"] == len(SCRIPT)
        with reborn.acquire("acme") as tenant:
            assert tenant.budget.spent_cost_usd == pytest.approx(spent)
            session = tenant.get_session("s-0001")
            # The rebuilt pipeline replays the recorded steps.
            assert "filter" in session.chat.workspace.describe_pipeline()
        # A new run in the resumed store lands in the same registry.
        reborn.run_turn("acme", "s-0001", "run the pipeline")
        with reborn.acquire("acme") as tenant:
            run_ids = [r["run_id"] for r in tenant.registry().list()]
        assert run_ids == ["run-0001", "run-0002"]

    def test_indented_session_files_resume(self, sigmod_demo, tmp_path):
        # Session and tenant files written with indent=2, as earlier
        # versions did, resume to the payload they hold.
        root = tmp_path / "persist"
        store = SessionStore(root=str(root))
        store.ensure_session("acme")
        for message in SCRIPT:
            store.run_turn("acme", "s-0001", message)
        store.close()
        originals = {}
        for path in (root / "acme" / "tenant.json",
                     root / "acme" / "sessions" / "s-0001.json"):
            originals[path.name] = json.loads(path.read_text())
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(originals[path.name], handle, indent=2,
                          sort_keys=True)
                handle.write("\n")

        reborn = SessionStore(root=str(root))
        row = reborn.ensure_session("acme", session_id="s-0001")
        assert row["resumed"] is True
        with reborn.acquire("acme") as tenant:
            usage = tenant.usage()
            payload = tenant.get_session("s-0001").to_payload()
        reborn.close()
        assert json.loads(json.dumps(payload, default=str)) == \
            originals["s-0001.json"]
        ledger = originals["tenant.json"]["usage"]
        assert usage["spent_cost_usd"] == ledger["cost_usd"]
        assert usage["spent_tokens"] == ledger["tokens"]

    def test_resume_answers_about_runs_like_before(self, sigmod_demo,
                                                   tmp_path):
        # The paper's demo conversation, then a second execution; every
        # question about the runs reads the same after a restart.
        root = str(tmp_path / "persist")
        store = SessionStore(root=root, telemetry=False)
        sid = store.ensure_session("acme")["session_id"]
        for message in DEMO_SCRIPT + ["run the pipeline"]:
            assert store.run_turn("acme", sid, message).status == "ok"
        before = [store.run_turn("acme", sid, q).reply for q in RUN_QUESTIONS]
        store.close()

        reborn = SessionStore(root=root, telemetry=False)
        assert reborn.ensure_session("acme", session_id=sid)["resumed"]
        after = [reborn.run_turn("acme", sid, q).reply for q in RUN_QUESTIONS]
        reborn.close()
        assert not any("tool error" in reply for reply in before + after)
        assert after == before


class TestSharedTenantRuns:
    def test_reset_prunes_only_the_sessions_own_runs(self, make_store):
        store = make_store(telemetry=False)
        first = store.ensure_session("acme")["session_id"]
        for message in SCRIPT:
            store.run_turn("acme", first, message)  # run-0001
        second = store.ensure_session("acme")["session_id"]
        for message in SCRIPT[:2] + ["run the pipeline"] * 9:
            store.run_turn("acme", second, message)  # run-0002..run-0010
        store.run_turn("acme", second, "Start over")
        with store.acquire("acme") as tenant:
            listed = [m["run_id"] for m in tenant.registry().list()]
        # The second session kept its newest keep_runs (8) runs; the
        # first session's run was never its to prune.
        assert listed == ["run-0001"] + [f"run-{n:04d}" for n in range(3, 11)]
        turn = store.run_turn("acme", first, "show me the records")
        store.close()
        assert turn.status == "ok" and "tool error" not in turn.reply
        assert "result run-0001:" in turn.reply


class TestWorkspaceRootPin:
    def test_attached_session_never_writes_global_root(
            self, sigmod_demo, tmp_path, monkeypatch):
        from repro.chat.session import PalimpChatSession

        monkeypatch.chdir(tmp_path)
        session = PalimpChatSession()
        session.workspace.runs_dir = str(tmp_path / "tenant-a" / "runs")
        for message in SCRIPT:
            session.chat(message)
        assert (tmp_path / "tenant-a" / "runs" / "run-0001").is_dir()
        assert not (tmp_path / ".repro").exists()


# -- the isolation pin --------------------------------------------------


class TestConcurrentTenantIsolation:
    def test_four_tenants_match_solo_byte_for_byte(
            self, sigmod_demo, tmp_path):
        from repro.chat.session import PalimpChatSession

        # Solo baseline: one in-process session, no server, own root.
        solo_root = tmp_path / "solo"
        solo = PalimpChatSession()
        solo.workspace.runs_dir = str(solo_root / "runs")
        for message in SCRIPT:
            solo.chat(message)
        solo_bytes = {
            name: (solo_root / "runs" / "run-0001" / name).read_bytes()
            for name in ARTIFACTS
        }
        assert json.loads(solo_bytes["records.json"])  # non-empty run

        # Four tenants drive the same script concurrently through the
        # HTTP layer.
        tenants = ["t1", "t2", "t3", "t4"]
        store = SessionStore(root=str(tmp_path / "tenants"))
        server = ReproServer(("127.0.0.1", 0), store)
        run_in_thread(server)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda t: drive_script(server, t), tenants))
        finally:
            server.shutdown()
            server.server_close()

        for tenant in tenants:
            run_dir = tmp_path / "tenants" / tenant / "runs" / "run-0001"
            for name in ARTIFACTS:
                assert (run_dir / name).read_bytes() == solo_bytes[name], (
                    f"{tenant}/{name} diverged from the solo run")

        # Ledgers: every tenant paid the same, and the rollup total is
        # exactly the sum of the per-tenant snapshots.
        rollup = store.usage_rollup()
        per_tenant = [
            rollup["tenants"][t]["spent_cost_usd"] for t in tenants]
        assert len(set(per_tenant)) == 1
        assert rollup["total"]["spent_cost_usd"] == pytest.approx(
            sum(per_tenant))
        assert rollup["total"]["spent_tokens"] == sum(
            rollup["tenants"][t]["spent_tokens"] for t in tenants)

        # The byte-identity above ran with telemetry ON (the store
        # default) against a telemetry-off solo session — the zero
        # observer effect pin.  Meanwhile the telemetry layer itself saw
        # everything: per-tenant turn counters and latency percentiles.
        payload = store.telemetry.metrics_payload()
        turns_by_tenant = {}
        for row in payload["metrics"]["counters"]:
            if row["name"] == "turns.completed_total":
                turns_by_tenant[row["labels"]["tenant"]] = row["value"]
        assert turns_by_tenant == {t: float(len(SCRIPT)) for t in tenants}
        latency_by_tenant = {
            row["labels"]["tenant"]: row["summary"]
            for row in payload["metrics"]["histograms"]
            if (row["name"] == "turn.wall_seconds"
                and "tenant" in row["labels"])
        }
        for tenant in tenants:
            summary = latency_by_tenant[tenant]
            assert summary["count"] == len(SCRIPT)
            assert 0 < summary["p50"] <= summary["p95"] <= summary["p99"]
        # Every turn-lifecycle log line carries a correlation id.
        turn_lines = [
            event for event in store.telemetry.log.read_events()
            if event["event"] in ("turn_start", "turn_finish")
        ]
        assert len(turn_lines) == len(tenants) * len(SCRIPT) * 2
        assert all(line.get("request_id") for line in turn_lines)


class TestAdminRollup:
    def test_rollup_sums_and_admin_tenants(self, make_server):
        server = make_server()
        drive_script(server, "acme", SCRIPT[:1])
        drive_script(server, "globex", SCRIPT[:1])
        status, rollup = request(server, "GET", "/admin/usage")
        assert status == 200
        total = sum(row["spent_cost_usd"]
                    for row in rollup["tenants"].values())
        assert rollup["total"]["spent_cost_usd"] == pytest.approx(total)
        assert rollup["health"]["status"] in ("ok", "degraded")
        status, tenants = request(server, "GET", "/admin/tenants")
        assert {row["tenant_id"] for row in tenants["tenants"]} == {
            "acme", "globex"}


# -- operational telemetry over HTTP ------------------------------------


class TestTelemetryEndpoints:
    def test_metrics_prometheus_text(self, make_server):
        server = make_server()
        drive_script(server, "acme", SCRIPT[:1])
        status, headers, text = request_raw(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE http_requests_total counter" in text
        assert 'turns_completed_total{status="ok",tenant="acme"} 1' in text
        assert 'turn_wall_seconds{quantile="0.95",tenant="acme"}' in text
        assert 'repro_slo_ok{slo="availability"} 1' in text

    def test_metrics_json_variant(self, make_server):
        server = make_server()
        drive_script(server, "acme", SCRIPT[:1])
        status, payload = request(server, "GET", "/metrics?format=json")
        assert status == 200
        assert payload["status"] == "ok"
        names = {row["name"] for row in payload["metrics"]["counters"]}
        assert "turns.completed_total" in names
        assert "http.requests_total" in names

    def test_version_endpoint(self, make_server):
        from repro.cli import package_metadata

        server = make_server()
        status, payload = request(server, "GET", "/version")
        version, description = package_metadata()
        assert status == 200
        assert payload["version"] == version
        assert payload["description"] == description

    def test_every_response_carries_a_request_id(self, make_server):
        server = make_server()
        seen = set()
        for path in ("/healthz", "/metrics", "/version", "/nope"):
            _, headers, _ = request_raw(server, "GET", path)
            rid = headers.get("X-Request-Id")
            assert rid and rid.startswith("req-")
            seen.add(rid)
        assert len(seen) == 4  # unique per request

    def test_healthz_degrades_with_reason(self, make_server):
        server = make_server()
        status, payload = request(server, "GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"
        # Pump 5xx availability samples into the window: the
        # availability SLO (>= 0.99) must fire and name itself.
        for _ in range(50):
            server.store.telemetry.ops.observe("http.availability", 0.0)
        status, payload = request(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "degraded" and payload["ok"] is False
        assert "availability" in {a["name"] for a in payload["alerts"]}

    def test_telemetry_off_store_still_serves(self, make_server):
        server = make_server(telemetry=False)
        sid, rows = drive_script(server, "acme", SCRIPT[:1])
        assert rows[0]["status"] == "ok"
        status, _, text = request_raw(server, "GET", "/metrics")
        assert status == 200
        assert 'turns_completed_total{status="ok",tenant="acme"} 1' in text
        status, payload = request(server, "GET", "/healthz")
        assert payload["status"] == "ok"
        assert not (server.store.root.parent / "telemetry").exists()


class TestRequestCorrelation:
    def test_turn_and_log_lines_share_the_http_request_id(
            self, make_server):
        server = make_server()
        request(server, "POST", "/tenants/acme/sessions", {})
        status, headers, row = request_raw(
            server, "POST", "/tenants/acme/sessions/s-0001/turns",
            {"message": SCRIPT[0]})
        assert status == 200
        rid = headers["X-Request-Id"]
        assert row["request_id"] == rid
        # The persisted turn keeps it.
        status, turn = request(
            server, "GET",
            f"/tenants/acme/sessions/s-0001/turns/{row['turn_id']}")
        assert turn["request_id"] == rid
        # Every JSONL log line of the turn's lifecycle carries it too.
        events = server.store.telemetry.log.read_events()
        for name in ("request_start", "turn_start", "turn_finish",
                     "request_finish"):
            matching = [e for e in events
                        if e["event"] == name
                        and e.get("request_id") == rid]
            assert matching, f"no {name} line with request_id {rid}"
        turn_lines = [e for e in events if e["event"] == "turn_start"
                      and e.get("request_id") == rid]
        assert turn_lines[0]["tenant"] == "acme"
        assert turn_lines[0]["session"] == "s-0001"

    def test_progress_events_carry_the_request_id(self, make_server):
        server = make_server()
        sid, rows = drive_script(server, "acme")
        rid = rows[-1]["request_id"]
        assert rid
        status, payload = request(
            server, "GET",
            f"/tenants/acme/sessions/{sid}/turns/"
            f"{rows[-1]['turn_id']}/events")
        assert status == 200
        tagged = [e for e in payload["events"]
                  if e.get("request_id") == rid]
        assert tagged  # live events and span tail are correlated


class TestEviction:
    def test_session_evicted_mid_turn_stays_evicted(self, make_store):
        store = make_store(telemetry=False)
        sid = store.ensure_session("acme")["session_id"]
        with store.acquire("acme") as tenant:
            chat = tenant.get_session(sid).chat
        path = store.root / "acme" / "sessions" / f"{sid}.json"
        answer = chat.chat

        def evict_then_answer(message):
            assert store.evict_session("acme", sid)
            assert not path.exists()
            return answer(message)

        chat.chat = evict_then_answer
        turn = store.run_turn("acme", sid, SCRIPT[0])
        assert turn.status == "ok"
        assert not path.exists()
        assert store.ensure_session("acme", session_id=sid)["resumed"] is False


class TestWorkerPoolSaturation:
    def test_saturated_pool_returns_503_and_fires_the_slo(
            self, make_server):
        import time

        server = make_server(async_workers=1, async_queue=1)
        store = server.store
        from repro.server.store import TurnState

        request(server, "POST", "/tenants/acme/sessions", {})
        # Keep the session busy with a turn of the test's own: the one
        # worker waits for the session to go idle, the one queue slot
        # fills, and the third async turn must bounce.
        with store.acquire("acme") as tenant:
            session = tenant.get_session("s-0001")
            session.active = TurnState("t-held", "held by the test")
        try:
            status, row1 = request(
                server, "POST", "/tenants/acme/sessions/s-0001/turns",
                {"message": SCRIPT[0], "wait": False})
            assert status == 202 and row1["status"] == "running"
            deadline = time.monotonic() + 10
            while store.worker_pool.stats()["active"] < 1:
                assert time.monotonic() < deadline, "worker never started"
                time.sleep(0.01)
            status, row2 = request(
                server, "POST", "/tenants/acme/sessions/s-0001/turns",
                {"message": SCRIPT[0], "wait": False})
            assert status == 202

            status, headers, payload = request_raw(
                server, "POST", "/tenants/acme/sessions/s-0001/turns",
                {"message": SCRIPT[0], "wait": False})
            assert status == 503
            assert payload["error"] == "saturated"
            assert int(headers["Retry-After"]) >= 1

            # The rejection fired the saturation SLO: /healthz degrades
            # and names the worker pool.
            status, health = request(server, "GET", "/healthz")
            assert health["status"] == "degraded"
            assert "worker_pool_saturation" in {
                a["name"] for a in health["alerts"]}
            # The bounced turn left no orphan row behind.
            status, detail = request(
                server, "GET", "/tenants/acme/sessions/s-0001")
            assert len(detail["turn_log"]) == 2
        finally:
            with store.acquire("acme"):
                session.active = None
                store.serving.notify()

        # Released: both accepted turns drain to completion.
        for row in (row1, row2):
            deadline = time.monotonic() + 60
            while True:
                status, turn = request(
                    server, "GET",
                    f"/tenants/acme/sessions/s-0001/turns/"
                    f"{row['turn_id']}")
                if turn["status"] != "running":
                    break
                assert time.monotonic() < deadline, "turn never finished"
                time.sleep(0.05)
            assert turn["status"] == "ok"


class TestServingLock:
    def test_healthz_answers_while_a_long_async_turn_runs(
            self, make_server):
        """A turn holds the serving lock between progress events and
        hands it to whoever queued at each one."""
        import time

        server = make_server()
        store = server.store
        request(server, "POST", "/tenants/acme/sessions", {})
        with store.acquire("acme") as tenant:
            chat = tenant.get_session("s-0001").chat
        release = threading.Event()
        real_chat = chat.chat

        def long_chat(message):
            while not release.is_set():  # work, then report progress
                time.sleep(0.001)
                chat.on_event({"type": "record_processed"})
            return real_chat(message)

        chat.chat = long_chat
        status, row = request(
            server, "POST", "/tenants/acme/sessions/s-0001/turns",
            {"message": SCRIPT[0], "wait": False})
        assert status == 202
        turn_path = f"/tenants/acme/sessions/s-0001/turns/{row['turn_id']}"
        try:
            host, port = server.server_address
            with urllib.request.urlopen(
                    f"http://{host}:{port}/healthz", timeout=10) as resp:
                assert resp.status == 200
                assert json.loads(resp.read())["ok"] is True
            status, turn = request(server, "GET", turn_path)
            assert turn["status"] == "running" and turn["events"] > 0
        finally:
            release.set()
        status, payload = request(server, "GET",
                                  f"{turn_path}/events?wait=10")
        while not payload["done"]:
            status, payload = request(
                server, "GET",
                f"{turn_path}/events?offset={payload['next_offset']}&wait=10")
        status, turn = request(server, "GET", turn_path)
        assert turn["status"] == "ok"


class TestWorkerPoolResilience:
    def test_worker_survives_a_job_that_raises(self):
        import time

        from repro.server.store import TurnWorkerPool

        pool = TurnWorkerPool(workers=1, queue_size=4)
        done = threading.Event()

        def bad():
            raise RuntimeError("boom")

        pool.submit(bad)
        pool.submit(done.set)
        assert done.wait(10), "worker died on the raising job"
        deadline = time.monotonic() + 10
        while pool.stats()["active"] or pool.stats()["queued"]:
            assert time.monotonic() < deadline, "pool never drained"
            time.sleep(0.01)
        pool.close()

    def test_saturation_rollback_removes_the_rejected_turn_by_identity(
            self, make_store):
        from repro.server.store import TurnState, WorkerPoolSaturated

        store = make_store(telemetry=False)
        store.ensure_session("acme")
        with store.acquire("acme") as tenant:
            session = tenant.get_session("s-0001")
        sentinel = TurnState("t-sentinel", "appended concurrently")

        def submit_then_reject(fn):
            # A concurrent POST appends another turn between our append
            # and the pool rejection: the rollback must still remove
            # *our* turn, not whatever is last.
            session.turns.append(sentinel)
            raise WorkerPoolSaturated("full")

        store.worker_pool.submit = submit_then_reject
        with pytest.raises(WorkerPoolSaturated):
            store.run_turn("acme", "s-0001", SCRIPT[0], wait=False)
        assert [t.turn_id for t in session.turns] == ["t-sentinel"]

    def test_infra_failure_marks_turn_errored_not_stuck(self, make_store):
        from repro.server.store import TurnState

        store = make_store()
        store.ensure_session("acme")
        with store.acquire("acme") as tenant:
            del tenant.sessions["s-0001"]  # evicted while queued
        turn = TurnState("t-0001", SCRIPT[0], request_id="req-x")
        with pytest.raises(KeyError):
            store._run_turn("acme", "s-0001", turn)
        assert turn.status == "error"
        assert "KeyError" in turn.error
        assert turn.events.closed  # streaming readers unblock
        in_flight = [g["value"]
                     for g in store.telemetry.ops.snapshot()["gauges"]
                     if g["name"] == "turns.in_flight"]
        assert in_flight == [0.0]  # the gauge never leaks
