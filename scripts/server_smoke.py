#!/usr/bin/env python
"""End-to-end smoke test for ``repro serve`` (the service layer).

Boots the multi-tenant HTTP server on an ephemeral port, walks **two
tenants** through the full chat lifecycle — create a session, build a
pipeline over the demo corpus in three chat turns, execute it, stream
the turn's progress events, and fetch the result slice — then asserts
the tenancy invariants:

* each tenant's run landed in its **own** registry (``runs`` listings
  are disjoint directories under ``<root>/<tenant>/runs``);
* both tenants built the same pipeline, so their result fingerprints
  and record slices are **identical** (isolation did not perturb
  execution) while their session/run state never mixed;
* the admin usage rollup equals the **sum** of the per-tenant ledgers;
* an over-quota tenant is rejected with a 429 while others keep
  working, and an admin quota raise unblocks it;
* every response carries a distinct ``X-Request-Id`` header and a
  turn's row records the id of the request that ran it (the telemetry
  correlation contract — see ``scripts/validate_metrics.py`` for the
  deeper log/metrics checks);
* resume is lossless: after the server restarts on the same root, a
  resumed session answers questions about its runs, and shows its
  generated code, with the same text.

Run it from the repo root::

    PYTHONPATH=src python scripts/server_smoke.py

Exits non-zero on the first violated invariant (CI's ``server`` job).
"""

import argparse
import json
import sys
import tempfile
import urllib.error
import urllib.request


def call_raw(base, method, path, body=None):
    """Like ``call`` but also returns the response headers."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return (response.status, dict(response.headers),
                    json.loads(response.read()))
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def call(base, method, path, body=None):
    status, _, payload = call_raw(base, method, path, body)
    return status, payload


TURNS = [
    "Load the sigmod-demo dataset",
    "Keep only papers about machine learning",
    "run the pipeline",
]

#: Questions a session answers from its recorded runs and its step log.
RESUME_QUESTIONS = ["How much did it cost?", "what took so long?",
                    "show me the generated code"]


def ask(base, tenant, sid, questions):
    """Each question's reply text (every turn must succeed)."""
    replies = []
    for message in questions:
        status, row = call(base, "POST",
                           f"/tenants/{tenant}/sessions/{sid}/turns",
                           {"message": message})
        assert status == 200 and row["status"] == "ok", (status, row)
        assert "tool error" not in row["reply"], row["reply"]
        replies.append(row["reply"])
    return replies


def start(root, data_dir):
    """Serve on an ephemeral port; returns (server, base url)."""
    from repro.server import run_in_thread, serve

    server = serve(port=0, root=root, data_dir=data_dir, max_cost_usd=5.0)
    host, port = server.server_address
    run_in_thread(server)
    return server, f"http://{host}:{port}"


def stop(server):
    server.shutdown()
    server.server_close()
    server.store.close()


def drive_tenant(base, tenant):
    """One tenant's full lifecycle; returns its observed state."""
    status, row = call(base, "POST", f"/tenants/{tenant}/sessions", {})
    assert status == 201, (tenant, status, row)
    sid = row["session_id"]

    last = None
    for message in TURNS:
        status, last = call(
            base, "POST", f"/tenants/{tenant}/sessions/{sid}/turns",
            {"message": message})
        assert status == 200, (tenant, message, status, last)
        assert last["status"] == "ok", (tenant, last)

    # Stream the execution turn's progress events to completion.
    turn_id = last["turn_id"]
    offset, done, kinds = 0, False, []
    while not done:
        status, page = call(
            base, "GET",
            f"/tenants/{tenant}/sessions/{sid}/turns/{turn_id}/events"
            f"?offset={offset}&wait=2")
        assert status == 200, (tenant, status, page)
        kinds.extend(event["type"] for event in page["events"])
        offset, done = page["next_offset"], page["done"]
    for expected in ("turn_start", "plan_start", "plan_end", "turn_end"):
        assert expected in kinds, (tenant, expected, kinds)

    status, runs = call(base, "GET", f"/tenants/{tenant}/runs")
    assert status == 200 and runs["runs"], (tenant, runs)
    run_id = runs["runs"][-1]["run_id"]

    status, result = call(
        base, "GET", f"/tenants/{tenant}/results/{run_id}?offset=0")
    assert status == 200, (tenant, status, result)

    status, usage = call(base, "GET", f"/tenants/{tenant}/usage")
    assert status == 200, (tenant, usage)

    return {
        "session_id": sid,
        "run_id": run_id,
        "result": result["result"],
        "records": result["records"],
        "usage": usage["usage"],
        "events": len(kinds),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="tenant state root (default: a temp dir)")
    args = parser.parse_args()

    scratch = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    root = args.root or f"{scratch}/tenants"
    server, base = start(root, f"{scratch}/data")
    print(f"server_smoke: serving {base} (tenants under {root})")

    status, health = call(base, "GET", "/healthz")
    assert status == 200 and health["ok"], health

    tenants = ["acme", "globex"]
    states = {tenant: drive_tenant(base, tenant) for tenant in tenants}
    for tenant in tenants:
        state = states[tenant]
        print(f"  {tenant}: run {state['run_id']} -> "
              f"{state['result']['count']} records "
              f"[{state['result']['fingerprint']}], "
              f"{state['events']} progress events, "
              f"${state['usage']['spent_cost_usd']:.4f} spent")

    # -- isolation: same pipeline => identical results, separate state.
    a, b = states["acme"], states["globex"]
    assert a["result"]["fingerprint"] == b["result"]["fingerprint"], (
        "tenants ran the same pipeline but diverged: "
        f"{a['result']} vs {b['result']}")
    assert a["records"] == b["records"], "record payloads diverged"

    # Registries are physically disjoint: each tenant sees only its own
    # runs, and cross-tenant result fetches 404.
    for tenant, other in (("acme", b), ("globex", a)):
        status, runs = call(base, "GET", f"/tenants/{tenant}/runs")
        assert len(runs["runs"]) == 1, (tenant, runs)
    status, _ = call(base, "GET", "/tenants/nosuch/results/run-0001")
    assert status == 404, "empty tenant should have no runs"

    # -- admin rollup equals the sum of per-tenant ledgers.
    status, rollup = call(base, "GET", "/admin/usage")
    assert status == 200, rollup
    summed = sum(t["spent_cost_usd"] for t in rollup["tenants"].values())
    assert abs(rollup["total"]["spent_cost_usd"] - summed) < 1e-9, rollup
    per_tenant = {t: states[t]["usage"]["spent_cost_usd"] for t in tenants}
    for tenant in tenants:
        assert abs(rollup["tenants"][tenant]["spent_cost_usd"]
                   - per_tenant[tenant]) < 1e-9, (tenant, rollup)
    print(f"  admin rollup: ${rollup['total']['spent_cost_usd']:.4f} "
          f"across {len(rollup['tenants'])} tenants (sums match)")

    # -- quotas: a starved tenant 429s; a raise unblocks it; others are
    #    untouched.
    status, _ = call(base, "POST", "/admin/tenants/starved/quota",
                     {"max_cost_usd": 0.0})
    assert status == 200
    status, row = call(base, "POST", "/tenants/starved/sessions", {})
    assert status == 201, row
    starved_sid = row["session_id"]
    status, row = call(
        base, "POST", f"/tenants/starved/sessions/{starved_sid}/turns",
        {"message": "Load the sigmod-demo dataset"})
    assert status == 429 and row["error"] == "quota_exhausted", (status, row)
    status, row = call(base, "POST",
                       f"/tenants/acme/sessions/{a['session_id']}/turns",
                       {"message": "What does the pipeline look like?"})
    assert status == 200 and row["status"] == "ok", (status, row)
    status, _ = call(base, "POST", "/admin/tenants/starved/quota",
                     {"max_cost_usd": 5.0})
    assert status == 200
    status, row = call(
        base, "POST", f"/tenants/starved/sessions/{starved_sid}/turns",
        {"message": "Load the sigmod-demo dataset"})
    assert status == 200 and row["status"] == "ok", (status, row)
    print("  quotas: starved tenant 429'd, neighbors unaffected, "
          "admin raise unblocked it")

    # -- correlation: every response carries an X-Request-Id; a turn's
    #    row records the id of the request that ran it, end to end.
    status, headers, row = call_raw(
        base, "POST", f"/tenants/acme/sessions/{a['session_id']}/turns",
        {"message": "What does the pipeline look like?"})
    assert status == 200, (status, row)
    rid = headers.get("X-Request-Id")
    assert rid, "turn response missing X-Request-Id header"
    assert row.get("request_id") == rid, (
        f"turn row carries {row.get('request_id')!r}, header says {rid!r}")
    seen_ids = {rid}
    for probe in ("/healthz", "/metrics?format=json",
                  f"/tenants/acme/sessions/{a['session_id']}"):
        status, headers, _ = call_raw(base, "GET", probe)
        assert status == 200, (probe, status)
        probe_id = headers.get("X-Request-Id")
        assert probe_id and probe_id not in seen_ids, (probe, probe_id)
        seen_ids.add(probe_id)
    print(f"  correlation: turn {row['turn_id']} carries {rid}; "
          f"{len(seen_ids)} distinct request ids across probes")

    # -- restart: a resumed session still answers from its runs and shows
    # the same program.
    sid = a["session_id"]
    before = ask(base, "acme", sid, RESUME_QUESTIONS)
    assert "import repro as pz" in before[-1], before[-1]
    stop(server)
    server, base = start(root, f"{scratch}/data")
    status, row = call(base, "POST", "/tenants/acme/sessions",
                       {"session_id": sid})
    assert status == 200 and row["resumed"], (status, row)
    after = ask(base, "acme", sid, RESUME_QUESTIONS)
    assert after == before, (before, after)
    print(f"  restart: resumed acme/{sid} answered {len(after)} questions "
          "about its run and its code with the same text")

    stop(server)
    print("server_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
