"""The service's metrics exposition, pinned over one fixed request script.

A live in-process server runs a turn, an unrouted 404, a bad-body 400
and a 429 after a token cap.  ``/metrics`` and ``/metrics?format=json``
must then match ``tests/data/ops_exposition.json``: metric names,
``# TYPE`` lines, label sets, counter and gauge values, histogram
counts and the SLO rows.  Wall-time values (histogram quantiles,
``sum``/``min``/``max``, ``generated_at`` and the p95 SLO's value) are
masked as ``"*"``.

Regenerate the file only when a change to the exposition is the point:
``PYTHONPATH=src python tests/test_ops_exposition.py``.
"""

import json
import re
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

from repro.server import ReproServer, SessionStore, run_in_thread

GOLDEN = Path(__file__).parent / "data" / "ops_exposition.json"
DOCS = Path(__file__).parents[1] / "docs" / "observability.md"
SOURCE = Path(__file__).parents[1] / "src" / "repro"

#: The one turn: loads, filters and executes, so engine phases record.
TURN = ("Load the sigmod-demo dataset. Keep only the papers about "
        "colorectal cancer. Run the pipeline.")

MASK = "*"


def _call(server, method, path, data=None):
    host, port = server.server_address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def run_script(root):
    """Drive the fixed script; returns the ``/metrics`` text, the JSON
    payload, and the text read once more after it."""
    server = ReproServer(("127.0.0.1", 0),
                         SessionStore(root=str(Path(root) / "tenants")))
    run_in_thread(server)
    turns = "/tenants/acme/sessions/s-0001/turns"
    try:
        steps = [
            ("POST", "/tenants/acme/sessions", b"{}", 201),
            ("POST", turns, json.dumps({"message": TURN}).encode(), 200),
            ("GET", "/nope", None, 404),
            ("POST", turns, b"{not json", 400),
            ("POST", "/admin/tenants/acme/quota", b'{"max_tokens": 1}', 200),
            ("POST", turns, b'{"message": "run the pipeline"}', 429),
        ]
        for method, path, data, expected in steps:
            status, body = _call(server, method, path, data)
            assert status == expected, (method, path, status, body)
        text, raw, again = [
            _call(server, "GET", path)[1]
            for path in ("/metrics", "/metrics?format=json", "/metrics")]
    finally:
        server.shutdown()
        server.server_close()
        server.store.close()
    return text, json.loads(raw), again


def mask_prometheus(text):
    summaries = {line.split()[2] for line in text.splitlines()
                 if line.startswith("# TYPE") and line.endswith(" summary")}
    masked = []
    for line in text.splitlines():
        name = re.split(r"[{ ]", line, 1)[0]
        if name in summaries or (name.endswith("_sum")
                                 and name[:-4] in summaries):
            line = line.rpartition(" ")[0] + " " + MASK
        masked.append(line)
    return masked


def _mask_slo(row):
    if row["name"] == "turn_latency_p95":
        return {**row, "value": MASK}
    return row


def mask_payload(payload):
    masked = dict(payload, generated_at=MASK)
    masked["slos"] = [_mask_slo(row) for row in payload["slos"]]
    masked["alerts"] = [_mask_slo(row) for row in payload["alerts"]]
    metrics = dict(payload["metrics"])
    metrics["histograms"] = [
        {**row, "summary": {key: (value if key == "count" else MASK)
                            for key, value in row["summary"].items()}}
        for row in metrics["histograms"]]
    masked["metrics"] = metrics
    return masked


def observed(root):
    text, payload, _ = run_script(root)
    return {"prometheus": mask_prometheus(text),
            "json": mask_payload(payload)}


def test_exposition_matches_the_pinned_script(sigmod_demo, tmp_path):
    assert observed(tmp_path) == json.loads(GOLDEN.read_text())


def _exposed_names(text):
    return {line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE") and "repro_slo_ok" not in line}


def test_reading_the_metrics_creates_none(sigmod_demo, tmp_path):
    text, payload, again = run_script(tmp_path)
    listed = {row["name"].replace(".", "_")
              for rows in payload["metrics"].values() for row in rows}
    assert _exposed_names(text) == listed == _exposed_names(again)


def _documented_names():
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("### Metrics, `/metrics`, and labels", 1)[1]
    section = section.split("\n### ", 1)[0]
    return {name for name in re.findall(
        r"`([a-z_]+(?:\.[a-z_]+)+)(?:\{[^`]*\})?`", section)}


def test_docs_list_every_emitted_metric(sigmod_demo, tmp_path):
    _, payload, _ = run_script(tmp_path)
    emitted = {row["name"] for rows in payload["metrics"].values()
               for row in rows}
    documented = _documented_names()
    assert emitted - documented == set()
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in SOURCE.rglob("*.py"))
    for name in sorted(documented):
        # Phase timings are named by ``Telemetry.phase`` from the phase.
        literal = (name[:-len("_wall_seconds")]
                   if name.endswith("_wall_seconds") else name)
        assert f'"{literal}"' in source, f"{name} is documented, not emitted"


if __name__ == "__main__":
    from repro.core.sources import DirectorySource, register_datasource
    from repro.corpora.papers import generate_paper_corpus

    with tempfile.TemporaryDirectory() as scratch:
        papers = generate_paper_corpus(Path(scratch) / "papers")
        register_datasource(DirectorySource(papers, dataset_id="sigmod-demo"),
                            overwrite=True)
        pinned = observed(scratch)
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
