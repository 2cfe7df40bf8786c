"""The three ``serve_*`` workloads: chat turns over HTTP, closed loop.

The load generator is this process: at most two client threads, each
holding **one persistent HTTP/1.1 connection** (``http.client``) and
sending its next request only after the previous reply arrived.  The
server is a separate ``python -m repro serve --port 0`` process, so the
clients' JSON work never holds the server's GIL.  Clients run *whole
sessions* until the stated time has elapsed, which keeps the turn mix
identical on every commit.  Nothing here sets ``Connection: close`` or
otherwise works around what a kept-alive front end would see.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from common import Outcome, SRC_DIR, median, mid, scratch_root, tail

# ----------------------------------------------------------------------
# Scripts: (message, expected tool sequence, turn kind).
# ----------------------------------------------------------------------

LOAD = ("Load the sigmod-demo dataset", ["load_dataset"], "light")
BUILD = (
    "Keep only the papers about colorectal cancer and extract whatever "
    "public dataset is used by the study",
    ["filter_dataset", "create_schema", "convert_dataset"], "light",
)
FIRST_RUN = ("Maximize quality and run the pipeline",
             ["set_optimization_target", "execute_pipeline"], "exec")
COST = ("How much did it cost?", ["get_execution_stats"], "light")

#: Output records of the demo pipeline (11 papers in, 6 datasets out).
DEMO_RECORDS = 6


def demo_script(seed: int) -> List[Tuple[str, List[str], str]]:
    """The paper's demo conversation; the seed picks the record asked about."""
    record = 1 + seed % DEMO_RECORDS
    return [
        LOAD, BUILD, FIRST_RUN, COST,
        (f"why is record {record} in the output?", ["explain_record"],
         "light"),
        ("what took so long?", ["explain_execution"], "light"),
        ("show me the generated code", ["show_records", "generate_code"],
         "light"),
    ]


LONG_SETUP = [LOAD, BUILD, FIRST_RUN]
LONG_ROUND = [
    ("run the pipeline", ["execute_pipeline"], "exec"),
    ("show me the records", ["show_records"], "light"),
    COST,
    ("what changed since the last run?", ["compare_runs"], "light"),
]

_RESULT_ID = re.compile(r"result (run-\d+)")


# ----------------------------------------------------------------------
# The server process.
# ----------------------------------------------------------------------

class ServerProcess:
    """One ``repro serve`` subprocess rooted in its own scratch directory."""

    def __init__(self, root: Path):
        self.root = root
        self.host = ""
        self.port = 0
        self.boot_s = 0.0
        self._proc: Optional[subprocess.Popen] = None
        self._stderr = None

    def start(self) -> "ServerProcess":
        """Boot and wait for the first 200 on ``/healthz`` (timed)."""
        self.root.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        self._stderr = open(self.root / "server.stderr", "w")
        started = time.perf_counter()
        # -u: the URL line must reach the pipe before serve_forever blocks.
        self._proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--root", str(self.root / "tenants"),
             "--data-dir", str(self.root / "data")],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        line = self._proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not announce a URL: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        client = Client(self.host, self.port)
        try:
            status, _, _ = client.call("GET", "/healthz")
        finally:
            client.close()
        self.boot_s = time.perf_counter() - started
        if status != 200:
            self.stop()
            raise RuntimeError(f"/healthz answered {status}")
        return self

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set), in MB."""
        status = Path(f"/proc/{self._proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is not None:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            proc.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None


class Client:
    """One persistent HTTP/1.1 connection; requests are strictly serial."""

    def __init__(self, host: str, port: int):
        self._conn = http.client.HTTPConnection(host, port, timeout=120)
        self.requests = 0
        self.non_2xx = 0

    def call(self, method: str, path: str, body: Optional[dict] = None):
        """``(status, payload, milliseconds)``; the clock stops once the
        whole reply is read, before it is decoded."""
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        started = time.perf_counter()
        self._conn.request(method, path, body=data, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.requests += 1
        if not 200 <= response.status < 300:
            self.non_2xx += 1
        if response.getheader("Content-Type", "").startswith(
                "application/json"):
            payload = json.loads(raw)
        else:
            payload = raw.decode("utf-8", "replace")
        return response.status, payload, elapsed_ms

    def close(self) -> None:
        self._conn.close()


# ----------------------------------------------------------------------
# Driving sessions and checking every reply.
# ----------------------------------------------------------------------

@dataclass
class Tally:
    """What one client thread observed (merged after the threads join)."""

    turn_ms: List[float]
    exec_ms: List[float]
    read_ms: List[float]
    wall_s: float = 0.0
    sessions: int = 0

    @classmethod
    def empty(cls) -> "Tally":
        return cls([], [], [])


class Driver:
    """Runs scripted sessions for one tenant over one :class:`Client` and
    checks every reply (the traced pass reuses it with a span-opening
    client)."""

    def __init__(self, client: Client, tenant: str, outcome: Outcome,
                 lock: threading.Lock):
        self.client = client
        self.tenant = tenant
        self.outcome = outcome
        self.lock = lock
        self.tally = Tally.empty()
        #: Usage of every turn this tenant ever ran (warm-up included),
        #: for the ``/admin/usage`` invariant.
        self.usage_tokens = 0
        self.usage_cost = 0.0
        self.turns_total = 0

    def _check(self, ok: bool, what: str) -> bool:
        with self.lock:
            return self.outcome.check(ok, what)

    def new_session(self) -> str:
        status, row, _ = self.client.call(
            "POST", f"/tenants/{self.tenant}/sessions", {})
        self._check(status == 201, f"create session -> {status}")
        return row["session_id"]

    def turn(self, sid: str, step, timed: bool) -> dict:
        message, tools, kind = step
        status, row, ms = self.client.call(
            "POST", f"/tenants/{self.tenant}/sessions/{sid}/turns",
            {"message": message})
        reply = row.get("reply") or ""
        ok = (status == 200 and row.get("status") == "ok"
              and row.get("tools") == tools and "tool error" not in reply)
        if ok and "execute_pipeline" in tools:
            ok = f"{DEMO_RECORDS} records produced" in reply
        self._check(ok, f"turn {message!r} -> {status} "
                        f"{row.get('status')} {row.get('tools')}")
        usage = row.get("usage") or {}
        self.usage_tokens += int(usage.get("tokens", 0))
        self.usage_cost += float(usage.get("cost_usd", 0.0))
        self.turns_total += 1
        if timed:
            self.tally.turn_ms.append(ms)
            if kind == "exec":
                self.tally.exec_ms.append(ms)
        return row

    def read(self, path: str, verify: Callable[[dict], bool],
             timed: bool) -> None:
        status, payload, ms = self.client.call("GET", path)
        self._check(status == 200 and verify(payload),
                    f"GET {path} -> {status}")
        if timed:
            self.tally.read_ms.append(ms)

    def demo_session(self, script, timed: bool = True) -> str:
        sid = self.new_session()
        for step in script:
            self.turn(sid, step, timed)
        self.tally.sessions += int(timed)
        return sid

    def long_session(self, rounds: int, timed: bool = True) -> str:
        """3 set-up turns, then ``rounds`` x (4 turns + 4 reads)."""
        sid = self.new_session()
        base = f"/tenants/{self.tenant}"
        turns = 0
        for step in LONG_SETUP:
            self.turn(sid, step, timed)
            turns += 1
        for _ in range(rounds):
            run_id = None
            for step in LONG_ROUND:
                row = self.turn(sid, step, timed)
                turns += 1
                if step[2] == "exec":
                    found = _RESULT_ID.search(row.get("reply") or "")
                    run_id = found.group(1) if found else "run-missing"
            seen = turns
            self.read(f"{base}/sessions/{sid}",
                      lambda p: p.get("turns") == seen, timed)
            self.read(f"{base}/results/{run_id}?offset=0&limit=5",
                      lambda p: (len(p.get("records", [])) == 5
                                 and p["result"]["count"] == DEMO_RECORDS),
                      timed)
            self.read(f"{base}/sessions/{sid}/turns/{row['turn_id']}/events",
                      lambda p: p.get("done") is True, timed)
            self.read(f"{base}/usage",
                      lambda p: p["usage"]["spent_tokens"] > 0, timed)
        self.tally.sessions += int(timed)
        return sid


def check_usage_rollup(client: Client, drivers: List[Driver],
                       outcome: Outcome) -> None:
    """``/admin/usage`` totals must equal the sum of per-turn usage."""
    status, rollup, _ = client.call("GET", "/admin/usage")
    tenants = rollup.get("tenants", {}) if status == 200 else {}
    for driver in drivers:
        row = tenants.get(driver.tenant, {})
        outcome.check(
            row.get("spent_tokens") == driver.usage_tokens
            and abs(row.get("spent_cost_usd", -1.0) - driver.usage_cost)
            <= 1e-6 * max(1, driver.turns_total),
            f"usage rollup {driver.tenant}: {row.get('spent_tokens')} "
            f"tokens vs {driver.usage_tokens} summed over turns")
    total = rollup.get("total", {})
    outcome.check(
        total.get("spent_tokens") == sum(d.usage_tokens for d in drivers),
        "usage rollup total != sum of tenants")


# ----------------------------------------------------------------------
# The timed workloads.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ServeShape:
    clients: int
    long_rounds: int  # 0 = the demo script


SHAPES: Dict[str, ServeShape] = {
    "serve_chat": ServeShape(clients=1, long_rounds=0),
    "serve_chat_c2": ServeShape(clients=2, long_rounds=0),
    "serve_long_session": ServeShape(clients=1, long_rounds=30),
}

#: Server boots per run; ``setup_s`` is their median, the last one serves.
BOOTS = 3


def run(workload: str, seed: int, seconds: float,
        smoke: bool = False) -> Outcome:
    shape = SHAPES[workload]
    rounds = 3 if (smoke and shape.long_rounds) else shape.long_rounds
    outcome = Outcome()
    with scratch_root(workload) as root:
        boots: List[float] = []
        server = None
        try:
            for index in range(1 if smoke else BOOTS):
                if server is not None:
                    server.stop()
                server = ServerProcess(root / f"boot{index}").start()
                boots.append(server.boot_s)
            _drive(server, shape, rounds, seed, seconds, outcome)
            outcome.put("peak_rss_mb", server.peak_rss_mb())
        finally:
            if server is not None:
                server.stop()
        outcome.put("setup_s", median(boots), len(boots))
    return outcome


def _drive(server: ServerProcess, shape: ServeShape, rounds: int,
           seed: int, seconds: float, outcome: Outcome) -> None:
    lock = threading.Lock()
    script = demo_script(seed)
    drivers = [
        Driver(Client(server.host, server.port), f"s{seed}c{index}",
               outcome, lock)
        for index in range(shape.clients)
    ]
    errors: List[BaseException] = []
    barrier = threading.Barrier(shape.clients)

    def one_session(driver: Driver, timed: bool) -> None:
        if rounds:
            driver.long_session(rounds if timed else 2, timed)
        else:
            driver.demo_session(script, timed)

    def client_loop(driver: Driver) -> None:
        try:
            one_session(driver, timed=False)  # untimed warm-up
            barrier.wait()
            started = time.perf_counter()
            while time.perf_counter() - started < seconds:
                one_session(driver, timed=True)
            driver.tally.wall_s = time.perf_counter() - started
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client_loop, args=(d,))
               for d in drivers]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        check_usage_rollup(drivers[0].client, drivers, outcome)
    finally:
        for driver in drivers:
            driver.client.close()

    turn_ms = [ms for d in drivers for ms in d.tally.turn_ms]
    exec_ms = [ms for d in drivers for ms in d.tally.exec_ms]
    read_ms = [ms for d in drivers for ms in d.tally.read_ms]
    # Each client's own rate, summed: whole sessions end at different
    # moments, and the tail where one client runs alone is not load.
    rate = sum(len(d.tally.turn_ms) / d.tally.wall_s for d in drivers)
    outcome.put("throughput_per_s", rate, len(turn_ms))
    outcome.put("latency_mid_ms", mid(turn_ms), len(turn_ms))
    outcome.put("latency_tail_ms", tail(turn_ms), len(turn_ms))
    outcome.put("exec_mid_ms", mid(exec_ms), len(exec_ms))
    outcome.notes["sessions"] = sum(d.tally.sessions for d in drivers)
    outcome.notes["reads"] = len(read_ms)
    if read_ms:
        outcome.notes["read_mid_ms"] = round(mid(read_ms), 4)
