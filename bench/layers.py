"""Per-layer numbers for ``--trace 1``: a reduced traced pass plus probes.

Each workload's traced run does two things.  It repeats a reduced pass of
the workload twice, first plain and then with :mod:`spans` wrapped around
every layer's public entry point, and derives each layer's self time from
the spans (the difference between the two passes is the tracing overhead).
Then it runs the probes of the layers that workload stresses: direct calls
into one public function on inputs the program has not seen.

A workload reports only the layers it crosses; ``run.py`` prints every
other per-layer metric as 0 for it (``batch_plain`` does no work in
``server.http``).  Serve passes run the server *in this process* so the
handler threads can be wrapped; end-to-end numbers never come from here.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import batch
import serve
from common import (
    OUT_DIR,
    Outcome,
    machine_speed,
    median,
    mid,
    probe_s,
    scratch_root,
    slope,
    tree_bytes,
    use_source_tree,
)
from spans import SpanRecorder, SpanTree, program_spans

PROBE_MODEL = "gpt-4o"
#: Corpus size of the probes the issue states at 10k documents (flag
#: overheads, registry, optimizer, incremental): single calls, not units
#: scaled by calibration probes, so they need not be short.
PROBE_DOCS = 10_000


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def _median_of(fn: Callable[[], object], rounds: int) -> float:
    return median([_timed(fn)[0] for _ in range(rounds)])


def write_trace(workload: str, seed: int, tree: SpanTree) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload}.json"
    path.write_text(json.dumps(
        {"workload": workload, "seed": seed, "spans": tree.to_payload()}))
    return path


# ----------------------------------------------------------------------
# serve_*: HTTP > store > chat > engine, server in-process.
# ----------------------------------------------------------------------

class TracedClient(serve.Client):
    """A :class:`serve.Client` that opens a root span per request; the
    server's handler thread adopts it through the tenant key."""

    def __init__(self, host: str, port: int, tenant: str):
        super().__init__(host, port)
        self.tenant = tenant
        self.recorder: Optional[SpanRecorder] = None
        self._ops = 0

    def call(self, method: str, path: str, body: Optional[dict] = None):
        if self.recorder is None:
            return super().call(method, path, body)
        self._ops += 1
        with self.recorder.span(
                f"server.http.{method.lower()}",
                op=f"{self.tenant}/{self._ops}",
                adopt_as=f"tenant:{self.tenant}"):
            return super().call(method, path, body)


def _serve_pass(drivers: List[serve.Driver], session: Callable) -> float:
    """One whole session per client, concurrently; mean turn wall (ms)."""
    before = [len(d.tally.turn_ms) for d in drivers]
    threads = [threading.Thread(target=session, args=(d,)) for d in drivers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    fresh = [ms for d, n in zip(drivers, before) for ms in d.tally.turn_ms[n:]]
    return sum(fresh) / len(fresh)


def _turn_metrics(tree: SpanTree, out: Outcome) -> None:
    """Self times along HTTP turn > run_turn > chat > {engine, save}."""
    light: Dict[str, List[float]] = {}
    heavy: Dict[str, List[float]] = {}
    for span in tree.named("server.http.post"):
        run_turn = tree.below(span, "server.store.run_turn")
        if not run_turn:
            continue  # a session create, not a turn
        chat = tree.below(span, "chat.session.chat")
        engine = tree.below(span, "execution.engine.execute")
        save = tree.below(span, "obs.registry.save")
        row = heavy if engine else light
        row.setdefault("http_self", []).append(
            tree.duration(span) - run_turn)
        row.setdefault("run_turn", []).append(run_turn)
        row.setdefault("store_self", []).append(run_turn - chat)
        row.setdefault("chat", []).append(chat)
        row.setdefault("chat_self", []).append(chat - engine - save)

    def put(name: str, row: Dict[str, List[float]], key: str) -> None:
        values = row.get(key, [])
        if values:
            out.put(name, _ms(median(values)), len(values))

    put("server.http.turn_self_ms", light, "http_self")
    put("server.store.run_turn_light_ms", light, "run_turn")
    put("server.store.run_turn_exec_ms", heavy, "run_turn")
    put("server.store.self_light_ms", light, "store_self")
    put("chat.session.chat_light_ms", light, "chat")
    put("chat.session.chat_exec_ms", heavy, "chat")
    put("chat.session.self_exec_ms", heavy, "chat_self")
    for metric, name, scale in (
            ("chat.intent.plan_requests_us", "chat.intent.plan_requests", 1e6),
            ("optimizer.optimize_demo_ms", "optimizer.optimize", 1e3),
            ("obs.registry.save_demo_ms", "obs.registry.save", 1e3)):
        walls = [tree.duration(s) for s in tree.named(name)]
        if walls:
            out.put(metric, median(walls) * scale, len(walls))


def _direct_session(store, tenant: str, steps, out: Outcome,
                    at_turn: Optional[int] = None):
    """Drive ``steps`` through ``SessionStore.run_turn`` (no HTTP).

    Returns ``(session id, [(turn index, wall s)] of light turns, bytes of
    the persisted session file after turn ``at_turn``)``.
    """
    sid = store.ensure_session(tenant)["session_id"]
    path = store.root / tenant / "sessions" / f"{sid}.json"
    light: List[Tuple[int, float]] = []
    size_at = 0
    for index, (message, tools, kind) in enumerate(steps, start=1):
        wall, turn = _timed(lambda: store.run_turn(tenant, sid, message))
        row = turn.to_dict()
        out.check(row["status"] == "ok" and row["tools"] == tools,
                  f"direct turn {message!r} -> {row['status']}")
        if kind == "light":
            light.append((index, wall))
        if index == at_turn:
            size_at = path.stat().st_size
    return sid, light, size_at or path.stat().st_size


def _resume_ms(root: Path, tenant: str, sid: str, rounds: int,
               out: Outcome) -> float:
    """A new ``SessionStore`` on the same root resuming a persisted id."""
    from repro.server.store import SessionStore

    walls = []
    for _ in range(rounds):
        store = SessionStore(root=str(root), telemetry=False)
        try:
            wall, row = _timed(
                lambda: store.ensure_session(tenant, session_id=sid))
        finally:
            store.close()
        out.check(row["resumed"] is True, f"resume of {sid} started fresh")
        walls.append(wall)
    return _ms(median(walls))


def trace_serve(workload: str, seed: int, smoke: bool) -> Outcome:
    use_source_tree()
    import repro.server as server_mod
    from repro.corpora import register_demo_datasets
    from repro.optimizer.optimizer import Optimizer
    from repro.server.store import SessionStore

    shape = serve.SHAPES[workload]
    long_rounds = shape.long_rounds and (2 if smoke else 4)
    script = serve.demo_script(seed)
    out = Outcome()
    lock = threading.Lock()

    def session(driver: serve.Driver) -> None:
        if long_rounds:
            driver.long_session(long_rounds)
        else:
            driver.demo_session(script)

    with scratch_root(f"trace-{workload}") as root:
        data_dir = str(root / "data")
        out.put("corpora.demo_register_s",
                _timed(lambda: register_demo_datasets(data_dir))[0])
        server = server_mod.serve(port=0, root=str(root / "tenants"),
                                  data_dir=data_dir)
        server_mod.run_in_thread(server)
        host, port = server.server_address
        clients = [TracedClient(host, port, f"s{seed}c{i}")
                   for i in range(shape.clients)]
        drivers = [serve.Driver(c, c.tenant, out, lock) for c in clients]
        try:
            _serve_pass(drivers, session)  # warm-up
            plain_ms = _serve_pass(drivers, session)
            with program_spans() as recorder:
                for client in clients:
                    client.recorder = recorder
                traced_ms = _serve_pass(drivers, session)
                for client in clients:
                    client.recorder = None
            tree = recorder.finish()
            out.put("bench.trace_overhead_share",
                    (traced_ms - plain_ms) / plain_ms)
            _turn_metrics(tree, out)
            turns = sum(d.turns_total for d in drivers)
            out.put("server.store.persist_kb_per_turn",
                    tree_bytes(root / "tenants") / 1024.0 / turns, turns)
            out.put("obs.telemetry.log_bytes_per_turn",
                    tree_bytes(root / "telemetry") / turns, turns)
            llm_calls = len(tree.prefixed("llm.client."))
            out.put("llm.client.calls", llm_calls / len(drivers))
            reads = [ms for d in drivers for ms in d.tally.read_ms]
            if reads:
                out.put("server.http.read_mid_ms", mid(reads), len(reads))

            # What the conversation itself looks like, from the live store.
            with server.store.acquire(clients[0].tenant) as tenant:
                live = tenant.get_session(tenant.session_ids()[-1])
            out.put("chat.tool_calls_per_script",
                    sum(len(t.tools) for t in live.turns), len(live.turns))
            out.put("agent.react.steps_per_turn",
                    sum(r.result.steps_used for r in live.chat.turns)
                    / len(live.chat.turns), len(live.chat.turns))
            dataset = live.chat.workspace.current
            report = Optimizer().optimize(dataset.logical_plan(),
                                          dataset.source)
            out.put("optimizer.plans_costed", report.plans_considered)
            out.put("optimizer.frontier_size", len(report.frontier()))

            # Probes over the kept-alive connection.
            probe = clients[0]
            rounds = 3 if smoke else 20
            out.put("server.http.noop_ms", median(
                [probe.call("GET", "/version")[2] for _ in range(rounds)]),
                rounds)
            out.put("server.http.metrics_scrape_ms", median(
                [probe.call("GET", "/metrics")[2] for _ in range(5)]), 5)
            out.put("server.store.ensure_session_ms", _ms(_median_of(
                lambda: server.store.ensure_session("probe"), 10)), 10)
            out.put("server.http.requests", sum(c.requests for c in clients))
            out.put("server.http.non_2xx", sum(c.non_2xx for c in clients))
        finally:
            for client in clients:
                client.close()
            server.shutdown()
            server.server_close()
            server.store.close()

        # The store below HTTP: resume cost, session growth, telemetry.
        direct = root / "direct"
        store = SessionStore(root=str(direct / "tenants"))
        quiet = SessionStore(root=str(direct / "quiet"), telemetry=False)
        try:
            loud_walls: List[float] = []
            quiet_walls: List[float] = []
            for _ in range(1 if smoke else 4):  # interleaved against drift
                wall, (short_sid, _, _) = _timed(
                    lambda: _direct_session(store, "short", script, out))
                loud_walls.append(wall / len(script))
                wall, _ = _timed(
                    lambda: _direct_session(quiet, "short", script, out))
                quiet_walls.append(wall / len(script))
            out.put("obs.telemetry.turn_overhead_ms",
                    _ms(median(loud_walls) - median(quiet_walls)),
                    len(loud_walls))
            out.put("server.store.resume_short_ms", _resume_ms(
                direct / "tenants", "short", short_sid, 5, out), 5)
            if shape.long_rounds:
                rounds = 3 if smoke else shape.long_rounds
                steps = serve.LONG_SETUP + serve.LONG_ROUND * rounds
                long_sid, light, size = _direct_session(
                    store, "long", steps, out, at_turn=120)
                out.put("server.store.turn_growth_us_per_turn",
                        slope([i for i, _ in light],
                              [w * 1e6 for _, w in light]), len(light))
                out.put("server.store.session_json_kb_at_turn_120",
                        size / 1024.0)
                out.put("server.store.resume_long_ms", _resume_ms(
                    direct / "tenants", "long", long_sid, 3, out), 3)
        finally:
            store.close()
            quiet.close()
    write_trace(workload, seed, tree)
    return out


# ----------------------------------------------------------------------
# batch_* and incr_rerun: engine > {optimizer, executor > client}.
# ----------------------------------------------------------------------

def _reduced_docs(smoke: bool) -> int:
    return 200 if smoke else batch.DOCS


def _engine_pass(seed: int, smoke: bool, out: Outcome,
                 run: Callable[[object, int], list]) -> SpanTree:
    """``run(source, corpus seed) -> records`` plain, then under spans, each
    on a corpus of its own so neither finds the other's memo entries and
    each scaled by the probes around it, as the timed units are."""
    docs = _reduced_docs(smoke)
    run(batch.fresh_corpus(docs, seed + 699), seed + 699)  # warm-up
    source = batch.fresh_corpus(docs, seed + 700)
    before = probe_s()
    plain, _ = _timed(lambda: run(source, seed + 700))
    plain *= machine_speed(before, probe_s())
    with program_spans() as recorder:
        source = batch.fresh_corpus(docs, seed + 701)
        before = probe_s()
        started = time.perf_counter()
        with recorder.span("bench.iteration", op="iteration/1"):
            records = run(source, seed + 701)
        traced = time.perf_counter() - started
        traced *= machine_speed(before, probe_s())
    batch.check_records(records, docs, seed + 701, out, "traced pass")
    out.put("bench.trace_overhead_share", (traced - plain) / plain)
    tree = recorder.finish()
    calls = len(tree.prefixed("llm.client."))
    out.put("llm.client.calls", calls * 1000.0 / docs, calls)
    return tree


def _fresh_notes(count: int, seed: int) -> List[str]:
    """Texts no memo has seen, with oracle truth registered."""
    return [record.document_text()
            for record in batch.fresh_corpus(count, seed)]


def _client(model: str = PROBE_MODEL, **extra):
    """A client wired as an operator wires it: own clock and ledger."""
    from repro.llm.client import SimulatedLLMClient
    from repro.llm.clock import VirtualClock
    from repro.llm.usage import UsageLedger

    return SimulatedLLMClient(model, clock=VirtualClock(),
                              ledger=UsageLedger(), **extra)


def _per_call_us(calls: List[Callable[[], object]]) -> float:
    started = time.perf_counter()
    for call in calls:
        call()
    return (time.perf_counter() - started) * 1e6 / len(calls)


def _probe_client(seed: int, smoke: bool, out: Outcome) -> None:
    """Fresh calls straight into the simulated client, unseen documents."""
    from repro.corpora.scale import SCALE_FIELDS, SCALE_PREDICATE
    from repro.llm.client import BooleanRequest, ExtractionRequest

    count = 100 if smoke else 1_000
    client = _client()
    notes = _fresh_notes(count, seed + 600)
    judges = [BooleanRequest(SCALE_PREDICATE, note) for note in notes]
    out.put("llm.client.judge_us", _per_call_us(
        [lambda r=r: client.judge(r) for r in judges]), count)
    extracts = [ExtractionRequest(dict(SCALE_FIELDS), note)
                for note in _fresh_notes(count, seed + 601)]
    out.put("llm.client.extract_us", _per_call_us(
        [lambda r=r: client.extract(r) for r in extracts]), count)
    batched = [BooleanRequest(SCALE_PREDICATE, note)
               for note in _fresh_notes(count, seed + 602)]
    chunks = [batched[i:i + 8] for i in range(0, count, 8)]
    out.put("llm.client.judge_batch8_us_per_req", _per_call_us(
        [lambda c=c: client.judge_batch(c) for c in chunks])
        * len(chunks) / count, count)


def _probe_memo(seed: int, smoke: bool, out: Outcome) -> None:
    from repro.llm.tokenizer import count_tokens

    count = 100 if smoke else 1_000
    notes = [f"{note} (probe {seed})"
             for note in _fresh_notes(count, seed + 603)]
    calls = [lambda n=n: count_tokens(n) for n in notes]
    out.put("llm.tokenizer.count_tokens_cold_us", _per_call_us(calls), count)
    out.put("llm.memo.hit_us", _per_call_us(calls), count)


def trace_batch_plain(seed: int, smoke: bool) -> Outcome:
    use_source_tree()
    import repro as pz
    from repro.core.builtin_schemas import TextFile
    from repro.core.sources import MemorySource, shard_source
    from repro.llm.models import ModelCard, ModelRegistry
    from repro.optimizer.optimizer import Optimizer

    out = Outcome()
    docs = batch.SMOKE_DOCS if smoke else PROBE_DOCS
    reduced = _reduced_docs(smoke)
    tree = _engine_pass(seed, smoke, out, lambda source, _: pz.Execute(
        batch._pipeline(source), policy=pz.MaxQuality())[0])
    executor = tree.named("execution.sequential.execute")[0]
    out.put("execution.sequential.us_per_record",
            tree.duration(executor) * 1e6 / reduced, reduced)
    out.put("execution.overhead_us_per_record",
            tree.self_time(executor) * 1e6 / reduced, reduced)
    _probe_client(seed, smoke, out)
    _probe_memo(seed, smoke, out)

    out.put("corpora.scale_generate_s", _median_of(
        lambda: batch.fresh_corpus(docs, seed + 500), 3), 3)
    sources = [batch.fresh_corpus(docs, seed + 510 + i) for i in range(3)]
    out.put("core.sources.profile_ms", _ms(median(
        [_timed(lambda s=s: s.profile(refresh=True))[0] for s in sources])),
        3)
    out.put("core.sources.shard4_ms", _ms(median(
        [_timed(lambda s=s: shard_source(s, 4))[0] for s in sources])), 3)
    reports = []
    scale_walls = []
    for i in range(3):  # a new source each time: profiles are cached on it
        source = batch.fresh_corpus(docs, seed + 520 + i)
        plan = batch._pipeline(source).logical_plan()
        wall, report = _timed(lambda: Optimizer(
            pz.MaxQuality(), executor="sharded", batch_size=8,
        ).optimize(plan, source))
        scale_walls.append(wall)
        reports.append(report)
    out.put("optimizer.optimize_scale_ms", _ms(median(scale_walls)), 3)
    out.put("optimizer.plans_costed", reports[-1].plans_considered)
    out.put("optimizer.frontier_size", len(reports[-1].frontier()))

    # 4 semantic operators x 6 models: past the exhaustive limit, so the
    # pruning dynamic programme runs.
    models = ModelRegistry([
        ModelCard(name=f"bench-model-{i}", provider="bench",
                  usd_per_1m_input=0.1 * (i + 1),
                  usd_per_1m_output=0.4 * (i + 1), quality=0.55 + 0.05 * i)
        for i in range(6)
    ])
    wide_source = MemorySource(_fresh_notes(8, seed + 530),
                               dataset_id="bench-wide", schema=TextFile)
    wide = pz.Dataset(wide_source)
    for i in range(4):
        if i % 2 == 0:
            wide = wide.filter(f"notes about topic number {i}")
        else:
            wide = wide.convert(pz.make_schema(
                f"Wide{i}", "wide step", {f"value{i}": "the value"}))
    out.put("optimizer.optimize_wide_ms", _ms(_median_of(
        lambda: Optimizer(models=models, include_embedding_filter=False)
        .optimize(wide.logical_plan(), wide_source), 3)), 3)
    write_trace("batch_plain", seed, tree)
    return out


def _probe_executors(seed: int, smoke: bool, out: Outcome) -> None:
    """One pre-chosen plan, four schedules, text memos cleared before each."""
    import repro as pz
    from repro.execution import (
        AsyncExecutor, PipelinedExecutor, SequentialExecutor,
        ShardedExecutor,
    )
    from repro.llm.memo import clear_memos
    from repro.optimizer.optimizer import Optimizer
    from repro.physical.context import ExecutionContext

    docs = _reduced_docs(smoke)
    source = batch.fresh_corpus(docs, seed + 610)
    plan = Optimizer(pz.MaxQuality()).optimize(
        batch._pipeline(source).logical_plan(), source).chosen.plan
    schedules = {
        "sequential": lambda: SequentialExecutor(ExecutionContext()),
        "pipelined": lambda: PipelinedExecutor(
            ExecutionContext(max_workers=2), max_workers=2, batch_size=8),
        "sharded": lambda: ShardedExecutor(
            ExecutionContext(max_workers=4), shards=4, batch_size=8),
        "async": lambda: AsyncExecutor(
            ExecutionContext(max_workers=4), fanout=4, batch_size=8),
    }
    counts = set()
    for kind, build in schedules.items():
        clear_memos()
        wall, (records, _) = _timed(lambda: build().execute(plan))
        counts.add(len(records))
        out.put(f"execution.{kind}.us_per_record", wall * 1e6 / docs, docs)
    out.check(len(counts) == 1, f"schedules disagree on records: {counts}")


def trace_batch_recorded(seed: int, smoke: bool) -> Outcome:
    use_source_tree()
    import repro as pz
    from repro.llm.memo import clear_memos
    from repro.obs.registry import RunRegistry

    out = Outcome()
    docs = batch.SMOKE_DOCS if smoke else PROBE_DOCS
    with scratch_root("trace-batch_recorded") as root:
        def recorded(source, corpus_seed: int) -> list:
            records, stats = pz.Execute(
                batch._pipeline(source), policy=pz.MaxQuality(),
                **batch.RECORDED_FLAGS)
            RunRegistry(str(root / f"pass-{corpus_seed}")).record(
                records, stats)
            return records

        tree = _engine_pass(seed, smoke, out, recorded)
        _probe_executors(seed, smoke, out)
        _probe_client(seed, smoke, out)

        # One flag at a time against the plain run, same corpus.
        source = batch.fresh_corpus(docs, seed + 620)
        walls = {}
        for flag in ("plain", "capture_calls", "trace", "provenance"):
            clear_memos()
            flags = {} if flag == "plain" else {flag: True}
            walls[flag], _ = _timed(lambda: pz.Execute(
                batch._pipeline(source), policy=pz.MaxQuality(), **flags))
        out.put("execution.capture_calls_overhead_s",
                walls["capture_calls"] - walls["plain"])
        out.put("obs.trace.overhead_s", walls["trace"] - walls["plain"])
        out.put("obs.provenance.overhead_s",
                walls["provenance"] - walls["plain"])

        records, stats = pz.Execute(
            batch._pipeline(source), policy=pz.MaxQuality(),
            **batch.RECORDED_FLAGS)
        registry = RunRegistry(str(root / "probe"))
        wall, snapshot = _timed(lambda: registry.record(records, stats))
        out.put("obs.registry.record_s", wall)
        out.put("obs.registry.slice_ms", _ms(_timed(
            lambda: registry.handle(snapshot.run_id).slice(0, 50))[0]))
        out.put("obs.registry.load_s",
                _timed(lambda: registry.load(snapshot.run_id))[0])
        out.put("obs.registry.bytes_per_record",
                registry.size_bytes() / max(1, len(records)), len(records))
    write_trace("batch_recorded", seed, tree)
    return out


def trace_incr_rerun(seed: int, smoke: bool) -> Outcome:
    use_source_tree()
    import repro as pz
    from repro.corpora.scale import SCALE_PREDICATE
    from repro.llm.cache import CallCache
    from repro.llm.client import BooleanRequest
    from repro.llm.replay import ReplayLog
    from repro.obs.registry import RunSnapshot

    out = Outcome()
    docs = batch.SMOKE_DOCS if smoke else PROBE_DOCS

    def base_and_rerun(source, corpus_seed: int) -> list:
        records, stats = pz.Execute(
            batch._pipeline(source), policy=pz.MaxQuality(),
            capture_calls=True)
        base = RunSnapshot.from_execution("run-0001", records, stats)
        drifted = batch.mutated_corpus(len(source), corpus_seed,
                                       source.dataset_id)
        return pz.Execute(batch._pipeline(drifted), policy=pz.MaxQuality(),
                          incremental=True, base_run=base)[0]

    tree = _engine_pass(seed, smoke, out, base_and_rerun)

    source = batch.fresh_corpus(docs, seed)
    cold, (records, stats) = _timed(lambda: pz.Execute(
        batch._pipeline(source), policy=pz.MaxQuality(), capture_calls=True))
    base = RunSnapshot.from_execution("run-0001", records, stats)
    reruns = []
    for _ in range(2):
        drifted = batch.mutated_corpus(docs, seed, source.dataset_id)
        wall, (_, rerun_stats) = _timed(lambda: pz.Execute(
            batch._pipeline(drifted), policy=pz.MaxQuality(),
            incremental=True, base_run=base))
        reruns.append(wall)
    report = rerun_stats.incremental
    out.check(report.mode == "replay", f"re-run chose {report.mode}")
    out.put("execution.incremental.cold_s", cold)
    out.put("execution.incremental.rerun_s", median(reruns), len(reruns))
    out.put("execution.incremental.wall_speedup", cold / median(reruns))
    out.put("execution.incremental.replayed_calls", report.replayed_calls)
    out.put("execution.incremental.fresh_calls", report.fresh_calls)
    out.put("execution.incremental.sim_speedup_cost", report.speedup_cost)

    # Replay hits: the recorded judge calls, asked again of a primed log.
    count = 100 if smoke else 1_000
    judge_rows = [row for row in base.calls if row["key"][1] == "judge"]
    model, operation = judge_rows[0]["key"][0], judge_rows[0]["key"][5]
    log = ReplayLog.from_payload(base.calls)
    client = _client(model, replay=log)
    requests = [
        BooleanRequest(SCALE_PREDICATE, record.document_text(),
                       operation=operation)
        for record, _ in zip(source, range(count))
    ]
    out.put("llm.replay.hit_us", _per_call_us(
        [lambda r=r: client.judge(r) for r in requests]), count)
    out.check(log.reused_summary().calls == count,
              f"replay probe hit {log.reused_summary().calls}/{count}")

    # Explicit call cache: miss pass fills it, second pass is all hits.
    cache = CallCache()
    cached = _client(cache=cache)
    judges = [BooleanRequest(SCALE_PREDICATE, note)
              for note in _fresh_notes(count, seed + 630)]
    calls = [lambda r=r: cached.judge(r) for r in judges]
    _per_call_us(calls)
    out.put("llm.cache.hit_us", _per_call_us(calls), count)
    out.put("llm.cache.hits", cache.stats.hits)
    _probe_memo(seed, smoke, out)
    write_trace("incr_rerun", seed, tree)
    return out


def trace(workload: str, seed: int, smoke: bool = False) -> Outcome:
    if workload in serve.SHAPES:
        return trace_serve(workload, seed, smoke)
    return {
        "batch_plain": trace_batch_plain,
        "batch_recorded": trace_batch_recorded,
        "incr_rerun": trace_incr_rerun,
    }[workload](seed, smoke)
