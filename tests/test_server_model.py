"""A model of the service: a state machine over an in-process SessionStore.

Hypothesis drives two tenants through random interleavings of session
creation, sync and async chat turns, eviction, store restarts and quota
edits.  The model is small: each session's position in :data:`SCRIPT`,
the run ids each tenant has handed out, and the tokens each tenant's
turns billed.  After every step it checks that

* every ``ok`` reply byte-equals the reply an uninterrupted session
  gives at the same script position (run ids mapped to the session's
  own);
* no turn is ``running`` once its call returns or its stream closes;
* run ids never repeat within a tenant, restarts included;
* each tenant's ``spent_tokens`` is exactly the sum of its turns'
  ``usage.tokens``;
* every run a live session recorded is still in its tenant's registry
  (a session records one run here, far below ``KEEP_RUNS``, and a
  reset never prunes another session's runs);
* a session resumed after a restart has the ``generated_code()`` and
  ``.ipynb`` bytes it had before the restart.

A turn that ends in anything but ``ok`` leaves its session's workspace
in a state the reference never visits, so that session's later replies
are not compared (the accounting invariants still apply to it).
"""

import re
import shutil
import tempfile
import time
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.llm.usage import QuotaExceededError
from repro.server import SessionStore

TENANTS = ("t1", "t2")

#: One session's conversation: build and run a pipeline, reset, then ask
#: about the run recorded before the reset (a reset keeps the session's
#: newest runs and never touches another session's).
SCRIPT = (
    "Load the papers from the sigmod-demo dataset",
    "Keep only the papers about colorectal cancer",
    "run the pipeline",
    "Start over",
    "How much did it cost?",
    "what took so long?",
)

#: Sessions per tenant the machine creates at most.
MAX_SESSIONS = 3

_RUN_ID = re.compile(r"run-\d{4}")


def _reference_replies(root: Path):
    """The replies, and the run ids each turn recorded, of one
    uninterrupted session of a fresh tenant."""
    store = SessionStore(root=str(root), telemetry=False)
    try:
        sid = store.ensure_session("ref")["session_id"]
        replies, runs = [], []
        for message in SCRIPT:
            before = _session_runs(store, "ref", sid)
            turn = store.run_turn("ref", sid, message)
            assert turn.status == "ok", turn.to_dict()
            replies.append(turn.reply)
            runs.append(_session_runs(store, "ref", sid)[len(before):])
        return replies, runs
    finally:
        store.close()


def _session_runs(store, tenant_id, session_id):
    with store.acquire(tenant_id) as tenant:
        return list(tenant.get_session(session_id).chat.workspace.run_ids)


class SessionModel:
    """What the machine knows about one live session."""

    def __init__(self, tenant_id, session_id):
        self.tenant_id = tenant_id
        self.session_id = session_id
        self.position = 0  # index of the next SCRIPT line
        self.turns = 0  # turns created (what a resume must restore)
        self.runs = []  # run ids this session recorded, oldest first
        self.compared = True  # False once a turn ended other than ok
        self.before = []  # the session's run ids when its turn started
        #: (generated code, .ipynb bytes) when a restart unloaded it.
        self.artifacts = None


class ServiceMachine(RuleBasedStateMachine):
    reference = None  # (replies, runs), computed once per process

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="repro-model-"))
        if ServiceMachine.reference is None:
            ServiceMachine.reference = _reference_replies(self.tmp / "ref")
        self.root = self.tmp / "tenants"
        self.store = self._open()
        self.sessions = {}  # (tenant, sid) -> SessionModel
        self.resident = set()  # (tenant, sid) held by the current store
        self.run_ids = {t: set() for t in TENANTS}
        self.billed = {t: 0 for t in TENANTS}

    def _open(self):
        # Two async workers: async turns of one tenant's sessions
        # interleave at progress events.
        return SessionStore(root=str(self.root), telemetry=False,
                            async_workers=2)

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- helpers --------------------------------------------------------

    def _pending(self, tenant_id=None):
        return [m for key, m in sorted(self.sessions.items())
                if m.position < len(SCRIPT)
                and (tenant_id is None or m.tenant_id == tenant_id)]

    def _ensure_resident(self, model):
        key = (model.tenant_id, model.session_id)
        if key in self.resident:
            return
        row = self.store.ensure_session(model.tenant_id,
                                        session_id=model.session_id)
        assert row["resumed"] is True
        assert row["turns"] == model.turns, (
            f"{key} resumed with {row['turns']} turns, ran {model.turns}")
        if model.artifacts is not None:
            assert self._artifacts(model) == model.artifacts, key
            model.artifacts = None
        self.resident.add(key)

    def _artifacts(self, model):
        with self.store.acquire(model.tenant_id) as tenant:
            chat = tenant.get_session(model.session_id).chat
            path = chat.export_notebook(self.tmp / "session.ipynb")
            return chat.generated_code(), path.read_bytes()

    def _submit(self, model, wait):
        """Start one turn at the session's position; None when the
        tenant's budget rejected it before any work."""
        self._ensure_resident(model)
        model.before = _session_runs(
            self.store, model.tenant_id, model.session_id)
        try:
            turn = self.store.run_turn(
                model.tenant_id, model.session_id,
                SCRIPT[model.position], wait=wait)
        except QuotaExceededError:
            return None
        model.turns += 1
        return turn

    def _settle(self, model, turn):
        """Check one finished turn against the model, then advance it."""
        assert turn.status != "running", turn.to_dict()
        self.billed[model.tenant_id] += turn.usage_delta["tokens"]
        now = _session_runs(self.store, model.tenant_id, model.session_id)
        fresh = now[len(model.before):]
        for run_id in fresh:
            assert run_id not in self.run_ids[model.tenant_id], (
                f"{model.tenant_id} reused {run_id}")
            self.run_ids[model.tenant_id].add(run_id)
        model.runs.extend(fresh)
        if turn.status != "ok":
            model.compared = False
        if model.compared:
            replies, runs = self.reference
            assert len(fresh) == len(runs[model.position])
            ref_runs = [r for step in runs for r in step]
            mapping = dict(zip(ref_runs, model.runs))
            expected = _RUN_ID.sub(
                lambda m: mapping.get(m.group(0), m.group(0)),
                replies[model.position])
            assert turn.reply == expected, (
                f"{model.session_id} at {SCRIPT[model.position]!r}")
        model.position += 1

    def _drain(self, turn):
        offset, done = 0, False
        while not done:
            _, done, offset = turn.events.read(offset=offset,
                                               wait_seconds=10.0)
        assert turn.status != "running", turn.to_dict()

    def _wait_pool_idle(self):
        deadline = time.monotonic() + 30
        while True:
            stats = self.store.worker_pool.stats()
            if not stats["active"] and not stats["queued"]:
                return
            assert time.monotonic() < deadline, "worker pool never idled"
            time.sleep(0.001)

    # -- rules ----------------------------------------------------------

    @initialize()
    def two_sessions_per_tenant(self):
        for tenant_id in TENANTS:
            self.create_session(tenant_id)
            self.create_session(tenant_id)

    @precondition(lambda self: len(self.sessions) < MAX_SESSIONS * 2)
    @rule(tenant_id=st.sampled_from(TENANTS))
    def create_session(self, tenant_id):
        owned = [m for m in self.sessions.values()
                 if m.tenant_id == tenant_id]
        if len(owned) >= MAX_SESSIONS:
            return
        row = self.store.ensure_session(tenant_id)
        assert row["resumed"] is False and row["turns"] == 0
        key = (tenant_id, row["session_id"])
        assert key not in self.sessions
        self.sessions[key] = SessionModel(*key)
        self.resident.add(key)

    @precondition(lambda self: self._pending())
    @rule(data=st.data())
    def sync_turn(self, data):
        model = data.draw(st.sampled_from(self._pending()))
        turn = self._submit(model, wait=True)
        if turn is not None:
            self._settle(model, turn)

    @precondition(lambda self: any(
        len(self._pending(t)) >= 2 for t in TENANTS))
    @rule(data=st.data())
    def async_turns(self, data):
        tenant_id = data.draw(st.sampled_from(
            [t for t in TENANTS if len(self._pending(t)) >= 2]))
        pair = data.draw(st.lists(
            st.sampled_from(self._pending(tenant_id)),
            min_size=2, max_size=2, unique_by=lambda m: m.session_id))
        started = [(m, self._submit(m, wait=False)) for m in pair]
        for model, turn in started:
            if turn is not None:
                self._drain(turn)
        self._wait_pool_idle()
        for model, turn in started:
            if turn is not None:
                self._settle(model, turn)

    @precondition(lambda self: self.sessions)
    @rule(data=st.data())
    def evict(self, data):
        key = data.draw(st.sampled_from(sorted(self.sessions)))
        assert self.store.evict_session(*key) is True
        del self.sessions[key]
        self.resident.discard(key)

    @rule()
    def restart(self):
        for key in self.resident:
            model = self.sessions[key]
            model.artifacts = self._artifacts(model)
        self.store.close()
        self.store = self._open()
        self.resident = set()

    @rule(tenant_id=st.sampled_from(TENANTS),
          headroom=st.sampled_from([None, 0, 8_000, 30_000]))
    def set_quota(self, tenant_id, headroom):
        """Lift the tenant's token cap, or leave it ``headroom`` tokens
        above what it has spent (one light turn fits in 8k, a pipeline
        run does not fit in 30k)."""
        cap = None if headroom is None else self.billed[tenant_id] + headroom
        usage = self.store.set_quota(tenant_id, max_tokens=cap)
        assert usage["max_tokens"] == cap

    # -- invariants -----------------------------------------------------

    @invariant()
    def tenants_billed_exactly_their_turns(self):
        for tenant_id in TENANTS:
            with self.store.acquire(tenant_id) as tenant:
                spent = tenant.usage()["spent_tokens"]
            assert spent == self.billed[tenant_id], tenant_id

    @invariant()
    def live_sessions_keep_their_runs(self):
        for tenant_id in TENANTS:
            with self.store.acquire(tenant_id) as tenant:
                kept = {m["run_id"] for m in tenant.registry().list()}
            for model in self.sessions.values():
                if model.tenant_id == tenant_id:
                    assert set(model.runs) <= kept, model.session_id


def test_service_model(sigmod_demo):
    run_state_machine_as_test(ServiceMachine, settings=settings(
        max_examples=20, stateful_step_count=30, deadline=None))
