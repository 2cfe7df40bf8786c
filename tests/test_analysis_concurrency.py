"""CC501–CC507: guarded-by discipline and nondeterminism sources."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_program, lint_source_concurrency

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint(source, **kwargs):
    return lint_source_concurrency(textwrap.dedent(source), **kwargs)


def codes(result):
    return [d.code for d in result.diagnostics]


class TestCC501GuardedAccess:
    BROKEN = """
        import threading

        class Ledger:
            _GUARDED_BY = {"_records": "_lock"}

            def __init__(self):
                self._records = []
                self._lock = threading.Lock()

            def record(self, item):
                self._records.append(item)  # write without the lock

            def snapshot(self):
                return list(self._records)  # read without the lock
    """

    def test_fires_on_unguarded_access(self):
        result = lint(self.BROKEN)
        assert codes(result).count("CC501") == 2
        assert all(d.code == "CC501" for d in result.errors)
        messages = [d.message for d in result.diagnostics]
        assert any("written outside" in m for m in messages)
        assert any("read outside" in m for m in messages)

    def test_clean_when_locked(self):
        result = lint("""
            import threading

            class Ledger:
                _GUARDED_BY = {"_records": "_lock"}

                def __init__(self):
                    self._records = []
                    self._lock = threading.Lock()

                def record(self, item):
                    with self._lock:
                        self._records.append(item)

                def snapshot(self):
                    with self._lock:
                        return list(self._records)
        """)
        assert codes(result) == []

    def test_constructor_writes_exempt(self):
        # __init__ assignments never fire: the object is not shared yet.
        result = lint("""
            import threading

            class Box:
                _GUARDED_BY = {"_value": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0

                def get(self):
                    with self._lock:
                        return self._value
        """)
        assert codes(result) == []

    def test_writes_mode_allows_lockfree_reads(self):
        result = lint("""
            import threading

            class Registry:
                _GUARDED_BY = {"_truths": ("_lock", "writes")}

                def __init__(self):
                    self._truths = {}
                    self._lock = threading.Lock()

                def register(self, key, value):
                    with self._lock:
                        self._truths[key] = value

                def lookup(self, key):
                    return self._truths.get(key)  # documented lock-free
        """)
        assert codes(result) == []

    def test_nested_write_through_attribute(self):
        # x.stats.count += 1 is a write *to stats*.
        result = lint("""
            import threading

            class Meter:
                _GUARDED_BY = {"stats": ("_lock", "writes")}

                def __init__(self):
                    self.stats = object()
                    self._lock = threading.Lock()

                def bump(self):
                    self.stats.count += 1

                def reset(self):
                    with self._lock:
                        self.stats = object()
        """)
        assert codes(result) == ["CC501"]

    def test_closure_inside_with_block_inherits_lock(self):
        result = lint("""
            import threading

            class Store:
                _GUARDED_BY = {"_items": "_lock"}

                def __init__(self):
                    self._items = []
                    self._lock = threading.Lock()

                def finalize(self):
                    with self._lock:
                        def grab(i):
                            return self._items[i]
                        return [grab(i) for i in range(len(self._items))]
        """)
        assert codes(result) == []

    def test_module_level_guard_covers_getattr_setattr(self):
        broken = """
            import threading

            _CACHE_LOCK = threading.Lock()
            _GUARDED_BY = {"_memo": "_CACHE_LOCK"}

            def lookup(source):
                return getattr(source, "_memo", None)  # unguarded

            def store(source, value):
                setattr(source, "_memo", value)  # unguarded
        """
        result = lint(broken)
        assert codes(result) == ["CC501", "CC501"]
        fixed = """
            import threading

            _CACHE_LOCK = threading.Lock()
            _GUARDED_BY = {"_memo": "_CACHE_LOCK"}

            def lookup(source):
                with _CACHE_LOCK:
                    return getattr(source, "_memo", None)

            def store(source, value):
                with _CACHE_LOCK:
                    setattr(source, "_memo", value)
        """
        assert codes(lint(fixed)) == []

    def test_pragma_suppresses(self):
        result = lint("""
            import threading

            class Ledger:
                _GUARDED_BY = {"_records": "_lock"}

                def __init__(self):
                    self._records = []
                    self._lock = threading.Lock()

                def record(self, item):
                    with self._lock:
                        self._records.append(item)

                def peek(self):
                    return self._records[-1]  # guarded-by: ok(post-join read)
        """)
        assert codes(result) == []


class TestCC502DeadLock:
    def test_fires_on_never_acquired_lock(self):
        result = lint("""
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = []

                def add(self, item):
                    self._data.append(item)
        """)
        assert codes(result) == ["CC502"]
        assert result.warnings and not result.errors

    def test_clean_when_acquired(self):
        result = lint("""
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = []

                def add(self, item):
                    with self._lock:
                        self._data.append(item)
        """)
        assert codes(result) == []

    def test_explicit_acquire_release_counts(self):
        result = lint("""
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()

                def risky(self):
                    self._lock.acquire()
                    try:
                        pass
                    finally:
                        self._lock.release()
        """)
        assert codes(result) == []


class TestCC503WorkerWrites:
    BROKEN = """
        import threading

        class Runner:
            def __init__(self):
                self._abort = threading.Event()
                self._local = threading.local()
                self.progress = 0

            def start(self):
                thread = threading.Thread(target=self._worker)
                thread.start()

            def _worker(self):
                self.progress += 1  # shared, undeclared
                self._helper()

            def _helper(self):
                self.progress += 1  # reachable from the entry point
    """

    def test_fires_on_undeclared_shared_write(self):
        result = lint(self.BROKEN)
        assert codes(result) == ["CC503", "CC503"]

    def test_declared_guard_silences(self):
        result = lint("""
            import threading

            class Runner:
                _GUARDED_BY = {"progress": "_lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self.progress = 0

                def start(self):
                    thread = threading.Thread(target=self._worker)
                    thread.start()

                def _worker(self):
                    with self._lock:
                        self.progress += 1
        """)
        assert codes(result) == []

    def test_sync_primitives_and_thread_locals_exempt(self):
        result = lint("""
            import threading

            class Runner:
                def __init__(self):
                    self._abort = threading.Event()
                    self._local = threading.local()

                def start(self):
                    thread = threading.Thread(target=self._worker)
                    thread.start()

                def _worker(self):
                    self._local.depth = 1  # thread-local: private
        """)
        assert codes(result) == []

    def test_alias_resolved_thread_target(self):
        # worker = self._a if flag else self._b, Thread(target=worker)
        result = lint("""
            import threading

            class Runner:
                def __init__(self, flag):
                    self.flag = flag
                    self.counter = 0

                def start(self):
                    worker = self._fast if self.flag else self._slow
                    thread = threading.Thread(target=worker)
                    thread.start()

                def _fast(self):
                    self.counter += 1

                def _slow(self):
                    self.counter += 2
        """)
        assert codes(result) == ["CC503", "CC503"]


class TestCC504WallClock:
    def test_fires_on_time_and_datetime(self):
        result = lint("""
            import time
            from datetime import datetime

            def stamp(record):
                record.at = time.time()
                record.day = datetime.now()
        """)
        assert codes(result) == ["CC504", "CC504"]
        assert len(result.errors) == 2

    @pytest.mark.parametrize("source", [
        "import time as _t\n\ndef f():\n    return _t.monotonic()\n",
        "from time import perf_counter\n\ndef f():\n"
        "    return perf_counter()\n",
        "from datetime import datetime as DT\n\ndef f():\n"
        "    return DT.now()\n",
    ], ids=["module-alias", "from-import", "class-alias"])
    def test_fires_on_aliased_reads(self, source):
        assert codes(lint(source)) == ["CC504"]

    def test_qsize_flagged(self):
        flagged = lint("""
            def depth(queue):
                return queue.qsize()
        """)
        assert codes(flagged) == ["CC504"]
        # Feeding a metric is no exemption: every metric is deterministic.
        observed = lint("""
            def observe(stage):
                stage.depth_gauge.set(stage.in_queue.qsize())
        """)
        assert codes(observed) == ["CC504"]

    def test_pragma_suppresses(self):
        result = lint("""
            import time

            def wall():
                return time.time()  # nondet: ok(operator timeout budget)
        """)
        assert codes(result) == []


class TestCC505Entropy:
    def test_fires_on_module_level_random(self):
        result = lint("""
            import random

            def pick(items):
                return random.choice(items)
        """)
        assert codes(result) == ["CC505"]

    def test_fires_on_urandom_uuid_secrets_unseeded(self):
        result = lint("""
            import os
            import random
            import secrets
            import uuid

            def entropy():
                a = os.urandom(8)
                b = uuid.uuid4()
                c = secrets.token_hex(4)
                d = random.Random()  # unseeded
                return a, b, c, d
        """)
        assert sorted(codes(result)) == ["CC505"] * 4

    def test_seeded_random_is_clean(self):
        result = lint("""
            import random

            def shuffle(items, seed):
                rng = random.Random(seed)
                rng.shuffle(items)
                return items
        """)
        assert codes(result) == []


class TestCC506IdLeak:
    def test_fires_when_value_escapes(self):
        result = lint("""
            def label(op):
                return f"op-{id(op)}"
        """)
        assert codes(result) == ["CC506"]
        assert result.warnings and not result.errors

    def test_identity_keying_allowed(self):
        result = lint("""
            def walk(nodes, index, seen):
                for node in nodes:
                    if id(node) in seen:
                        continue
                    seen.add(id(node))
                    index[id(node)] = node
                    previous = index.get(id(node))
        """)
        assert codes(result) == []


class TestCC507UnorderedIteration:
    def test_fires_on_set_iteration(self):
        result = lint("""
            def emit(names):
                unique = set(names)
                return [n.upper() for n in unique]
        """)
        assert codes(result) == ["CC507"]

    def test_fires_on_set_literal_for_loop(self):
        result = lint("""
            def emit():
                for item in {"b", "a"}:
                    print(item)
        """)
        assert codes(result) == ["CC507"]

    def test_sorted_wrapping_is_clean(self):
        result = lint("""
            def emit(names):
                unique = set(names)
                return [n.upper() for n in sorted(unique)]
        """)
        assert codes(result) == []

    def test_dict_iteration_not_flagged(self):
        # dicts are insertion-ordered; only sets are hash-ordered.
        result = lint("""
            def emit(table):
                return [key for key in table]
        """)
        assert codes(result) == []


class TestIntegration:
    def test_family_disable(self):
        config = LintConfig(disabled=("CC",))
        result = lint(TestCC501GuardedAccess.BROKEN, config=config)
        assert codes(result) == []

    def test_lint_program_runs_cc_rules(self):
        # Generated programs get the same scrutiny (like CG3xx).
        result = lint_program(
            "import time\nstamp = time.time()\n", filename="gen.py"
        )
        assert "CC504" in codes(result)

    def test_lint_program_runs_the_tenancy_rule(self):
        # SV601 rides the same entry point; the shipped handlers only
        # ever show it clean code, so show it the leak it exists for.
        handler = "def handle_list(self, store, tenant):\n"
        acquire = "    with store.acquire(tenant) as state:\n"

        def sv(body):
            result = lint_program(handler + body, filename="handlers.py")
            return [d for d in result.diagnostics if d.code == "SV601"]

        (leak,) = sv("    return list(store.sessions)\n")
        assert leak.location == "handlers.py:2"
        assert "'.sessions'" in leak.message
        assert sv("    return list(store.sessions)"
                  "  # tenancy: ok(admin listing)\n") == []
        assert sv(acquire + "        return list(state.sessions)\n") == []

    def test_syntax_error_returns_empty(self):
        assert codes(lint("def broken(:")) == []


class TestAnnotatedModules:
    #: Modules whose locked state a server thread can reach: each declares
    #: its guards for the CC rules and the sanitizer.
    SERVER_REACHABLE = [
        "server/progress.py", "server/store.py", "obs/telemetry.py",
        "obs/registry.py", "llm/usage.py", "llm/oracle.py",
        "llm/cache.py", "llm/models.py", "core/sources.py",
    ]
    #: Per-run types: owned by one run or session on one thread.
    PER_RUN = [
        "llm/clock.py", "llm/replay.py", "obs/trace.py",
        "obs/provenance.py", "obs/metrics.py",
    ]

    def test_guards_declared_only_where_threads_reach(self):
        for name in self.SERVER_REACHABLE:
            source = (SRC_ROOT / name).read_text()
            assert "_GUARDED_BY" in source, f"{name} lost its annotations"
        for name in self.PER_RUN:
            source = (SRC_ROOT / name).read_text()
            assert "threading" not in source, f"{name} imports threading"
            assert "_GUARDED_BY" not in source, f"{name} declares guards"
