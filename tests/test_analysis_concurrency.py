"""CC504–CC507: nondeterminism sources; the serving lock is the only lock."""

import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_program, lint_source_concurrency

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint(source, **kwargs):
    return lint_source_concurrency(textwrap.dedent(source), **kwargs)


def codes(result):
    return [d.code for d in result.diagnostics]


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
        "import datetime\n\ndef f():\n    return datetime.datetime.now()\n",
        "import datetime\n\ndef f():\n    return datetime.date.today()\n",
        "import datetime as dt\n\ndef f():\n    return dt.datetime.now()\n",
    ], ids=["module-alias", "from-import", "class-alias", "dotted-datetime",
            "dotted-date", "dotted-module-alias"])
    def test_fires_on_aliased_reads(self, source):
        assert codes(lint(source)) == ["CC504"]

    def test_datetime_values_are_not_reads(self):
        assert codes(lint("""
            import datetime

            def f():
                delta = datetime.timedelta(days=1)
                fixed = datetime.datetime(2020, 1, 1)
                return datetime.datetime.fromisoformat("2020-01-01")
        """)) == []

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
        result = lint("import time\nstamp = time.time()\n", config=config)
        assert codes(result) == []

    def test_lint_program_runs_cc_rules(self):
        # Generated programs get the same scrutiny (like CG3xx).
        result = lint_program(
            "import time\nstamp = time.time()\n", filename="gen.py"
        )
        assert "CC504" in codes(result)

    def test_syntax_error_returns_empty(self):
        assert codes(lint("def broken(:")) == []


class TestAnnotatedModules:
    """One lock: the server's serving lock and its condition are the
    only synchronization ``src/repro`` builds, so no module annotates
    guards, and nothing outside ``server/`` constructs a lock."""

    LOCK = re.compile(r"threading\.(Lock|RLock|Condition)\(")

    def test_guards_declared_only_where_threads_reach(self):
        builders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            source = path.read_text()
            name = path.relative_to(SRC_ROOT).as_posix()
            for marker in ("_GUARDED_BY", "guarded-by:", "tenancy:"):
                assert marker not in source, f"{name} carries {marker}"
            builders += [name] * len(self.LOCK.findall(source))
        assert builders == ["server/serving.py", "server/serving.py"]
