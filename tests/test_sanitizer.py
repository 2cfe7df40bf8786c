"""Runtime lock sanitizer: wrapping, graphs, violations, reports."""

import sys
import threading

import pytest

from repro.analysis.sanitizer import (
    SanitizedLock,
    SanitizerReport,
    sanitize,
)


class TestLockWrapping:
    def test_locks_created_inside_window_are_wrapped(self):
        with sanitize() as report:
            lock = threading.Lock()
            assert isinstance(lock, SanitizedLock)
            with lock:
                pass
        assert report.lock_count == 1

    def test_factories_restored_on_exit(self):
        with sanitize():
            pass
        assert not isinstance(threading.Lock(), SanitizedLock)
        assert not isinstance(threading.RLock(), SanitizedLock)

    def test_rlock_reentrancy_preserved(self):
        with sanitize() as report:
            lock = threading.RLock()
            with lock:
                with lock:  # would deadlock on a plain Lock
                    pass
        assert report.violations == []

    def test_nested_windows_raise(self):
        with sanitize():
            with pytest.raises(RuntimeError):
                with sanitize():
                    pass

    def test_condition_on_sanitized_locks_works(self):
        # Condition routes through _release_save/_acquire_restore.
        for factory in (threading.Lock, threading.RLock):
            with sanitize():
                condition = threading.Condition(factory())
                hits = []

                def waiter():
                    with condition:
                        condition.wait(timeout=5)
                        hits.append(1)

                thread = threading.Thread(target=waiter)
                thread.start()
                import time
                time.sleep(0.05)
                with condition:
                    condition.notify()
                thread.join(timeout=5)
                assert hits == [1]


class TestLockOrderGraph:
    def test_nested_acquisition_records_edge(self):
        with sanitize() as report:
            outer, inner = threading.Lock(), threading.Lock()
            with outer:
                with inner:
                    pass
        assert len(report.edges) == 1
        assert report.cycles() == []

    def test_inconsistent_order_reports_cycle(self):
        with sanitize() as report:
            a, b = threading.Lock(), threading.Lock()
            with a:
                with b:
                    pass
            with b:
                with a:  # opposite order: the classic deadlock shape
                    pass
        cycles = report.cycles()
        assert cycles, report.edges
        assert cycles[0][0] == cycles[0][-1]
        assert not report.ok()

    def test_consistent_order_is_acyclic(self):
        with sanitize() as report:
            a, b = threading.Lock(), threading.Lock()
            for _ in range(3):
                with a:
                    with b:
                        pass
        assert report.cycles() == []
        assert report.ok()


class TestGuardedWriteChecks:
    def _make_class(self):
        class Guarded:
            _GUARDED_BY = {"value": "_lock"}

            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0  # constructor write: exempt

            def good(self):
                with self._lock:
                    self.value += 1

            def bad(self):
                self.value += 1

        Guarded.__module__ = "repro._sanitizer_test"
        sys.modules.setdefault(
            "repro._sanitizer_test", type(sys)("repro._sanitizer_test")
        )
        sys.modules["repro._sanitizer_test"].Guarded = Guarded
        return Guarded

    def teardown_method(self):
        sys.modules.pop("repro._sanitizer_test", None)

    def test_locked_write_clean_unlocked_write_flagged(self):
        cls = self._make_class()
        with sanitize() as report:
            obj = cls()
            obj.good()
            assert report.violations == []
            obj.bad()
        assert len(report.violations) == 1
        assert "Guarded.value" in report.violations[0]
        assert "Guarded._lock" in report.violations[0]
        assert report.guarded_writes == 2  # constructor write exempt
        assert not report.ok()

    def test_exercised_guard_not_reported_unexercised(self):
        cls = self._make_class()
        with sanitize() as report:
            obj = cls()
            obj.good()
        assert ("Guarded", "value", "_lock") not in report.unexercised

    def test_unexercised_guard_cross_check(self):
        cls = self._make_class()
        with sanitize() as report:
            cls()  # constructed but the guard never exercised
        assert ("Guarded", "value", "_lock") in report.unexercised

    def test_hooks_removed_after_window(self):
        cls = self._make_class()
        with sanitize():
            pass
        assert "__setattr__" not in cls.__dict__
        obj = cls()
        obj.bad()  # no hook, no error, no recording


class TestReportShape:
    def test_render_and_to_dict(self):
        with sanitize() as report:
            lock = threading.Lock()
            with lock:
                pass
        text = report.render()
        assert "Lock sanitizer report" in text
        assert "unguarded writes:    0" in text
        payload = report.to_dict()
        assert payload["violations"] == []
        assert payload["cycles"] == []
        assert payload["locks_observed"] == 1

    def test_mid_window_reads(self):
        with sanitize() as report:
            assert report.violations == []
            assert report.cycles() == []
            with pytest.raises(RuntimeError):
                report.render()
