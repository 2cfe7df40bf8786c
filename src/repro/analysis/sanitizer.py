"""Runtime lock sanitizer: the dynamic half of the ``CC5xx`` family.

The static guarded-by checker (:mod:`repro.analysis.concurrency`) proves
what the *source* says about lock discipline; this module checks what
actually happens at runtime.  Under ``sanitize()``:

* every ``threading.Lock`` / ``threading.RLock`` *created inside the
  context* is wrapped so acquisitions and releases are observed;
* a cross-thread **lock-order graph** is recorded — an edge ``A -> B``
  means some thread acquired ``B`` while holding ``A``.  A cycle in
  that graph is a potential deadlock (threads taking the same locks in
  different orders), reported by :meth:`SanitizerReport.cycles`;
* classes that declare a ``_GUARDED_BY`` map get a ``__setattr__`` hook
  so every **write to a guarded attribute** is checked against the
  declared lock: if the current thread does not hold it (outside
  ``__init__``/``__new__``), an unguarded-write violation is recorded;
* the static declarations are **cross-checked against reality**:
  declared guards whose lock was never observed held around a guarded
  write surface in :attr:`SanitizerReport.unexercised`, so a test knows
  whether it actually exercised the annotation.

Usage (the server's request threads are what share locks; tenants
drive the chat script concurrently)::

    with sanitize() as report:
        server = ReproServer(("127.0.0.1", 0), SessionStore(root=root))
        run_in_thread(server)
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(drive_tenant, ["t1", "t2", "t3", "t4"]))
        server.shutdown()
    assert not report.violations
    assert not report.cycles()

The sanitizer observes, it never blocks: wrapped locks delegate to the
real primitive, so sanitized runs produce byte-identical records, stats,
traces, and provenance — the equivalence suite runs under it unchanged.

Scope and honesty notes: only locks *created* while the context is
active are wrapped (module-level locks created at import time cannot be
monkey-patched in CPython), and ``queue.Queue`` internals allocate
their locks through ``_thread.allocate_lock`` directly, so they stay
unwrapped.  That is the right scope: the graph contains exactly the
engine's own discipline locks, not the stdlib's.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional, Set, Tuple

_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock


class _HeldState(threading.local):
    """Per-thread stack of lock labels currently held."""

    def __init__(self):
        self.stack: List[str] = []


class _Monitor:
    """Collects held-stacks, lock-order edges, and violations."""

    def __init__(self):
        self._held = _HeldState()
        self._meta = _REAL_LOCK()  # the monitor's own, never wrapped
        self.edges: Set[Tuple[str, str]] = set()
        self.acquired_labels: Set[str] = set()
        self.violations: List[str] = []
        self.guarded_writes: int = 0
        #: "Class.lock" guards observed held around a guarded write.
        self.exercised_guards: Set[str] = set()
        self._site_counts: Dict[str, int] = {}

    def label_for(self, site: str) -> str:
        """Unique label for one lock instance: ``file.py:lineno`` for the
        first lock created at a site, ``file.py:lineno#k`` after — two
        locks born on one line must not collapse into one graph node."""
        with self._meta:
            count = self._site_counts.get(site, 0) + 1
            self._site_counts[site] = count
        return site if count == 1 else f"{site}#{count}"

    def on_acquire(self, label: str) -> None:
        stack = self._held.stack
        with self._meta:
            self.acquired_labels.add(label)
            for held in stack:
                if held != label:
                    self.edges.add((held, label))
        stack.append(label)

    def on_release(self, label: str) -> None:
        stack = self._held.stack
        # Release order may not be LIFO (rare, but legal): drop the
        # innermost matching entry.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == label:
                del stack[index]
                return

    def holds(self, label: str) -> bool:
        return label in self._held.stack

    def record_violation(self, message: str) -> None:
        with self._meta:
            if message not in self.violations:
                self.violations.append(message)

    def count_guarded_write(self, guard_key: str, held: bool) -> None:
        with self._meta:
            self.guarded_writes += 1
            if held:
                self.exercised_guards.add(guard_key)


class SanitizedLock:
    """Observing proxy around a real ``Lock``/``RLock``.

    Implements the full lock protocol plus the private
    ``_release_save``/``_acquire_restore``/``_is_owned`` trio so a
    ``threading.Condition`` built on a sanitized lock keeps working
    (RLock inners delegate; plain-Lock inners use Condition's
    documented fallback semantics).
    """

    def __init__(self, inner, label: str, monitor: _Monitor):
        self._inner = inner
        self._label = label
        self._monitor = monitor

    # -- lock protocol -------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1):
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._monitor.on_acquire(self._label)
        return acquired

    def release(self):
        self._monitor.on_release(self._label)
        self._inner.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, exc_type, exc_value, traceback):
        self.release()

    def locked(self):
        return self._inner.locked()

    # -- Condition support ---------------------------------------------
    def _release_save(self):
        self._monitor.on_release(self._label)
        inner = self._inner
        if hasattr(inner, "_release_save"):
            return inner._release_save()
        inner.release()
        return None

    def _acquire_restore(self, state):
        inner = self._inner
        if hasattr(inner, "_acquire_restore"):
            inner._acquire_restore(state)
        else:
            inner.acquire()
        self._monitor.on_acquire(self._label)

    def _is_owned(self):
        inner = self._inner
        if hasattr(inner, "_is_owned"):
            return inner._is_owned()
        if inner.acquire(False):
            inner.release()
            return False
        return True

    def __repr__(self):
        return f"<SanitizedLock {self._label} {self._inner!r}>"


def _check_guarded_write(instance, class_name: str, attr: str,
                         lock_attr: str, monitor: _Monitor) -> None:
    """Runtime CC501: is the declared lock held for this write?

    Called from the installed ``__setattr__`` hook, so the writing user
    frame is exactly two frames up.
    """
    caller = sys._getframe(2)
    if caller.f_code.co_name in ("__init__", "__new__") and \
            caller.f_locals.get("self") is instance:
        return  # the object is still under construction, not shared
    lock = getattr(instance, lock_attr, None)
    if not isinstance(lock, SanitizedLock):
        return  # lock created outside the sanitize window; unobservable
    guard_key = f"{class_name}.{lock_attr}"
    held = monitor.holds(lock._label)
    monitor.count_guarded_write(guard_key, held)
    if not held:
        where = (f"{caller.f_code.co_filename.rsplit('/', 1)[-1]}"
                 f":{caller.f_lineno}")
        monitor.record_violation(
            f"{class_name}.{attr} written at {where} without holding "
            f"{guard_key}"
        )


def _make_hook(class_name: str, guards: Dict[str, Tuple[str, str]],
               original, monitor: _Monitor):
    def __setattr__(instance, name, value):
        guard = guards.get(name)
        if guard is not None:
            _check_guarded_write(instance, class_name, name, guard[0],
                                 monitor)
        original(instance, name, value)
    return __setattr__


def _normalize_guard_map(guard_map: dict) -> Dict[str, Tuple[str, str]]:
    normalized: Dict[str, Tuple[str, str]] = {}
    for attr, spec in guard_map.items():
        if isinstance(spec, str):
            normalized[attr] = (spec, "all")
        elif isinstance(spec, (tuple, list)) and len(spec) == 2:
            normalized[attr] = (str(spec[0]), str(spec[1]))
    return normalized


def _guarded_classes() -> List[Tuple[type, Dict[str, Tuple[str, str]]]]:
    """Every imported ``repro`` class carrying a ``_GUARDED_BY`` map."""
    found: List[Tuple[type, Dict[str, Tuple[str, str]]]] = []
    seen: Set[type] = set()
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr_name in dir(module):
            obj = getattr(module, attr_name, None)
            if not isinstance(obj, type) or obj in seen:
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue
            guard_map = obj.__dict__.get("_GUARDED_BY")
            if not isinstance(guard_map, dict) or not guard_map:
                continue
            normalized = _normalize_guard_map(guard_map)
            if normalized:
                seen.add(obj)
                found.append((obj, normalized))
    return found


class SanitizerReport:
    """What one sanitized run observed.

    Attributes:
        violations: unguarded guarded-attribute writes seen at runtime
            (the dynamic CC501 — empty on a disciplined engine).
        edges: the cross-thread lock-order graph as ``(held, acquired)``
            label pairs; labels are ``file.py:lineno`` creation sites.
        guarded_writes: how many guarded-attribute writes were checked.
            Zero means the run never touched guarded state — an
            ``assert not report.violations`` would be vacuous.
        unexercised: declared ``(class, attr, lock)`` triples never
            observed held around a guarded write — the cross-check of
            static ``_GUARDED_BY`` declarations against reality.
    """

    def __init__(self, monitor: _Monitor,
                 declared: Dict[str, Dict[str, Tuple[str, str]]]):
        self.violations: List[str] = list(monitor.violations)
        self.edges: List[Tuple[str, str]] = sorted(monitor.edges)
        self.guarded_writes: int = monitor.guarded_writes
        self.lock_count: int = len(monitor.acquired_labels)
        self.declared = declared
        self.unexercised: List[Tuple[str, str, str]] = sorted(
            (class_name, attr, lock)
            for class_name, attrs in declared.items()
            for attr, (lock, _mode) in attrs.items()
            if f"{class_name}.{lock}" not in monitor.exercised_guards
        )

    def cycles(self) -> List[List[str]]:
        """Cycles in the lock-order graph (potential deadlocks).

        Each cycle is a label list ``[a, b, ..., a]``; an empty result
        means every observed acquisition order is consistent.
        """
        graph: Dict[str, List[str]] = {}
        for src, dst in self.edges:
            graph.setdefault(src, []).append(dst)
            graph.setdefault(dst, [])
        WHITE, GREY, BLACK = 0, 1, 2
        color = {node: WHITE for node in graph}
        found: List[List[str]] = []

        def visit(node: str, path: List[str]) -> None:
            color[node] = GREY
            path.append(node)
            for neighbor in sorted(graph[node]):
                if color[neighbor] == GREY:
                    start = path.index(neighbor)
                    cycle = path[start:] + [neighbor]
                    if cycle not in found:
                        found.append(cycle)
                elif color[neighbor] == WHITE:
                    visit(neighbor, path)
            path.pop()
            color[node] = BLACK

        for node in sorted(graph):
            if color[node] == WHITE:
                visit(node, [])
        return found

    def ok(self) -> bool:
        return not self.violations and not self.cycles()

    def to_dict(self) -> Dict[str, object]:
        return {
            "violations": list(self.violations),
            "edges": [list(edge) for edge in self.edges],
            "cycles": self.cycles(),
            "guarded_writes": self.guarded_writes,
            "locks_observed": self.lock_count,
            "unexercised": [list(item) for item in self.unexercised],
        }

    def render(self) -> str:
        lines = [
            "=== Lock sanitizer report ===",
            f"locks observed:      {self.lock_count}",
            f"lock-order edges:    {len(self.edges)}",
            f"guarded writes seen: {self.guarded_writes}",
        ]
        cycles = self.cycles()
        if cycles:
            lines.append(f"potential deadlocks: {len(cycles)}")
            for cycle in cycles:
                lines.append("  " + " -> ".join(cycle))
        else:
            lines.append("potential deadlocks: 0 (graph is acyclic)")
        if self.violations:
            lines.append(f"unguarded writes:    {len(self.violations)}")
            for violation in self.violations:
                lines.append(f"  {violation}")
        else:
            lines.append("unguarded writes:    0")
        if self.unexercised:
            lines.append(
                "declared but unexercised guards (never observed held "
                "around a write):"
            )
            for class_name, attr, lock in self.unexercised:
                lines.append(
                    f"  {class_name}.{attr} <- {class_name}.{lock}"
                )
        return "\n".join(lines)


def _creation_label() -> str:
    """``file.py:lineno`` of the frame that called Lock()/RLock()."""
    frame = sys._getframe(2)
    filename = frame.f_code.co_filename.rsplit("/", 1)[-1]
    return f"{filename}:{frame.f_lineno}"


class sanitize:
    """Context manager enabling the lock sanitizer.

    ``with sanitize() as report:`` patches the ``threading.Lock`` /
    ``threading.RLock`` factories and installs guarded-write hooks on
    every imported ``repro`` class with a ``_GUARDED_BY`` map; on exit
    everything is restored and ``report`` is finalized.  Nested use
    raises — the patch is process-global, one window at a time.
    """

    _active: Optional["sanitize"] = None

    def __init__(self):
        self.monitor = _Monitor()
        self.report: Optional[SanitizerReport] = None
        self._hooked: List[Tuple[type, bool, object]] = []
        self._declared: Dict[str, Dict[str, Tuple[str, str]]] = {}

    def __enter__(self) -> "SanitizerHandle":
        if sanitize._active is not None:
            raise RuntimeError("sanitize() is already active")
        sanitize._active = self
        monitor = self.monitor

        def make_lock():
            return SanitizedLock(
                _REAL_LOCK(), monitor.label_for(_creation_label()), monitor
            )

        def make_rlock():
            return SanitizedLock(
                _REAL_RLOCK(), monitor.label_for(_creation_label()), monitor
            )

        threading.Lock = make_lock
        threading.RLock = make_rlock
        for cls, guards in _guarded_classes():
            self._declared[cls.__name__] = guards
            own = "__setattr__" in cls.__dict__
            original = cls.__setattr__
            try:
                cls.__setattr__ = _make_hook(
                    cls.__name__, guards, original, monitor
                )
            except (TypeError, AttributeError):
                continue  # classes that refuse attribute injection
            self._hooked.append((cls, own, original))
        return SanitizerHandle(self)

    def __exit__(self, exc_type, exc_value, traceback):
        threading.Lock = _REAL_LOCK
        threading.RLock = _REAL_RLOCK
        for cls, own, original in self._hooked:
            if own:
                cls.__setattr__ = original
            else:
                del cls.__setattr__
        self._hooked.clear()
        sanitize._active = None
        self.report = SanitizerReport(self.monitor, self._declared)
        return False


class SanitizerHandle:
    """Live view handed out by ``__enter__``; after ``__exit__`` it
    forwards everything to the finalized :class:`SanitizerReport`."""

    def __init__(self, owner: sanitize):
        object.__setattr__(self, "_owner", owner)

    def _target(self):
        owner = self._owner
        if owner.report is not None:
            return owner.report
        return None

    @property
    def violations(self) -> List[str]:
        report = self._target()
        if report is not None:
            return report.violations
        return list(self._owner.monitor.violations)

    @property
    def edges(self) -> List[Tuple[str, str]]:
        report = self._target()
        if report is not None:
            return report.edges
        return sorted(self._owner.monitor.edges)

    @property
    def guarded_writes(self) -> int:
        report = self._target()
        if report is not None:
            return report.guarded_writes
        return self._owner.monitor.guarded_writes

    @property
    def lock_count(self) -> int:
        report = self._target()
        if report is not None:
            return report.lock_count
        return len(self._owner.monitor.acquired_labels)

    @property
    def unexercised(self):
        report = self._target()
        if report is not None:
            return report.unexercised
        return []

    def cycles(self) -> List[List[str]]:
        report = self._target()
        if report is not None:
            return report.cycles()
        return SanitizerReport(self._owner.monitor, {}).cycles()

    def ok(self) -> bool:
        return not self.violations and not self.cycles()

    def render(self) -> str:
        report = self._target()
        if report is None:
            raise RuntimeError("sanitize() window still open")
        return report.render()

    def to_dict(self) -> Dict[str, object]:
        report = self._target()
        if report is None:
            raise RuntimeError("sanitize() window still open")
        return report.to_dict()
