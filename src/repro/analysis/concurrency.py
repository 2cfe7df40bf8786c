"""pz-lint ``CC5xx``: concurrency and determinism analysis over source.

The execution engine's contract is that every executor — sequential,
pipelined, sharded, async — produces byte-identical records, stats,
traces, and provenance.  That contract is enforced dynamically by the
equivalence property tests; this module is its *static* counterpart: an
AST analysis over the engine's own source (and over generated programs,
like the ``CG3xx`` family) that flags the two classic ways the contract
rots:

* **lock-discipline drift** — a shared mutable attribute touched outside
  the lock that is supposed to guard it; and
* **nondeterminism sources** — wall-clock reads, unseeded randomness,
  runtime-identity leaks, and unordered-set iteration feeding output.

Lock discipline is *declared* in the code under analysis.  A class lists
its guarded attributes in a ``_GUARDED_BY`` map::

    class UsageLedger:
        _GUARDED_BY = {"_records": "_lock"}

meaning every access to ``self._records`` (or ``ledger._records`` from a
sibling function in the same module) must sit inside a
``with self._lock:`` (resp. ``with ledger._lock:``) block.  A value may
also be a ``(lock, mode)`` pair where mode ``"writes"`` relaxes the rule
to mutations only — for types with a documented lock-free read contract
(e.g. :class:`~repro.llm.oracle.GroundTruthRegistry`, whose reads are
single atomic dict lookups).  Modules may declare a module-level
``_GUARDED_BY`` whose locks are module globals; those guard
free-function state (e.g. the shard-assignment caches in
:mod:`repro.core.sources`).

Rules:

* ``CC501`` — a guarded attribute is read or written outside a ``with
  <receiver>.<lock>:`` block (or ``with <lock>:`` for module-level
  guards).
* ``CC502`` — a class creates a ``threading.Lock``/``RLock`` that is
  never acquired anywhere in the module (dead lock: the discipline it
  advertises does not exist).
* ``CC503`` — a thread worker entry point (a method passed as
  ``threading.Thread(target=...)``, or reachable from one through
  same-class calls) writes a shared attribute that is neither declared
  in a ``_GUARDED_BY`` map nor a synchronization primitive nor
  thread-local.
* ``CC504`` — a wall-clock or scheduling observable (``time.time``,
  ``datetime.now``, ``queue.qsize``, ...) feeds a deterministic path.
* ``CC505`` — an entropy source: module-level ``random.*`` calls,
  unseeded ``random.Random()``, ``os.urandom``, ``uuid.uuid1/uuid4``,
  ``secrets.*``.
* ``CC506`` — a runtime ``id()`` value escapes into output (formatting,
  arithmetic, return values).  Identity-keying — ``d[id(x)]``,
  ``id(x) in seen``, ``seen.add(id(x))`` — is allowed: the *value* never
  surfaces, only object identity.
* ``CC507`` — iteration over an unordered ``set``/``frozenset`` (output
  order then depends on hash seeding); wrap the set in ``sorted()``.
  ``dict`` iteration is insertion-ordered in Python 3.7+ and is not
  flagged.

Two escape hatches keep the rules honest rather than noisy:

* statements that feed a *best-effort* metric (the explicitly
  scheduling-dependent class of :mod:`repro.obs.metrics` — queue-depth
  gauges and poll counters, excluded from deterministic snapshots) are
  allowlisted for CC504–CC507 via :data:`BEST_EFFORT_RECEIVERS`;
* a trailing ``# nondet: ok(<reason>)`` comment suppresses CC504–CC507
  on that line, and ``# guarded-by: ok(<reason>)`` suppresses
  CC501/CC503 — both require a reason, which the diagnostic would
  otherwise demand in review.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import (
    Emitter,
    LintConfig,
    LintResult,
    Severity,
    register_rule,
)

register_rule(
    "CC501", "guarded-attr-access",
    "a _GUARDED_BY attribute is accessed outside a 'with <lock>:' block",
    Severity.ERROR,
)
register_rule(
    "CC502", "dead-lock",
    "a threading.Lock/RLock attribute is created but never acquired "
    "anywhere in the module",
    Severity.WARNING,
)
register_rule(
    "CC503", "unguarded-worker-write",
    "a thread worker entry point writes a shared attribute that is not "
    "declared in a _GUARDED_BY map",
    Severity.ERROR,
)
register_rule(
    "CC504", "wall-clock-read",
    "a wall-clock or scheduling observable (time.time, datetime.now, "
    "qsize, ...) feeds a deterministic path",
    Severity.ERROR,
)
register_rule(
    "CC505", "entropy-source",
    "an entropy source (module-level random, unseeded Random(), "
    "os.urandom, uuid1/uuid4, secrets) feeds a deterministic path",
    Severity.ERROR,
)
register_rule(
    "CC506", "runtime-id-leak",
    "a runtime id() value escapes into output (identity-keying via "
    "dict/set membership is fine; the raw value is not reproducible)",
    Severity.WARNING,
)
register_rule(
    "CC507", "unordered-iteration",
    "iteration over an unordered set/frozenset feeds output; wrap it "
    "in sorted()",
    Severity.WARNING,
)

#: Attribute names whose enclosing statement is allowed to observe
#: scheduling state: they feed *best-effort* metrics (the explicitly
#: nondeterministic class of repro.obs.metrics, excluded from
#: deterministic snapshots), such as a queue-depth gauge or a poll
#: counter.
BEST_EFFORT_RECEIVERS = frozenset({"depth_gauge", "poll_counter"})

#: ``module.attr`` call targets that read the wall clock or the
#: scheduler (CC504).
_WALL_CLOCK_CALLS = {
    ("time", "time"), ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "time_ns"), ("time", "process_time"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}
#: Bare method names that observe scheduling state on any receiver.
_SCHEDULING_CALLS = frozenset({"qsize"})

#: ``module.attr`` call targets that draw entropy (CC505).
_ENTROPY_CALLS = {
    ("os", "urandom"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
}
_ENTROPY_MODULES = frozenset({"secrets"})

#: Methods whose call on a guarded attribute counts as a *write* (they
#: mutate the container in place).
_MUTATOR_METHODS = frozenset({
    "append", "extend", "add", "insert", "remove", "discard", "pop",
    "popitem", "clear", "update", "setdefault", "move_to_end", "sort",
    "reverse", "appendleft", "popleft",
})

#: Constructors that create synchronization primitives / thread-locals;
#: attributes holding one are exempt from CC503 (they are the guards).
_SYNC_CONSTRUCTORS = frozenset({
    "Lock", "RLock", "Event", "Condition", "Semaphore",
    "BoundedSemaphore", "Barrier", "local", "Queue", "LifoQueue",
    "PriorityQueue", "SimpleQueue",
})
_LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock"})

#: id() uses where only object *identity* matters and the value never
#: escapes: subscripts (``d[id(x)]``), membership tests, and arguments
#: to keyed-container methods.
_IDENTITY_SINK_METHODS = frozenset({
    "get", "add", "setdefault", "pop", "discard", "remove", "count",
    "index", "__contains__",
})


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _attach_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._cc_parent = node  # type: ignore[attr-defined]


def _parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "_cc_parent", None)


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed node
        return "<expr>"


def _line_pragma(source_lines: List[str], lineno: int, kind: str) -> bool:
    """True when line ``lineno`` carries a ``# <kind>: ok(...)`` pragma."""
    if not 1 <= lineno <= len(source_lines):
        return False
    text = source_lines[lineno - 1]
    return f"# {kind}: ok(" in text or f"# {kind}: ok " in text


def _call_name(node: ast.Call) -> Tuple[Optional[str], str]:
    """(receiver-or-module, name) of a call: ``time.time()`` -> ("time",
    "time"); ``urandom()`` -> (None, "urandom")."""
    func = node.func
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            return base.id, func.attr
        if isinstance(base, ast.Attribute):
            return base.attr, func.attr
        return None, func.attr
    if isinstance(func, ast.Name):
        return None, func.id
    return None, ""


def _is_set_expr(node: ast.AST, set_vars: Set[str]) -> bool:
    """Does ``node`` evaluate to a set/frozenset (shallow inference)?"""
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        _, name = _call_name(node)
        if name in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
        # set algebra propagates setness from either side
        return (_is_set_expr(node.left, set_vars)
                or _is_set_expr(node.right, set_vars))
    return False


def _enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    current = _parent(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = _parent(current)
    return None


def _feeds_best_effort_metric(node: ast.AST) -> bool:
    """Is ``node`` an argument (transitively) of a call on an attribute
    in :data:`BEST_EFFORT_RECEIVERS`?"""
    current = _parent(node)
    while current is not None and not isinstance(current, ast.stmt):
        if isinstance(current, ast.Call):
            func = current.func
            if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Attribute):
                if func.value.attr in BEST_EFFORT_RECEIVERS:
                    return True
            if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name):
                if func.value.id in BEST_EFFORT_RECEIVERS:
                    return True
        current = _parent(current)
    return False


# ---------------------------------------------------------------------------
# Guard declarations
# ---------------------------------------------------------------------------


class GuardEntry:
    """One declared guard: attribute ``attr`` is guarded by ``lock``."""

    __slots__ = ("attr", "lock", "mode", "owner", "module_level")

    def __init__(self, attr: str, lock: str, mode: str, owner: str,
                 module_level: bool = False):
        self.attr = attr
        self.lock = lock.split(".")[-1]
        self.mode = mode  # "all" | "writes"
        self.owner = owner
        self.module_level = module_level or "." not in lock and owner == ""

    def required_context(self, receiver: str) -> str:
        if self.module_level:
            return self.lock
        return f"{receiver}.{self.lock}"


def _parse_guard_value(value: ast.AST) -> Optional[Tuple[str, str]]:
    """(lock, mode) from a _GUARDED_BY value node, or None if malformed."""
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return value.value, "all"
    if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == 2:
        lock_node, mode_node = value.elts
        if (isinstance(lock_node, ast.Constant)
                and isinstance(lock_node.value, str)
                and isinstance(mode_node, ast.Constant)
                and isinstance(mode_node.value, str)):
            mode = mode_node.value
            if mode in ("all", "writes"):
                return lock_node.value, mode
    return None


def _collect_guards(tree: ast.Module) -> Tuple[
        Dict[str, List[GuardEntry]], Dict[str, Dict[str, Any]]]:
    """(guards-by-attr, per-class info) from a module's declarations.

    Per-class info records, for CC502/CC503: the lock attributes the
    class creates, its thread-local attributes, and its sync-primitive
    attributes.
    """
    guards: Dict[str, List[GuardEntry]] = {}
    classes: Dict[str, Dict[str, Any]] = {}

    def record_guard_map(node: ast.AST, owner: str,
                         module_level: bool) -> None:
        if not isinstance(node, ast.Dict):
            return
        for key, value in zip(node.keys, node.values):
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)):
                continue
            parsed = _parse_guard_value(value)
            if parsed is None:
                continue
            lock, mode = parsed
            entry = GuardEntry(key.value, lock, mode, owner,
                               module_level=module_level)
            guards.setdefault(key.value, []).append(entry)
            if owner:
                classes[owner]["declared"][key.value] = entry

    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and \
                        target.id == "_GUARDED_BY":
                    record_guard_map(node.value, "", module_level=True)
        if not isinstance(node, ast.ClassDef):
            continue
        info: Dict[str, Any] = {
            "declared": {}, "locks": {}, "sync": set(),
            "thread_local": set(), "node": node,
        }
        classes[node.name] = info
        for item in node.body:
            if isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name) and \
                            target.id == "_GUARDED_BY":
                        record_guard_map(item.value, node.name,
                                         module_level=False)
        # Lock / sync-primitive attributes created in any method.
        for item in ast.walk(node):
            if not isinstance(item, ast.Assign):
                continue
            if not isinstance(item.value, ast.Call):
                continue
            _, ctor = _call_name(item.value)
            for target in item.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    if ctor in _LOCK_CONSTRUCTORS:
                        info["locks"][target.attr] = item.lineno
                    if ctor in _SYNC_CONSTRUCTORS:
                        info["sync"].add(target.attr)
                    if ctor == "local":
                        info["thread_local"].add(target.attr)
    return guards, classes


# ---------------------------------------------------------------------------
# Access classification
# ---------------------------------------------------------------------------


def _classify_access(node: ast.Attribute) -> str:
    """"read" | "write" for an attribute access node.

    Writes: direct store/del/augassign targets, stores *through* the
    attribute (``x.stats.field = v`` writes ``stats``), and in-place
    mutator calls (``x._records.append(...)``).
    """
    if isinstance(node.ctx, (ast.Store, ast.Del)):
        return "write"
    parent = _parent(node)
    # x.attr.inner = v  /  x.attr.inner += v  /  x.attr[k] = v
    current, prev = parent, node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        if isinstance(current.ctx, (ast.Store, ast.Del)):
            return "write"
        prev, current = current, _parent(current)
    # mutator call: Call(func=Attribute(attr in mutators, value=node))
    if (isinstance(parent, ast.Attribute)
            and parent.attr in _MUTATOR_METHODS):
        grand = _parent(parent)
        if isinstance(grand, ast.Call) and grand.func is parent:
            return "write"
    return "read"


def _with_contexts(node: ast.AST) -> List[str]:
    """Unparsed context expressions of every enclosing ``with``.

    The walk stops at method / top-level function boundaries but keeps
    going through *closures*: a helper defined inside a ``with lock:``
    block runs under that lock (the closure cannot outlive the block in
    this codebase's idiom, and treating it otherwise would flag every
    locked finalization helper).
    """
    contexts: List[str] = []
    current = _parent(node)
    while current is not None:
        if isinstance(current, (ast.With, ast.AsyncWith)):
            for item in current.items:
                contexts.append(_unparse(item.context_expr))
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = _parent(current)
            if isinstance(enclosing, (ast.ClassDef, ast.Module)):
                break  # a method or top-level function: lock scope ends
        elif isinstance(current, ast.ClassDef):
            break
        current = _parent(current)
    return contexts


def _receiver_of(node: ast.Attribute) -> Optional[str]:
    """The receiver expression text, for simple receivers only."""
    base = node.value
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return _unparse(base)
    return None


def _in_constructor_of_receiver(node: ast.AST, receiver: str) -> bool:
    """Is this access inside ``__init__``/``__new__`` with the receiver
    being the object under construction (``self``)?"""
    if receiver != "self":
        return False
    function = _enclosing_function(node)
    return function is not None and function.name in ("__init__", "__new__")


# ---------------------------------------------------------------------------
# CC501 / CC502: guarded-by discipline
# ---------------------------------------------------------------------------


def _check_guarded_accesses(tree: ast.Module, guards, classes,
                            source_lines, emitter: Emitter,
                            filename: str) -> None:
    class_names = set(classes)

    def check_access(node: ast.AST, attr: str, receiver: Optional[str],
                     access: str, lineno: int) -> None:
        entries = guards.get(attr)
        if not entries:
            return
        if receiver is None or receiver in class_names:
            return  # class-level declaration or complex receiver
        if _in_constructor_of_receiver(node, receiver):
            return  # the object is not shared yet
        if _line_pragma(source_lines, lineno, "guarded-by"):
            return
        relevant = [e for e in entries
                    if access == "write" or e.mode == "all"]
        if not relevant:
            return
        contexts = _with_contexts(node)
        required = [e.required_context(receiver) for e in entries]
        if any(context in required for context in contexts):
            return
        verb = "written" if access == "write" else "read"
        emitter.emit(
            "CC501",
            f"guarded attribute {receiver}.{attr} is {verb} outside "
            f"'with {required[0]}:'",
            f"{filename}:{lineno}",
            hint="hold the declared lock, or annotate the line with "
                 "'# guarded-by: ok(<reason>)' if the access is safe "
                 "by protocol",
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            access = _classify_access(node)
            check_access(node, node.attr, _receiver_of(node), access,
                         node.lineno)
        elif isinstance(node, ast.Call):
            # getattr(obj, "_attr", ...) / setattr(obj, "_attr", v)
            _, name = _call_name(node)
            if name in ("getattr", "setattr") and len(node.args) >= 2:
                attr_node = node.args[1]
                if (isinstance(attr_node, ast.Constant)
                        and isinstance(attr_node.value, str)):
                    receiver = _unparse(node.args[0])
                    access = "write" if name == "setattr" else "read"
                    check_access(node, attr_node.value, receiver, access,
                                 node.lineno)


def _check_dead_locks(tree: ast.Module, classes, emitter: Emitter,
                      filename: str) -> None:
    acquired: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                context = item.context_expr
                if isinstance(context, ast.Attribute):
                    acquired.add(context.attr)
                elif isinstance(context, ast.Name):
                    acquired.add(context.id)
                elif isinstance(context, ast.Call):
                    # with lock_holder.some_lock() style helpers
                    _, name = _call_name(context)
                    acquired.add(name)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in ("acquire", "release"):
                if isinstance(func.value, ast.Attribute):
                    acquired.add(func.value.attr)
                elif isinstance(func.value, ast.Name):
                    acquired.add(func.value.id)
    for class_name, info in classes.items():
        for lock_attr, lineno in sorted(info["locks"].items()):
            if lock_attr not in acquired:
                emitter.emit(
                    "CC502",
                    f"{class_name}.{lock_attr} is created but never "
                    "acquired in this module",
                    f"{filename}:{lineno}",
                    hint="acquire it around the state it guards, or "
                         "delete it — a dead lock advertises a "
                         "discipline that does not exist",
                )


# ---------------------------------------------------------------------------
# CC503: worker entry points sharing undeclared state
# ---------------------------------------------------------------------------


def _thread_targets(function: ast.AST) -> Set[str]:
    """Names of methods this function hands to ``threading.Thread``."""
    targets: Set[str] = set()
    local_aliases: Dict[str, Set[str]] = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                methods = {
                    sub.attr for sub in ast.walk(node.value)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                }
                if methods:
                    local_aliases[target.id] = methods
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        _, name = _call_name(node)
        if name != "Thread":
            continue
        for keyword in node.keywords:
            if keyword.arg != "target":
                continue
            value = keyword.value
            if (isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"):
                targets.add(value.attr)
            elif isinstance(value, ast.Name):
                targets.update(local_aliases.get(value.id, set()))
    return targets


def _check_worker_writes(tree: ast.Module, guards, classes, source_lines,
                         emitter: Emitter, filename: str) -> None:
    for class_name, info in classes.items():
        node = info["node"]
        methods = {
            item.name: item for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        entry_points: Set[str] = set()
        for method in methods.values():
            entry_points.update(
                name for name in _thread_targets(method) if name in methods
            )
        if not entry_points:
            continue
        # Transitive closure over same-class calls from the entry points.
        reachable: Set[str] = set()
        frontier = list(entry_points)
        while frontier:
            name = frontier.pop()
            if name in reachable or name not in methods:
                continue
            reachable.add(name)
            for sub in ast.walk(methods[name]):
                if isinstance(sub, ast.Call):
                    func = sub.func
                    if (isinstance(func, ast.Attribute)
                            and isinstance(func.value, ast.Name)
                            and func.value.id == "self"
                            and func.attr in methods):
                        frontier.append(func.attr)
        exempt = info["sync"] | info["thread_local"] | set(info["locks"])
        for name in sorted(reachable):
            method = methods[name]
            for sub in ast.walk(method):
                if not isinstance(sub, ast.Attribute):
                    continue
                if _classify_access(sub) != "write":
                    continue
                attr = sub.attr
                receiver = _receiver_of(sub)
                if receiver is None:
                    continue
                if attr in guards or attr in exempt:
                    continue
                # Writes *through* a thread-local or sync primitive
                # (self._local.depth = 1) are private to the thread.
                receiver_tail = receiver.split(".")[-1]
                if receiver_tail in exempt or any(
                        receiver_tail in other["sync"]
                        or receiver_tail in other["thread_local"]
                        for other in classes.values()):
                    continue
                # Attributes of *other* annotated classes may be exempt
                # too (sync primitives declared there).
                if any(attr in other["sync"] or attr in other["locks"]
                       or attr in other["thread_local"]
                       for other in classes.values()):
                    continue
                if _line_pragma(source_lines, sub.lineno, "guarded-by"):
                    continue
                emitter.emit(
                    "CC503",
                    f"worker entry point {class_name}.{name} writes "
                    f"shared attribute {receiver}.{attr}, which no "
                    "_GUARDED_BY map declares",
                    f"{filename}:{sub.lineno}",
                    hint="declare the attribute in _GUARDED_BY and hold "
                         "its lock, make it thread-local, or annotate "
                         "with '# guarded-by: ok(<reason>)'",
                )


# ---------------------------------------------------------------------------
# CC504–CC507: nondeterminism sources
# ---------------------------------------------------------------------------


def _random_module_names(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """(module aliases of ``random``, names imported *from* random)."""
    aliases: Set[str] = set()
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    aliases.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for alias in node.names:
                    if alias.name not in ("Random", "SystemRandom"):
                        names.add(alias.asname or alias.name)
    return aliases, names


def _id_value_allowed(node: ast.Call) -> bool:
    """Is this ``id()`` call used only for identity keying?"""
    parent = _parent(node)
    if isinstance(parent, ast.Subscript):
        return True  # d[id(x)]
    if isinstance(parent, ast.Compare):
        return all(isinstance(op, (ast.In, ast.NotIn, ast.Eq, ast.NotEq,
                                   ast.Is, ast.IsNot))
                   for op in parent.ops)
    if isinstance(parent, ast.Call) and node in parent.args:
        func = parent.func
        if isinstance(func, ast.Attribute) and \
                func.attr in _IDENTITY_SINK_METHODS:
            return True
    return False


def _check_nondeterminism(tree: ast.Module, source_lines,
                          emitter: Emitter, filename: str) -> None:
    random_aliases, random_names = _random_module_names(tree)

    def allowed(node: ast.AST) -> bool:
        return (_line_pragma(source_lines, node.lineno, "nondet")
                or _feeds_best_effort_metric(node))

    # Per-function shallow set-variable inference for CC507.
    set_vars_by_function: Dict[Optional[ast.AST], Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                function = _enclosing_function(node)
                known = set_vars_by_function.setdefault(function, set())
                if _is_set_expr(node.value, known):
                    known.add(target.id)
                else:
                    known.discard(target.id)

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            receiver, name = _call_name(node)
            where = f"{filename}:{node.lineno}"
            # CC504 — wall clock / scheduler observables
            if ((receiver, name) in _WALL_CLOCK_CALLS
                    or (receiver is not None
                        and name in _SCHEDULING_CALLS)):
                if not allowed(node):
                    emitter.emit(
                        "CC504",
                        f"{_unparse(node.func)}() reads the wall clock "
                        "or scheduler state in a deterministic path",
                        where,
                        hint="advance the VirtualClock instead; real "
                             "time varies run to run.  Best-effort "
                             "metric feeds are allowlisted; otherwise "
                             "annotate '# nondet: ok(<reason>)'",
                    )
            # CC505 — entropy sources
            is_entropy = (
                (receiver, name) in _ENTROPY_CALLS
                or receiver in _ENTROPY_MODULES
                or (receiver in random_aliases
                    and name not in ("Random", "SystemRandom", "seed"))
                or (receiver is None and name in random_names)
                or (name == "SystemRandom")
                or (name == "Random" and receiver in random_aliases
                    and not (node.args or node.keywords))
            )
            if is_entropy and not allowed(node):
                emitter.emit(
                    "CC505",
                    f"{_unparse(node.func)}() draws entropy in a "
                    "deterministic path",
                    where,
                    hint="use a seeded random.Random(seed) instance "
                         "derived from stable inputs",
                )
            # CC506 — id() value escaping
            if (receiver is None and name == "id" and node.args
                    and not _id_value_allowed(node)
                    and not allowed(node)):
                emitter.emit(
                    "CC506",
                    "id() value escapes beyond identity keying; CPython "
                    "addresses differ run to run",
                    where,
                    hint="key containers with id(x) freely, but never "
                         "format, return, or sort by the raw value",
                )
        # CC507 — unordered iteration
        iter_node = None
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_node = node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iter_node = node.generators[0].iter
        elif isinstance(node, ast.Call):
            _, name = _call_name(node)
            if name in ("list", "tuple", "join", "enumerate") and node.args:
                iter_node = node.args[0]
        if iter_node is not None:
            function = _enclosing_function(node)
            known = set_vars_by_function.get(function, set())
            if _is_set_expr(iter_node, known) and not allowed(node):
                emitter.emit(
                    "CC507",
                    f"iteration over unordered set "
                    f"{_unparse(iter_node)!r}; element order depends "
                    "on hash seeding",
                    f"{filename}:{node.lineno}",
                    hint="wrap the set in sorted() before iterating",
                )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def lint_source_concurrency(
    source: str,
    filename: str = "<source>",
    config: Optional[LintConfig] = None,
    result: Optional[LintResult] = None,
) -> LintResult:
    """Run the CC5xx analysis over one module's source text.

    Purely AST-based — nothing is executed, so it is safe on generated
    programs and untrusted files alike.  Syntax errors are *not*
    reported here (``CG301`` owns those); unparsable sources return an
    empty result.
    """
    result = result if result is not None else LintResult()
    emitter = Emitter(result, config)
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        return result
    _attach_parents(tree)
    source_lines = source.splitlines()
    guards, classes = _collect_guards(tree)
    _check_guarded_accesses(tree, guards, classes, source_lines, emitter,
                            filename)
    _check_dead_locks(tree, classes, emitter, filename)
    _check_worker_writes(tree, guards, classes, source_lines, emitter,
                         filename)
    _check_nondeterminism(tree, source_lines, emitter, filename)
    return result


def guarded_declarations(source: str) -> Dict[str, Dict[str, Tuple[str, str]]]:
    """``{class_name: {attr: (lock, mode)}}`` parsed from ``source``.

    The runtime sanitizer cross-checks these static declarations against
    observed lock holds (:mod:`repro.analysis.sanitizer`).
    """
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        return {}
    _attach_parents(tree)
    _, classes = _collect_guards(tree)
    return {
        name: {
            attr: (entry.lock, entry.mode)
            for attr, entry in info["declared"].items()
        }
        for name, info in classes.items()
        if info["declared"]
    }
