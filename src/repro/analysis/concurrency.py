"""pz-lint ``CC5xx``: determinism analysis over source.

The execution engine's contract is that every executor — sequential,
pipelined, sharded, async — produces byte-identical records, stats,
traces, and provenance, run after run.  The grid and the golden digests
enforce it dynamically; this module is its *static* counterpart: an AST
analysis over the package's own source (and over generated programs,
like the ``CG3xx`` family) that flags the ways the contract rots —
wall-clock reads, unseeded randomness, runtime-identity leaks, and
unordered-set iteration feeding output.

Threads are not its business: the server runs under one serving lock
(:mod:`repro.server.serving`) and the engine on its caller's thread,
and the process-wide memos hold pure values, so a race costs a recount,
never a wrong answer.

Rules:

* ``CC504`` — a wall-clock or scheduling observable (``time.time``,
  ``datetime.now``, ``queue.qsize``, ...) feeds a deterministic path;
  import aliases resolve first (:func:`_wall_clock_reads`).  Engine
  source reads the wall clock only through :mod:`repro.obs.telemetry`'s
  ``wall_now`` / ``wall_perf``, whose reads are waived, so this rule
  also keeps the boundary between the engine and operational telemetry.
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

One escape hatch keeps the rules honest rather than noisy: a trailing
``# nondet: ok(<reason>)`` comment suppresses them on that line, and
requires a reason, which the diagnostic would otherwise demand in review.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import (
    Emitter,
    LintConfig,
    LintResult,
    Severity,
    register_rule,
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

#: ``module.attr`` call targets that read the wall clock (CC504),
#: matched after import aliases resolve to the canonical module.
_WALL_CLOCK_ATTRS = {
    ("time", "time"), ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "time_ns"), ("time", "process_time"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}
#: Names that read the wall clock when imported from ``time``
#: (``from time import perf_counter``).
_WALL_CLOCK_BARE = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time",
})
#: Bare method names that observe scheduling state on any receiver.
_SCHEDULING_CALLS = frozenset({"qsize"})

#: ``module.attr`` call targets that draw entropy (CC505).
_ENTROPY_CALLS = {
    ("os", "urandom"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
}
_ENTROPY_MODULES = frozenset({"secrets"})

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


def _wall_clock_reads(tree: ast.AST) -> List[Tuple[ast.Call, str]]:
    """Every call in ``tree`` that reads the wall clock, in ``ast.walk``
    order, with its canonical spelling (``time.monotonic()``).

    Import aliases resolve before matching, so ``import time as _t;
    _t.monotonic()``, ``from time import perf_counter; perf_counter()``,
    ``from datetime import datetime as DT; DT.now()`` and the dotted
    ``datetime.datetime.now()`` all count.
    """
    bare: Set[str] = set()
    modules = {"time": "time", "datetime": "datetime", "date": "date"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("time", "datetime"):
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module == "time" and alias.name in _WALL_CLOCK_BARE:
                    bare.add(alias.asname or alias.name)
                elif (node.module == "datetime"
                        and alias.name in ("datetime", "date")):
                    modules[alias.asname or alias.name] = alias.name

    reads: List[Tuple[ast.Call, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                receiver = modules.get(base.id)
            elif (isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and modules.get(base.value.id) == "datetime"
                    and base.attr in ("datetime", "date")):
                receiver = base.attr  # datetime.datetime.now()
            else:
                continue
            if (receiver, func.attr) in _WALL_CLOCK_ATTRS:
                reads.append((node, f"{receiver}.{func.attr}()"))
        elif isinstance(func, ast.Name) and func.id in bare:
            reads.append((node, f"{func.id}()"))
    return reads


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
    wall_clock = dict(_wall_clock_reads(tree))

    def allowed(node: ast.AST) -> bool:
        return _line_pragma(source_lines, node.lineno, "nondet")

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
            if node in wall_clock or (receiver is not None
                                      and name in _SCHEDULING_CALLS):
                if not allowed(node):
                    emitter.emit(
                        "CC504",
                        f"{_unparse(node.func)}() reads the wall clock "
                        "or scheduler state in a deterministic path",
                        where,
                        hint="advance the VirtualClock instead; real "
                             "time varies run to run; otherwise annotate "
                             "'# nondet: ok(<reason>)'",
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
    _check_nondeterminism(tree, source.splitlines(), emitter, filename)
    return result
