"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``models`` — list the registered model cards (the physical plan space).
* ``demo`` — run one of the three demonstration scenarios end-to-end.
* ``run`` — build and execute a pipeline over a folder from the shell.
* ``chat`` — an interactive PalimpChat REPL (the demo's chat box, in a
  terminal).
* ``serve`` — the multi-tenant HTTP service (sessions, turns, quotas,
  ``/metrics``; see ``docs/server.md``).
* ``top`` — a live terminal dashboard over a running server's
  ``/metrics`` endpoint (per-tenant throughput, latency percentiles,
  quota burn-down, SLO alerts).
* ``lint`` — statically analyze pipelines, tools, programs, and notebooks
  (the pz-lint rules; see ``docs/diagnostics.md``).
* ``trace`` — run a demo scenario with tracing on and analyze/export the
  trace (Chrome ``trace_event`` JSON, critical path, tree, flame).
* ``runs`` — the persistent run registry: record demo runs with
  provenance, list/show them, explain records (``why`` / ``why-not``),
  diff two runs (plan, per-op stats, record membership), ``rerun`` a
  recorded run incrementally after a corpus delta (replaying unchanged
  documents' LLM calls), and ``prune`` old runs by count or byte budget.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro as pz
from repro.llm.models import default_registry
from repro.physical.options import EXECUTORS, ExecutionOptions

#: Used only when neither installed metadata nor pyproject.toml is
#: readable (e.g. the package was vendored without its build files).
_FALLBACK_VERSION = "0.0.0+unknown"
_FALLBACK_DESCRIPTION = (
    "PalimpChat reproduction: declarative and interactive AI analytics"
)


def package_metadata() -> Tuple[str, str]:
    """``(version, description)`` for the CLI banner and ``--version``.

    Reads the installed distribution metadata first, then falls back to
    parsing ``pyproject.toml`` (source checkouts run via ``PYTHONPATH``),
    so the parser never drifts from the packaging truth.
    """
    try:
        from importlib.metadata import metadata

        meta = metadata("repro")
        version = meta["Version"]
        summary = meta["Summary"]
        if version and summary:
            return version, summary
    except Exception:
        pass
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        tomllib = None
    if tomllib is not None:
        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        try:
            project = tomllib.loads(pyproject.read_text())["project"]
            return (
                project.get("version", _FALLBACK_VERSION),
                project.get("description", _FALLBACK_DESCRIPTION),
            )
        except (OSError, KeyError, ValueError):
            pass
    return _FALLBACK_VERSION, _FALLBACK_DESCRIPTION


def _cmd_models(args) -> int:
    header = (
        f"{'model':<24} {'provider':<10} {'$/1M in':>8} {'$/1M out':>9} "
        f"{'quality':>8} {'context':>9} {'reasoning':>10}"
    )
    print(header)
    print("-" * len(header))
    for card in default_registry().all_cards():
        print(
            f"{card.name:<24} {card.provider:<10} "
            f"{card.usd_per_1m_input:>8.2f} {card.usd_per_1m_output:>9.2f} "
            f"{card.quality:>8.2f} {card.context_window:>9} "
            f"{'yes' if card.supports_reasoning else 'no':>10}"
        )
    return 0


_SCENARIOS = {
    "sci": "scientific discovery (papers -> datasets)",
    "legal": "legal discovery (responsive review)",
    "realestate": "real-estate search (semantic + analytics)",
}


def _demo_pipelines(data_dir=None) -> Dict[str, "pz.Dataset"]:
    """Build every demo scenario's pipeline (registering the corpora)."""
    from repro.corpora import register_demo_datasets
    from repro.corpora.legal import CONTRACT_FIELDS, LEGAL_PREDICATE
    from repro.corpora.papers import CLINICAL_FIELDS, PAPERS_PREDICATE
    from repro.corpora.realestate import (
        LISTING_FIELDS,
        REALESTATE_PREDICATE,
    )

    register_demo_datasets(data_dir)
    clinical = pz.make_schema(
        "ClinicalData", "Datasets from papers.", CLINICAL_FIELDS
    )
    contract = pz.make_schema("Contract", "Deal terms.", CONTRACT_FIELDS)
    listing = pz.make_schema("Listing", "A listing.", LISTING_FIELDS)
    return {
        "sci": (
            pz.Dataset(source="sigmod-demo")
            .filter(PAPERS_PREDICATE)
            .convert(clinical, cardinality=pz.Cardinality.ONE_TO_MANY)
        ),
        "legal": (
            pz.Dataset(source="legal-demo")
            .filter(LEGAL_PREDICATE)
            .convert(contract)
        ),
        "realestate": (
            pz.Dataset(source="realestate-demo")
            .filter(REALESTATE_PREDICATE)
            .convert(listing)
        ),
    }


def _execution_kwargs(args) -> Dict[str, object]:
    """The subcommand's ``--executor/--workers/--batch-size/--shards``
    flags (whichever it defines) as ``Execute`` keyword arguments."""
    return ExecutionOptions.normalized(
        executor=getattr(args, "executor", None),
        max_workers=args.workers,
        batch_size=getattr(args, "batch_size", 1),
        shards=getattr(args, "shards", None),
    ).kwargs()


def _cmd_demo(args) -> int:
    dataset = _demo_pipelines(args.data_dir)[args.scenario]
    records, stats = pz.Execute(
        dataset, policy=args.policy, **_execution_kwargs(args)
    )
    print(stats.summary())
    print()
    for record in records[: args.limit]:
        print(f"- {record.to_dict()}")
    remaining = len(records) - args.limit
    if remaining > 0:
        print(f"... and {remaining} more records")
    return 0


def _cmd_run(args) -> int:
    dataset = pz.Dataset(source=args.source)
    if args.filter:
        dataset = dataset.filter(args.filter)
    if args.extract:
        fields = [f.strip() for f in args.extract.split(",") if f.strip()]
        if not fields:
            print("error: --extract needs field names", file=sys.stderr)
            return 2
        schema = pz.make_schema(
            "Extracted",
            "Fields extracted by the command line.",
            {name: f"The {name.replace('_', ' ')}" for name in fields},
        )
        cardinality = (
            pz.Cardinality.ONE_TO_MANY if args.one_to_many
            else pz.Cardinality.ONE_TO_ONE
        )
        dataset = dataset.convert(schema, cardinality=cardinality)
    if args.limit:
        dataset = dataset.limit(args.limit)
    if args.explain:
        engine = pz.ExecutionEngine(
            policy=args.policy, **_execution_kwargs(args)
        )
        print(engine.explain(dataset))
        return 0
    records, stats = pz.Execute(
        dataset, policy=args.policy, **_execution_kwargs(args)
    )
    print(stats.summary())
    print()
    for record in records:
        print(record.to_json())
    return 0


def _cmd_chat(args) -> int:
    from repro.chat import PalimpChatSession
    from repro.corpora import register_demo_datasets

    register_demo_datasets(args.data_dir)
    session = PalimpChatSession()
    print(
        "PalimpChat — describe a data pipeline in plain English.\n"
        "Datasets registered: sigmod-demo, legal-demo, realestate-demo.\n"
        "Type 'exit' to leave.\n"
    )
    while True:
        try:
            message = input("you> ").strip()
        except EOFError:
            break
        if not message:
            continue
        if message.lower() in ("exit", "quit", "bye"):
            break
        reply = session.chat(message)
        if reply.tool_sequence:
            print(f"[tools: {' -> '.join(reply.tool_sequence)}]")
        print(f"palimpchat> {reply.text}\n")
    if args.export:
        path = session.export_notebook(args.export)
        print(f"session notebook saved to {path}")
    return 0


def _cmd_serve(args) -> int:
    from repro.server import serve

    quota = float(args.quota) if args.quota is not None else None
    server = serve(
        host=args.host,
        port=args.port,
        root=args.root,
        max_cost_usd=quota,
        max_tokens=args.quota_tokens,
        data_dir=args.data_dir,
        quiet=not args.verbose,
        telemetry=(False if args.no_telemetry else None),
        telemetry_root=args.telemetry_root,
        async_workers=args.async_workers,
        async_queue=args.async_queue,
    )
    host, port = server.server_address
    root = server.store.root
    caps = []
    if quota is not None:
        caps.append(f"${quota:.2f}")
    if args.quota_tokens is not None:
        caps.append(f"{args.quota_tokens} tokens")
    print(f"repro serve: http://{host}:{port}  "
          f"(tenants under {root}; default quota: "
          f"{' / '.join(caps) if caps else 'unmetered'})")
    log = server.store.telemetry.log
    logs = f"logs under {log.root}; " if log is not None else ""
    print(f"telemetry: GET /metrics (+ /healthz SLOs); {logs}"
          f"watch live with 'repro top --url http://{host}:{port}'")
    print("POST /tenants/<id>/sessions to begin; Ctrl-C to stop.")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        server.store.close()
    return 0


def _cmd_top(args) -> int:
    """Live per-tenant service dashboard: poll ``/metrics?format=json``."""
    import json as _json
    import time as _time
    import urllib.error
    import urllib.request

    from repro.obs.telemetry import render_dashboard

    url = args.url.rstrip("/") + "/metrics?format=json"
    previous = None
    previous_at = None
    iteration = 0
    while True:
        try:
            with urllib.request.urlopen(url, timeout=10.0) as resp:
                payload = _json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"repro top: cannot reach {args.url}: {exc}",
                  file=sys.stderr)
            return 2
        now = _time.monotonic()  # nondet: ok(the poll interval is never stored)
        elapsed = (now - previous_at) if previous_at is not None else None
        frame = render_dashboard(payload, previous=previous,
                                 elapsed=elapsed)
        if not args.no_clear:
            print("\x1b[2J\x1b[H", end="")
        print(frame)
        previous, previous_at = payload, now
        iteration += 1
        if args.iterations and iteration >= args.iterations:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _lint_paths(paths: List[str], config, result) -> None:
    """AST-lint ``.py`` files and validate ``.ipynb`` files (no execution)."""
    from repro.analysis import Diagnostic, Severity, lint_notebook, lint_program

    expanded: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            expanded.extend(sorted(path.rglob("*.py")))
            expanded.extend(sorted(path.rglob("*.ipynb")))
        else:
            expanded.append(path)
    for path in expanded:
        if path.suffix == ".ipynb":
            result.extend(lint_notebook(path, config=config))
            continue
        try:
            source = path.read_text()
        except OSError as exc:
            result.add(Diagnostic(
                code="CG306", severity=Severity.ERROR,
                message=f"cannot read {path}: {exc}", location=str(path),
            ))
            continue
        result.extend(lint_program(source, config=config,
                                   filename=str(path)))


def _lint_loaded(paths: List[str], config, result) -> None:
    """Execute python files and lint the objects they define.

    Any :class:`~repro.core.dataset.Dataset`, tool, or tool registry left
    in the module namespace gets plan/agent-linted.  ``__name__`` is set
    to ``"__lint__"`` so ``if __name__ == "__main__"`` blocks don't run.
    """
    from repro.agent.tools import Tool, ToolRegistry
    from repro.analysis import Diagnostic, Severity, lint_plan, lint_tool
    from repro.core.dataset import Dataset

    for raw in paths:
        path = Path(raw)
        namespace = {"__name__": "__lint__", "__file__": str(path)}
        try:
            exec(compile(path.read_text(), str(path), "exec"), namespace)
        except Exception as exc:
            result.add(Diagnostic(
                code="CG306", severity=Severity.ERROR,
                message=f"loading failed: {type(exc).__name__}: {exc}",
                location=str(path),
            ))
            continue
        for name, value in namespace.items():
            if name.startswith("_"):
                continue
            location_prefix = f"{path.name}:{name} "
            if isinstance(value, Dataset):
                result.extend(lint_plan(value, config=config),
                              location_prefix=location_prefix)
            elif isinstance(value, Tool):
                result.extend(lint_tool(value, config=config),
                              location_prefix=location_prefix)
            elif isinstance(value, ToolRegistry):
                for tool_name in value.names():
                    result.extend(
                        lint_tool(value.get(tool_name), config=config),
                        location_prefix=location_prefix,
                    )


#: Human labels for the rule families, for --list-rules grouping.
_FAMILY_LABELS = {
    "PZ": "plan lint",
    "AG": "agent/tool lint",
    "CG": "codegen lint",
    "CC": "determinism",
}


def _rule_families():
    """{family: [Rule, ...]} over every registered rule, sorted."""
    from repro.analysis import all_rules

    families = {}
    for rule in all_rules():
        families.setdefault(rule.code.rstrip("0123456789"), []).append(rule)
    return families


def _cmd_lint(args) -> int:
    from repro.analysis import LintConfig, LintResult, lint_plan

    families = _rule_families()

    if args.list_rules:
        for family in sorted(families):
            rules = families[family]
            label = _FAMILY_LABELS.get(family, "other")
            print(f"{family} — {label} ({len(rules)} rules)")
            for rule in rules:
                print(f"  {rule.describe()}")
        print(
            f"{sum(len(r) for r in families.values())} rules in "
            f"{len(families)} families"
        )
        return 0

    config = LintConfig.parse(args.disable)
    if args.family:
        wanted = {
            token.strip().upper()
            for token in args.family.split(",") if token.strip()
        }
        unknown = wanted - set(families)
        if unknown:
            print(
                f"unknown rule families: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(families))}"
            )
            return 2
        config = LintConfig(
            disabled=config.disabled | (set(families) - wanted),
            severity_overrides=config.severity_overrides,
        )

    result = LintResult()

    # Skip demo/tool linting when their entire families are filtered out
    # (--family CC shouldn't pay for demo corpus generation).
    if not args.no_demos and config.family_enabled("PZ"):
        for scenario, dataset in _demo_pipelines(args.data_dir).items():
            result.extend(lint_plan(dataset, config=config),
                          location_prefix=f"demo:{scenario} ")

    if not args.no_tools and config.family_enabled("AG"):
        from repro.analysis import lint_registry
        from repro.chat.tools_pz import build_pz_tools
        from repro.chat.workspace import PipelineWorkspace

        registry = build_pz_tools(PipelineWorkspace())
        result.extend(lint_registry(registry, config=config))

    if args.paths:
        _lint_paths(args.paths, config, result)
    if args.load:
        _lint_loaded(args.load, config, result)

    result = result.sorted()
    if args.format == "json":
        print(result.to_json())
    else:
        if result.diagnostics:
            print(result.render())
        print(f"lint: {result.summary()}")
    failed = bool(result.errors) or (args.strict and result.warnings)
    return 1 if failed else 0


def _cmd_trace(args) -> int:
    from repro.obs import (
        analyze_critical_path,
        render_flame,
        render_tree,
        write_chrome_trace,
        write_plain_json,
    )

    dataset = _demo_pipelines(args.data_dir)[args.scenario]
    records, stats = pz.Execute(
        dataset,
        policy=args.policy,
        trace=True,
        **_execution_kwargs(args),
    )
    trace = stats.trace
    report = analyze_critical_path(trace)
    if args.view == "tree":
        print(render_tree(trace))
    elif args.view == "flame":
        print(render_flame(trace))
    elif args.view == "critical-path":
        print(report.render())
    else:
        print(
            f"recorded {len(trace)} spans over {trace.makespan:.3f} "
            f"virtual seconds ({len(records)} records, "
            f"{stats.executor} executor, shards={stats.shards}, "
            f"batch_size={stats.batch_size})"
        )
        print()
        print(report.render())
        histograms = [
            (name, value) for name, value in sorted(stats.metrics.items())
            if isinstance(value, dict) and "p50" in value
            and value.get("count")
        ]
        if histograms:
            print()
            print("histograms (deterministic nearest-rank quantiles):")
            print(f"  {'metric':<30} {'count':>6} {'p50':>12} "
                  f"{'p95':>12} {'p99':>12}")
            for name, value in histograms:
                print(
                    f"  {name:<30} {value['count']:>6} "
                    f"{value['p50']:>12.6f} {value['p95']:>12.6f} "
                    f"{value['p99']:>12.6f}"
                )
    if args.output:
        writer = (
            write_chrome_trace if args.format == "chrome"
            else write_plain_json
        )
        writer(trace, args.output, metrics=stats.metrics)
        print(f"\ntrace written to {args.output} ({args.format} format)")
    return 0


def _cmd_runs(args) -> int:
    from repro.obs import RunRegistry, render_why, render_why_not

    registry = RunRegistry(args.runs_dir)

    if args.runs_command == "record":
        dataset = _demo_pipelines(args.data_dir)[args.scenario]
        records, stats = pz.Execute(
            dataset,
            policy=args.policy,
            trace=True,
            provenance=True,
            **_execution_kwargs(args),
        )
        snapshot = registry.record(records, stats)
        print(
            f"recorded {snapshot.run_id}: {args.scenario} scenario, "
            f"{args.policy} policy, {len(records)} records, "
            f"${stats.total_cost_usd:.4f} "
            f"(plan {stats.plan_stats.plan_id})"
        )
        print(f"stored under {registry.root / snapshot.run_id}")
        return 0

    if args.runs_command == "list":
        rows = registry.list()
        if not rows:
            print(f"no recorded runs under {registry.root}")
            return 0
        header = (
            f"{'run':<10} {'policy':<9} {'executor':<11} {'plan':<13} "
            f"{'records':>7} {'cost($)':>9} {'time(s)':>9}"
        )
        print(header)
        print("-" * len(header))
        for meta in rows:
            print(
                f"{meta['run_id']:<10} {meta.get('policy', '?'):<9} "
                f"{meta.get('executor', '?'):<11} "
                f"{meta.get('plan_id', '?'):<13} "
                f"{meta.get('records_out', 0):>7} "
                f"{meta.get('total_cost_usd', 0.0):>9.4f} "
                f"{meta.get('total_time_seconds', 0.0):>9.1f}"
            )
        return 0

    if args.runs_command == "prune":
        if args.keep_last is None and args.max_bytes is None:
            print("error: pass --keep-last and/or --max-bytes",
                  file=sys.stderr)
            return 2
        before = registry.size_bytes()
        doomed = registry.prune(keep_last=args.keep_last,
                                max_bytes=args.max_bytes)
        after = registry.size_bytes()
        if not doomed:
            print(f"nothing to prune under {registry.root} "
                  f"({before} bytes stored)")
            return 0
        print(f"pruned {len(doomed)} run(s): {', '.join(doomed)}")
        print(f"registry {registry.root}: {before} -> {after} bytes")
        return 0

    if args.runs_command == "rerun":
        from repro.core.schemas import make_schema
        from repro.corpora.scale import (
            SCALE_FIELDS,
            SCALE_PREDICATE,
            generate_scale_source,
            mutate_scale_source,
        )

        schema = make_schema(
            "ClinicalNote",
            "Cohort and stage extracted from a clinical note",
            list(SCALE_FIELDS),
            field_descriptions=list(SCALE_FIELDS.values()),
        )

        def build(source):
            return pz.Dataset(source).filter(SCALE_PREDICATE).convert(schema)

        common = dict(
            policy=args.policy,
            trace=True,
            provenance=True,
            **_execution_kwargs(args),
        )
        if args.base:
            base_snapshot = registry.load(args.base)
            if base_snapshot.calls is None or base_snapshot.manifest is None:
                print(f"error: {args.base} has no captured call log / "
                      "source manifest; record a base with "
                      "'repro runs rerun' (no --base) first",
                      file=sys.stderr)
                return 2
        else:
            base_source = generate_scale_source(args.docs, seed=args.seed)
            records, stats = pz.Execute(
                build(base_source), capture_calls=True, **common)
            base_snapshot = registry.record(records, stats)
            print(f"recorded base {base_snapshot.run_id}: "
                  f"{args.docs} docs, {len(records)} records, "
                  f"${stats.total_cost_usd:.4f}")
        mutated = mutate_scale_source(
            args.docs, seed=args.seed,
            adds=args.adds, edits=args.edits, drops=args.drops,
        )
        records, stats = pz.Execute(
            build(mutated), incremental=True, base_run=base_snapshot,
            **common)
        snapshot = registry.record(records, stats)
        print(stats.incremental.render())
        print(f"recorded {snapshot.run_id}: {len(records)} records, "
              f"stored under {registry.root / snapshot.run_id}")
        return 0

    # Remaining subcommands operate on stored runs.
    run_id = args.run or registry.latest()
    if run_id is None:
        print(f"no recorded runs under {registry.root}; "
              "use 'repro runs record' first", file=sys.stderr)
        return 2
    try:
        snapshot = registry.load(run_id)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.runs_command == "show":
        for key, value in sorted(snapshot.meta.items()):
            print(f"{key:<20} {value}")
        operators = (snapshot.stats.get("plan") or {}).get("operators") or []
        if operators:
            print()
            print(f"{'operator':<38} {'in':>5} {'out':>5} "
                  f"{'time(s)':>9} {'cost($)':>9} {'calls':>6}")
            for row in operators:
                print(
                    f"{row['operator']:<38} {row['records_in']:>5} "
                    f"{row['records_out']:>5} {row['time_seconds']:>9.1f} "
                    f"{row['cost_usd']:>9.4f} {row['llm_calls']:>6}"
                )
        if snapshot.graph is not None:
            print()
            print(f"provenance: {len(snapshot.graph)} records, "
                  f"{snapshot.graph.event_count()} events, "
                  f"outputs {snapshot.graph.output_ids}")
        return 0

    if args.runs_command == "why":
        if snapshot.graph is None:
            print(f"error: {run_id} has no provenance graph",
                  file=sys.stderr)
            return 2
        if args.record is None:
            print(f"{run_id} output records "
                  f"(pass an id to 'repro runs why'):")
            for node_id in snapshot.graph.output_ids:
                node = snapshot.graph.node(node_id)
                print(f"  #{node_id} [{node['schema']}] {node['preview']}")
            return 0
        from repro.obs import ProvenanceError

        try:
            print(render_why(snapshot.graph.why(args.record)))
        except ProvenanceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.runs_command == "why-not":
        if snapshot.graph is None:
            print(f"error: {run_id} has no provenance graph",
                  file=sys.stderr)
            return 2
        print(render_why_not(snapshot.graph.why_not(args.source)))
        return 0

    # diff: snapshot is run b (or latest); a defaults to the run before b.
    other = args.against or registry.latest(before=run_id)
    if other is None:
        print(f"error: no earlier run to diff {run_id} against",
              file=sys.stderr)
        return 2
    diff = registry.diff(other, run_id)
    if args.format == "json":
        print(diff.to_json())
    else:
        print(diff.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    version, description = package_metadata()
    parser = argparse.ArgumentParser(prog="repro", description=description)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {version}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list registered model cards")

    demo = sub.add_parser("demo", help="run a demonstration scenario")
    demo.add_argument("--scenario", choices=sorted(_SCENARIOS),
                      default="sci",
                      help="; ".join(f"{k}: {v}" for k, v in
                                     _SCENARIOS.items()))
    demo.add_argument("--policy", default="quality",
                      help="quality | cost | runtime")
    demo.add_argument("--workers", type=int, default=1)
    demo.add_argument("--limit", type=int, default=10,
                      help="records to print")
    demo.add_argument("--data-dir", default=None,
                      help="where to generate/reuse the demo corpora")

    run = sub.add_parser("run", help="run a pipeline over a folder")
    run.add_argument("--source", required=True,
                     help="folder path or registered dataset id")
    run.add_argument("--filter", default=None,
                     help="natural-language predicate")
    run.add_argument("--extract", default=None,
                     help="comma-separated field names to extract")
    run.add_argument("--one-to-many", action="store_true")
    run.add_argument("--policy", default="quality")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--limit", type=int, default=0)
    run.add_argument("--explain", action="store_true",
                     help="print the plan space and exit without executing")

    chat = sub.add_parser("chat", help="interactive PalimpChat REPL")
    chat.add_argument("--data-dir", default=None)
    chat.add_argument("--export", default=None,
                      help="save the session notebook here on exit")

    srv = sub.add_parser(
        "serve",
        help="multi-tenant PalimpChat HTTP service",
        description="Serve chat sessions as HTTP/JSON resources "
                    "(stdlib http.server; no extra dependencies). Each "
                    "tenant gets an isolated workspace, run registry, "
                    "and session store under <root>/<tenant-id>/, plus "
                    "a token/cost quota enforced before and during "
                    "every turn. See docs/server.md for the API.",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8787,
                     help="0 binds an ephemeral port")
    srv.add_argument("--root", default=None,
                     help="tenant state root (default: .repro/tenants)")
    srv.add_argument("--quota", default=None, metavar="USD",
                     help="default per-tenant cost cap in USD "
                          "(default: unmetered)")
    srv.add_argument("--quota-tokens", type=int, default=None,
                     metavar="N", help="default per-tenant token cap")
    srv.add_argument("--data-dir", default=None,
                     help="where to generate/reuse the demo corpora")
    srv.add_argument("--verbose", action="store_true",
                     help="log each request line to stderr")
    srv.add_argument("--no-telemetry", action="store_true",
                     help="write no JSONL telemetry logs (/metrics and "
                          "the SLOs are still served)")
    srv.add_argument("--telemetry-root", default=None, metavar="DIR",
                     help="structured-log directory "
                          "(default: <root>/../telemetry)")
    srv.add_argument("--async-workers", type=int, default=4, metavar="N",
                     help="worker threads for wait=false turns "
                          "(default: 4)")
    srv.add_argument("--async-queue", type=int, default=16, metavar="N",
                     help="queued wait=false turns beyond the workers "
                          "before 503 (default: 16)")

    top = sub.add_parser(
        "top",
        help="live per-tenant dashboard for a running server",
        description="Poll a repro serve instance's /metrics endpoint and "
                    "render a terminal dashboard: per-tenant turn "
                    "throughput, in-flight turns, latency percentiles, "
                    "quota burn-down, worker-pool occupancy, and firing "
                    "SLO alerts.",
    )
    top.add_argument("--url", default="http://127.0.0.1:8787",
                     help="server base URL (default: %(default)s)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls (default: 2)")
    top.add_argument("--iterations", type=int, default=0, metavar="N",
                     help="exit after N frames (default: run until ^C)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")

    lint = sub.add_parser(
        "lint",
        help="statically analyze pipelines, tools, and programs",
        description="Run pz-lint. By default lints the demo corpora "
                    "pipelines and the registered chat tools; positional "
                    "paths (.py/.ipynb files or directories) are "
                    "AST-checked without executing them. Exits 1 when any "
                    "error-level diagnostic is found.",
    )
    lint.add_argument("paths", nargs="*",
                      help=".py/.ipynb files or directories to lint "
                           "statically")
    lint.add_argument("--load", action="append", default=[],
                      metavar="PATH",
                      help="execute this python file and lint the "
                           "datasets/tools it defines (repeatable)")
    lint.add_argument("--data-dir", default=None,
                      help="where to generate/reuse the demo corpora")
    lint.add_argument("--no-demos", action="store_true",
                      help="skip linting the demo corpora pipelines")
    lint.add_argument("--no-tools", action="store_true",
                      help="skip linting the registered chat tools")
    lint.add_argument("--disable", default=None, metavar="CODES",
                      help="comma-separated rule codes or prefixes to "
                           "disable (e.g. PZ102,AG,CG312)")
    lint.add_argument("--family", default=None, metavar="FAMILIES",
                      help="comma-separated rule families to run "
                           "exclusively (e.g. CC or PZ,CG); all other "
                           "families are disabled")
    lint.add_argument("--strict", action="store_true",
                      help="exit non-zero on warnings too")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every registered rule and exit")

    trace = sub.add_parser(
        "trace",
        help="record and analyze an execution trace",
        description="Run a demo scenario with tracing enabled, print a "
                    "trace analysis (critical path by default), and "
                    "optionally export the trace as Chrome trace_event "
                    "JSON (loadable in about://tracing / Perfetto) or "
                    "plain JSON.",
    )
    trace.add_argument("--scenario", choices=sorted(_SCENARIOS),
                       default="sci",
                       help="; ".join(f"{k}: {v}" for k, v in
                                      _SCENARIOS.items()))
    trace.add_argument("--policy", default="quality",
                       help="quality | cost | runtime")
    trace.add_argument("--workers", type=int, default=4)
    trace.add_argument("--executor",
                       choices=EXECUTORS,
                       default="pipelined")
    trace.add_argument("--batch-size", type=int, default=4,
                       help="LLM batch size (pipelined/sharded executors)")
    trace.add_argument("--shards", type=int, default=None,
                       help="shard count for --executor sharded/async "
                            "(default: optimizer chooses)")
    trace.add_argument("--data-dir", default=None,
                       help="where to generate/reuse the demo corpora")
    trace.add_argument("--output", default=None, metavar="PATH",
                       help="write the trace to this file")
    trace.add_argument("--format", choices=("chrome", "json"),
                       default="chrome",
                       help="output file format (with --output)")
    trace.add_argument("--view",
                       choices=("summary", "tree", "critical-path",
                                "flame"),
                       default="summary",
                       help="what analysis to print")

    runs = sub.add_parser(
        "runs",
        help="record, inspect, explain, and diff executions",
        description="The persistent run registry. 'record' executes a "
                    "demo scenario with provenance + tracing on and "
                    "stores it under the runs directory; 'why' explains "
                    "how an output record was derived, 'why-not' "
                    "explains what eliminated a source record, and "
                    "'diff' compares two runs (plan, per-operator "
                    "stats, record membership with explanations).",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def _runs_dir(p):
        from repro.obs.registry import DEFAULT_RUNS_DIR

        p.add_argument("--runs-dir", default=DEFAULT_RUNS_DIR,
                       help="registry directory "
                            f"(default: {DEFAULT_RUNS_DIR})")

    record = runs_sub.add_parser(
        "record", help="execute a demo scenario and store the run")
    record.add_argument("--scenario", choices=sorted(_SCENARIOS),
                        default="sci",
                        help="; ".join(f"{k}: {v}" for k, v in
                                       _SCENARIOS.items()))
    record.add_argument("--policy", default="quality",
                        help="quality | cost | runtime")
    record.add_argument("--workers", type=int, default=1)
    record.add_argument("--executor",
                        choices=EXECUTORS,
                        default="sequential")
    record.add_argument("--batch-size", type=int, default=1)
    record.add_argument("--shards", type=int, default=None,
                        help="shard count for --executor sharded/async "
                             "(default: optimizer chooses)")
    record.add_argument("--data-dir", default=None,
                        help="where to generate/reuse the demo corpora")
    _runs_dir(record)

    runs_list = runs_sub.add_parser("list", help="list stored runs")
    _runs_dir(runs_list)

    show = runs_sub.add_parser("show", help="metadata + per-op stats "
                                            "of one run")
    show.add_argument("run", nargs="?", default=None,
                      help="run id (default: latest)")
    _runs_dir(show)

    why = runs_sub.add_parser(
        "why", help="derivation tree of an output record")
    why.add_argument("record", nargs="?", type=int, default=None,
                     help="canonical record id (omit to list outputs)")
    why.add_argument("--run", default=None,
                     help="run id (default: latest)")
    _runs_dir(why)

    why_not = runs_sub.add_parser(
        "why-not", help="what eliminated a source record")
    why_not.add_argument("source",
                         help="source document id (or a substring)")
    why_not.add_argument("--run", default=None,
                         help="run id (default: latest)")
    _runs_dir(why_not)

    diff = runs_sub.add_parser("diff", help="compare two stored runs")
    diff.add_argument("run", nargs="?", default=None,
                      help="newer run id (default: latest)")
    diff.add_argument("--against", default=None, metavar="RUN",
                      help="older run id (default: the run before)")
    diff.add_argument("--format", choices=("text", "json"),
                      default="text")
    _runs_dir(diff)

    rerun = runs_sub.add_parser(
        "rerun",
        help="incremental re-run of the scale scenario after a corpus "
             "delta",
        description="Demonstrates incremental execution: records a base "
                    "run over the deterministic scale corpus (with the "
                    "LLM call log captured), applies an add/edit/drop "
                    "delta to the corpus, and re-runs incrementally — "
                    "unchanged documents replay their recorded calls, "
                    "only the delta pays for fresh LLM work, and the "
                    "output is byte-identical to a cold run.")
    rerun.add_argument("--docs", type=int, default=200,
                       help="corpus size (default: 200)")
    rerun.add_argument("--seed", type=int, default=11)
    rerun.add_argument("--adds", type=int, default=1,
                       help="documents added to the corpus (default: 1)")
    rerun.add_argument("--edits", type=int, default=1,
                       help="documents edited in place (default: 1)")
    rerun.add_argument("--drops", type=int, default=1,
                       help="documents removed (default: 1)")
    rerun.add_argument("--policy", default="quality",
                       help="quality | cost | runtime")
    rerun.add_argument("--workers", type=int, default=1)
    rerun.add_argument("--executor",
                       choices=EXECUTORS,
                       default="sequential")
    rerun.add_argument("--base", default=None, metavar="RUN",
                       help="re-run from this stored run instead of "
                            "recording a fresh base")
    _runs_dir(rerun)

    prune = runs_sub.add_parser(
        "prune", help="delete old runs (keep-last-N and/or byte budget)")
    prune.add_argument("--keep-last", type=int, default=None,
                       metavar="N", help="retain only the N newest runs")
    prune.add_argument("--max-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="drop oldest runs until the registry fits "
                            "(the newest run always survives)")
    _runs_dir(prune)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "models": _cmd_models,
        "demo": _cmd_demo,
        "run": _cmd_run,
        "chat": _cmd_chat,
        "serve": _cmd_serve,
        "top": _cmd_top,
        "lint": _cmd_lint,
        "trace": _cmd_trace,
        "runs": _cmd_runs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
