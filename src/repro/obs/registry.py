"""Persistent run registry: record, list, load, and diff executions.

Every recorded run lands in its own directory under ``.repro/runs/``::

    .repro/runs/run-0001/
        meta.json         # plan signature, policy, executor, headline totals
        stats.json        # full ExecutionStats.to_dict()
        records.json      # output records (schema-shaped dicts, sink order)
        provenance.json   # canonical ProvenanceGraph (when recorded)
        trace.json        # plain-JSON trace (when traced)
        manifest.json     # per-document source manifest  } when the run
        calls.json        # LLM call log                  } captured calls
        journeys.json     # per-document journeys (inline schedules only)

Run ids are sequential (``run-0001``, ``run-0002``, ...) rather than
timestamps so a registry populated by a deterministic script is itself
deterministic.  :meth:`RunRegistry.record` reserves its id by creating the
directory, so concurrent recorders never share one.  Files are compact,
sorted-key JSON from :func:`repro.obs.persist.write_json`, and
``meta.json`` is written last: a directory without it is a run still being
written (or an abandoned one), and :meth:`RunRegistry.list` skips it.

:func:`diff_runs` compares two snapshots and names three kinds of delta:

1. **plan** — did the optimizer choose a different physical plan
   (plan id + the operator labels added/removed)?
2. **per-op stats** — cost / busy time / LLM calls / selectivity deltas
   for operators present in both runs;
3. **record membership** — output records that appeared or disappeared,
   each *explained*: appearances via the new run's
   :meth:`~repro.obs.provenance.ProvenanceGraph.why`, disappearances by
   tracing the old record to its source documents and asking the new
   run's :meth:`~repro.obs.provenance.ProvenanceGraph.why_not`.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.persist import write_json
from repro.obs.provenance import ProvenanceGraph, render_why, render_why_not

__all__ = [
    "ResultHandle",
    "RunSnapshot",
    "RunRegistry",
    "RunDiff",
    "diff_runs",
    "DEFAULT_RUNS_DIR",
]

DEFAULT_RUNS_DIR = ".repro/runs"
_RUN_ID_RE = re.compile(r"^run-(\d+)$")


def _record_key(payload: Dict[str, Any]) -> str:
    """Canonical membership key for one output record.

    Matches ``DataRecord.to_json()`` exactly, and survives a disk
    round-trip (records are normalized through JSON before storage).
    """
    return json.dumps(payload, default=str, sort_keys=True)


def _record_fp(payload: Dict[str, Any]) -> str:
    """Same 16-hex fingerprint provenance nodes carry (``node["fp"]``)."""
    return hashlib.sha256(
        _record_key(payload).encode("utf-8")).hexdigest()[:16]


def _result_fp(payloads: List[Dict[str, Any]]) -> str:
    """Order-sensitive fingerprint of a whole result set."""
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(_record_key(payload).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


class ResultHandle:
    """An addressable result set: identity + shape, records on demand.

    The "results as handles, not payloads" idiom: chat and agent tools
    pass a ``result_id`` (plus schema / count / fingerprint) around
    instead of inlining record payloads, and consumers :meth:`slice` the
    window they actually display.  Workspace state stays O(1) no matter
    how large the corpus grows; the records live in the run registry.
    """

    def __init__(
        self,
        result_id: str,
        schema: str,
        count: int,
        fingerprint: str,
        loader: Callable[[], List[Dict[str, Any]]],
    ):
        self.result_id = result_id
        self.schema = schema
        self.count = count
        self.fingerprint = fingerprint
        self._loader = loader
        self._records: Optional[List[Dict[str, Any]]] = None

    @classmethod
    def from_snapshot(cls, snapshot: "RunSnapshot") -> "ResultHandle":
        records = snapshot.records
        return cls(
            result_id=snapshot.run_id,
            schema=str(snapshot.meta.get("schema", "")),
            count=len(records),
            fingerprint=str(
                snapshot.meta.get("result_fp") or _result_fp(records)
            ),
            loader=lambda: records,
        )

    def records(self) -> List[Dict[str, Any]]:
        """The full result set (loaded lazily, cached)."""
        if self._records is None:
            self._records = list(self._loader())
        return self._records

    def slice(self, offset: int = 0,
              limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """A window of the result set (the on-demand access path)."""
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        records = self.records()
        if limit is None:
            return records[offset:]
        return records[offset:offset + limit]

    def to_dict(self) -> Dict[str, Any]:
        """The reference payload tools pass around (no records)."""
        return {
            "result_id": self.result_id,
            "schema": self.schema,
            "count": self.count,
            "fingerprint": self.fingerprint,
        }

    def describe(self) -> str:
        schema = self.schema or "<unknown schema>"
        return (
            f"result {self.result_id}: {self.count} x {schema} "
            f"[{self.fingerprint}]"
        )

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"ResultHandle(id={self.result_id!r}, schema={self.schema!r}, "
            f"count={self.count}, fp={self.fingerprint})"
        )


class RunSnapshot:
    """One recorded execution: metadata, stats, records, provenance, trace."""

    def __init__(
        self,
        run_id: str,
        meta: Dict[str, Any],
        stats: Dict[str, Any],
        records: List[Dict[str, Any]],
        graph: Optional[ProvenanceGraph] = None,
        trace: Optional[Dict[str, Any]] = None,
        manifest: Optional[Dict[str, Any]] = None,
        calls: Optional[List[Dict[str, Any]]] = None,
        journeys: Optional[Dict[str, Any]] = None,
    ):
        self.run_id = run_id
        self.meta = meta
        self.stats = stats
        self.records = records
        self.graph = graph
        self.trace = trace
        #: Per-document source manifest (``manifest.json``) when the run
        #: captured one — the base an incremental re-run diffs against.
        self.manifest = manifest
        #: Captured LLM call log (``calls.json``) when the run captured
        #: one — what an incremental re-run replays from.
        self.calls = calls
        #: Captured per-document journeys (``journeys.json``) when an
        #: inline schedule captured calls — what an incremental re-run
        #: splices unchanged documents from (see
        #: :class:`repro.execution.incremental.JourneyLog`).
        self.journeys = journeys
        self._replay_table: Optional[Dict] = None

    @classmethod
    def from_execution(cls, run_id: str, records, stats) -> "RunSnapshot":
        """Snapshot live ``(records, stats)`` from ``Execute``.

        Records are normalized through a JSON round-trip so an in-memory
        snapshot is byte-identical to one reloaded from disk.
        """
        plan = stats.plan_stats
        payloads = [json.loads(r.to_json()) for r in records]
        schema = records[0].schema.schema_name() if records else ""
        meta = {
            "run_id": run_id,
            "policy": stats.policy,
            "executor": stats.executor,
            "max_workers": stats.max_workers,
            "batch_size": stats.batch_size,
            "plan_id": plan.plan_id,
            "plan": plan.plan_describe,
            "records_out": plan.records_out,
            "schema": schema,
            "result_fp": _result_fp(payloads),
            "total_time_seconds": round(stats.total_time_seconds, 3),
            "total_cost_usd": round(stats.total_cost_usd, 6),
            "llm_calls": sum(op.llm_calls for op in plan.operator_stats),
        }
        incremental = getattr(stats, "incremental", None)
        if incremental is not None:
            meta["incremental"] = incremental.to_dict()
        trace = None
        if stats.trace is not None:
            from repro.obs.export import to_plain_json

            trace = to_plain_json(stats.trace, metrics=stats.metrics)
        return cls(
            run_id=run_id,
            meta=meta,
            stats=stats.to_dict(),
            records=payloads,
            graph=getattr(stats, "provenance", None),
            trace=trace,
            manifest=getattr(stats, "source_manifest", None),
            calls=getattr(stats, "call_log", None),
            journeys=getattr(stats, "journeys", None),
        )

    def replay_table(self) -> Dict:
        """``calls`` as the key -> record table a
        :class:`~repro.llm.replay.ReplayLog` is primed with.

        Built on first use and kept for the snapshot's life, so every
        incremental re-run against this base shares one read-only table
        instead of re-parsing the call log.
        """
        if self._replay_table is None:
            from repro.llm.replay import ReplayLog

            self._replay_table = ReplayLog.table_from_payload(self.calls)
        return self._replay_table

    def handle(self) -> ResultHandle:
        """This run's result set as an addressable handle."""
        return ResultHandle.from_snapshot(self)

    # -- lookups --------------------------------------------------------

    def record_keys(self) -> Dict[str, Dict[str, Any]]:
        """Membership key -> record payload, for diffing."""
        return {_record_key(p): p for p in self.records}

    def output_node_for(self, payload: Dict[str, Any]) -> Optional[int]:
        """The provenance node id of an output record, matched by
        content fingerprint (duplicates resolve to the first match)."""
        if self.graph is None:
            return None
        fp = _record_fp(payload)
        for node_id in self.graph.output_ids:
            if self.graph.node(node_id)["fp"] == fp:
                return node_id
        return None

    def source_ids_for(self, payload: Dict[str, Any]) -> List[str]:
        """Source document ids an output record derives from."""
        node_id = self.output_node_for(payload)
        if node_id is None:
            source = payload.get("filename") or payload.get("source_id")
            return [source] if source else []
        tree = self.graph.why(node_id)
        found: List[str] = []

        def walk(level):
            if not level["parents"]:
                if level["source_id"] and level["source_id"] not in found:
                    found.append(level["source_id"])
            for parent in level["parents"]:
                walk(parent)

        walk(tree)
        return found


class RunRegistry:
    """Directory-backed registry of :class:`RunSnapshot` objects."""

    def __init__(self, root: str = DEFAULT_RUNS_DIR):
        self.root = Path(root)

    # -- recording ------------------------------------------------------

    def next_run_id(self) -> str:
        """The id after the highest one under the root (not reserved)."""
        highest = 0
        if self.root.is_dir():
            for entry in self.root.iterdir():
                match = _RUN_ID_RE.match(entry.name)
                if match:
                    highest = max(highest, int(match.group(1)))
        return f"run-{highest + 1:04d}"

    def _reserve_run_id(self) -> str:
        """Claim a fresh run id by creating its directory.

        ``mkdir`` either creates the directory or fails, so two writers
        racing on :meth:`next_run_id` (two sessions of one tenant
        executing at once) end up with distinct ids: the loser bumps.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        number = int(_RUN_ID_RE.match(self.next_run_id()).group(1))
        while True:
            run_id = f"run-{number:04d}"
            try:
                (self.root / run_id).mkdir()
            except FileExistsError:
                number += 1
            else:
                return run_id

    def record(self, records, stats,
               run_id: Optional[str] = None) -> RunSnapshot:
        """Persist one execution; returns the stored snapshot."""
        run_id = run_id or self._reserve_run_id()
        snapshot = RunSnapshot.from_execution(run_id, records, stats)
        self.save(snapshot)
        return snapshot

    def save(self, snapshot: RunSnapshot) -> Path:
        """Write every file of ``snapshot``; ``meta.json`` goes last, so
        a run is listed (and loadable) only once it is complete."""
        run_dir = self.root / snapshot.run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        files = [
            ("stats.json", snapshot.stats),
            ("records.json", snapshot.records),
            ("provenance.json", (snapshot.graph.to_dict()
                                 if snapshot.graph is not None else None)),
            ("trace.json", snapshot.trace),
            ("manifest.json", snapshot.manifest),
            ("calls.json", snapshot.calls),
            ("journeys.json", snapshot.journeys),
            ("meta.json", snapshot.meta),
        ]
        for name, payload in files:
            if payload is not None:
                write_json(run_dir / name, payload)
        return run_dir

    # -- retrieval ------------------------------------------------------

    def list(self) -> List[Dict[str, Any]]:
        """Metadata of every stored run, ascending by run id."""
        rows = []
        if not self.root.is_dir():
            return rows
        for entry in sorted(self.root.iterdir(), key=lambda p: p.name):
            meta_path = entry / "meta.json"
            if _RUN_ID_RE.match(entry.name) and meta_path.is_file():
                with open(meta_path, encoding="utf-8") as handle:
                    rows.append(json.load(handle))
        return rows

    def load(self, run_id: str) -> RunSnapshot:
        run_dir = self.root / run_id
        if not (run_dir / "meta.json").is_file():
            known = ", ".join(m["run_id"] for m in self.list()) or "<none>"
            raise FileNotFoundError(
                f"no recorded run {run_id!r} under {self.root}; "
                f"known runs: {known}")

        def read(name: str) -> Any:
            path = run_dir / name
            if not path.is_file():
                return None
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)

        graph_payload = read("provenance.json")
        return RunSnapshot(
            run_id=run_id,
            meta=read("meta.json"),
            stats=read("stats.json") or {},
            records=read("records.json") or [],
            graph=(ProvenanceGraph.from_dict(graph_payload)
                   if graph_payload else None),
            trace=read("trace.json"),
            manifest=read("manifest.json"),
            calls=read("calls.json"),
            journeys=read("journeys.json"),
        )

    def handle(self, run_id: str) -> ResultHandle:
        """A :class:`ResultHandle` over a stored run, loading records
        lazily — metadata comes from ``meta.json`` alone, so producing
        the handle never touches ``records.json``."""
        run_dir = self.root / run_id
        meta_path = run_dir / "meta.json"
        if not meta_path.is_file():
            known = ", ".join(m["run_id"] for m in self.list()) or "<none>"
            raise FileNotFoundError(
                f"no recorded run {run_id!r} under {self.root}; "
                f"known runs: {known}")
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)

        def load_records() -> List[Dict[str, Any]]:
            path = run_dir / "records.json"
            if not path.is_file():
                return []
            with open(path, encoding="utf-8") as records_handle:
                return json.load(records_handle)

        fingerprint = meta.get("result_fp")
        if not fingerprint:
            fingerprint = _result_fp(load_records())
        return ResultHandle(
            result_id=run_id,
            schema=str(meta.get("schema", "")),
            count=int(meta.get("records_out", 0)),
            fingerprint=str(fingerprint),
            loader=load_records,
        )

    def latest(self, before: Optional[str] = None) -> Optional[str]:
        """Most recent run id (optionally the most recent one < before)."""
        ids = [m["run_id"] for m in self.list()]
        if before is not None:
            ids = [i for i in ids if i < before]
        return ids[-1] if ids else None

    def diff(self, run_a: str, run_b: str) -> "RunDiff":
        return diff_runs(self.load(run_a), self.load(run_b))

    # -- retention ------------------------------------------------------

    def size_bytes(self) -> int:
        """Total bytes stored under the registry root."""
        if not self.root.is_dir():
            return 0
        return sum(
            path.stat().st_size
            for path in self.root.rglob("*") if path.is_file()
        )

    def prune(self, keep_last: Optional[int] = None,
              max_bytes: Optional[int] = None) -> List[str]:
        """Delete old runs; returns the pruned run ids (oldest first).

        ``keep_last`` retains only the N most recent runs.  ``max_bytes``
        then drops the oldest remaining runs until the registry fits the
        budget (the newest run always survives).  Run ids keep counting
        upward after a prune: :meth:`next_run_id` scans the directory, so
        reusing a deleted id would require deleting the newest runs too.
        """
        if keep_last is not None and keep_last < 0:
            raise ValueError(f"keep_last must be >= 0, got {keep_last}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        ids = [m["run_id"] for m in self.list()]
        doomed: List[str] = []
        if keep_last is not None and len(ids) > keep_last:
            cut = len(ids) - keep_last
            doomed.extend(ids[:cut])
            ids = ids[cut:]
        if max_bytes is not None:
            remaining = self.size_bytes() - sum(
                self._run_size(run_id) for run_id in doomed
            )
            while len(ids) > 1 and remaining > max_bytes:
                run_id = ids.pop(0)
                remaining -= self._run_size(run_id)
                doomed.append(run_id)
        for run_id in doomed:
            shutil.rmtree(self.root / run_id, ignore_errors=True)
        return doomed

    def _run_size(self, run_id: str) -> int:
        run_dir = self.root / run_id
        if not run_dir.is_dir():
            return 0
        return sum(
            path.stat().st_size
            for path in run_dir.rglob("*") if path.is_file()
        )


class RunDiff:
    """Structured comparison of two runs; ``render()`` is the CLI view."""

    def __init__(self, payload: Dict[str, Any]):
        self.payload = payload

    def to_dict(self) -> Dict[str, Any]:
        return self.payload

    def to_json(self) -> str:
        return json.dumps(self.payload, default=str, sort_keys=True)

    @property
    def plan_changed(self) -> bool:
        return self.payload["plan"]["changed"]

    def render(self) -> str:
        p = self.payload
        a, b = p["runs"]["a"], p["runs"]["b"]
        lines = [f"=== Run diff: {a} -> {b} ==="]

        plan = p["plan"]
        if plan["changed"]:
            lines.append(
                f"plan: CHANGED  {plan['a']['plan_id']} -> "
                f"{plan['b']['plan_id']}")
            lines.append(f"  was: {plan['a']['describe']}")
            lines.append(f"  now: {plan['b']['describe']}")
            for label in plan["removed_ops"]:
                lines.append(f"  - removed op: {label}")
            for label in plan["added_ops"]:
                lines.append(f"  + added op:   {label}")
        else:
            lines.append(f"plan: unchanged ({plan['a']['plan_id']})")

        totals = p["totals"]
        lines.append(
            "totals: records {:+d}, cost {:+.6f} USD, time {:+.3f} s".format(
                totals["records_out"], totals["cost_usd"],
                totals["time_seconds"]))

        if p["ops"]:
            lines.append("per-operator deltas (shared ops):")
            header = (
                f"  {'operator':<38} {'Δcost($)':>10} {'Δtime(s)':>10} "
                f"{'Δcalls':>7} {'Δselect':>8}")
            lines.append(header)
            for row in p["ops"]:
                d = row["delta"]
                lines.append(
                    f"  {row['op_label']:<38} {d['cost_usd']:>+10.4f} "
                    f"{d['time_seconds']:>+10.3f} {d['llm_calls']:>+7d} "
                    f"{d['selectivity']:>+8.3f}")

        membership = p["membership"]
        lines.append(
            f"records: {len(membership['appeared'])} appeared, "
            f"{len(membership['disappeared'])} disappeared, "
            f"{membership['common']} common")
        for entry in membership["appeared"]:
            lines.append(f"  + appeared: {entry['preview']}")
            if entry.get("why"):
                lines.append(_indent(entry["why"], "      "))
        for entry in membership["disappeared"]:
            lines.append(f"  - disappeared: {entry['preview']}")
            if entry.get("why_not"):
                lines.append(_indent(entry["why_not"], "      "))
        return "\n".join(lines)


def _indent(text: str, pad: str) -> str:
    return "\n".join(pad + line for line in text.splitlines())


def _op_rows(stats: Dict[str, Any]) -> List[Dict[str, Any]]:
    return (stats.get("plan") or {}).get("operators") or []


def _selectivity(row: Dict[str, Any]) -> float:
    records_in = row.get("records_in", 0)
    if not records_in:
        return 1.0
    return row.get("records_out", 0) / records_in


def diff_runs(a: RunSnapshot, b: RunSnapshot) -> RunDiff:
    """Compare two snapshots; see the module docstring for the deltas."""
    # -- plan delta -----------------------------------------------------
    ops_a = [row["operator"] for row in _op_rows(a.stats)]
    ops_b = [row["operator"] for row in _op_rows(b.stats)]
    plan = {
        "changed": a.meta.get("plan_id") != b.meta.get("plan_id"),
        "a": {"plan_id": a.meta.get("plan_id"),
              "describe": a.meta.get("plan")},
        "b": {"plan_id": b.meta.get("plan_id"),
              "describe": b.meta.get("plan")},
        "added_ops": [label for label in ops_b if label not in ops_a],
        "removed_ops": [label for label in ops_a if label not in ops_b],
    }

    # -- per-op stat deltas --------------------------------------------
    rows_a = {row["operator"]: row for row in _op_rows(a.stats)}
    rows_b = {row["operator"]: row for row in _op_rows(b.stats)}
    op_deltas = []
    for label in [l for l in ops_b if l in rows_a]:
        ra, rb = rows_a[label], rows_b[label]
        delta = {
            "cost_usd": round(
                rb.get("cost_usd", 0.0) - ra.get("cost_usd", 0.0), 6),
            "time_seconds": round(
                rb.get("time_seconds", 0.0) - ra.get("time_seconds", 0.0),
                3),
            "llm_calls": rb.get("llm_calls", 0) - ra.get("llm_calls", 0),
            "selectivity": round(_selectivity(rb) - _selectivity(ra), 3),
        }
        op_deltas.append({"op_label": label, "a": ra, "b": rb,
                          "delta": delta})

    totals = {
        "records_out": (b.meta.get("records_out", 0)
                        - a.meta.get("records_out", 0)),
        "cost_usd": round(b.meta.get("total_cost_usd", 0.0)
                          - a.meta.get("total_cost_usd", 0.0), 6),
        "time_seconds": round(b.meta.get("total_time_seconds", 0.0)
                              - a.meta.get("total_time_seconds", 0.0), 3),
    }

    # -- record membership ---------------------------------------------
    keys_a = a.record_keys()
    keys_b = b.record_keys()
    appeared = []
    for key in keys_b:
        if key in keys_a:
            continue
        payload = keys_b[key]
        entry: Dict[str, Any] = {
            "preview": key[:100],
            "fp": _record_fp(payload),
        }
        node_id = b.output_node_for(payload)
        if node_id is not None:
            entry["why"] = render_why(b.graph.why(node_id))
        appeared.append(entry)
    disappeared = []
    for key in keys_a:
        if key in keys_b:
            continue
        payload = keys_a[key]
        entry = {
            "preview": key[:100],
            "fp": _record_fp(payload),
        }
        sources = a.source_ids_for(payload)
        entry["sources"] = sources
        if b.graph is not None and sources:
            explanations = [
                render_why_not(b.graph.why_not(source))
                for source in sources
            ]
            entry["why_not"] = "\n".join(explanations)
        disappeared.append(entry)

    payload = {
        "runs": {"a": a.run_id, "b": b.run_id},
        "plan": plan,
        "ops": op_deltas,
        "totals": totals,
        "membership": {
            "appeared": appeared,
            "disappeared": disappeared,
            "common": len(set(keys_a) & set(keys_b)),
        },
    }
    return RunDiff(payload)
