"""The pipeline workspace: state a chat conversation builds up."""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.core.cardinality import Cardinality
from repro.core.dataset import Dataset
from repro.core.records import DataRecord
from repro.core.schemas import Schema
from repro.execution.stats import ExecutionStats
from repro.optimizer.policies import MaxQuality, Policy
from repro.physical.options import ExecutionOptions


@dataclass
class PipelineStep:
    """One logical step the conversation added (used for codegen/replay)."""

    kind: str  # "load" | "filter" | "schema" | "convert" | "policy" | ...
    params: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{self.kind}({inner})"


class PipelineWorkspace:
    """Mutable state shared by the PalimpChat tools.

    Tracks the dataset pipeline under construction, the dynamically created
    schemas, the optimization policy, and the latest execution results.
    Snapshots support the Beaker-style "restore previous notebook state"
    feature.
    """

    def __init__(self):
        self.current: Optional[Dataset] = None
        self.schemas: Dict[str, Type[Schema]] = {}
        self.policy: Policy = MaxQuality()
        #: How pipelines run (executor, max_workers, batch_size, shards);
        #: set by the set_parallelism / set_execution_mode tools.
        self.options = ExecutionOptions()
        self.sample_size: int = 0
        self.steps: List[PipelineStep] = []
        self.last_records: Optional[List[DataRecord]] = None
        self.last_stats: Optional[ExecutionStats] = None
        #: Finalized repro.obs Trace of the last execution (None until a
        #: pipeline has run); explain_execution answers from it.
        self.last_trace: Optional[Any] = None
        #: Canonical ProvenanceGraph of the last execution (None until a
        #: pipeline has run); explain_record answers from it.
        self.last_provenance: Optional[Any] = None
        #: In-memory RunSnapshots of every execution this session, in
        #: order; compare_runs diffs the last two.  Survives reset() —
        #: the runs happened even if the pipeline is discarded.
        self.run_history: List[Any] = []
        #: ResultHandle of the last execution — the addressable reference
        #: (result id + schema + count + fingerprint) chat tools pass
        #: around instead of inlining record payloads.
        self.last_result: Optional[Any] = None
        #: Optional on-disk RunRegistry directory; when set, executions
        #: are also persisted there and reset() prunes it to keep_runs.
        self.runs_dir: Optional[str] = None
        #: Retention applied on reset(): how many runs (in memory, and on
        #: disk when runs_dir is set) survive a workspace reset.
        self.keep_runs: int = 8
        #: State root this workspace lives under (e.g. a tenant's
        #: ``.repro/tenants/<id>/``); ``attach_root`` derives runs_dir
        #: from it.  None = no dedicated root (the historical global
        #: ``.repro/`` behaviour).  Two workspaces with different roots
        #: never share registries.
        self.root: Optional[str] = None
        #: Shared :class:`~repro.llm.usage.BudgetMeter` (tenant quota)
        #: executions charge; None = unmetered.
        self.budget: Optional[Any] = None
        #: Progress callback executions forward executor events to
        #: (``plan_start``/``record_processed``/.../``plan_end``) — the
        #: hook a serving layer streams to clients.
        self.on_progress: Optional[Any] = None
        #: Wall-clock operational telemetry
        #: (:class:`~repro.obs.telemetry.Telemetry`) the serving layer
        #: attaches; executions time optimize/execute phases into it.
        #: None = no operational telemetry (the default, and the only
        #: mode deterministic tests compare against — telemetry may
        #: never influence records/stats/traces/provenance).
        self.telemetry: Optional[Any] = None

    # -- step log ----------------------------------------------------------

    def log_step(self, kind: str, **params) -> PipelineStep:
        step = PipelineStep(kind=kind, params=params)
        self.steps.append(step)
        return step

    def steps_of_kind(self, kind: str) -> List[PipelineStep]:
        return [s for s in self.steps if s.kind == kind]

    # -- schema registry -------------------------------------------------

    def add_schema(self, schema: Type[Schema]) -> None:
        self.schemas[schema.schema_name()] = schema

    def get_schema(self, name: str) -> Type[Schema]:
        try:
            return self.schemas[name]
        except KeyError:
            raise KeyError(
                f"no schema named {name!r} has been created in this session; "
                f"known schemas: {sorted(self.schemas)}"
            ) from None

    # -- tenancy root -----------------------------------------------------

    def attach_root(self, root) -> None:
        """Pin this workspace's persistent state under ``root``.

        Sets ``root`` and derives ``runs_dir`` (``<root>/runs``) from it,
        so every workspace with a distinct root gets its own
        :class:`~repro.obs.registry.RunRegistry` — two tenants in one
        process never collide on the global ``.repro/`` default.
        """
        import os

        self.root = os.fspath(root)
        self.runs_dir = os.path.join(self.root, "runs")

    @property
    def max_workers(self) -> int:
        return self.options.max_workers

    # -- snapshots (Beaker-style state restore) ---------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Capture enough state to restore this point of the conversation.

        The registry attachment (``root``/``runs_dir``/``keep_runs``) is
        part of the snapshot: restoring a snapshot into a fresh workspace
        must keep pointing at the *same* per-tenant store, not fall back
        to the global ``.repro/`` root.
        """
        return {
            "current": self.current,          # Datasets are immutable chains
            "schemas": dict(self.schemas),
            "policy": self.policy,
            "options": self.options,          # frozen
            "sample_size": self.sample_size,
            "steps": copy.deepcopy(self.steps),
            "root": self.root,
            "runs_dir": self.runs_dir,
            "keep_runs": self.keep_runs,
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        self.current = snapshot["current"]
        self.schemas = dict(snapshot["schemas"])
        self.policy = snapshot["policy"]
        self.options = snapshot["options"]
        self.sample_size = snapshot["sample_size"]
        self.steps = copy.deepcopy(snapshot["steps"])
        if "root" in snapshot:
            self.root = snapshot["root"]
        if "runs_dir" in snapshot:
            self.runs_dir = snapshot["runs_dir"]
        if "keep_runs" in snapshot:
            self.keep_runs = snapshot["keep_runs"]
        self.last_records = None
        self.last_stats = None
        self.last_trace = None
        self.last_provenance = None
        self.last_result = None

    # -- disk persistence (service-layer session store) -------------------

    def to_payload(self) -> Dict[str, Any]:
        """A JSON-able snapshot: the step log plus execution settings.

        Unlike :meth:`snapshot` (which holds live objects for in-process
        restore), the payload survives a process restart: every step's
        params are primitives, and :meth:`apply_payload` replays them to
        rebuild the pipeline, schemas, and policy.
        """
        return {
            "steps": [
                {"kind": step.kind, "params": dict(step.params)}
                for step in self.steps
            ],
            "policy": self.policy.describe(),
            "max_workers": self.options.max_workers,
            "executor": self.options.executor,
            "batch_size": self.options.batch_size,
            "shards": self.options.shards,
            "sample_size": self.sample_size,
            "keep_runs": self.keep_runs,
        }

    def apply_payload(self, payload: Dict[str, Any]) -> None:
        """Rebuild workspace state from :meth:`to_payload` output.

        Pipeline-building steps (load/schema/filter/convert/policy and
        the execution-mode settings) are replayed to reconstruct the
        live ``current`` dataset and schema registry; ``execute`` /
        ``rerun`` steps are kept in the log (codegen still shows them)
        but not re-run — their results live in the run registry.
        """
        from repro.core.cardinality import Cardinality
        from repro.core.schemas import make_schema
        from repro.optimizer.policies import parse_policy

        self.options = ExecutionOptions.normalized(
            payload.get("executor"), int(payload.get("max_workers", 1)),
            int(payload.get("batch_size", 1)), payload.get("shards"),
        )
        self.sample_size = int(payload.get("sample_size", 0))
        self.keep_runs = int(payload.get("keep_runs", self.keep_runs))
        self.current = None
        self.schemas = {}
        self.steps = []
        for entry in payload.get("steps", []):
            kind = entry["kind"]
            params = dict(entry.get("params", {}))
            if kind == "load":
                self.current = Dataset(source=params["source"])
            elif kind == "schema":
                self.add_schema(make_schema(
                    params["name"],
                    params.get("description", ""),
                    list(params.get("field_names", [])),
                    field_descriptions=list(
                        params.get("field_descriptions", [])),
                ))
            elif kind == "filter" and self.current is not None:
                self.current = self.current.filter(params["predicate"])
            elif kind == "convert" and self.current is not None:
                self.current = self.current.convert(
                    self.get_schema(params["schema"]),
                    cardinality=Cardinality.parse(
                        params.get("cardinality", "one_to_one")),
                )
            elif kind == "policy":
                self.policy = parse_policy(params["target"])
            elif kind == "parallelism":
                self.options = dataclasses.replace(
                    self.options, max_workers=int(params["workers"]))
            elif kind == "execution_mode":
                self.options = ExecutionOptions.normalized(
                    params.get("executor"), self.options.max_workers,
                    int(params.get("batch_size", 1)), params.get("shards"),
                )
            # execute/rerun and unknown kinds: log-only (below).
            self.steps.append(PipelineStep(kind=kind, params=params))
        if "policy" in payload and not any(
                s.kind == "policy" for s in self.steps):
            try:
                self.policy = parse_policy(payload["policy"])
            except ValueError:
                # Constrained policies (e.g. "max-quality@cost($1.00)")
                # don't parse back from describe(); keep the default —
                # a replayed "policy" step would have restored it above.
                pass

    def reset(self) -> None:
        self.current = None
        self.schemas = {}
        self.policy = MaxQuality()
        self.steps = []
        self.last_records = None
        self.last_stats = None
        self.last_trace = None
        self.last_provenance = None
        self.last_result = None
        self.prune_runs()

    def prune_runs(self) -> List[str]:
        """Apply the ``keep_runs`` retention to session and disk history.

        Trims ``run_history`` to the newest ``keep_runs`` snapshots and,
        when a ``runs_dir`` is attached, prunes the persistent
        :class:`~repro.obs.registry.RunRegistry` the same way.  Returns
        the run ids pruned from disk (empty when none / no registry).
        """
        if self.keep_runs is not None and len(self.run_history) > self.keep_runs:
            del self.run_history[: len(self.run_history) - self.keep_runs]
        if self.runs_dir is None:
            return []
        from repro.obs.registry import RunRegistry

        return RunRegistry(self.runs_dir).prune(keep_last=self.keep_runs)

    def describe_pipeline(self) -> str:
        if self.current is None:
            return "(no pipeline yet — load a dataset first)"
        plan = self.current.logical_plan().describe()
        return f"{plan}  [policy: {self.policy.describe()}]"
