"""Reference (perfect) execution of a logical plan: the engine's spec.

Executes semantic operators with the ground-truth answers instead of a model,
producing the output an error-free pipeline would return.  Benchmarks compare
measured plans against this reference to report end-to-end quality, and
``tests/test_engine_spec.py`` checks every physical plan on every executor
schedule against it.  Each logical operator is restated over a plain list of
records in arrival order, borrowing nothing from the physical operators or
the executors, so a fault in either cannot be copied into the spec.
"""

from __future__ import annotations

import json
from typing import Any, List, Optional

from repro.core.cardinality import Cardinality
from repro.core.logical import (
    AggFunc,
    Aggregate,
    BaseScan,
    ConvertScan,
    FilteredScan,
    GroupByAggregate,
    LimitScan,
    LogicalPlan,
    Project,
    RetrieveScan,
)
from repro.core.logical_ext import Distinct, JoinScan, Sort, UnionScan
from repro.core.records import DataRecord
from repro.core.sources import DataSource
from repro.llm import semantics
from repro.llm.embeddings import cosine_similarity, embed_text
from repro.llm.oracle import GroundTruthRegistry, global_oracle


def _true_verdict(predicate: str, text: str,
                  oracle: GroundTruthRegistry) -> bool:
    """The registered truth of ``predicate`` on ``text``, else the
    heuristic answer an error-free model gives on an unknown document."""
    truth = oracle.predicate_truth(text, predicate)
    if truth is None:
        truth = semantics.answer_boolean(predicate, text)
    return bool(truth)


def _reference_filter(records: List[DataRecord], op: FilteredScan,
                      oracle: GroundTruthRegistry) -> List[DataRecord]:
    if op.spec.udf is not None:
        return [record for record in records if op.spec.udf(record)]
    return [record for record in records if _true_verdict(
        op.spec.predicate, record.document_text(), oracle)]


def _true_fields(op: ConvertScan, text: str,
                 oracle: GroundTruthRegistry) -> dict:
    values = {}
    for name in op.new_fields:
        known, value = oracle.field_truth(text, name)
        if not known:
            value = semantics.extract_field(
                name, op.output_schema.field_desc(name), text
            )
        values[name] = value
    return values


def _reference_convert(records: List[DataRecord], op: ConvertScan,
                       oracle: GroundTruthRegistry) -> List[DataRecord]:
    """A 1:N convert yields the registered instances; on an unknown
    document it yields the single heuristic row, if that found anything."""
    out: List[DataRecord] = []
    for record in records:
        text = record.document_text()
        if op.udf is not None:
            payload = op.udf(record)
            rows = payload if isinstance(payload, list) else [payload]
        elif op.cardinality is Cardinality.ONE_TO_MANY:
            known, instances = oracle.field_truth(text, "__instances__")
            if known and isinstance(instances, list):
                rows = [{name: row.get(name) for name in op.new_fields}
                        for row in instances]
            else:
                row = _true_fields(op, text, oracle)
                found = any(value is not None for value in row.values())
                rows = [row] if found else []
        else:
            rows = [_true_fields(op, text, oracle)]
        out.extend(record.derive(op.output_schema, row) for row in rows)
    return out


def _as_number(value: Any) -> Optional[float]:
    """Ints and floats, and strings that parse once thousands separators
    are removed; booleans, other strings and ``None`` do not count."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, str):
        return None
    try:
        return float(value.replace(",", ""))
    except ValueError:
        return None


_REDUCE = {
    AggFunc.AVERAGE: lambda numbers: sum(numbers) / len(numbers),
    AggFunc.SUM: sum,
    AggFunc.MIN: min,
    AggFunc.MAX: max,
}


def _fold(func: AggFunc, field: Optional[str],
          rows: List[DataRecord]) -> Optional[float]:
    """Count counts every row; the others fold the numeric values of
    ``field`` and are ``None`` when there are none."""
    if func is AggFunc.COUNT:
        return float(len(rows))
    numbers = [_as_number(row.get(field)) for row in rows]
    numbers = [number for number in numbers if number is not None]
    return _REDUCE[func](numbers) if numbers else None


def _reference_groupby(records: List[DataRecord],
                       op: GroupByAggregate) -> List[DataRecord]:
    """One row per group, groups in ascending order of their stringified
    key; each row keeps its group's inputs as parents."""
    groups = {}
    for record in records:
        key = tuple(str(record.get(name)) for name in op.group_fields)
        groups.setdefault(key, []).append(record)
    out = []
    for key in sorted(groups):
        result = DataRecord(op.output_schema, extra_parents=groups[key])
        for name, value in zip(op.group_fields, key):
            setattr(result, name, value)
        for func, field, alias in op.aggregates:
            setattr(result, alias, _fold(func, field, groups[key]))
        out.append(result)
    return out


def _reference_distinct(records: List[DataRecord],
                        op: Distinct) -> List[DataRecord]:
    """The first occurrence of each key: JSON over ``op.fields``, or over
    every field of the record's schema."""
    seen = set()
    out = []
    for record in records:
        names = op.fields or record.schema.field_names()
        key = json.dumps({name: record.get(name) for name in names},
                         default=str, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(record)
    return out


def _reference_sort(records: List[DataRecord], op: Sort) -> List[DataRecord]:
    """Stable order by ``op.field``: numbers before text, text compared as
    strings, and records whose value is ``None`` last in both directions."""
    def order(record):
        value = record.get(op.field)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return (0, value)
        return (1, str(value))

    present = [r for r in records if r.get(op.field) is not None]
    missing = [r for r in records if r.get(op.field) is None]
    return sorted(present, key=order, reverse=op.descending) + missing


def _reference_join(records: List[DataRecord], op: JoinScan,
                    oracle: GroundTruthRegistry) -> List[DataRecord]:
    """Each left record merged with every matching right record, in right
    arrival order; a right field whose name the left side has is renamed
    ``right_<name>``."""
    right_records = reference_output(
        op.right_dataset.logical_plan(), op.right_dataset.source, oracle
    )
    out = []
    for left in records:
        left_fields = set(left.schema.field_map())
        for right in right_records:
            if op.udf is not None:
                matches = bool(op.udf(left, right))
            else:
                pair = (
                    f"LEFT RECORD:\n{left.document_text()}\n\n"
                    f"RIGHT RECORD:\n{right.document_text()}"
                )
                matches = _true_verdict(op.predicate, pair, oracle)
            if matches:
                values = {
                    (name if name not in left_fields else f"right_{name}"):
                        right.get(name)
                    for name in right.schema.field_map()
                }
                out.append(left.derive(op.output_schema, values,
                                       extra_parents=(right,)))
    return out


def _reference_retrieve(records: List[DataRecord],
                        op: RetrieveScan) -> List[DataRecord]:
    """The ``k`` records nearest the query by cosine similarity; equal
    scores keep arrival order.  (No noise process applies to retrieval,
    so the embedding ranking is already the perfect answer.)"""
    query = embed_text(op.query)
    scores = [cosine_similarity(query, embed_text(record.document_text()))
              for record in records]
    ranked = sorted(range(len(records)), key=lambda i: (-scores[i], i))
    return [records[i] for i in ranked[: op.k]]


def reference_output(
    logical_plan: LogicalPlan,
    source: DataSource,
    oracle: Optional[GroundTruthRegistry] = None,
) -> List[DataRecord]:
    """The output a perfect (error-free) execution would produce."""
    oracle = oracle if oracle is not None else global_oracle()
    records = list(source)
    for op in logical_plan:
        if isinstance(op, BaseScan):
            continue
        if isinstance(op, FilteredScan):
            records = _reference_filter(records, op, oracle)
        elif isinstance(op, ConvertScan):
            records = _reference_convert(records, op, oracle)
        elif isinstance(op, Project):
            records = [
                record.derive(op.output_schema,
                              {name: record.get(name) for name in op.fields})
                for record in records
            ]
        elif isinstance(op, LimitScan):
            records = records[: op.limit]
        elif isinstance(op, Aggregate):
            # One row whatever the input size, with every input a parent.
            result = DataRecord(op.output_schema, extra_parents=records)
            setattr(result, op.alias, _fold(op.func, op.field, records))
            records = [result]
        elif isinstance(op, GroupByAggregate):
            records = _reference_groupby(records, op)
        elif isinstance(op, Distinct):
            records = _reference_distinct(records, op)
        elif isinstance(op, Sort):
            records = _reference_sort(records, op)
        elif isinstance(op, JoinScan):
            records = _reference_join(records, op, oracle)
        elif isinstance(op, UnionScan):
            records = records + reference_output(
                op.right_dataset.logical_plan(), op.right_dataset.source,
                oracle,
            )
        elif isinstance(op, RetrieveScan):
            records = _reference_retrieve(records, op)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unhandled logical operator {op.op_name}")
    return records
