"""Columnar run artifacts: one list per field instead of one dict per row.

A recorded run's trace and provenance graph hold thousands of rows with
the same few fields.  Kept as one dict per row they cost a container per
row to build, to collect and to encode; kept as columns they cost one
list per field.  The row shape readers know (``to_plain_json`` spans,
``ProvenanceGraph.to_dict`` nodes and events) is rendered from the
columns on demand, byte for byte.

Free-form mappings (span attributes, provenance event attributes) are
stored per distinct key set: ``{"set": [i, ...], "sets": [{"keys": [...],
"columns": [[...], ...]}]}`` holds, for each row, the index of its key
set, and for each key set one column per key over the rows that have it.

Every payload here is plain JSON, so an in-memory payload equals the one
read back from disk.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping

__all__ = [
    "TRACE_COLUMNS_FORMAT",
    "mapping_at",
    "mapping_positions",
    "pack_mappings",
    "plain_trace",
    "trace_columns",
    "trace_columns_from_rows",
    "unpack_mappings",
]

#: ``format`` of a columnar trace payload (``trace.json``).
TRACE_COLUMNS_FORMAT = "repro.obs/columns-v1"
#: ``format`` of the row payload :func:`repro.obs.export.to_plain_json`
#: writes.
_TRACE_ROWS_FORMAT = "repro.obs/v1"
#: Span fields with a column of their own; the span id is the position
#: plus one.
_SPAN_FIELDS = ("parent_id", "name", "kind", "start", "duration", "lane")


# -- mappings stored per key set --------------------------------------------


def pack_mappings(mappings: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Store ``mappings`` per distinct key set (keys keep their order)."""
    index: Dict[tuple, tuple] = {}  # keys -> (set index, its columns)
    row_sets: List[int] = []
    sets: List[Dict[str, Any]] = []
    for mapping in mappings:
        keys = tuple(mapping)
        found = index.get(keys)
        if found is None:
            columns: List[list] = [[] for _ in keys]
            found = index[keys] = (len(sets), columns)
            sets.append({"keys": list(keys), "columns": columns})
        row_sets.append(found[0])
        for column, value in zip(found[1], mapping.values()):
            column.append(value)
    return {"set": row_sets, "sets": sets}


def unpack_mappings(packed: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """The mappings :func:`pack_mappings` stored, in row order."""
    sets = [(entry["keys"], entry["columns"]) for entry in packed["sets"]]
    cursor = [0] * len(sets)
    for found in packed["set"]:
        row = cursor[found]
        cursor[found] = row + 1
        keys, columns = sets[found]
        yield {key: column[row] for key, column in zip(keys, columns)}


def mapping_positions(packed: Dict[str, Any]) -> List[int]:
    """Each row's position within its key set (for :func:`mapping_at`)."""
    cursor = [0] * len(packed["sets"])
    positions = []
    for found in packed["set"]:
        positions.append(cursor[found])
        cursor[found] += 1
    return positions


def mapping_at(packed: Dict[str, Any], row: int,
               positions: List[int]) -> Dict[str, Any]:
    """Row ``row``'s mapping, given :func:`mapping_positions`."""
    entry = packed["sets"][packed["set"][row]]
    at = positions[row]
    return {key: column[at]
            for key, column in zip(entry["keys"], entry["columns"])}


# -- traces -------------------------------------------------------------------


def trace_columns(trace, metrics: Any = None) -> Dict[str, Any]:
    """The columnar payload of a finalized :class:`~repro.obs.trace.Trace`
    (span ids run 1..N in span order).

    Holds what :func:`repro.obs.export.to_plain_json` writes, rounded
    the same way, so :func:`plain_trace` renders exactly that.
    """
    spans = trace.spans
    payload: Dict[str, Any] = {
        "format": TRACE_COLUMNS_FORMAT,
        "makespan_seconds": round(trace.makespan, 9),
        "span_count": len(spans),
        "columns": {
            "parent_id": [span.parent_id for span in spans],
            "name": [span.name for span in spans],
            "kind": [span.kind for span in spans],
            "start": [round(span.start, 9) for span in spans],
            "duration": [round(span.duration, 9) for span in spans],
            "lane": [span.lane for span in spans],
        },
        "attributes": pack_mappings(span.attributes for span in spans),
    }
    if metrics:
        payload["metrics"] = metrics
    return payload


def trace_columns_from_rows(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A row-layout trace (``to_plain_json`` output) as columns."""
    rows = payload["spans"]
    columns = {field: [row[field] for row in rows] for field in _SPAN_FIELDS}
    out = {key: value for key, value in payload.items() if key != "spans"}
    out.update(
        format=TRACE_COLUMNS_FORMAT,
        columns=columns,
        attributes=pack_mappings(row["attributes"] for row in rows),
    )
    return out


def plain_trace(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The row layout (``repro.obs/v1``) of a stored trace payload.

    Columns render to what :func:`repro.obs.export.to_plain_json` wrote
    for the same trace; a row payload is returned as it is.
    """
    if payload.get("format") != TRACE_COLUMNS_FORMAT:
        return payload
    columns = payload["columns"]
    spans = [
        {
            "id": index + 1,
            "parent_id": parent_id,
            "name": name,
            "kind": kind,
            "start": start,
            "duration": duration,
            "lane": lane,
            "attributes": attributes,
        }
        for index, (parent_id, name, kind, start, duration, lane, attributes)
        in enumerate(zip(
            *(columns[field] for field in _SPAN_FIELDS),
            unpack_mappings(payload["attributes"])))
    ]
    plain: Dict[str, Any] = {
        "format": _TRACE_ROWS_FORMAT,
        "makespan_seconds": payload["makespan_seconds"],
        "span_count": payload["span_count"],
        "spans": spans,
    }
    if "metrics" in payload:
        plain["metrics"] = payload["metrics"]
    return plain
