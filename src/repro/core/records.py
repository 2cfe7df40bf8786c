"""Data records: schema-shaped values flowing through a plan.

A :class:`DataRecord` binds values to a schema's fields and remembers its
lineage (the parent record it was derived from), which execution statistics
and quality metrics use to trace outputs back to source documents.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, Iterable, List, Optional, Type

from repro.core.errors import SchemaError
from repro.core.schemas import Schema
from repro.llm.oracle import fingerprint_text

_record_counter = itertools.count(1)
_UNSET = object()

#: Field names that carry the "document text" of a record, in preference
#: order.  Semantic operators feed this text to the (simulated) models.
_DOCUMENT_FIELDS = ("text_contents", "body", "contents", "description", "text")


class DataRecord:
    """One record of a dataset, conforming to ``schema``.

    Values are held in an internal dict; attribute access is proxied so
    ``record.filename`` works for any schema field.  Unknown attribute writes
    raise, which catches typos in UDFs early.
    """

    def __init__(
        self,
        schema: Type[Schema],
        source_id: Optional[str] = None,
        parent: Optional["DataRecord"] = None,
        extra_parents: Iterable["DataRecord"] = (),
    ):
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_values", {})
        object.__setattr__(self, "_source_id", source_id)
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_extra_parents", tuple(extra_parents))
        object.__setattr__(self, "_record_id", next(_record_counter))
        object.__setattr__(self, "_doc_text_cache", None)

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_dict(
        cls,
        schema: Type[Schema],
        values: Dict[str, Any],
        source_id: Optional[str] = None,
        parent: Optional["DataRecord"] = None,
    ) -> "DataRecord":
        record = cls(schema, source_id=source_id, parent=parent)
        fields = schema.field_map()
        stored = record._values
        for name, value in values.items():
            field = fields.get(name)
            if field is not None:
                stored[name] = field.coerce(value)
        return record

    def derive(
        self,
        schema: Type[Schema],
        values: Optional[Dict[str, Any]] = None,
        extra_parents: Iterable["DataRecord"] = (),
    ) -> "DataRecord":
        """Create a child record of ``schema``, copying shared fields.

        Fields present in both schemas carry over; ``values`` overrides or
        adds the newly computed fields (the convert semantics of §2.1).
        ``extra_parents`` records additional lineage for N:1 derivations —
        a join's right-side record, an aggregate's folded inputs.
        """
        child = DataRecord(schema, source_id=self._source_id, parent=self,
                           extra_parents=extra_parents)
        fields = schema.field_map()
        inherited = self._values
        stored = child._values
        for name in fields:
            if name in inherited:
                stored[name] = inherited[name]
        for name, value in (values or {}).items():
            field = fields.get(name)
            if field is not None:
                stored[name] = field.coerce(value)
        return child

    def own_values(self) -> Dict[str, Any]:
        """The field values this record does not share with its parent.

        ``parent.derive(schema, own_values)`` rebuilds an equal record:
        :meth:`derive` copies shared fields by reference, so identity with
        the parent's value tells a carried-over field from a computed one
        (and coercion is idempotent, so re-deriving changes nothing).
        """
        inherited = self._parent._values if self._parent is not None else {}
        return {
            name: value for name, value in self._values.items()
            if inherited.get(name, _UNSET) is not value
        }

    # -- attribute proxying ----------------------------------------------

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        schema = object.__getattribute__(self, "_schema")
        values = object.__getattribute__(self, "_values")
        if name in schema.field_map():
            return values.get(name)
        raise AttributeError(
            f"record of schema {schema.schema_name()} has no field {name!r}"
        )

    def __setattr__(self, name: str, value: Any) -> None:
        if name.startswith("_"):
            object.__setattr__(self, name, value)
            return
        if name not in self._schema.field_map():
            raise SchemaError(
                f"cannot set unknown field {name!r} on schema "
                f"{self._schema.schema_name()}; fields: "
                f"{self._schema.field_names()}"
            )
        field = self._schema.field_map()[name]
        self._values[name] = field.coerce(value)
        object.__setattr__(self, "_doc_text_cache", None)

    # -- accessors ---------------------------------------------------------

    @property
    def schema(self) -> Type[Schema]:
        return self._schema

    @property
    def source_id(self) -> Optional[str]:
        return self._source_id

    @property
    def parent(self) -> Optional["DataRecord"]:
        return self._parent

    @property
    def parents(self) -> "List[DataRecord]":
        """All direct parents: the primary parent first, extras after.

        Most derivations are 1:1 chains (``parents == [parent]``); join
        merges and aggregate folds carry the additional inputs here.
        """
        out: List[DataRecord] = []
        if self._parent is not None:
            out.append(self._parent)
        out.extend(self._extra_parents)
        return out

    @property
    def record_id(self) -> int:
        return self._record_id

    def get(self, name: str, default: Any = None) -> Any:
        return self._values.get(name, default)

    def to_dict(self, include_bytes: bool = False) -> Dict[str, Any]:
        out = {}
        for name in self._schema.field_names():
            value = self._values.get(name)
            if isinstance(value, bytes) and not include_bytes:
                value = f"<{len(value)} bytes>"
            out[name] = value
        return out

    def document_text(self) -> str:
        """The textual payload semantic operators should reason over.

        Prefers the conventional document fields; falls back to joining all
        string-valued fields.  Lineage fallback: a record whose own schema has
        no text (e.g. after projection) inherits its parent's document text.

        The result is cached per record (invalidated on field writes) because
        every semantic call re-derives it.  The lineage fallback delegates to
        the parent rather than caching here, so a later parent mutation is
        still observed.
        """
        cached = self._doc_text_cache
        if cached is not None:
            return cached
        text = None
        for name in _DOCUMENT_FIELDS:
            value = self._values.get(name)
            if isinstance(value, str) and value:
                text = value
                break
        if text is None:
            strings = [
                v for v in self._values.values() if isinstance(v, str) and v
            ]
            if strings:
                text = "\n".join(strings)
        if text is not None:
            object.__setattr__(self, "_doc_text_cache", text)
            return text
        if self._parent is not None:
            return self._parent.document_text()
        return ""

    def fields_text(self, names: Iterable[str]) -> str:
        """The textual payload restricted to the named fields.

        Used by semantic operators declared with ``depends_on=[...]``: the
        model sees only the relevant columns ("Field: value" lines), which
        shrinks prompts.  Falls back to :meth:`document_text` when none of
        the named fields hold text.
        """
        lines = []
        for name in names:
            value = self._values.get(name)
            if value is None and self._parent is not None:
                value = self._parent.get(name)
            if value is not None and not isinstance(value, bytes):
                lines.append(f"{name}: {value}")
        return "\n".join(lines) if lines else self.document_text()

    def root(self) -> "DataRecord":
        """The furthest ancestor (the source document this derives from)."""
        node = self
        while node._parent is not None:
            node = node._parent
        return node

    def lineage(self) -> List["DataRecord"]:
        """Every ancestor plus this record, as a deduplicated DAG walk.

        Ordering guarantee: **parents before children**, discovered
        depth-first with the primary parent's subtree before any
        ``extra_parents`` subtrees (left-to-right), each record exactly
        once at its first encounter, and this record last.  For plain
        1:1 chains that reduces to the historical source-first chain;
        for N:1 derivations (aggregates, joins) shared ancestors appear
        a single time instead of once per path.
        """
        ordered: List[DataRecord] = []
        seen = set()

        def visit(node: "DataRecord") -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            for parent in node.parents:
                visit(parent)
            ordered.append(node)

        visit(self)
        return ordered

    @property
    def fingerprint(self) -> str:
        """Oracle fingerprint of this record's document text."""
        return fingerprint_text(self.document_text())

    def missing_required(self) -> List[str]:
        """Names of required fields that are unset or None."""
        return [
            name
            for name, field in self._schema.field_map().items()
            if field.required and self._values.get(name) is None
        ]

    # -- dunder -----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DataRecord)
            and self._schema is other._schema
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._schema.schema_name(), self._record_id))

    def __repr__(self) -> str:
        preview = {}
        for name, value in list(self._values.items())[:4]:
            text = repr(value)
            preview[name] = text if len(text) <= 40 else text[:37] + "..."
        return (
            f"DataRecord({self._schema.schema_name()}, "
            + ", ".join(f"{k}={v}" for k, v in preview.items())
            + ")"
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=str, sort_keys=True)
