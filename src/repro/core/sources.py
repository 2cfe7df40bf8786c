"""Data sources: where records come from.

§3 of the paper: "The first step when building a pipeline is to define an
input dataset - this could either be a local folder, for which every file
will constitute an individual record; or an iterable object in memory, for
which every item will be a record.  Additionally, more experienced users can
define any custom logic to marshal arbitrary objects or paths into input
datasets."

Those three styles are :class:`DirectorySource`, :class:`MemorySource`, and
:class:`CallbackSource`.  Sources register under string ids in a
:class:`DataSourceRegistry` so pipelines can refer to them by name
(``pz.Dataset(source="sigmod-demo")``).
"""

from __future__ import annotations

import statistics
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Type

from repro.core.builtin_schemas import File, TextFile
from repro.core.errors import DatasetError
from repro.core.files import parse_file, schema_for_path
from repro.core.records import DataRecord
from repro.core.schemas import Schema, make_schema
from repro.llm.tokenizer import count_tokens


class DataSource:
    """Abstract source of :class:`DataRecord` instances."""

    def __init__(self, dataset_id: str, schema: Type[Schema]):
        if not dataset_id:
            raise DatasetError("dataset_id must be non-empty")
        self.dataset_id = dataset_id
        self.schema = schema
        self._profile_cache: Dict[int, "SourceProfile"] = {}

    def __iter__(self) -> Iterator[DataRecord]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def _cheap_len(self) -> Optional[int]:
        """``len(self)`` when it costs O(1), else ``None``.

        Sources backed by a materialized collection (directory listing,
        in-memory list, declared callback length) override this;
        iterator-only sources return ``None`` and :meth:`profile` counts
        records during its sampling pass instead of walking the stream a
        second time just for ``__len__``.
        """
        return None

    def sample(self, k: int) -> List[DataRecord]:
        """The first ``k`` records (used for sentinel optimization runs)."""
        out: List[DataRecord] = []
        for record in self:
            out.append(record)
            if len(out) >= k:
                break
        return out

    def profile(self, sample_size: int = 5,
                refresh: bool = False) -> "SourceProfile":
        """Cheap statistics for the optimizer's naive cost model.

        Cached per ``sample_size``: plan enumeration profiles the source once
        per semantic operator, and each profile re-marshals sample records
        (file IO for directory sources).  Pass ``refresh=True`` after the
        underlying data changes.
        """
        if not refresh:
            cached = self._profile_cache.get(sample_size)
            if cached is not None:
                return cached
        cardinality = self._cheap_len()
        if cardinality is None:
            # Single pass: token-count the first ``sample_size`` records and
            # keep counting (without re-marshaling work per record beyond
            # iteration) to learn the cardinality.
            token_counts: List[int] = []
            cardinality = 0
            for record in self:
                if len(token_counts) < sample_size:
                    token_counts.append(count_tokens(record.document_text()))
                cardinality += 1
        else:
            token_counts = [
                count_tokens(r.document_text())
                for r in self.sample(sample_size)
            ]
        avg = statistics.mean(token_counts) if token_counts else 0.0
        profile = SourceProfile(
            cardinality=cardinality,
            avg_document_tokens=avg,
        )
        self._profile_cache[sample_size] = profile
        return profile

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(id={self.dataset_id!r}, "
            f"schema={self.schema.schema_name()})"
        )


class SourceProfile:
    """Summary statistics a cost model needs about a source."""

    def __init__(self, cardinality: int, avg_document_tokens: float):
        self.cardinality = cardinality
        self.avg_document_tokens = avg_document_tokens

    def __repr__(self) -> str:
        return (
            f"SourceProfile(cardinality={self.cardinality}, "
            f"avg_document_tokens={self.avg_document_tokens:.0f})"
        )


class DirectorySource(DataSource):
    """Every file in a folder is one record (sorted for determinism).

    If ``schema`` is omitted, each file gets the native schema for its
    extension — this is how the demo's PDF folder automatically becomes
    ``PDFFile`` records.  ``pattern`` filters filenames with a glob.
    """

    #: Error policies for unparseable files.
    ON_ERROR_RAISE = "raise"
    ON_ERROR_SKIP = "skip"

    def __init__(
        self,
        path,
        dataset_id: Optional[str] = None,
        schema: Optional[Type[Schema]] = None,
        pattern: str = "*",
        on_error: str = "raise",
    ):
        self.path = Path(path)
        if not self.path.is_dir():
            raise DatasetError(f"{self.path} is not a directory")
        if on_error not in (self.ON_ERROR_RAISE, self.ON_ERROR_SKIP):
            raise DatasetError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}"
            )
        self.pattern = pattern
        self.on_error = on_error
        self.skipped_files: List[Path] = []
        self._schema_override = schema
        files = self._list_files()
        inferred = schema or (schema_for_path(files[0]) if files else File)
        super().__init__(dataset_id or self.path.name, inferred)

    def _list_files(self) -> List[Path]:
        return sorted(
            p for p in self.path.glob(self.pattern)
            if p.is_file() and not p.name.startswith(".")
            and not p.name.endswith(".facts.json")
        )

    def __len__(self) -> int:
        return len(self._list_files())

    def _cheap_len(self) -> Optional[int]:
        # Listing the directory is cheap; parsing every file is not.
        return len(self._list_files())

    def __iter__(self) -> Iterator[DataRecord]:
        for file_path in self._list_files():
            try:
                yield parse_file(
                    file_path,
                    schema=self._schema_override,
                    source_id=self.dataset_id,
                )
            except Exception as exc:
                if self.on_error == self.ON_ERROR_RAISE:
                    raise DatasetError(
                        f"failed to parse {file_path}: {exc}"
                    ) from exc
                self.skipped_files.append(file_path)


class FileSource(DataSource):
    """A single file as a one-record dataset."""

    def __init__(self, path, dataset_id: Optional[str] = None,
                 schema: Optional[Type[Schema]] = None):
        self.path = Path(path)
        if not self.path.is_file():
            raise DatasetError(f"{self.path} is not a file")
        super().__init__(
            dataset_id or self.path.name,
            schema or schema_for_path(self.path),
        )
        self._schema_override = schema

    def __len__(self) -> int:
        return 1

    def _cheap_len(self) -> Optional[int]:
        return 1

    def __iter__(self) -> Iterator[DataRecord]:
        yield parse_file(
            self.path, schema=self._schema_override, source_id=self.dataset_id
        )


class MemorySource(DataSource):
    """An in-memory iterable: every item becomes a record.

    Items may be dicts (mapped onto ``schema`` fields), strings (mapped onto
    a ``TextFile``-like schema's text field), or ready ``DataRecord`` s.
    """

    def __init__(self, items: Iterable[Any], dataset_id: str,
                 schema: Optional[Type[Schema]] = None):
        self._items = list(items)
        if schema is None:
            schema = self._infer_schema(self._items)
        super().__init__(dataset_id, schema)

    @staticmethod
    def _infer_schema(items: List[Any]) -> Type[Schema]:
        if items and isinstance(items[0], DataRecord):
            return items[0].schema
        if items and isinstance(items[0], dict):
            return make_schema(
                "InMemoryRecord",
                "A record constructed from an in-memory dict.",
                {key: f"The {key} value" for key in items[0]},
            )
        return TextFile

    def __len__(self) -> int:
        return len(self._items)

    def _cheap_len(self) -> Optional[int]:
        return len(self._items)

    def __iter__(self) -> Iterator[DataRecord]:
        for index, item in enumerate(self._items):
            if isinstance(item, DataRecord):
                yield item
            elif isinstance(item, dict):
                yield DataRecord.from_dict(
                    self.schema, item, source_id=self.dataset_id
                )
            elif isinstance(item, str):
                record = DataRecord(self.schema, source_id=self.dataset_id)
                if "filename" in self.schema.field_map():
                    record.filename = f"{self.dataset_id}-{index}"
                if "text_contents" in self.schema.field_map():
                    record.text_contents = item
                yield record
            else:
                raise DatasetError(
                    f"cannot marshal item of type {type(item).__name__}; "
                    "provide dicts, strings, or DataRecords "
                    "(or use CallbackSource for custom logic)"
                )


class CallbackSource(DataSource):
    """Custom marshaling logic: a user callable yields the records."""

    def __init__(
        self,
        factory: Callable[[], Iterable[DataRecord]],
        dataset_id: str,
        schema: Type[Schema],
        length: Optional[int] = None,
    ):
        super().__init__(dataset_id, schema)
        self._factory = factory
        self._length = length

    def __len__(self) -> int:
        if self._length is not None:
            return self._length
        return sum(1 for _ in self._factory())

    def _cheap_len(self) -> Optional[int]:
        return self._length

    def __iter__(self) -> Iterator[DataRecord]:
        for record in self._factory():
            if not isinstance(record, DataRecord):
                raise DatasetError(
                    "CallbackSource factories must yield DataRecords, got "
                    f"{type(record).__name__}"
                )
            yield record


# -- sharding ------------------------------------------------------------

#: The one shard assignment: record ``i`` goes to shard ``i % K``.  The
#: sharded executor's spans name it (``strategy="round_robin"``).
SHARD_ROUND_ROBIN = "round_robin"

#: Serializes the shard-assignment memo below.  Sources are shared objects
#: (registries hand the same instance to every engine), so when concurrent
#: plans shard the same source, as the multi-tenant server's do, the
#: read-compute-store sequence races.  Assignments are pure functions of
#: (source, k), so the lock only prevents lost updates and torn dict
#: mutation, not wrong answers.
_SHARD_CACHE_LOCK = threading.Lock()

#: Module-level lock discipline for the memo attribute stashed on sources,
#: checked by pz-lint CC501 and the runtime sanitizer.
_GUARDED_BY = {
    "_shard_cache": "_SHARD_CACHE_LOCK",
}


class SourceShard(DataSource):
    """One deterministic shard of a parent source.

    Global record identity is preserved: the shard yields the parent's own
    records (same fingerprints, same source ids) and remembers each record's
    global arrival index so a gather stage can restore the original order.
    """

    def __init__(self, parent: DataSource, shard_index: int,
                 assignment: List[int]):
        if shard_index < 0:
            raise DatasetError(f"shard_index must be >= 0, got {shard_index}")
        super().__init__(
            f"{parent.dataset_id}#shard{shard_index}", parent.schema
        )
        self.parent = parent
        self.shard_index = shard_index
        self._assignment = assignment

    @property
    def global_indices(self) -> List[int]:
        """Arrival indices (in the parent) of this shard's records."""
        return [
            i for i, shard in enumerate(self._assignment)
            if shard == self.shard_index
        ]

    def __len__(self) -> int:
        return len(self.global_indices)

    def _cheap_len(self) -> Optional[int]:
        return len(self.global_indices)

    def __iter__(self) -> Iterator[DataRecord]:
        for index, record in enumerate(self.parent):
            if (index < len(self._assignment)
                    and self._assignment[index] == self.shard_index):
                yield record


def shard_source(source: DataSource, shards: int) -> List[SourceShard]:
    """Partition ``source`` round-robin into ``shards`` deterministic shards.

    The assignment is cached on the source per shard count so repeated
    partitioning (optimizer estimates, then execution) reuses it.
    """
    if shards < 1:
        raise DatasetError(f"shards must be >= 1, got {shards}")
    with _SHARD_CACHE_LOCK:
        cache: Optional[Dict[Any, List[int]]] = getattr(
            source, "_shard_cache", None
        )
        assignment = cache.get(shards) if cache else None
    if assignment is None:
        count = source._cheap_len()
        if count is None:
            count = len(source)
        assignment = [i % shards for i in range(count)]
        with _SHARD_CACHE_LOCK:
            cache = getattr(source, "_shard_cache", None)
            if cache is None:
                cache = {}
                source._shard_cache = cache
            assignment = cache.setdefault(shards, assignment)
    return [SourceShard(source, k, assignment) for k in range(shards)]


class DataSourceRegistry:
    """Named registry of data sources (the system's "data directory")."""

    def __init__(self):
        self._sources: Dict[str, DataSource] = {}

    def register(self, source: DataSource, overwrite: bool = False) -> None:
        if source.dataset_id in self._sources and not overwrite:
            raise DatasetError(
                f"dataset id {source.dataset_id!r} is already registered"
            )
        self._sources[source.dataset_id] = source

    def get(self, dataset_id: str) -> DataSource:
        try:
            return self._sources[dataset_id]
        except KeyError:
            known = ", ".join(sorted(self._sources)) or "<none>"
            raise DatasetError(
                f"unknown dataset {dataset_id!r}; registered: {known}"
            ) from None

    def __contains__(self, dataset_id: str) -> bool:
        return dataset_id in self._sources

    def list_ids(self) -> List[str]:
        return sorted(self._sources)

    def unregister(self, dataset_id: str) -> None:
        self._sources.pop(dataset_id, None)

    def clear(self) -> None:
        self._sources.clear()


_global_registry = DataSourceRegistry()


def global_source_registry() -> DataSourceRegistry:
    """The process-global data source registry."""
    return _global_registry


def register_datasource(source: DataSource, overwrite: bool = True) -> DataSource:
    """Register ``source`` globally and return it (fluent helper)."""
    _global_registry.register(source, overwrite=overwrite)
    return source
