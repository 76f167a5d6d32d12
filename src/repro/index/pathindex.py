"""The disk-resident path index (§6.1).

The index stores every source-to-sink path of the data graph, because
"they bring information that might match the query" and retrieving them
"allows us to skip the expensive graph traversal at runtime".  Paths
live in a page-structured record log; two label indexes — one over
sink labels, one over all labels a path contains — answer the two
lookups clustering needs, as record offsets:

- ``offsets_with_sink(label)``: paths whose sink matches the sink of a
  query path;
- ``offsets_containing(label)``: paths containing a label matching the
  first constant of a query path (used when the query sink is a
  variable).

Both lookups go through the Lucene-stand-in :class:`LabelIndex`, so
they match exactly, lexically, or via thesaurus expansion;
``path_at(offset)`` decodes one record.  Every record is a run of
label ids in the ``labels.dict`` dictionary
(:meth:`LabelInterner.encode_path`, the one record format), fetched
through the buffer pool: clearing it reproduces the paper's cold-cache
condition.
"""

from __future__ import annotations

import json
import os
from array import array

from ..paths.model import Path
from ..rdf.ntriples import parse_term
from ..rdf.terms import Term
from ..resilience.errors import IndexCorruptError, StorageError
from ..storage.atomic import atomic_write_json, sweep_tmp_debris
from ..storage.bufferpool import BufferPool
from ..storage.pagestore import PageStore
from ..storage.recordfile import RecordFile
from .labels import LABELS_FILE, LabelIndex, LabelInterner
from .thesaurus import Thesaurus

_PATHS_FILE = "paths.log"
_MAPS_FILE = "maps.json"
_FORMAT_VERSION = 1
#: The ``maps.json`` key marking label-interned records.  Every index
#: written with it opens; one without it holds a retired record format
#: (inline terms, or the §7 term-dictionary codec).
_RECORDS_MARKER = "interned_records"

#: Pages prefetched after a demand miss during record reads.  Records
#: are packed contiguously and cluster retrieval walks offsets in
#: ascending order, so sequential read-ahead turns one-fault-per-path
#: cold scans into one fault per run of pages.
DEFAULT_READ_AHEAD = 8


def postings(path: Path) -> "tuple[Term, set[Term]]":
    """The posting rule of every index: a path is posted under its sink
    label in the sink map, and under each distinct node or edge label
    in the containment map.  Returns ``(sink, contained labels)``."""
    labels = set(path.nodes)
    labels.update(path.edges)
    return path.sink, labels


class RecordReader:
    """The read half every record-log index shares.

    Decodes records of ``paths.log`` in the index's ``labels.dict``
    (:meth:`LabelInterner.decode_path`), caches each decoded path,
    counts the decodes, and exposes the log's page store and its
    counters.  :class:`PathIndex` reads a finished log through it;
    :class:`~repro.index.incremental.IncrementalIndex` reads the log it
    is still appending to.  Subclasses provide ``all_offsets()``.
    """

    def _open_reader(self, directory, records: RecordFile,
                     interner: LabelInterner) -> None:
        self.directory = os.fspath(directory)
        self._records = records
        #: The dictionary the records are written in: decoding resolves
        #: ids through it and never adds to it.
        self.interner = interner
        self._decoded: dict[int, Path] = {}
        #: Records decoded from storage (cache misses of ``_decoded``);
        #: surfaced on ``/metrics`` as ``sama_record_decodes_total``.
        self.decode_count = 0

    def close(self) -> None:
        self._records.store.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def path_at(self, offset: int) -> Path:
        """Decode the path stored at ``offset`` (cached after first use).

        Storage-level failures (transient reads, checksum mismatches)
        propagate as their own typed errors; anything else that goes
        wrong while decoding the record means the stored bytes are not
        a path and surfaces as :class:`IndexCorruptError`.
        """
        cached = self._decoded.get(offset)
        if cached is None:
            try:
                # label_ids come attached straight from the record.
                cached = self.interner.decode_path(self._records.read(offset))
            except (StorageError, IndexCorruptError):
                raise
            except Exception as exc:
                raise IndexCorruptError(
                    f"cannot decode path at offset {offset} of "
                    f"{self.directory}: {exc}") from exc
            self._decoded[offset] = cached
            self.decode_count += 1
        return cached

    def all_paths(self) -> list[Path]:
        """Every stored path (decodes the full log — benchmarks only)."""
        return [self.path_at(offset) for offset in self.all_offsets()]

    # -- cache control (cold / warm experiments) ---------------------------------

    def clear_cache(self) -> None:
        """Cold-cache condition: drop buffer pool and decoded paths."""
        self._records.pool.clear()
        self._decoded.clear()

    def warm_up(self) -> None:
        """Touch every page once so subsequent runs are warm."""
        for offset in self.all_offsets():
            self.path_at(offset)

    @property
    def page_store(self):
        """The underlying page store (fault injection, direct stats)."""
        return self._records.store

    @property
    def io_stats(self):
        """Physical I/O counters of the underlying store."""
        return self._records.store.stats

    @property
    def cache_stats(self):
        """Buffer pool hit/miss counters."""
        return self._records.pool.stats


class PathIndex(RecordReader):
    """Query-time view of an indexed data graph.

    Build with :func:`repro.index.builder.build_index`; reopen later
    with :meth:`PathIndex.open`.
    """

    def __init__(self, directory, records: RecordFile,
                 sink_index: LabelIndex, contains_index: LabelIndex,
                 offsets: "list[int] | array", metadata: dict,
                 interner: LabelInterner):
        self._open_reader(directory, records, interner)
        self._sink_index = sink_index
        self._contains_index = contains_index
        self._offsets = offsets
        self.metadata = metadata
        #: Data version for result caching.  A static on-disk index
        #: never changes after build, so its epoch is constant;
        #: :class:`~repro.index.incremental.IncrementalIndex` bumps its
        #: own counter on every update/compaction.
        self.epoch = 0

    # -- opening ---------------------------------------------------------------

    @classmethod
    def open(cls, directory, thesaurus: "Thesaurus | None" = None,
             read_latency: float = 0.0,
             pool_capacity: int = 4096,
             read_ahead: int = DEFAULT_READ_AHEAD,
             interner: "LabelInterner | None" = None) -> "PathIndex":
        """Open an index previously persisted under ``directory``.

        ``interner`` supplies an already-loaded label dictionary
        instead of reading ``labels.dict`` from disk — the sharded
        index opens one global dictionary and shares it across every
        shard so dense label ids agree globally.
        """
        directory = os.fspath(directory)
        # A crash mid-atomic-write strands a *.tmp sibling; the real
        # files are intact, so just clean the debris on the way in.
        sweep_tmp_debris(directory)
        maps_path = os.path.join(directory, _MAPS_FILE)
        try:
            with open(maps_path, encoding="utf-8") as handle:
                maps = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise IndexCorruptError(f"cannot read {maps_path}: {exc}") from exc
        if maps.get("version") != _FORMAT_VERSION:
            raise IndexCorruptError(
                f"index format {maps.get('version')!r} unsupported "
                f"(expected {_FORMAT_VERSION})")
        if not maps.get(_RECORDS_MARKER) or maps.get("compressed"):
            retired = ("§7 term-dictionary" if maps.get("compressed")
                       else "inline-term")
            raise IndexCorruptError(
                f"{directory} stores paths in the retired {retired} record "
                f"format; rebuild it with `sama index build`")
        # Older maps.json files predate the recorded page size; they
        # were always written with the 4 KiB default.
        store = PageStore(os.path.join(directory, _PATHS_FILE),
                          page_size=maps.get("page_size", 4096),
                          read_latency=read_latency)
        pool = BufferPool(store, capacity=pool_capacity,
                          read_ahead=read_ahead)
        records = RecordFile(store, pool)
        sink_index = _load_label_map(maps["sink"], thesaurus)
        # pop: the parsed JSON lists are the open-time memory peak.
        contains_index = _load_label_map(maps.pop("contains"), thesaurus)
        offsets = array("q", maps["offsets"])
        if interner is None:
            labels_path = os.path.join(directory, LABELS_FILE)
            if not os.path.exists(labels_path):
                raise IndexCorruptError(
                    f"{directory} has no {LABELS_FILE} dictionary to "
                    f"decode its records")
            try:
                interner = LabelInterner.load(labels_path)
            except Exception as exc:
                raise IndexCorruptError(
                    f"cannot read {labels_path}: {exc}") from exc
        return cls(directory, records, sink_index, contains_index,
                   offsets, maps.get("metadata", {}), interner)

    # -- lookups ------------------------------------------------------------------

    @property
    def path_count(self) -> int:
        return len(self._offsets)

    def all_offsets(self) -> list[int]:
        return list(self._offsets)

    def offsets_with_sink(self, label: Term, semantic: bool = True) -> list[int]:
        """Offsets of paths whose sink matches ``label``."""
        return sorted(self._sink_index.lookup(label, semantic=semantic))

    def offsets_containing(self, label: Term, semantic: bool = True) -> list[int]:
        """Offsets of paths containing a label matching ``label``."""
        return sorted(self._contains_index.lookup(label, semantic=semantic))

    def sink_tiers(self, label: Term, semantic: bool = True):
        """The match tiers behind :meth:`offsets_with_sink`
        (:meth:`LabelIndex.tiers`); a sharded index decides the tier
        over all its shards at once."""
        return self._sink_index.tiers(label, semantic)

    def containing_tiers(self, label: Term, semantic: bool = True):
        """The match tiers behind :meth:`offsets_containing`."""
        return self._contains_index.tiers(label, semantic)

    def __repr__(self):
        return (f"<PathIndex {self.directory!r}: {self.path_count} paths, "
                f"{self._sink_index.label_count} sink labels>")


class PathIndexWriter:
    """Accumulates paths during the build, then persists the maps."""

    def __init__(self, directory, thesaurus: "Thesaurus | None" = None,
                 page_size: int = 4096,
                 interner: "LabelInterner | None" = None):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._store = PageStore(os.path.join(self.directory, _PATHS_FILE),
                                page_size=page_size)
        self._records = RecordFile(self._store)
        self._thesaurus = thesaurus
        # ``interner`` lets several writers share one global label
        # dictionary (the sharded build); each writer still persists
        # the full dictionary so its directory stays self-contained.
        self._interner = interner if interner is not None else LabelInterner()
        self._sink_map: dict[Term, list[int]] = {}
        self._contains_map: dict[Term, list[int]] = {}
        self._offsets: list[int] = []

    def add_path(self, path: Path) -> int:
        """Store one path; returns its offset."""
        self._interner.intern_path(path)
        offset = self._records.append(self._interner.encode_path(path))
        self._offsets.append(offset)
        sink, labels = postings(path)
        self._sink_map.setdefault(sink, []).append(offset)
        for label in labels:
            self._contains_map.setdefault(label, []).append(offset)
        return offset

    def finish(self, metadata: "dict | None" = None) -> PathIndex:
        """Flush, persist the maps, and return the opened index."""
        self._records.seal()
        maps = {
            "version": _FORMAT_VERSION,
            "metadata": metadata or {},
            "page_size": self._store.page_size,
            _RECORDS_MARKER: True,
            "offsets": self._offsets,
            "sink": _dump_label_map(self._sink_map),
            "contains": _dump_label_map(self._contains_map),
        }
        self._interner.save(os.path.join(self.directory, LABELS_FILE))
        # maps.json is the file that makes the directory an index; write
        # it atomically so a crash here leaves either no index or a
        # complete one, never a torn manifest.
        atomic_write_json(os.path.join(self.directory, _MAPS_FILE), maps)
        sink_index = LabelIndex.from_postings(self._sink_map.items(),
                                              self._thesaurus)
        contains_index = LabelIndex.from_postings(self._contains_map.items(),
                                                  self._thesaurus)
        return PathIndex(self.directory, self._records, sink_index,
                         contains_index, self._offsets, maps["metadata"],
                         self._interner)

    @property
    def size_bytes(self) -> int:
        return (self._store.size_bytes()
                + os.path.getsize(os.path.join(self.directory, LABELS_FILE)))


def _dump_label_map(label_map: dict[Term, list[int]]) -> dict[str, list[int]]:
    return {label.n3(): offsets for label, offsets in label_map.items()}


def _load_label_map(dumped: dict[str, list[int]],
                    thesaurus: "Thesaurus | None") -> LabelIndex:
    return LabelIndex.from_postings(
        ((parse_term(n3), offsets) for n3, offsets in dumped.items()),
        thesaurus)
