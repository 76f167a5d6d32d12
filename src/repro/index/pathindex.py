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
condition.  ``labels.dict`` is the only place a label is spelled:
``maps.json`` keys both label maps by dictionary id.
"""

from __future__ import annotations

import os
from array import array

from ..paths.model import Path
from ..rdf.terms import Term
from ..resilience.errors import IndexCorruptError, StorageError
from ..storage.atomic import (atomic_write_json, read_json_object,
                              sweep_tmp_debris)
from ..storage.bufferpool import BufferPool
from ..storage.pagestore import PageStore
from ..storage.recordfile import RecordFile
from .labels import LABELS_FILE, LabelIndex, LabelInterner, first_tier
from .thesaurus import Thesaurus

_PATHS_FILE = "paths.log"
_MAPS_FILE = "maps.json"
#: 2: the ``sink`` and ``contains`` postings are keyed by ``labels.dict``
#: id.  Version 1 spelled every label key out in N-Triples.
_FORMAT_VERSION = 2
#: The ``maps.json`` key marking label-interned records; an index
#: without it holds a retired record format (inline terms, or the §7
#: term-dictionary codec, marked ``compressed``).
_RECORDS_MARKER = "interned_records"

#: Pages prefetched after a demand miss during record reads.  Records
#: are packed contiguously and cluster retrieval walks offsets in
#: ascending order, so sequential read-ahead turns one-fault-per-path
#: cold scans into one fault per run of pages.
DEFAULT_READ_AHEAD = 8


def post(path: Path, offset: int, sink: LabelIndex,
         contains: LabelIndex) -> None:
    """The posting rule of every index: the path stored at ``offset``
    goes under its sink label in ``sink`` and under each distinct node
    or edge label in ``contains``, by the ``label_ids``/``edge_ids``
    it carries (ids of the maps' dictionary)."""
    sink.add(path.label_ids[-1], offset)
    contains.add_all(set(path.label_ids).union(path.edge_ids), offset)


class RecordReader:
    """The read half every record-log index shares.

    Decodes records of ``paths.log`` in the index's ``labels.dict``
    (:meth:`LabelInterner.decode_path`), caches each decoded path,
    counts the decodes, answers the two label lookups, and exposes the
    log's page store and its counters.  :class:`PathIndex` reads a
    finished log through it;
    :class:`~repro.index.incremental.IncrementalIndex` reads the log it
    is still appending to.  Subclasses provide ``all_offsets()`` and
    the ``_sink_index``/``_contains_index`` label maps.
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

    # -- lookups ------------------------------------------------------------------

    def offsets_with_sink(self, label: Term, semantic: bool = True) -> list[int]:
        """Offsets of paths whose sink matches ``label``."""
        return sorted(first_tier([self.sink_tiers(label, semantic)])[0])

    def offsets_containing(self, label: Term, semantic: bool = True) -> list[int]:
        """Offsets of paths containing a label matching ``label``."""
        return sorted(first_tier([self.containing_tiers(label, semantic)])[0])

    def sink_tiers(self, label: Term, semantic: bool = True):
        """The match tiers behind :meth:`offsets_with_sink`
        (:meth:`LabelIndex.tiers`); a sharded index decides the tier
        over all its shards at once."""
        return self._tiers(self._sink_index, label, semantic)

    def containing_tiers(self, label: Term, semantic: bool = True):
        """The match tiers behind :meth:`offsets_containing`."""
        return self._tiers(self._contains_index, label, semantic)

    def _tiers(self, labels: LabelIndex, label: Term, semantic: bool):
        return labels.tiers(label, semantic)

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
        maps = _read_maps(maps_path, directory)
        if interner is None:
            labels_path = os.path.join(directory, LABELS_FILE)
            try:
                interner = LabelInterner.load(labels_path)
            except Exception as exc:  # missing, torn or not a dictionary
                raise IndexCorruptError(
                    f"cannot read {labels_path}: {exc}") from exc
        try:
            offsets = array("q", maps["offsets"])
            stored = set(offsets)
            # pop: the parsed JSON lists are the open-time memory peak.
            sink, contains = (
                LabelIndex(interner, thesaurus,
                           _postings(maps.pop(name), len(interner), stored))
                for name in ("sink", "contains"))
        except (TypeError, ValueError, OverflowError) as exc:
            raise IndexCorruptError(f"{maps_path}: {exc}") from exc
        paths_log = os.path.join(directory, _PATHS_FILE)
        store = None
        try:
            if not os.path.exists(paths_log):  # PageStore would create it
                raise StorageError("no such file")
            store = PageStore(paths_log, page_size=maps["page_size"],
                              read_latency=read_latency)
            records = RecordFile(store, BufferPool(
                store, capacity=pool_capacity, read_ahead=read_ahead))
        except StorageError as exc:
            if store is not None:
                store.close()
            raise IndexCorruptError(
                f"cannot open {paths_log}: {exc}") from exc
        return cls(directory, records, sink, contains, offsets,
                   maps["metadata"], interner)

    # -- lookups ------------------------------------------------------------------

    @property
    def path_count(self) -> int:
        return len(self._offsets)

    def all_offsets(self) -> list[int]:
        return list(self._offsets)

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
        # ``interner`` lets several writers share one global label
        # dictionary (the sharded build); each writer still persists
        # the full dictionary so its directory stays self-contained.
        self._interner = interner if interner is not None else LabelInterner()
        self._sink_index = LabelIndex(self._interner, thesaurus)
        self._contains_index = LabelIndex(self._interner, thesaurus)
        self._offsets = array("q")

    def add_path(self, path: Path) -> int:
        """Store one path; returns its offset.  Label ids already on
        ``path`` must be this writer's dictionary's."""
        self._interner.intern_path(path)
        offset = self._records.append(self._interner.encode_path(path))
        self._offsets.append(offset)
        post(path, offset, self._sink_index, self._contains_index)
        return offset

    def finish(self, metadata: "dict | None" = None) -> PathIndex:
        """Flush, persist the maps, and return the opened index."""
        self._records.seal()
        maps = {
            "version": _FORMAT_VERSION,
            "metadata": metadata or {},
            "page_size": self._store.page_size,
            _RECORDS_MARKER: True,
            "offsets": self._offsets.tolist(),
            "sink": _dump_postings(self._sink_index),
            "contains": _dump_postings(self._contains_index),
        }
        self._interner.save(os.path.join(self.directory, LABELS_FILE))
        # maps.json is the file that makes the directory an index; write
        # it atomically so a crash here leaves either no index or a
        # complete one, never a torn manifest.
        atomic_write_json(os.path.join(self.directory, _MAPS_FILE), maps)
        return PathIndex(self.directory, self._records, self._sink_index,
                         self._contains_index, self._offsets,
                         maps["metadata"], self._interner)


def _dump_postings(index: LabelIndex) -> "dict[str, list[int]]":
    return {str(label_id): entries.tolist()
            for label_id, entries in index.postings.items()}


def _read_maps(maps_path: str, directory: str) -> dict:
    """The parsed ``maps.json``: its format checked, and every key an
    open reads there with its JSON type."""
    maps = read_json_object(maps_path)
    if (maps.get("version") != _FORMAT_VERSION or maps.get("compressed")
            or maps.get(_RECORDS_MARKER) is not True):
        raise IndexCorruptError(
            f"{directory} holds an index in a retired format (version "
            f"{maps.get('version')!r}); rebuild it with `sama index build`")
    for key, kind in (("metadata", dict), ("page_size", int),
                      ("offsets", list), ("sink", dict), ("contains", dict)):
        if type(maps.get(key)) is not kind:
            raise IndexCorruptError(
                f"{maps_path}: {key!r} is not a JSON {kind.__name__}")
    return maps


def _postings(dumped: dict, label_count: int,
              stored: set) -> "dict[int, array]":
    """A dumped label map: each key the decimal id of one of the
    ``label_count`` labels of ``labels.dict``, each posting a list of
    offsets of ``stored`` paths.  (``array`` refuses anything but a
    list of ints; a bool reads as 0 or 1, which no record starts at.)"""
    postings = {}
    for key, entries in dumped.items():
        if not (key.isascii() and key.isdigit() and str(int(key)) == key
                and int(key) < label_count):
            raise ValueError(f"key {key!r} is not the id of one of the "
                             f"{label_count} labels of {LABELS_FILE}")
        posting = array("q", entries)
        if not posting or not stored.issuperset(posting):
            raise ValueError(f"posting {key} names a record not stored")
        postings[int(key)] = posting
    return postings
