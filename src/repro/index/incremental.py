"""Incremental index maintenance (the paper's §7 future work).

The paper's index is built offline and its §7 lists "optimization
techniques to speed-up the creation and the update of the index" as
future work.  This module implements the update half: an
:class:`IncrementalIndex` keeps a data graph and its path index in
sync under triple insertions and removals without rebuilding from
scratch.

The invalidation rule is root-based.  Inserting an edge ``u → v`` can
only change source-to-sink paths that pass through ``u`` (including
paths that used to *end* at ``u`` when it was a sink) or that start at
a root whose walks can now continue through the new edge.  Those are
exactly the paths whose root can reach ``u`` in the updated graph, so:

1. find the affected roots — sources that reach ``u`` backwards, plus
   ``u`` itself if it just became a source, minus ``v`` if it just
   stopped being one;
2. tombstone every stored path rooted there;
3. re-extract paths from those roots over the updated graph and append
   them to the (unsealed) record log.

Removing ``u → v`` follows the same rule over the graph without the
edge.  Graphs without sources (hub-promoted roots) fall back to a full
re-extraction: hub identity is a global property, so locality is lost
— the fallback is correct, just not incremental (reported via stats).

The class exposes the same lookup surface as
:class:`~repro.index.pathindex.PathIndex` — ``interner`` and the
``label_ids`` on every path it hands out included — so a
:class:`~repro.engine.sama.SamaEngine` runs on it unchanged.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import deque
from dataclasses import dataclass

from ..paths.extraction import (ExtractionLimits, _Budget, _walk_from)
from ..paths.model import Path
from ..rdf.graph import DataGraph
from ..rdf.terms import Term
from ..rdf.triples import Triple
from ..resilience.errors import IndexCorruptError
from ..storage.atomic import atomic_write_json
from ..storage.bufferpool import BufferPool
from ..storage.pagestore import PageStore
from ..storage.recordfile import RecordFile
from .builder import INDEXER_LIMITS
from .labels import LABELS_FILE, LabelIndex, LabelInterner, first_tier
from .thesaurus import Thesaurus, default_thesaurus

#: Sidecar persisting which records of ``paths.log`` are alive (and
#: their roots), so maintenance tools can compact the log without the
#: in-memory index that wrote it.
MANIFEST_FILE = "incremental.json"
#: 2: records are label-interned, decoded through the ``labels.dict``
#: written beside the log.  Version 1 logs held inline-term records.
_MANIFEST_VERSION = 2


@dataclass
class UpdateStats:
    """Counters of incremental maintenance work."""

    triples_added: int = 0
    paths_invalidated: int = 0
    paths_added: int = 0
    full_rebuilds: int = 0
    #: Bytes occupied by tombstoned records (reclaimed by compact()).
    dead_bytes: int = 0

    @property
    def live_efficiency(self) -> float:
        """Fraction of update rounds handled incrementally."""
        total = self.triples_added
        if not total:
            return 1.0
        return 1.0 - self.full_rebuilds / total


class IncrementalIndex:
    """A path index that stays consistent under triple insertions."""

    def __init__(self, graph: DataGraph, directory,
                 limits: ExtractionLimits = INDEXER_LIMITS,
                 thesaurus: "Thesaurus | None" = None,
                 page_size: int = 4096):
        self._init(graph, directory, limits,
                   thesaurus if thesaurus is not None else default_thesaurus(),
                   page_size, LabelInterner(), epoch=0, extract=True)

    def _init(self, graph: DataGraph, directory, limits: ExtractionLimits,
              thesaurus: Thesaurus, page_size: int, interner: LabelInterner,
              epoch: int, extract: bool) -> None:
        """Every field of the index — the constructor and :meth:`compact`
        both come through here."""
        self.graph = graph
        self.directory = directory
        self.limits = limits
        self.thesaurus = thesaurus
        self.stats = UpdateStats()
        os.makedirs(directory, exist_ok=True)
        store = PageStore(os.path.join(os.fspath(directory), "paths.log"),
                          page_size=page_size)
        self._records = RecordFile(store, BufferPool(store))
        self._sink_index = LabelIndex(self.thesaurus)
        self._contains_index = LabelIndex(self.thesaurus)
        self._alive: set[int] = set()
        self._record_size: dict[int, int] = {}
        self._root_of: dict[int, int] = {}          # offset -> root node id
        self._offsets_by_root: dict[int, set[int]] = {}
        self._decoded: dict[int, Path] = {}
        self._hub_mode = not graph.sources() and graph.node_count() > 0
        #: The label dictionary: every stored path carries ``label_ids``
        #: from it (the χ operand of the search, like any built index).
        #: Ids are append-only, so a stored row never changes; only the
        #: writer — an update round — assigns new ones, readers only
        #: look labels up.
        self.interner = interner
        #: Data version: +1 per effective update round and per
        #: compaction, never down.  It keys the serving cache, the
        #: sidecars and the engine's per-epoch state; construction-time
        #: extraction bumps nothing (epoch 0 is the freshly built index).
        self.epoch = epoch
        if extract:
            self._extract_roots(self.graph.path_roots())

    # -- construction helpers ------------------------------------------------

    def _extract_roots(self, roots) -> None:
        budget = _Budget(self.limits, self.graph)
        budget.emitted = len(self._alive)  # share the global path budget
        for root in roots:
            for path in _walk_from(self.graph, root, budget):
                self._store_path(root, path)

    def _store_path(self, root: int, path: Path) -> None:
        path = self.interner.intern_path(path)
        blob = self.interner.encode_path(path)
        offset = self._records.append(blob)
        self._record_size[offset] = len(blob)
        self._alive.add(offset)
        self._root_of[offset] = root
        self._offsets_by_root.setdefault(root, set()).add(offset)
        self._sink_index.add(path.sink, offset)
        for label in set(path.nodes) | set(path.edges):
            self._contains_index.add(label, offset)
        self._decoded[offset] = path
        self.stats.paths_added += 1

    # -- updates -------------------------------------------------------------------

    def add_triple(self, subject, predicate, object) -> None:
        """Insert one triple and repair the affected paths."""
        triple = Triple.of(subject, predicate, object)
        before_sources = set(self.graph.sources())
        src = self.graph.node_for(triple.subject)
        dst = self.graph.node_for(triple.object)
        edge_count_before = self.graph.edge_count()
        self.graph.add_edge(src, triple.predicate, dst)
        self.stats.triples_added += 1
        if self.graph.edge_count() == edge_count_before:
            return  # duplicate triple: nothing changed
        self._repair(src, before_sources)

    def add_triples(self, rows) -> None:
        for row in rows:
            self.add_triple(*row)

    def remove_triple(self, subject, predicate, object) -> bool:
        """Delete one triple and repair the affected paths.

        Returns False when the triple was not present.  Endpoints
        resolve by label as in :meth:`add_triple`, and the graph is
        edited in place — the endpoints stay as nodes, so the node ids
        stored paths reference never move.
        """
        triple = Triple.of(subject, predicate, object)
        graph = self.graph
        if triple.subject not in graph or triple.object not in graph:
            return False
        src = graph.node_for(triple.subject)
        before_sources = set(graph.sources())
        if not graph.remove_edge(src, triple.predicate,
                                 graph.node_for(triple.object)):
            return False
        self.stats.triples_added += 1  # counts update rounds
        self._repair(src, before_sources)
        return True

    def _repair(self, src: int, before_sources: set[int]) -> None:
        """One update round after an edge leaving ``src`` was added or
        removed: the edge can only change paths whose root reaches
        ``src`` (they run, or ran, through it), plus roots that appear
        or disappear with it (its other end may stop or start being a
        source; ``src`` may be new)."""
        try:
            after_sources = set(self.graph.sources())
            if self._hub_mode or not after_sources:
                # Hub-promoted roots are global; rebuild everything.
                self._hub_mode = not after_sources
                self._full_rebuild()
                return
            affected = self._roots_reaching(src, after_sources)
            affected |= (after_sources - before_sources)
            vanished = before_sources - after_sources
            for root in vanished | affected:
                self._invalidate_root(root)
            self._extract_roots(sorted(affected))
        finally:
            # Bumped last: a read that overlapped the round keyed its
            # result at the old epoch, so the serving engine's re-check
            # keeps it out of the cache.
            self.epoch += 1

    def _roots_reaching(self, node: int, sources: set[int]) -> set[int]:
        """Sources with a directed path to ``node`` (reverse BFS)."""
        seen = {node}
        frontier = deque([node])
        found = set()
        while frontier:
            current = frontier.popleft()
            if current in sources:
                found.add(current)
            for _label, parent in self.graph.in_edges(current):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        if node in sources:
            found.add(node)
        return found

    def _invalidate_root(self, root: int) -> None:
        for offset in self._offsets_by_root.pop(root, set()):
            self._alive.discard(offset)
            self._root_of.pop(offset, None)
            self._decoded.pop(offset, None)
            self.stats.paths_invalidated += 1
            self.stats.dead_bytes += self._record_size.pop(offset, 0)

    def _full_rebuild(self) -> None:
        self.stats.full_rebuilds += 1
        for root in list(self._offsets_by_root):
            self._invalidate_root(root)
        self._sink_index = LabelIndex(self.thesaurus)
        self._contains_index = LabelIndex(self.thesaurus)
        self._decoded.clear()
        self._extract_roots(self.graph.path_roots())

    # -- the PathIndex lookup surface -----------------------------------------------

    @property
    def path_count(self) -> int:
        return len(self._alive)

    def path_at(self, offset: int) -> Path:
        cached = self._decoded.get(offset)
        if cached is None:
            # The record is written in this interner: label_ids come
            # attached straight from it.
            cached = self._decoded[offset] = self.interner.decode_path(
                self._records.read(offset))
        return cached

    def all_offsets(self) -> list[int]:
        return sorted(self._alive)

    def all_paths(self) -> list[Path]:
        return [self.path_at(offset) for offset in self.all_offsets()]

    def _live_lookup(self, labels: LabelIndex, label: Term,
                     semantic: bool) -> list[int]:
        # Tombstoned entries stay in the label maps, so a tier is
        # judged by its live entries: a tier whose every path is dead
        # falls through, as it would in a fresh build.
        alive = self._alive
        tiers = (tier & alive for tier in labels.tiers(label, semantic))
        return sorted(first_tier([tiers])[0])

    def offsets_with_sink(self, label: Term, semantic: bool = True) -> list[int]:
        return self._live_lookup(self._sink_index, label, semantic)

    def offsets_containing(self, label: Term, semantic: bool = True) -> list[int]:
        return self._live_lookup(self._contains_index, label, semantic)

    def clear_cache(self) -> None:
        self._records.pool.clear()
        self._decoded.clear()

    def warm_up(self) -> None:
        for offset in self.all_offsets():
            self.path_at(offset)

    @property
    def io_stats(self):
        return self._records.store.stats

    @property
    def cache_stats(self):
        return self._records.pool.stats

    @property
    def metadata(self) -> dict:
        return {"dataset": self.graph.name, "incremental": True,
                "triples": self.graph.edge_count(), "epoch": self.epoch}

    def close(self) -> None:
        self._records.store.close()

    def __repr__(self):
        return (f"<IncrementalIndex: {self.path_count} live paths, "
                f"{self.stats.paths_invalidated} tombstoned>")

    # -- maintenance -----------------------------------------------------------------

    def compact(self, directory) -> "IncrementalIndex":
        """Vacuum: rewrite only the live paths into a fresh directory.

        The compacted index starts a *new* epoch (record offsets
        change, so anything keyed to the old data version is stale) and
        persists its manifest so disk-level tools can keep maintaining
        it.
        """
        fresh = IncrementalIndex.__new__(IncrementalIndex)
        # The interner carries over: a path keeps the ids of the
        # dictionary that attached them.
        fresh._init(self.graph, directory, self.limits, self.thesaurus,
                    self._records.store.page_size, self.interner,
                    epoch=self.epoch + 1, extract=False)
        for offset in self.all_offsets():
            fresh._store_path(self._root_of[offset], self.path_at(offset))
        fresh.stats = UpdateStats()
        fresh.save_manifest()
        return fresh

    # -- on-disk manifest ---------------------------------------------------------

    def save_manifest(self) -> str:
        """Flush the log and persist the live-record manifest.

        The manifest (``incremental.json``, written atomically) records
        which offsets of ``paths.log`` are alive, their roots, the
        epoch, and the accumulated ``dead_bytes`` — everything
        :func:`compact_directory` needs to vacuum the log offline.  The
        label dictionary the records are written in goes beside it
        (``labels.dict``, also atomic).  Returns the manifest path.
        """
        self._records.sync()
        self.interner.save(os.path.join(os.fspath(self.directory),
                                        LABELS_FILE))
        payload = {
            "version": _MANIFEST_VERSION,
            "epoch": self.epoch,
            "page_size": self._records.store.page_size,
            "dead_bytes": self.stats.dead_bytes,
            "alive": [[offset, self._root_of[offset]]
                      for offset in self.all_offsets()],
        }
        path = os.path.join(os.fspath(self.directory), MANIFEST_FILE)
        atomic_write_json(path, payload)
        return path


@dataclass
class CompactionReport:
    """What :func:`compact_directory` did to an index directory."""

    directory: str
    live_paths: int
    #: Tombstoned record bytes the manifest declared (reclaimed).
    dead_bytes: int
    #: paths.log size before and after the rewrite.
    old_log_bytes: int
    new_log_bytes: int
    #: Persisted ``sketch.bin`` files deleted because the rewrite
    #: renumbered their offsets (rebuild with ``sama index sketch``).
    sketches_invalidated: int = 0
    #: Persisted ``quotient.bin`` files deleted for the same reason
    #: (rebuild with ``sama index quotient``).
    quotients_invalidated: int = 0

    @property
    def reclaimed_bytes(self) -> int:
        return max(0, self.old_log_bytes - self.new_log_bytes)


def _read_manifest(directory) -> dict:
    path = os.path.join(os.fspath(directory), MANIFEST_FILE)
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexCorruptError(
            f"cannot read incremental manifest {path}: {exc}") from exc
    if manifest.get("version") != _MANIFEST_VERSION:
        raise IndexCorruptError(
            f"incremental manifest version {manifest.get('version')!r} "
            f"unsupported (expected {_MANIFEST_VERSION})")
    return manifest


def compact_directory(directory, output=None) -> CompactionReport:
    """Vacuum an incremental index directory on disk.

    Reads the ``incremental.json`` manifest (see
    :meth:`IncrementalIndex.save_manifest`), rewrites only the live
    records into a fresh log beside a copy of the ``labels.dict`` they
    are written in (records move byte for byte), and — when ``output``
    is ``None`` — atomically swaps the compacted directory into place
    (the original is staged aside and removed only after the swap, so
    a crash leaves a complete index under either name, never a torn
    one).

    Persisted sidecars — two-stage sketches (``sketch.bin``,
    :mod:`repro.sketch.store`) and quotient classes (``quotient.bin``,
    :mod:`repro.quotient.store`) — are deleted up front *only when
    compacting in place*: the rewrite renumbers every record offset
    and bumps the epoch, so they are stale the moment compaction
    succeeds.  Deleting early is safe — a crashed compaction leaves
    the old index authoritative and a missing sidecar merely falls
    back to exhaustive scoring (rebuild with ``sama index sketch`` /
    ``sama index quotient``); the epoch key in each sidecar header
    remains the backstop for writers that bypass this path.  With
    ``output`` set the source directory stays authoritative and keeps
    its valid sidecars; the fresh copy simply starts without any.
    """
    from ..quotient.store import QUOTIENT_FILE
    from ..sketch.store import SKETCH_FILE
    from .sidecar import invalidate

    directory = os.fspath(directory)
    manifest = _read_manifest(directory)
    labels_path = os.path.join(directory, LABELS_FILE)
    if not os.path.exists(labels_path):
        raise IndexCorruptError(
            f"{directory} has no {LABELS_FILE} dictionary to decode its "
            f"records")
    in_place = output is None
    invalidated = (invalidate(directory, (SKETCH_FILE, QUOTIENT_FILE))
                   if in_place else {})
    store = PageStore(os.path.join(directory, "paths.log"),
                      page_size=manifest["page_size"])
    records = RecordFile(store, BufferPool(store))
    records.discard_tail()
    old_log_bytes = store.size_bytes()

    target = directory + ".compacting" if in_place else os.fspath(output)
    if os.path.exists(target):
        shutil.rmtree(target)
    os.makedirs(target)
    shutil.copyfile(labels_path, os.path.join(target, LABELS_FILE))
    fresh_store = PageStore(os.path.join(target, "paths.log"),
                            page_size=manifest["page_size"])
    fresh_records = RecordFile(fresh_store, BufferPool(fresh_store))
    alive = []
    for offset, root in manifest["alive"]:
        blob = records.read(offset)
        alive.append([fresh_records.append(blob), root])
    fresh_records.sync()
    new_log_bytes = fresh_store.size_bytes()
    fresh_store.close()
    store.close()
    atomic_write_json(os.path.join(target, MANIFEST_FILE), {
        "version": _MANIFEST_VERSION,
        "epoch": manifest["epoch"] + 1,
        "page_size": manifest["page_size"],
        "dead_bytes": 0,
        "alive": alive,
    })

    final = directory if in_place else target
    if in_place:
        staged = directory + ".pre-compact"
        if os.path.exists(staged):
            shutil.rmtree(staged)
        os.rename(directory, staged)
        os.rename(target, directory)
        shutil.rmtree(staged)
    return CompactionReport(directory=final,
                            live_paths=len(alive),
                            dead_bytes=manifest["dead_bytes"],
                            old_log_bytes=old_log_bytes,
                            new_log_bytes=new_log_bytes,
                            sketches_invalidated=invalidated.get(
                                SKETCH_FILE, 0),
                            quotients_invalidated=invalidated.get(
                                QUOTIENT_FILE, 0))
