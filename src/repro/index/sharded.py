"""The sharded path index: N self-contained shards, one global view.

The single-directory :class:`~repro.index.pathindex.PathIndex` caps
index size and query fan-out on one record log and one buffer pool.
A :class:`ShardedIndex` partitions the stored paths across ``N``
shards by a **stable hash of the path's sorted label-id signature**
(the set of dense label ids of its nodes and edges, sorted — a
partition-stable signature in the spirit of bisimulation-style label
signatures).  Each shard is a complete, self-contained
:class:`PathIndex` directory — its own ``paths.log``, label maps,
buffer pool and ``labels.dict`` — except that every shard's label
dictionary is the *same global* :class:`~repro.index.labels.LabelInterner`,
so dense label ids mean the same thing in every shard and χ/ψ
downstream never re-intern.

Layout::

    index-dir/
      manifest.json        # kind, shard count, hash seed, per-shard epochs,
                           # per-shard global-id lists  (atomic write)
      shard-00/            # a full PathIndex directory
      shard-01/
      ...

Determinism is the load-bearing property.  Build order assigns every
path a **global id** (gid) in the exact order the unsharded builder
walks paths; because the unsharded index stores paths in that same
order, its byte offsets are monotone in gid.  Query-time lookups
return *gids* in sorted order — the same candidate order the unsharded
index produces — and the engine's cluster sort key ``(λ, gid)``
therefore reproduces the unsharded ``(λ, offset)`` order exactly:
rankings are bit-identical at any shard count (asserted by
``benchmarks/bench_sharding.py`` and ``tests/test_sharded.py``).

Example (two shards over the Fig. 1 US-Congress graph)::

    >>> import tempfile
    >>> from repro.datasets.govtrack import govtrack_graph
    >>> from repro.index.sharded import ShardedIndex, build_sharded_index
    >>> directory = tempfile.mkdtemp(prefix="sama-sharded-")
    >>> index, stats = build_sharded_index(govtrack_graph(), directory,
    ...                                    shards=2)
    >>> index.shard_count
    2
    >>> index.path_count == sum(s.path_count for s in index.shards)
    True
    >>> reopened = ShardedIndex.open(directory)
    >>> reopened.epoch_vector
    (0, 0)
    >>> reopened.all_offsets() == list(range(reopened.path_count))
    True
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Iterable

from ..paths.extraction import ExtractionLimits, _Budget, _walk_from
from ..paths.model import Path
from ..rdf.graph import DataGraph
from ..rdf.terms import Term
from ..resilience.errors import (IndexCorruptError, ShardUnavailableError,
                                 StorageError)
from ..resilience.health import BreakerConfig, ShardHealth
from ..storage.atomic import atomic_write_json, sweep_tmp_debris
from .builder import INDEXER_LIMITS, IndexStats
from .labels import LabelInterner
from .pathindex import DEFAULT_READ_AHEAD, PathIndex, PathIndexWriter
from .thesaurus import Thesaurus, default_thesaurus

MANIFEST_FILE = "manifest.json"
_MANIFEST_VERSION = 1
_MANIFEST_KIND = "sharded"

_FNV_OFFSET = 0xcbf29ce484222325
_FNV_PRIME = 0x100000001b3
_FNV_MASK = (1 << 64) - 1


def signature_hash(label_ids: Iterable[int], seed: int = 0) -> int:
    """FNV-1a (64-bit) over the sorted, de-duplicated ``label_ids``.

    Python's builtin ``hash`` is salted per process; this one is stable
    across processes and platforms, so a path always lands on the same
    shard no matter who computes the route.  ``seed`` perturbs the
    initial basis (recorded in the manifest) so two sharded indexes can
    deliberately partition differently.
    """
    value = (_FNV_OFFSET ^ (seed & _FNV_MASK)) & _FNV_MASK
    for label_id in sorted(set(label_ids)):
        # Mix each id byte-by-byte, LSB first (ids are small ints).
        if label_id < 0:
            label_id = -label_id * 2 + 1
        while True:
            value ^= label_id & 0xFF
            value = (value * _FNV_PRIME) & _FNV_MASK
            label_id >>= 8
            if not label_id:
                break
    return value


def shard_of(path: Path, interner: LabelInterner, shard_count: int,
             seed: int = 0) -> int:
    """The owning shard of ``path``: hash of its label-id signature.

    The signature covers node *and* edge labels (both are interned
    through the shared global dictionary), so structurally similar
    paths co-locate and the route needs nothing but the path itself.
    """
    if shard_count <= 1:
        return 0
    ids = [interner.intern(node) for node in path.nodes]
    ids.extend(interner.intern(edge) for edge in path.edges)
    return signature_hash(ids, seed) % shard_count


def shard_dir(directory, shard: int) -> str:
    return os.path.join(os.fspath(directory), f"shard-{shard:02d}")


def is_sharded_dir(directory) -> bool:
    """True when ``directory`` holds a sharded-index manifest.

    Only a genuinely *absent* manifest means "not sharded".  A manifest
    that exists but cannot be read or parsed is diagnosed as
    :class:`IndexCorruptError` — silently answering ``False`` here used
    to make dispatch code fall through to :class:`PathIndex`, which
    then failed on the missing ``maps.json`` with an error pointing at
    entirely the wrong file.
    """
    path = os.path.join(os.fspath(directory), MANIFEST_FILE)
    if not os.path.exists(path):
        return False
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        return False          # raced away between exists() and open()
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexCorruptError(
            f"shard manifest {path} exists but is unreadable: {exc} "
            f"— restore it from a replica or rebuild the index") from exc
    return manifest.get("kind") == _MANIFEST_KIND


def _write_manifest(directory, shards: int, hash_seed: int,
                    epochs: list, gids: list, metadata: dict) -> None:
    atomic_write_json(os.path.join(os.fspath(directory), MANIFEST_FILE), {
        "version": _MANIFEST_VERSION,
        "kind": _MANIFEST_KIND,
        "shards": shards,
        "hash_seed": hash_seed,
        "epochs": list(epochs),
        "gids": [list(shard_gids) for shard_gids in gids],
        "metadata": metadata or {},
    })


def _read_manifest(directory) -> dict:
    path = os.path.join(os.fspath(directory), MANIFEST_FILE)
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexCorruptError(
            f"cannot read shard manifest {path}: {exc}") from exc
    if manifest.get("version") != _MANIFEST_VERSION \
            or manifest.get("kind") != _MANIFEST_KIND:
        raise IndexCorruptError(
            f"{path} is not a sharded-index manifest "
            f"(kind {manifest.get('kind')!r}, "
            f"version {manifest.get('version')!r})")
    if len(manifest.get("gids", [])) != manifest.get("shards"):
        raise IndexCorruptError(
            f"{path}: gid lists do not match the shard count")
    return manifest


class _AggregateIO:
    """A live read-only view summing per-shard physical I/O counters."""

    __slots__ = ("_shards",)

    def __init__(self, shards: list):
        self._shards = shards

    @property
    def page_reads(self) -> int:
        return sum(s.io_stats.page_reads for s in self._shards)

    @property
    def page_writes(self) -> int:
        return sum(s.io_stats.page_writes for s in self._shards)

    @property
    def read_seconds(self) -> float:
        return sum(s.io_stats.read_seconds for s in self._shards)


class _AggregateCache:
    """A live read-only view summing per-shard buffer-pool counters."""

    __slots__ = ("_shards",)

    def __init__(self, shards: list):
        self._shards = shards

    @property
    def hits(self) -> int:
        return sum(s.cache_stats.hits for s in self._shards)

    @property
    def misses(self) -> int:
        return sum(s.cache_stats.misses for s in self._shards)

    @property
    def prefetches(self) -> int:
        return sum(s.cache_stats.prefetches for s in self._shards)

    @property
    def retries(self) -> int:
        return sum(s.cache_stats.retries for s in self._shards)


class _ZeroShardStats:
    """Stats stand-in for a quarantined shard (all counters zero)."""

    page_reads = 0
    page_writes = 0
    read_seconds = 0.0
    hits = 0
    misses = 0
    prefetches = 0
    retries = 0


class QuarantinedShard:
    """Placeholder occupying a damaged shard's slot in the shard list.

    Produced by ``ShardedIndex.open(..., on_damage="quarantine")`` when
    the startup recovery scan finds a shard it cannot serve (unreadable
    ``maps.json``, record count disagreeing with the manifest, first
    record failing to decode).  It keeps the shard *numbering* intact —
    gid routing, the epoch vector and the health board all index by
    shard number — while answering like a shard that has nothing:
    lookups return no candidates, and any attempt to actually decode a
    record raises :class:`ShardUnavailableError` so the scatter-gather
    layer degrades the query with ``SHARD_FAILED`` instead of serving
    silently wrong bytes.
    """

    quarantined = True
    page_store = None
    decode_count = 0
    path_count = 0

    def __init__(self, directory, shard_no: int, reason: str):
        self.directory = os.fspath(directory)
        self.shard_no = shard_no
        self.reason = reason
        self._stats = _ZeroShardStats()

    def all_offsets(self) -> list:
        return []

    def offsets_with_sink(self, label, semantic: bool = True) -> list:
        return []

    def offsets_containing(self, label, semantic: bool = True) -> list:
        return []

    def path_at(self, offset: int):
        raise ShardUnavailableError(
            f"shard {self.shard_no} ({self.directory}) is quarantined: "
            f"{self.reason}", shard=self.shard_no)

    def close(self) -> None:
        pass

    def clear_cache(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    @property
    def io_stats(self):
        return self._stats

    @property
    def cache_stats(self):
        return self._stats

    def __repr__(self):
        return (f"<QuarantinedShard {self.shard_no} "
                f"({self.directory!r}): {self.reason}>")


def _probe_shard(shard: PathIndex, expected_records: int) -> str:
    """Recovery-scan validation of one opened shard; "" when healthy."""
    try:
        offsets = shard.all_offsets()
        if len(offsets) != expected_records:
            return (f"holds {len(offsets)} records but the manifest "
                    f"maps {expected_records} gids")
        if offsets:
            # Decode one record end-to-end (page read, checksum,
            # deserialise) so a torn log fails here, not mid-query.
            shard.path_at(offsets[0])
    except (StorageError, IndexCorruptError, OSError) as exc:
        return f"probe read failed: {exc}"
    return ""


class ShardedIndex:
    """N :class:`PathIndex` shards behind the one-index lookup surface.

    Lookups speak **global ids** (gids) where a :class:`PathIndex`
    speaks byte offsets: ``all_offsets`` / ``offsets_with_sink`` /
    ``offsets_containing`` return sorted gids and :meth:`path_at` takes
    one, so every consumer of the single-shard surface (clustering,
    the serving layer, ``sama inspect``) runs on a sharded index
    unchanged.  The scatter-gather fast path in
    :func:`repro.engine.clustering.build_clusters` additionally uses
    :meth:`locate` and :attr:`shards` to fan decode + alignment out
    with one task per shard.
    """

    is_sharded = True

    def __init__(self, directory, shards: list[PathIndex],
                 interner: LabelInterner, hash_seed: int,
                 epochs: list[int], gids: list[list[int]],
                 metadata: "dict | None" = None,
                 health: "ShardHealth | None" = None):
        self.directory = os.fspath(directory)
        self.shards = shards
        self.interner = interner
        self.hash_seed = hash_seed
        self._epochs = list(epochs)
        self.metadata = dict(metadata or {})
        # gid -> (shard, local offset); shard-local offset -> gid.
        total = sum(len(shard_gids) for shard_gids in gids)
        self._locate: list[tuple[int, int]] = [(-1, -1)] * total
        self._gid_of: list[dict[int, int]] = []
        for shard_no, (shard, shard_gids) in enumerate(zip(shards, gids)):
            mapping: dict = {}
            if getattr(shard, "quarantined", False):
                # The records are unreadable, so local offsets are
                # unknown; the gids still route here (offset -1) so a
                # candidate that lands on this shard raises
                # ShardUnavailableError instead of silently vanishing.
                for gid in shard_gids:
                    self._locate[gid] = (shard_no, -1)
                self._gid_of.append(mapping)
                continue
            offsets = shard.all_offsets()
            if len(offsets) != len(shard_gids):
                raise IndexCorruptError(
                    f"shard {shard_no} of {self.directory} holds "
                    f"{len(offsets)} records but the manifest maps "
                    f"{len(shard_gids)} gids")
            for offset, gid in zip(offsets, shard_gids):
                mapping[offset] = gid
                self._locate[gid] = (shard_no, offset)
            self._gid_of.append(mapping)
        self._io = _AggregateIO(shards)
        self._cache = _AggregateCache(shards)
        #: Per-shard circuit breakers; the scatter-gather layer consults
        #: this board before dispatch and reports outcomes back to it.
        self.health = health or ShardHealth(len(shards))
        for shard_no, shard in enumerate(shards):
            if getattr(shard, "quarantined", False):
                self.health.quarantine(shard_no, shard.reason)

    # -- opening ---------------------------------------------------------------

    @classmethod
    def open(cls, directory, thesaurus: "Thesaurus | None" = None,
             read_latency: float = 0.0,
             pool_capacity: int = 4096,
             read_ahead: int = DEFAULT_READ_AHEAD,
             on_damage: str = "raise",
             breaker_config: "BreakerConfig | None" = None
             ) -> "ShardedIndex":
        """Open a sharded index previously persisted under ``directory``.

        The global label dictionary is loaded from the first healthy
        shard (every shard persisted an identical copy) and shared
        across all shards, so dense ids agree globally.

        ``on_damage`` picks the recovery policy when a shard is found
        damaged (unreadable metadata, record count disagreeing with the
        manifest, first record failing a probe decode):

        - ``"raise"`` (default): propagate the corruption error — the
          index does not open.  Right for builds and offline tools,
          where partial data is a bug.
        - ``"quarantine"``: substitute a :class:`QuarantinedShard`,
          mark it quarantined on the :class:`ShardHealth` board, and
          open anyway — the serving path, where answering from the
          surviving shards beats refusing to start.  The sharded-level
          manifest itself has no fallback: without it there is no gid
          routing, so a damaged top-level manifest always raises.
        """
        if on_damage not in ("raise", "quarantine"):
            raise ValueError(f"on_damage must be 'raise' or 'quarantine', "
                             f"got {on_damage!r}")
        directory = os.fspath(directory)
        sweep_tmp_debris(directory)
        manifest = _read_manifest(directory)
        shard_count = manifest["shards"]
        gid_lists = manifest["gids"]
        quarantining = on_damage == "quarantine"
        interner: "LabelInterner | None" = None
        shards: list = []
        for shard_no in range(shard_count):
            location = shard_dir(directory, shard_no)
            try:
                shard = PathIndex.open(
                    location, thesaurus=thesaurus,
                    read_latency=read_latency, pool_capacity=pool_capacity,
                    read_ahead=read_ahead, interner=interner)
            except (IndexCorruptError, StorageError, OSError) as exc:
                if not quarantining:
                    raise
                shards.append(QuarantinedShard(location, shard_no, str(exc)))
                continue
            if quarantining:
                problem = _probe_shard(shard, len(gid_lists[shard_no]))
                if problem:
                    shard.close()
                    shards.append(QuarantinedShard(location, shard_no,
                                                   problem))
                    continue
            if interner is None:
                # First healthy shard: its labels.dict becomes the
                # shared global dictionary (all copies are identical).
                interner = shard.interner
            shards.append(shard)
        if interner is None:
            raise IndexCorruptError(
                f"every shard of {directory} is damaged; nothing to serve")
        return cls(directory, shards, interner,
                   hash_seed=manifest.get("hash_seed", 0),
                   epochs=manifest.get("epochs", [0] * shard_count),
                   gids=gid_lists,
                   metadata=manifest.get("metadata", {}),
                   health=ShardHealth(shard_count, breaker_config))

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- data version ----------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def epoch(self) -> int:
        """Scalar data version: the sum of per-shard epochs (monotone)."""
        return sum(self._epochs)

    @property
    def epoch_vector(self) -> tuple:
        """Per-shard epochs — the serving cache's composite key part."""
        return tuple(self._epochs)

    # -- the PathIndex lookup surface (over gids) ------------------------------

    @property
    def path_count(self) -> int:
        return len(self._locate)

    def locate(self, gid: int) -> tuple[int, int]:
        """(shard number, shard-local offset) storing global id ``gid``."""
        return self._locate[gid]

    def path_at(self, gid: int) -> Path:
        shard_no, offset = self._locate[gid]
        return self.shards[shard_no].path_at(offset)

    def all_offsets(self) -> list[int]:
        """Every gid, ascending — global build-walk order."""
        return list(range(len(self._locate)))

    def all_paths(self) -> list[Path]:
        return [self.path_at(gid) for gid in self.all_offsets()]

    def _gather(self, per_shard: "list[list[int]]") -> list[int]:
        gids = []
        for shard_no, offsets in enumerate(per_shard):
            mapping = self._gid_of[shard_no]
            gids.extend(mapping[offset] for offset in offsets)
        gids.sort()
        return gids

    def offsets_with_sink(self, label: Term, semantic: bool = True) -> list[int]:
        """Gids of paths whose sink matches ``label`` (sorted)."""
        return self._gather([shard.offsets_with_sink(label, semantic)
                             for shard in self.shards])

    def offsets_containing(self, label: Term, semantic: bool = True) -> list[int]:
        """Gids of paths containing a label matching ``label`` (sorted)."""
        return self._gather([shard.offsets_containing(label, semantic)
                             for shard in self.shards])

    def group_by_shard(self, gids: "list[int]") -> "list[list[tuple[int, int]]]":
        """Partition ``gids`` into per-shard ``(gid, local offset)`` lists.

        Within each shard the input order (ascending gids) is kept, so
        a per-shard worker that scores its list and sorts by
        ``(score, gid)`` feeds a deterministic k-way merge.
        """
        groups: "list[list[tuple[int, int]]]" = \
            [[] for _ in range(self.shard_count)]
        locate = self._locate
        for gid in gids:
            shard_no, offset = locate[gid]
            groups[shard_no].append((gid, offset))
        return groups

    # -- cache control / stats -------------------------------------------------

    def clear_cache(self) -> None:
        for shard in self.shards:
            shard.clear_cache()

    def warm_up(self) -> None:
        for shard in self.shards:
            shard.warm_up()

    @property
    def decode_count(self) -> int:
        return sum(shard.decode_count for shard in self.shards)

    @property
    def io_stats(self):
        """Aggregate physical I/O over all shards (live view)."""
        return self._io

    @property
    def cache_stats(self):
        """Aggregate buffer-pool counters over all shards (live view)."""
        return self._cache

    def __repr__(self):
        return (f"<ShardedIndex {self.directory!r}: {self.shard_count} "
                f"shards, {self.path_count} paths, "
                f"epochs {self._epochs}>")


def build_sharded_index(graph: DataGraph, directory, shards: int,
                        limits: ExtractionLimits = INDEXER_LIMITS,
                        thesaurus: "Thesaurus | None" = None,
                        use_default_thesaurus: bool = True,
                        page_size: int = 4096,
                        hash_seed: int = 0) -> tuple[ShardedIndex, IndexStats]:
    """Build a sharded path index of ``graph`` under ``directory``.

    Runs the same three build steps as
    :func:`repro.index.builder.build_index` — hash labels, find
    sources/sinks, walk paths — but routes each path to
    ``shard_of(path) = signature_hash % shards`` while assigning gids
    in the exact walk order the unsharded builder uses, which is what
    makes sharded rankings bit-identical to unsharded ones.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if thesaurus is None and use_default_thesaurus:
        thesaurus = default_thesaurus()
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    stats = IndexStats(dataset=graph.name or "<anonymous>")
    total_started = time.perf_counter()

    # Step (i): hash all vertex and edge labels.
    step_started = time.perf_counter()
    labels: set[Term] = set(graph.node_labels())
    labels.update(graph.edge_labels())
    stats.label_count = len(labels)
    stats.step_seconds["hash_labels"] = time.perf_counter() - step_started

    # Step (ii): identify sources and sinks.
    step_started = time.perf_counter()
    sources = graph.sources()
    sinks = graph.sinks()
    roots = sources if sources else graph.hubs()
    stats.source_count = len(roots)
    stats.sink_count = len(sinks)
    stats.step_seconds["find_sources_sinks"] = time.perf_counter() - step_started

    # Step (iii): walk the paths in build order, routing each to its
    # owning shard.  One global interner backs every shard's writer, so
    # the persisted labels.dict is identical across shards.
    step_started = time.perf_counter()
    interner = LabelInterner()
    writers = [PathIndexWriter(shard_dir(directory, shard_no),
                               thesaurus=thesaurus, page_size=page_size,
                               interner=interner)
               for shard_no in range(shards)]
    gids: list[list[int]] = [[] for _ in range(shards)]
    budget = _Budget(limits, graph)
    gid = 0
    for root in roots:
        for path in _walk_from(graph, root, budget):
            owner = shard_of(path, interner, shards, hash_seed)
            writers[owner].add_path(path)
            gids[owner].append(gid)
            gid += 1
    stats.truncated = budget.truncated
    stats.step_seconds["compute_paths"] = time.perf_counter() - step_started

    stats.triple_count = graph.edge_count()
    stats.hv_count = graph.node_count()
    stats.path_count = budget.emitted
    stats.he_count = budget.emitted
    metadata = {
        "dataset": stats.dataset,
        "triples": stats.triple_count,
        "hv": stats.hv_count,
        "he": stats.he_count,
        "truncated": stats.truncated,
        "shards": shards,
    }
    opened = [writer.finish(metadata=dict(metadata, shard=shard_no))
              for shard_no, writer in enumerate(writers)]
    # The manifest is what makes the directory a sharded index; written
    # atomically last, so a crash mid-build leaves either no index or a
    # complete one.
    _write_manifest(directory, shards, hash_seed,
                    epochs=[0] * shards, gids=gids, metadata=metadata)
    stats.size_bytes = sum(writer.size_bytes for writer in writers)
    stats.build_seconds = time.perf_counter() - total_started
    index = ShardedIndex(directory, opened, interner, hash_seed,
                         epochs=[0] * shards, gids=gids, metadata=metadata)
    return index, stats


def reshard(directory, shards: int, output=None,
            hash_seed: "int | None" = None,
            thesaurus: "Thesaurus | None" = None) -> ShardedIndex:
    """Re-partition an existing index directory into ``shards`` shards.

    Reads the source index (sharded or single-directory) in global-id
    order — so gids, and therefore rankings, are preserved — and
    rewrites it as a sharded layout.  With ``output=None`` the new
    layout atomically replaces ``directory`` (staged build + directory
    swap, same crash contract as compaction); epochs restart at zero
    because the byte-level layout changed and nothing keyed to the old
    data version survives the swap.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    directory = os.fspath(directory)
    if thesaurus is None:
        thesaurus = default_thesaurus()
    if is_sharded_dir(directory):
        source = ShardedIndex.open(directory, thesaurus=thesaurus)
        if hash_seed is None:
            hash_seed = source.hash_seed
    else:
        source = PathIndex.open(directory, thesaurus=thesaurus)
        if hash_seed is None:
            hash_seed = 0
    in_place = output is None
    target = directory + ".resharding" if in_place else os.fspath(output)
    if os.path.exists(target):
        shutil.rmtree(target)
    os.makedirs(target)
    try:
        interner = LabelInterner()
        writers = [PathIndexWriter(shard_dir(target, shard_no),
                                   thesaurus=thesaurus, interner=interner)
                   for shard_no in range(shards)]
        gids: list[list[int]] = [[] for _ in range(shards)]
        metadata = dict(source.metadata, shards=shards)
        for gid, source_id in enumerate(source.all_offsets()):
            path = source.path_at(source_id)
            owner = shard_of(path, interner, shards, hash_seed)
            writers[owner].add_path(path)
            gids[owner].append(gid)
        opened = [writer.finish(metadata=dict(metadata, shard=shard_no))
                  for shard_no, writer in enumerate(writers)]
        for shard in opened:
            shard.close()
        _write_manifest(target, shards, hash_seed,
                        epochs=[0] * shards, gids=gids, metadata=metadata)
    finally:
        source.close()

    final = directory if in_place else target
    if in_place:
        staged = directory + ".pre-reshard"
        if os.path.exists(staged):
            shutil.rmtree(staged)
        os.rename(directory, staged)
        os.rename(target, directory)
        shutil.rmtree(staged)
    return ShardedIndex.open(final, thesaurus=thesaurus)
