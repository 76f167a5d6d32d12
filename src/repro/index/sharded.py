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
      manifest.json        # kind, shard count, per-shard
                           # global-id lists  (atomic write)
      shard-00/            # a full PathIndex directory
      shard-01/
      ...

Determinism is the load-bearing property.  Build order assigns every
path a **global id** (gid) in the exact order the unsharded builder
walks paths; because the unsharded index stores paths in that same
order, its byte offsets are monotone in gid.  Query-time lookups
pick one label-match tier for the whole index (an exact hit on any
shard beats token matches on all of them) and return *gids* in sorted
order — exactly the unsharded index's candidates, in its order — and
the engine's cluster sort key ``(λ, gid)``
therefore reproduces the unsharded ``(λ, offset)`` order exactly:
rankings are bit-identical at any shard count (asserted by
``benchmarks/bench_sharding.py`` and ``tests/test_sharded.py``).

Example (two shards over the Fig. 1 US-Congress graph)::

    >>> import tempfile
    >>> from repro.datasets.govtrack import govtrack_graph
    >>> from repro.index import ShardedIndex, build_index
    >>> directory = tempfile.mkdtemp(prefix="sama-sharded-")
    >>> index, stats = build_index(govtrack_graph(), directory, shards=2)
    >>> index.shard_count
    2
    >>> index.path_count == sum(s.path_count for s in index.shards)
    True
    >>> reopened = ShardedIndex.open(directory)
    >>> reopened.epoch
    0
    >>> reopened.all_offsets() == list(range(reopened.path_count))
    True
"""

from __future__ import annotations

import json
import os
from typing import Iterable

from ..paths.model import Path
from ..rdf.terms import Term
from ..resilience.errors import (IndexCorruptError, ShardUnavailableError,
                                 StorageError)
from ..resilience.health import BreakerConfig, ShardHealth
from ..storage.atomic import (atomic_write_json, rewritten_directory,
                              sweep_tmp_debris)
from .labels import LabelInterner, first_tier
from .pathindex import DEFAULT_READ_AHEAD, PathIndex, PathIndexWriter
from .thesaurus import Thesaurus, default_thesaurus

MANIFEST_FILE = "manifest.json"
_MANIFEST_VERSION = 1
_MANIFEST_KIND = "sharded"

_FNV_OFFSET = 0xcbf29ce484222325
_FNV_PRIME = 0x100000001b3
_FNV_MASK = (1 << 64) - 1


def signature_hash(label_ids: Iterable[int]) -> int:
    """FNV-1a (64-bit) over the sorted, de-duplicated ``label_ids``.

    Python's builtin ``hash`` is salted per process; this one is stable
    across processes and platforms, so a path always lands on the same
    shard no matter who computes the route.
    """
    value = _FNV_OFFSET
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


def shard_of(path: Path, interner: LabelInterner, shard_count: int) -> int:
    """The owning shard of ``path``: hash of its label-id signature.

    The signature covers node *and* edge labels (both are interned
    through the shared global dictionary), so structurally similar
    paths co-locate and the route needs nothing but the path itself.
    """
    if shard_count <= 1:
        return 0
    ids = [interner.intern(node) for node in path.nodes]
    ids.extend(interner.intern(edge) for edge in path.edges)
    return signature_hash(ids) % shard_count


def shard_dir(directory, shard: int) -> str:
    return os.path.join(os.fspath(directory), f"shard-{shard:02d}")


def _load_manifest(directory) -> "dict | None":
    """The parsed manifest of ``directory``; ``None`` when it has none.

    Only a genuinely *absent* manifest means "not sharded".  A manifest
    that exists but cannot be read or parsed is diagnosed as
    :class:`IndexCorruptError` — silently answering "not sharded" used
    to make dispatch code fall through to :class:`PathIndex`, which
    then failed on the missing ``maps.json`` with an error pointing at
    entirely the wrong file.
    """
    path = os.path.join(os.fspath(directory), MANIFEST_FILE)
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexCorruptError(
            f"shard manifest {path} exists but is unreadable: {exc} "
            f"— restore it from a replica or rebuild the index") from exc
    if not isinstance(manifest, dict):
        raise IndexCorruptError(
            f"shard manifest {path} exists but is unreadable: it holds "
            f"{type(manifest).__name__}, not an object")
    return manifest


def is_sharded_dir(directory) -> bool:
    """True when ``directory`` holds a sharded-index manifest; an
    unreadable one raises :class:`IndexCorruptError`."""
    return (_load_manifest(directory) or {}).get("kind") == _MANIFEST_KIND


def open_index(directory, thesaurus: "Thesaurus | None" = None,
               read_latency: float = 0.0, on_damage: str = "raise"):
    """Open the index under ``directory``, whichever layout it has.

    A directory holding a sharded manifest opens as a
    :class:`ShardedIndex` (``on_damage`` is its recovery policy, see
    :meth:`ShardedIndex.open`), anything else as a plain
    :class:`PathIndex`.  An unreadable manifest raises
    :class:`IndexCorruptError`.  The manifest is parsed once, here.
    """
    manifest = _load_manifest(directory)
    if (manifest or {}).get("kind") == _MANIFEST_KIND:
        return ShardedIndex.open(directory, thesaurus=thesaurus,
                                 read_latency=read_latency,
                                 on_damage=on_damage, manifest=manifest)
    return PathIndex.open(directory, thesaurus=thesaurus,
                          read_latency=read_latency)


def _check_manifest(directory, manifest: "dict | None") -> dict:
    """``manifest`` (parsed from ``directory`` when ``None``), checked."""
    path = os.path.join(os.fspath(directory), MANIFEST_FILE)
    if manifest is None:
        manifest = _load_manifest(directory)
    if manifest is None:
        raise IndexCorruptError(f"shard manifest {path} is missing")
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
    gid routing and the health board both index by shard number —
    while answering like a shard that has nothing: lookups find no
    match tier, and any attempt to actually decode a
    record raises :class:`ShardUnavailableError` so clustering
    degrades the query with ``SHARD_FAILED`` instead of serving
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

    def sink_tiers(self, label, semantic: bool = True):
        return iter(())

    def containing_tiers(self, label, semantic: bool = True):
        return iter(())

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
    unchanged.  :func:`repro.engine.clustering.build_clusters`
    additionally uses :meth:`locate` and :attr:`shards` to isolate
    shard faults and, in procs mode, to send each shard's slice to its
    worker process.
    """

    is_sharded = True

    def __init__(self, directory, shards: list[PathIndex],
                 interner: LabelInterner, gids: list[list[int]],
                 metadata: "dict | None" = None,
                 health: "ShardHealth | None" = None):
        self.directory = os.fspath(directory)
        self.shards = shards
        self.interner = interner
        #: Data version: a sharded index is immutable once built (a
        #: reshard writes a new one), so it stays 0, as for
        #: :class:`PathIndex`.
        self.epoch = 0
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
        #: Per-shard circuit breakers; clustering consults this board
        #: before reading a shard and reports outcomes back to it.
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
             breaker_config: "BreakerConfig | None" = None,
             manifest: "dict | None" = None) -> "ShardedIndex":
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

        ``manifest`` is the already parsed ``manifest.json`` (what
        :func:`open_index` read to choose the layout); ``None`` reads it.
        """
        if on_damage not in ("raise", "quarantine"):
            raise ValueError(f"on_damage must be 'raise' or 'quarantine', "
                             f"got {on_damage!r}")
        directory = os.fspath(directory)
        sweep_tmp_debris(directory)
        manifest = _check_manifest(directory, manifest)
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
        # A ``hash_seed`` key (written by older builds) is ignored: the
        # gid lists alone route reads, and rewrites hash unseeded.
        return cls(directory, shards, interner, gids=gid_lists,
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

    @property
    def shard_count(self) -> int:
        return len(self.shards)

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

    def _gather(self, per_shard) -> list[int]:
        """Gids of the first match tier found on any shard (sorted):
        :func:`~repro.index.labels.first_tier` decides once over every
        shard's tier stream, so the answer is the unsharded one."""
        gids = []
        for shard_no, offsets in enumerate(first_tier(per_shard)):
            mapping = self._gid_of[shard_no]
            gids.extend(mapping[offset] for offset in offsets)
        gids.sort()
        return gids

    def offsets_with_sink(self, label: Term, semantic: bool = True) -> list[int]:
        """Gids of paths whose sink matches ``label`` (sorted)."""
        return self._gather([shard.sink_tiers(label, semantic)
                             for shard in self.shards])

    def offsets_containing(self, label: Term, semantic: bool = True) -> list[int]:
        """Gids of paths containing a label matching ``label`` (sorted)."""
        return self._gather([shard.containing_tiers(label, semantic)
                             for shard in self.shards])

    def group_by_shard(self, gids: "list[int]") -> "list[list[tuple[int, int]]]":
        """Partition ``gids`` into per-shard ``(gid, local offset)``
        lists, keeping the input order within each shard."""
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
                f"shards, {self.path_count} paths>")


class IndexWriter:
    """Writes paths, in gid order, into one index layout.

    The one writer behind :func:`repro.index.builder.build_index` and
    :func:`reshard`.  At ``shards == 1`` it is a single
    :class:`PathIndexWriter` over ``directory`` (the plain layout);
    above that it routes each path to ``shard_of(path)`` under
    ``shard-NN/``, records which gids each shard holds, and writes
    ``manifest.json`` last.  Every shard's writer shares one
    :class:`LabelInterner`, so all shards persist the same
    ``labels.dict``.
    """

    def __init__(self, directory, shards: int = 1,
                 thesaurus: "Thesaurus | None" = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.directory = os.fspath(directory)
        self.shards = shards
        self._interner = LabelInterner()
        locations = ([self.directory] if shards == 1 else
                     [shard_dir(self.directory, n) for n in range(shards)])
        self._writers = [PathIndexWriter(location, thesaurus=thesaurus,
                                         interner=self._interner)
                         for location in locations]
        self._gids: list[list[int]] = [[] for _ in range(shards)]
        self._count = 0

    def add_path(self, path: Path) -> None:
        """Store ``path`` under the next gid."""
        if self.shards == 1:
            self._writers[0].add_path(path)
            return
        owner = shard_of(path, self._interner, self.shards)
        self._writers[owner].add_path(path)
        self._gids[owner].append(self._count)
        self._count += 1

    def finish(self, metadata: dict):
        """Persist every file; returns the opened :class:`PathIndex`
        (one shard) or :class:`ShardedIndex`."""
        if self.shards == 1:
            return self._writers[0].finish(metadata=metadata)
        metadata = dict(metadata, shards=self.shards)
        opened = [writer.finish(metadata=dict(metadata, shard=shard_no))
                  for shard_no, writer in enumerate(self._writers)]
        # The manifest is what makes the directory a sharded index;
        # written atomically last, so a crash mid-build leaves either
        # no index or a complete one.
        atomic_write_json(os.path.join(self.directory, MANIFEST_FILE), {
            "version": _MANIFEST_VERSION,
            "kind": _MANIFEST_KIND,
            "shards": self.shards,
            "gids": self._gids,
            "metadata": metadata,
        })
        return ShardedIndex(self.directory, opened, self._interner,
                            gids=self._gids, metadata=metadata)

    @property
    def size_bytes(self) -> int:
        return sum(writer.size_bytes for writer in self._writers)


def reshard(directory, shards: int, output=None,
            thesaurus: "Thesaurus | None" = None):
    """Re-partition an existing index directory into ``shards`` shards.

    Feeds the source index (sharded or plain) through
    :class:`IndexWriter` in global-id order, so gids, and therefore
    rankings, are preserved, and the result is byte for byte what
    :func:`~repro.index.builder.build_index` writes at that shard count
    (``shards=1`` gives the plain layout).  With ``output=None`` the
    new layout atomically replaces ``directory`` (staged build +
    directory swap, same crash contract as compaction).  The result
    starts at epoch 0 like any fresh build: the byte-level layout
    changed and nothing keyed to the old data version survives the
    swap.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if thesaurus is None:
        thesaurus = default_thesaurus()
    source = open_index(directory, thesaurus=thesaurus)
    try:
        with rewritten_directory(directory, output) as target:
            writer = IndexWriter(target, shards, thesaurus=thesaurus)
            for gid in source.all_offsets():
                writer.add_path(source.path_at(gid))
            metadata = {key: value for key, value in source.metadata.items()
                        if key not in ("shards", "shard")}
            writer.finish(metadata).close()
            source.close()      # before the swap renames its directory
    finally:
        source.close()
    return open_index(output or directory, thesaurus=thesaurus)
