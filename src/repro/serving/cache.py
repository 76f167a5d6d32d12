"""The epoch-keyed result cache: LRU under a byte budget.

Entries are complete served results (the ranked answers plus their
wire payload) keyed by :func:`repro.serving.canonical.cache_key` — the
canonical query text, ``k``, and the **index epoch** at evaluation
time.  Because the epoch is part of the key, an index update
invalidates every affected entry *by construction*: post-update
lookups carry the new epoch and miss, while the stale entries age out
of the LRU (or are dropped eagerly via :meth:`drop_stale_epochs`).

Every index has one integer epoch: static and sharded indexes stay at
0, and a live index adds 1 per effective update round and per
compaction.  A query reads every shard, so one scalar is all a key
needs — an update invalidates every entry built before it.

The budget is in bytes of wire payload, not entry count, so one huge
k=1000 ranking cannot pin the cache while hundreds of small results
are evicted around it.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any


@dataclass
class ResultCacheStats:
    """Counters exposed on ``/stats``."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    stale_dropped: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class CachedResult:
    """One cache entry: the answers exactly as the engine returned them."""

    answers: Any               # PartialResult — returned verbatim on a hit
    payload: dict              # JSON-ready wire form
    size_bytes: int
    epoch: int                 # the index epoch the key embeds
    key: str = field(repr=False, default="")
    #: ``payload`` as JSON bytes, kept from the first hit onwards so a
    #: hit renders nothing; an entry that is never hit never holds it.
    body: "bytes | None" = field(repr=False, default=None)

    def rendered(self) -> bytes:
        """The JSON bytes of ``payload`` (rendered once, then kept).

        Two threads racing on the first hit both render the same bytes;
        the last store wins and nothing is lost.
        """
        body = self.body
        if body is None:
            body = self.body = json.dumps(self.payload).encode("utf-8")
        return body


class ResultCache:
    """Thread-safe LRU over served results with a byte budget.

    ``max_bytes=0`` disables caching entirely (every lookup misses,
    nothing is stored) — the cache-off arm of the serving benchmark.
    An entry larger than the whole budget is never admitted.
    """

    def __init__(self, max_bytes: int = 64 << 20):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self.stats = ResultCacheStats()
        self._entries: "OrderedDict[str, CachedResult]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    @property
    def current_bytes(self) -> int:
        # Under the lock: ``/stats`` scrapes race with eviction, and a
        # torn read here could report bytes from mid-eviction (entries
        # popped, budget not yet released).
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> "CachedResult | None":
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, entry: CachedResult) -> bool:
        """Admit ``entry`` (keyed by ``entry.key``); False if too big.

        A zero byte budget means *caching is disabled*: nothing is
        admitted, not even a zero-byte entry (``size_bytes == 0`` used
        to slip past the too-big check because ``0 > 0`` is false).
        """
        if not entry.key:
            raise ValueError("cache entry has no key")
        if self.max_bytes == 0 or entry.size_bytes > self.max_bytes:
            return False
        with self._lock:
            old = self._entries.pop(entry.key, None)
            if old is not None:
                self._bytes -= old.size_bytes
            self._entries[entry.key] = entry
            self._bytes += entry.size_bytes
            self.stats.insertions += 1
            while self._bytes > self.max_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.size_bytes
                self.stats.evictions += 1
            return True

    def drop_stale_epochs(self, current_epoch: int) -> int:
        """Eagerly drop entries from epochs before ``current_epoch``.

        Purely a byte-budget optimisation: stale entries can never be
        *returned* (their keys embed the old epoch), but until evicted
        they occupy budget that live results could use.
        """
        with self._lock:
            stale = [key for key, entry in self._entries.items()
                     if entry.epoch < current_epoch]
            for key in stale:
                entry = self._entries.pop(key)
                self._bytes -= entry.size_bytes
            self.stats.stale_dropped += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop every entry *and* reset the counters.

        ``clear()`` starts a fresh measurement window: a hit rate that
        mixed pre- and post-clear lookups would misstate the behaviour
        of the current (empty) cache, so the stats reset with the
        entries.
        """
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.stats = ResultCacheStats()

    def stats_snapshot(self) -> ResultCacheStats:
        """A point-in-time copy of the counters, taken under the lock."""
        with self._lock:
            return replace(self.stats)

    def __repr__(self):
        # One locked snapshot: entry count, bytes and hit rate must
        # describe the same instant even while eviction is running.
        with self._lock:
            entries = len(self._entries)
            current = self._bytes
            hit_rate = self.stats.hit_rate
        return (f"<ResultCache: {entries} entries, "
                f"{current}/{self.max_bytes} bytes, "
                f"hit rate {hit_rate:.2%}>")
