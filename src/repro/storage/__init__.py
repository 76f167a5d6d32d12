"""Disk storage substrate: page store, buffer pool, record log, codec.

This package simulates the disk-resident database the paper stores its
index in (HyperGraphDB, §6.1): fixed-size pages with physical I/O
accounting and optional simulated latency, an LRU buffer pool whose
``clear()`` realises the cold-cache condition, an append-only record
log holding the serialised paths, and the varint/term codec.  What a
path record holds is decided in one place,
:class:`repro.index.labels.LabelInterner`: varint ids into the
``labels.dict`` dictionary, whose terms this package's codec spells.
"""

from .atomic import atomic_write_bytes, atomic_write_json, atomic_write_text
from .bufferpool import BufferPool, CacheStats
from .pagestore import DEFAULT_PAGE_SIZE, IoStats, PageStore, StorageError
from .recordfile import RecordFile
from .serializer import CodecError, read_term, write_term

__all__ = [
    "BufferPool", "CacheStats", "CodecError", "DEFAULT_PAGE_SIZE", "IoStats",
    "PageStore", "RecordFile", "StorageError",
    "atomic_write_bytes", "atomic_write_json", "atomic_write_text",
    "read_term", "write_term",
]
