"""An append-only record log on top of the page store.

Records are length-prefixed byte blobs packed contiguously across
pages (a record freely straddles page boundaries, like a write-ahead
log).  A record's identifier is its byte offset in the log; readers
fetch exactly the pages the record touches, through the buffer pool,
so logical record reads translate into the physical page reads the
cold/warm experiments count.  Appends are staged in memory; only
bytes not yet flushed to the store are served from the staging.
"""

from __future__ import annotations

import io
from typing import Iterator

from .bufferpool import BufferPool
from .pagestore import PageStore, StorageError
from .serializer import read_varint, write_varint


class RecordFile:
    """Append-only log of byte records over a :class:`PageStore`.

    One writer at build time, any number of readers at query time.  The
    log's end position is persisted in the first page (the header), so
    a reopened file knows where its records stop.
    """

    _HEADER_PAGES = 1

    def __init__(self, store: PageStore, pool: "BufferPool | None" = None):
        self.store = store
        self.pool = pool or BufferPool(store)
        if store.page_count == 0:
            store.allocate()
            self._end = self._data_start
            self._write_header()
        else:
            self._end = self._read_header()
        # Tail page staged in memory between appends to avoid a
        # read-modify-write cycle per record; ``_dirty`` while it holds
        # bytes the store does not.
        self._tail_page_id = self._end // store.page_size
        self._tail = bytearray(self._tail_bytes())
        self._dirty = False
        self._sealed = False

    @property
    def _data_start(self) -> int:
        return self._HEADER_PAGES * self.store.page_size

    # -- header ------------------------------------------------------------

    def _write_header(self) -> None:
        header = io.BytesIO()
        header.write(b"RLOG")
        write_varint(header, self._end)
        self.store.write_page(0, header.getvalue())

    def _read_header(self) -> int:
        page = self.store.read_page(0)
        stream = io.BytesIO(page)
        magic = stream.read(4)
        if magic != b"RLOG":
            raise StorageError(f"{self.store.path} is not a record log "
                               f"(magic {magic!r})")
        return read_varint(stream)

    def _tail_bytes(self) -> bytes:
        if self._tail_page_id >= self.store.page_count:
            return b""
        data = self.store.read_page(self._tail_page_id)
        return data[:self._end - self._tail_page_id * self.store.page_size]

    # -- writing -------------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Append one record; returns its offset (the record id)."""
        if self._sealed:
            raise StorageError("record log is sealed (read-only)")
        record_offset = self._end
        prefix = io.BytesIO()
        write_varint(prefix, len(payload))
        data = prefix.getvalue() + payload
        page_size = self.store.page_size
        cursor = 0
        while cursor < len(data):
            room = page_size - len(self._tail)
            take = min(room, len(data) - cursor)
            self._tail.extend(data[cursor:cursor + take])
            cursor += take
            if len(self._tail) == page_size:
                self._flush_tail()
                self._tail_page_id += 1
                self._tail = bytearray()
        self._end = record_offset + len(data)
        self._dirty = bool(self._tail)
        return record_offset

    def _flush_tail(self) -> None:
        while self._tail_page_id >= self.store.page_count:
            self.store.allocate()
        self.pool.write_page(self._tail_page_id, bytes(self._tail))
        self._dirty = False

    def flush(self) -> None:
        """Write the staged tail page through the pool (no header, no
        ``fsync``), so reads of it are page reads again; the page stays
        staged for the next append."""
        if self._dirty:
            self._flush_tail()

    def sync(self) -> None:
        """Flush the staged tail and persist the header."""
        self.flush()
        self._write_header()
        self.store.flush()

    def seal(self) -> None:
        """Sync; the log becomes read-only (appending raises
        :class:`StorageError`)."""
        self.sync()
        self._sealed = True

    # -- reading ---------------------------------------------------------------

    def read(self, offset: int) -> bytes:
        """Read the record starting at ``offset``."""
        if not self._data_start <= offset < self._end:
            raise StorageError(f"record offset {offset} out of range "
                               f"[{self._data_start}, {self._end})")
        page_size = self.store.page_size
        # Parse the varint length byte-by-byte (it may straddle pages).
        length = 0
        shift = 0
        cursor = offset
        while True:
            byte = self._byte_at(cursor)
            cursor += 1
            length |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise StorageError("corrupt record length")
        first_page = cursor // page_size
        last_page = (cursor + length - 1) // page_size if length else first_page
        chunks = []
        for page_id in range(first_page, last_page + 1):
            chunks.append(self._page_bytes(page_id))
        blob = b"".join(chunks)
        start = cursor - first_page * page_size
        return blob[start:start + length]

    def _byte_at(self, position: int) -> int:
        page_id, offset = divmod(position, self.store.page_size)
        return self._page_bytes(page_id)[offset]

    def _page_bytes(self, page_id: int) -> bytes:
        # Only bytes the store does not hold yet come from the staging.
        if page_id == self._tail_page_id and self._dirty:
            return bytes(self._tail).ljust(self.store.page_size, b"\x00")
        return self.pool.read_page(page_id)

    def scan(self) -> Iterator[tuple[int, bytes]]:
        """Iterate ``(offset, record)`` over the whole log."""
        offset = self._data_start
        while offset < self._end:
            payload = self.read(offset)
            yield offset, payload
            header_len = _varint_width(len(payload))
            offset += header_len + len(payload)


def _varint_width(value: int) -> int:
    width = 1
    while value >= 0x80:
        value >>= 7
        width += 1
    return width
