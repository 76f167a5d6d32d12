"""The per-shard sketch file format.

Each index directory (or each ``shard-NN/`` of a sharded index) may
carry a ``sketch.bin`` holding one row per stored path, in the shard's
``all_offsets()`` walk order:

- the path's storage offset and stored length,
- its distinct node label ids and distinct edge label ids (sorted),
- its minhash signature (:mod:`repro.sketch.minhash`).

The file is written through :func:`repro.storage.atomic.atomic_write_bytes`
— the same tmp-fsync-rename path every other artifact uses — so a
crash mid-build leaves either the old sketch or none, never a torn one.

The header records the shard **epoch** at build time; building per
shard, the load-or-``None`` epoch check (stale ⇒ exhaustive recall)
and eager invalidation after rewrites are the shared sidecar lifecycle
of :mod:`repro.index.sidecar`, bound to this format at the bottom of
the module.
"""

from __future__ import annotations

import struct
from array import array

from ..index.sidecar import Sidecar, SidecarFormatError
from ..storage.atomic import atomic_write_bytes
from .minhash import SketchParams, band_keys, coefficients, signature

#: File name of a shard's persisted sketch, next to its paths.log.
SKETCH_FILE = "sketch.bin"

_MAGIC = b"SKH1"
_VERSION = 1
#: magic, version, num_perm, bands, reserved, seed, epoch, rows
_HEADER = struct.Struct("<4sHHHHQqQ")
#: per row: storage offset, stored length, #node ids, #edge ids
_ROW = struct.Struct("<QIHH")


class SketchFormatError(SidecarFormatError):
    """A sketch file that is not a valid SKH1 artifact."""


class ShardSketch:
    """One shard's sketch rows plus the banded LSH bucket index.

    Rows are addressed by ``row_of[storage offset]`` — the same
    offset-space shard tasks use — and the bucket index is rebuilt in
    memory at load (it is derivable from the signatures, so persisting
    it would only add a second thing to keep consistent).
    """

    __slots__ = ("params", "epoch", "offsets", "lengths", "node_sets",
                 "edge_sets", "signatures", "row_of", "_buckets")

    def __init__(self, params: SketchParams, epoch: int, offsets,
                 lengths, node_sets, edge_sets, signatures):
        self.params = params
        self.epoch = epoch
        self.offsets = offsets
        self.lengths = lengths
        self.node_sets = node_sets
        self.edge_sets = edge_sets
        self.signatures = signatures
        self.row_of = {offset: row for row, offset in enumerate(offsets)}
        self._buckets = None

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def buckets(self) -> dict:
        """Banded LSH buckets: band key -> list of row numbers."""
        if self._buckets is None:
            buckets: "dict[tuple, list[int]]" = {}
            params = self.params
            for row, sig in enumerate(self.signatures):
                for key in band_keys(sig, params):
                    buckets.setdefault(key, []).append(row)
            self._buckets = buckets
        return self._buckets

    def collision_rows(self, query_signature) -> "set[int]":
        """Rows sharing at least one LSH band with ``query_signature``."""
        rows: "set[int]" = set()
        buckets = self.buckets
        for key in band_keys(query_signature, self.params):
            hit = buckets.get(key)
            if hit:
                rows.update(hit)
        return rows

    @classmethod
    def from_index(cls, index, params: SketchParams,
                   epoch: int) -> "ShardSketch":
        """Sketch every stored path of one open (shard) index."""
        coeffs = coefficients(params)
        offsets = list(index.all_offsets())
        lengths = array("l")
        node_sets = []
        edge_sets = []
        signatures = []
        for offset in offsets:
            path = index.path_at(offset)
            nset = frozenset(path.label_ids)
            eset = frozenset(path.edge_ids)
            lengths.append(path.length)
            node_sets.append(nset)
            edge_sets.append(eset)
            signatures.append(signature(nset | eset, coeffs))
        return cls(params, epoch, offsets, lengths, node_sets, edge_sets,
                   signatures)

    def save(self, path: str) -> None:
        chunks = [_HEADER.pack(_MAGIC, _VERSION, self.params.num_perm,
                               self.params.bands, 0, self.params.seed,
                               self.epoch, len(self.offsets))]
        for row, offset in enumerate(self.offsets):
            nodes = sorted(self.node_sets[row])
            edges = sorted(self.edge_sets[row])
            chunks.append(_ROW.pack(offset, self.lengths[row],
                                    len(nodes), len(edges)))
            chunks.append(array("I", nodes).tobytes())
            chunks.append(array("I", edges).tobytes())
            chunks.append(array("Q", self.signatures[row]).tobytes())
        atomic_write_bytes(path, b"".join(chunks))

    @classmethod
    def load(cls, path: str) -> "ShardSketch":
        """Parse a sketch file; raises :class:`SketchFormatError` when
        the bytes are not a well-formed SKH1 artifact (the caller maps
        that, like a missing file, to exhaustive-recall fallback)."""
        with open(path, "rb") as handle:
            blob = handle.read()
        if len(blob) < _HEADER.size:
            raise SketchFormatError(f"{path}: truncated header")
        (magic, version, num_perm, bands, _reserved, seed, epoch,
         rows) = _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC:
            raise SketchFormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise SketchFormatError(f"{path}: unsupported version {version}")
        try:
            params = SketchParams(seed=seed, num_perm=num_perm, bands=bands)
        except ValueError as exc:
            raise SketchFormatError(f"{path}: {exc}") from exc
        cursor = _HEADER.size
        offsets = []
        lengths = array("l")
        node_sets = []
        edge_sets = []
        signatures = []
        sig_bytes = 8 * num_perm
        for _ in range(rows):
            if cursor + _ROW.size > len(blob):
                raise SketchFormatError(f"{path}: truncated row header")
            offset, stored_len, n_nodes, n_edges = _ROW.unpack_from(
                blob, cursor)
            cursor += _ROW.size
            need = 4 * (n_nodes + n_edges) + sig_bytes
            if cursor + need > len(blob):
                raise SketchFormatError(f"{path}: truncated row body")
            nodes = array("I")
            nodes.frombytes(blob[cursor:cursor + 4 * n_nodes])
            cursor += 4 * n_nodes
            edges = array("I")
            edges.frombytes(blob[cursor:cursor + 4 * n_edges])
            cursor += 4 * n_edges
            sig = array("Q")
            sig.frombytes(blob[cursor:cursor + sig_bytes])
            cursor += sig_bytes
            offsets.append(offset)
            lengths.append(stored_len)
            node_sets.append(frozenset(nodes))
            edge_sets.append(frozenset(edges))
            signatures.append(tuple(sig))
        if cursor != len(blob):
            raise SketchFormatError(f"{path}: trailing bytes after rows")
        return cls(params, epoch, offsets, lengths, node_sets, edge_sets,
                   signatures)


_SIDECAR = Sidecar(SKETCH_FILE, ShardSketch)
sketch_path = _SIDECAR.path
load_shard_sketch = _SIDECAR.load_shard
invalidate_sketches = _SIDECAR.invalidate


def build_sketches(index, params: "SketchParams | None" = None) -> "list[str]":
    """Build and persist a sketch file per (healthy) shard of ``index``
    (see :meth:`repro.index.sidecar.Sidecar.build`)."""
    return _SIDECAR.build(index, params or SketchParams())


def load_sketches(index) -> "list[ShardSketch | None] | None":
    """Load every shard sketch of ``index``, aligned with its shards.

    Returns ``None`` when no shard has a usable sketch at all (the
    engine then skips two-stage filtering entirely); otherwise a list
    with ``None`` holes for shards that must fall back to exhaustive
    recall (quarantined, stale, missing — the filter passes their
    candidates through unjudged).  All loaded sketches must share one
    parameter set; stragglers from a partial rebuild with different
    params are dropped to ``None``.
    """
    slots = _SIDECAR.load(index)
    if slots is None:
        return None
    canonical = next(sketch for sketch in slots if sketch is not None).params
    return [sketch if sketch is None or sketch.params == canonical else None
            for sketch in slots]
