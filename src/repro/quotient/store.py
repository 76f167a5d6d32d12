"""The per-shard quotient file format.

Each index directory (or each ``shard-NN/`` of a sharded index) may
carry a ``quotient.bin`` collapsing its stored paths into
**label-equality-pattern equivalence classes** — the bisimulation
quotient of ROADMAP item 3, specialised to the path space λ actually
sees.

Two paths are in the same class when their interleaved label sequences
``(n0, e0, n1, e1, ..., n_{k-1})`` are *equal up to a renaming of
labels*: walk the sequence assigning each distinct label id the next
slot number on first occurrence (nodes and edges share one namespace,
because one query variable can bind at both positions), and compare
the resulting slot sequences.  ``Student17 memberOf Dept3`` and
``Student42 memberOf Dept9`` collapse into the class ``0 1 2``;
``X knows X`` (``0 1 0``) stays apart from ``X knows Y`` (``0 1 2``).

Why this is the right granularity: λ never does arithmetic on labels —
it only *compares* them (against query constants through the matcher,
and against each other at repeated-variable positions).  Class members
therefore differ, as far as any query is concerned, only in *which*
concrete ids fill the slots.  At query time the resolver
(:mod:`repro.quotient.resolve`) refines each class by the matcher
verdicts of its slot fillers against the query's constants; paths that
agree on that refinement provably receive bit-identical λ scores and
trim lengths, so the engine scores one representative and copies the
result to the rest (see ``resolve.py`` for the full argument).

On disk, one class record per distinct slot pattern plus one row per
stored path carrying its class id and its concrete slot fillers
(``params``) — the multiplicity of a class is its row count and the
compact gid list is the rows pointing at it.  The file is written via
:func:`repro.storage.atomic.atomic_write_bytes` and carries the index
**epoch** at build time, exactly like ``sketch.bin``: building per
shard, the load-or-``None`` epoch check (stale ⇒ score every path
exhaustively) and eager invalidation after rewrites are the shared
sidecar lifecycle of :mod:`repro.index.sidecar`, bound to this format
at the bottom of the module.
"""

from __future__ import annotations

import struct
from array import array

from ..index.sidecar import Sidecar, SidecarFormatError
from ..storage.atomic import atomic_write_bytes

#: File name of a shard's persisted quotient, next to its paths.log.
QUOTIENT_FILE = "quotient.bin"

_MAGIC = b"QTN1"
_VERSION = 1
#: magic, version, reserved, epoch, class count, row count
_HEADER = struct.Struct("<4sHHqQQ")
#: per class: interleaved pattern length (2 * path length - 1)
_CLASS = struct.Struct("<H")
#: per row: storage offset, class id
_ROW = struct.Struct("<QI")


class QuotientFormatError(SidecarFormatError):
    """A quotient file that is not a valid QTN1 artifact."""


def _pattern_of(sequence) -> "tuple[array, array]":
    """Canonical ``(pattern, params)`` of one interleaved id sequence.

    ``pattern[j]`` is the first-occurrence slot of the label at
    position ``j``; ``params`` lists the distinct ids in slot order,
    so ``params[pattern[j]]`` recovers the original sequence.
    """
    slots: "dict[int, int]" = {}
    pattern = array("H")
    params = array("i")
    for label_id in sequence:
        slot = slots.get(label_id)
        if slot is None:
            slot = slots[label_id] = len(params)
            params.append(label_id)
        pattern.append(slot)
    return pattern, params


class ShardQuotient:
    """One shard's equality-pattern classes and per-path slot fillers.

    Rows are addressed by ``row_of[storage offset]`` — the same
    offset space shard tasks and sketches use.  ``patterns[c]`` is the
    interleaved slot sequence of class ``c``; ``params[r]`` the row's
    distinct label ids in slot order; ``class_ids[r]`` its class.
    """

    __slots__ = ("epoch", "offsets", "class_ids", "params", "patterns",
                 "class_keys", "row_of")

    def __init__(self, epoch: int, offsets, class_ids, params, patterns):
        self.epoch = epoch
        self.offsets = offsets
        self.class_ids = class_ids
        self.params = params
        self.patterns = patterns
        #: Content-defined identity of each class (its pattern bytes,
        #: rendered once): equal across shards for equal patterns,
        #: which is what lets refine keys span shards.
        self.class_keys = [pattern.tobytes() for pattern in patterns]
        self.row_of = {offset: row for row, offset in enumerate(offsets)}

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def class_count(self) -> int:
        return len(self.patterns)

    def member_node_ids(self, row: int, plen: int) -> tuple:
        """The first ``plen`` node label ids of row ``row``,
        reconstructed from its class pattern and slot fillers (node
        ``i`` sits at interleaved position ``2 * i``)."""
        pattern = self.patterns[self.class_ids[row]]
        params = self.params[row]
        return tuple([params[slot] for slot in pattern[:2 * plen:2]])

    @classmethod
    def from_index(cls, index, epoch: int) -> "ShardQuotient":
        """Quotient every stored path of one open (shard) index."""
        class_of: "dict[bytes, int]" = {}
        patterns: "list[array]" = []
        class_ids = array("I")
        params_list: "list[array]" = []
        offsets = array("q", index.all_offsets())
        for offset in offsets:
            path = index.path_at(offset)
            sequence = [path.label_ids[0]]
            for edge_id, node_id in zip(path.edge_ids, path.label_ids[1:]):
                sequence += (edge_id, node_id)
            pattern, params = _pattern_of(sequence)
            key = pattern.tobytes()
            class_id = class_of.get(key)
            if class_id is None:
                class_id = class_of[key] = len(patterns)
                patterns.append(pattern)
            class_ids.append(class_id)
            params_list.append(params)
        return cls(epoch, offsets, class_ids, params_list, patterns)

    def save(self, path: str) -> None:
        chunks = [_HEADER.pack(_MAGIC, _VERSION, 0, self.epoch,
                               len(self.patterns), len(self.offsets))]
        for pattern in self.patterns:
            chunks.append(_CLASS.pack(len(pattern)))
            chunks.append(pattern.tobytes())
        for row, offset in enumerate(self.offsets):
            params = self.params[row]
            chunks.append(_ROW.pack(offset, self.class_ids[row]))
            chunks.append(params.tobytes())
        atomic_write_bytes(path, b"".join(chunks))

    @classmethod
    def load(cls, path: str) -> "ShardQuotient":
        """Parse a quotient file; raises :class:`QuotientFormatError`
        when the bytes are not a well-formed QTN1 artifact (the caller
        maps that, like a missing file, to exhaustive scoring)."""
        with open(path, "rb") as handle:
            blob = handle.read()
        if len(blob) < _HEADER.size:
            raise QuotientFormatError(f"{path}: truncated header")
        magic, version, _reserved, epoch, classes, rows = \
            _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC:
            raise QuotientFormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise QuotientFormatError(
                f"{path}: unsupported version {version}")
        cursor = _HEADER.size
        patterns: "list[array]" = []
        #: Distinct slots per class — how many params each row carries.
        widths = array("H")
        for _ in range(classes):
            if cursor + _CLASS.size > len(blob):
                raise QuotientFormatError(f"{path}: truncated class header")
            (length,) = _CLASS.unpack_from(blob, cursor)
            cursor += _CLASS.size
            if not length % 2:
                raise QuotientFormatError(
                    f"{path}: even pattern length {length}")
            if cursor + 2 * length > len(blob):
                raise QuotientFormatError(f"{path}: truncated class body")
            pattern = array("H")
            pattern.frombytes(blob[cursor:cursor + 2 * length])
            cursor += 2 * length
            width = max(pattern) + 1
            if sorted(set(pattern)) != list(range(width)):
                raise QuotientFormatError(
                    f"{path}: non-canonical slot pattern")
            patterns.append(pattern)
            widths.append(width)
        offsets = array("q")
        class_ids = array("I")
        params_list: "list[array]" = []
        for _ in range(rows):
            if cursor + _ROW.size > len(blob):
                raise QuotientFormatError(f"{path}: truncated row header")
            offset, class_id = _ROW.unpack_from(blob, cursor)
            cursor += _ROW.size
            if class_id >= classes:
                raise QuotientFormatError(
                    f"{path}: row class {class_id} out of range")
            width = widths[class_id]
            if cursor + 4 * width > len(blob):
                raise QuotientFormatError(f"{path}: truncated row body")
            params = array("i")
            params.frombytes(blob[cursor:cursor + 4 * width])
            cursor += 4 * width
            offsets.append(offset)
            class_ids.append(class_id)
            params_list.append(params)
        if cursor != len(blob):
            raise QuotientFormatError(f"{path}: trailing bytes after rows")
        return cls(epoch, offsets, class_ids, params_list, patterns)


_SIDECAR = Sidecar(QUOTIENT_FILE, ShardQuotient)
quotient_path = _SIDECAR.path
build_quotients = _SIDECAR.build
load_shard_quotient = _SIDECAR.load_shard
load_quotients = _SIDECAR.load
invalidate_quotients = _SIDECAR.invalidate
