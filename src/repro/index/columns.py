"""Per-epoch path columns: a stored path's derived facts, computed once.

Clustering and search ask the same questions about a stored path on
every query — which interned node labels do its first ``plen`` nodes
carry (the χ operand, the candidate-bucket keys), and how is a label
spelled (the rarest-label tie-break).  The answers depend only on the
stored bytes, so :class:`PathColumns` keeps them while the index epoch
stands: one ``frozenset`` of node label ids per ``(gid, plen)`` row,
filed under the row's uid — the identity the search's pair and
candidate caches key on.  Cluster entries hold these sets, never copies.

Rows fill lazily — from the loaded quotient's ``patterns``/``params``
(no record decode), else from the decoded path's ``label_ids`` — so
the store holds only rows queries touched.  Every index the engine
runs on (``PathIndex``, ``ShardedIndex``, the live ``IncrementalIndex``)
owns an ``interner`` and attaches ``label_ids`` to every path it hands
out, so a row always has a set: there is one key space for χ/ψ.  A live
index keeps that true under writes because ids are append-only — the
writer interns, readers only look up.  A row costs its set, an int key
and a dict slot (label-id ints are shared): 3.5 MiB if every path of
LUBM 8000 is touched.
Nothing is keyed by anything a query brings: the engine owns one store
per index epoch and drops it when the epoch moves.
"""

from __future__ import annotations

#: ``uid = gid << _PLEN_BITS | plen``: unique per row, needs no table.
_PLEN_BITS = 10


class PathColumns:
    """Shared node-id sets per ``(gid, plen)`` row, and label spellings."""

    __slots__ = ("_index", "_lookup", "_sets", "_ints", "_names")

    def __init__(self, index, quotients=None):
        self._index = index
        #: ``gid -> (shard quotient, row) | None`` of the loaded
        #: :class:`~repro.quotient.resolve.QuotientIndex`, if any.
        self._lookup = quotients.lookup if quotients is not None else None
        self._sets: "dict[int, frozenset]" = {}
        self._ints: "dict[int, int]" = {}
        self._names: "dict[int, str]" = {}

    def __len__(self) -> int:
        return len(self._sets)

    def row(self, gid: int, plen: int, node_ids=None) -> tuple:
        """``(uid, node label id set)`` of the first ``plen`` nodes of
        stored path ``gid``.

        ``node_ids`` lets a caller that already holds the ids (a decoded
        path, a worker's shipped column) found the row without a second
        derivation; it is ignored once the row exists.
        """
        if plen >> _PLEN_BITS:
            raise ValueError(f"prefix of {plen} nodes overflows the uid")
        uid = gid << _PLEN_BITS | plen
        kept = self._sets.get(uid)
        if kept is None:
            if node_ids is None:
                node_ids = self.node_ids(gid, plen)
            # One int object per label id across all rows; of two
            # racing queries' sets, setdefault keeps one.
            shared = self._ints.setdefault
            kept = self._sets.setdefault(
                uid, frozenset([shared(i, i) for i in node_ids]))
        return uid, kept

    def node_ids(self, gid: int, plen: int):
        """The first ``plen`` node label ids of stored path ``gid``, in
        node order — derived, not kept."""
        found = self._lookup(gid) if self._lookup is not None else None
        if found is not None:
            quotient, row = found
            return quotient.member_node_ids(row, plen)
        return tuple(self._index.path_at(gid).label_ids[:plen])

    def name(self, label_id: int) -> str:
        """Lexical form of an interned label (the bucket tie-break)."""
        name = self._names.get(label_id)
        if name is None:
            name = self._names[label_id] = str(
                self._index.interner.lookup(label_id))
        return name
