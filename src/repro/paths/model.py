"""The path model (Definition 5).

A path is an alternating sequence of node and edge labels
``ln1 - le1 - ln2 - ... - le(k-1) - lnk`` running from a source to a
sink.  Following the paper, the *length* of a path is its number of
nodes, and the *position* of a node is its 0-based index from the start
(the paper's example gives ``pz`` length 4 with node ``A1589`` at
position 2 counting from 1; we use 0-based indices internally and the
docstrings say so wherever it matters).

Data paths additionally remember the underlying node identifiers of the
graph they were extracted from, so answers can be materialised back
into subgraphs.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..rdf.terms import Term, Variable, coerce_term


class Path:
    """An immutable source-to-sink path of labels.

    Parameters
    ----------
    nodes:
        The node labels, in order from source to sink (at least one).
    edges:
        The edge labels; must number exactly ``len(nodes) - 1``.
    node_ids:
        Optional graph node identifiers matching ``nodes`` — present on
        paths extracted from a :class:`~repro.rdf.graph.DataGraph`,
        absent on synthetic paths.
    """

    __slots__ = ("nodes", "edges", "node_ids", "_hash", "_label_set",
                 "_label_ids", "_edge_ids")

    def __init__(self, nodes: Sequence, edges: Sequence,
                 node_ids: "Sequence[int] | None" = None):
        nodes = tuple(coerce_term(n) for n in nodes)
        edges = tuple(coerce_term(e) for e in edges)
        if not nodes:
            raise ValueError("a path needs at least one node")
        if len(edges) != len(nodes) - 1:
            raise ValueError(f"a path of {len(nodes)} nodes needs "
                             f"{len(nodes) - 1} edges, got {len(edges)}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "node_ids",
                           tuple(node_ids) if node_ids is not None else None)
        object.__setattr__(self, "_hash", None)
        # Memoised by node_label_set(); χ is called on every conformity
        # check, so the set must not be rebuilt per call.
        object.__setattr__(self, "_label_set", None)
        # Dense interned node- and edge-label ids (attach_label_ids) —
        # absent (None) on paths that never went through a LabelInterner.
        object.__setattr__(self, "_label_ids", None)
        object.__setattr__(self, "_edge_ids", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Path is immutable")

    def __reduce__(self):
        # Pickle through :meth:`from_terms`: the default slot-state
        # protocol restores via ``setattr`` and hits the immutability
        # guard.  Cached label ids are interner-specific and deliberately
        # not shipped — the receiving side re-derives them against its
        # own interner.
        return (Path.from_terms, (self.nodes, self.edges, self.node_ids))

    @classmethod
    def from_terms(cls, nodes: "tuple[Term, ...]", edges: "tuple[Term, ...]",
                   node_ids: "tuple[int, ...] | None" = None) -> "Path":
        """Construct from already-validated Term tuples.

        The record-decode fast path: callers guarantee ``nodes`` and
        ``edges`` are Term tuples of consistent lengths (the codec
        enforced that when the record was written), so per-element
        coercion and the length checks are skipped.
        """
        path = object.__new__(cls)
        set_slot = object.__setattr__
        set_slot(path, "nodes", nodes)
        set_slot(path, "edges", edges)
        set_slot(path, "node_ids", node_ids)
        set_slot(path, "_hash", None)
        set_slot(path, "_label_set", None)
        set_slot(path, "_label_ids", None)
        set_slot(path, "_edge_ids", None)
        return path

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Path)
                and self.nodes == other.nodes
                and self.edges == other.edges)

    def __hash__(self):
        # Lazy: hashing every term eagerly would dominate record decode,
        # and most decoded paths are never used as dict keys.
        cached = self._hash
        if cached is None:
            cached = hash((self.nodes, self.edges))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self):
        return f"Path({self.text()!r})"

    # -- paper vocabulary ---------------------------------------------------

    @property
    def length(self) -> int:
        """Number of nodes (the paper's notion of path length)."""
        return len(self.nodes)

    @property
    def source(self) -> Term:
        """Label of the first node."""
        return self.nodes[0]

    @property
    def sink(self) -> Term:
        """Label of the last node."""
        return self.nodes[-1]

    def position_of(self, label) -> int:
        """0-based position of the first node carrying ``label``.

        Raises ``ValueError`` when the label does not occur.
        """
        label = coerce_term(label)
        for index, node in enumerate(self.nodes):
            if node == label:
                return index
        raise ValueError(f"{label!r} does not occur in {self!r}")

    # -- structure ----------------------------------------------------------

    def elements(self) -> Iterator[tuple[str, Term]]:
        """Interleaved ``('node'|'edge', label)`` pairs, source to sink."""
        for index, node in enumerate(self.nodes):
            yield ("node", node)
            if index < len(self.edges):
                yield ("edge", self.edges[index])

    def pairs(self) -> Iterator[tuple[Term, Term]]:
        """``(edge label, node label)`` pairs walking source → sink.

        Pair ``i`` is the edge leaving node ``i`` together with node
        ``i+1``; the source node itself is not part of any pair.  This
        is the unit the backward alignment scan works in.
        """
        for index, edge in enumerate(self.edges):
            yield (edge, self.nodes[index + 1])

    def reversed_pairs(self) -> Iterator[tuple[Term, Term]]:
        """``(edge, node)`` pairs walking sink → source.

        Pair ``i`` (0-based from the sink) is the edge entering the node
        at distance ``i`` from the sink together with the node *before*
        it — the orientation of the paper's "scan contrary to the
        direction of the edges" (§4.3).
        """
        for index in range(len(self.edges) - 1, -1, -1):
            yield (self.edges[index], self.nodes[index])

    def node_label_set(self) -> frozenset[Term]:
        """The set of node labels (the operand of the χ function)."""
        if self._label_set is None:
            object.__setattr__(self, "_label_set", frozenset(self.nodes))
        return self._label_set

    # -- interned label ids -------------------------------------------------

    def attach_label_ids(self, label_ids, edge_ids) -> None:
        """Attach interned label ids: two ``array('i')``-compatible
        sequences aligned with ``nodes`` and ``edges``.

        Interning is injective, so id equality is label equality —
        which is what lets χ/ψ intersect small int-sets and the λ scan
        (:func:`repro.index.columnar.score_rows`) compare ints instead
        of hashing Terms.  Attaching twice is a no-op (the ids are a
        pure function of the labels for a given interner).
        """
        if self._label_ids is None:
            if (len(label_ids) != len(self.nodes)
                    or len(edge_ids) != len(self.edges)):
                raise ValueError(
                    f"need one label id per node and edge: "
                    f"{len(label_ids)}+{len(edge_ids)} ids for "
                    f"{len(self.nodes)} nodes, {len(self.edges)} edges")
            object.__setattr__(self, "_label_ids", label_ids)
            object.__setattr__(self, "_edge_ids", edge_ids)

    @property
    def label_ids(self):
        """The attached interned node-label ids, or ``None``."""
        return self._label_ids

    @property
    def edge_ids(self):
        """The attached interned edge-label ids, or ``None``."""
        return self._edge_ids

    def variables(self) -> set[Variable]:
        """Variables occurring as node or edge labels (query paths)."""
        found = {n for n in self.nodes if isinstance(n, Variable)}
        found.update(e for e in self.edges if isinstance(e, Variable))
        return found

    @property
    def is_ground(self) -> bool:
        """True when the path mentions no variables (data paths)."""
        return not self.variables()

    def triples(self) -> Iterator[tuple[Term, Term, Term]]:
        """The path as ``(subject, predicate, object)`` label triples."""
        for index, edge in enumerate(self.edges):
            yield (self.nodes[index], edge, self.nodes[index + 1])

    def prefix(self, node_count: int) -> "Path":
        """The sub-path over the first ``node_count`` nodes."""
        if not 1 <= node_count <= self.length:
            raise ValueError(f"node_count must be in [1, {self.length}]")
        ids = self.node_ids[:node_count] if self.node_ids else None
        clipped = Path(self.nodes[:node_count], self.edges[:node_count - 1], ids)
        if self._label_ids is not None:
            # Interned ids slice with the labels, so prefix-trimmed
            # candidates stay in id space for free.
            clipped.attach_label_ids(self._label_ids[:node_count],
                                     self._edge_ids[:node_count - 1])
        return clipped

    # -- rendering ------------------------------------------------------------

    def text(self, separator: str = "-") -> str:
        """The paper's inline notation, e.g. ``CB-sponsor-A0056-...``.

        URIs are shortened to their local names for readability.
        """
        parts = []
        for kind, label in self.elements():
            parts.append(_short(label))
        return separator.join(parts)

    def __str__(self):
        return self.text()


def _short(label: Term) -> str:
    from ..rdf.terms import URI
    if isinstance(label, URI):
        return label.local_name
    return str(label)


def path_of(*labels, node_ids=None) -> Path:
    """Build a path from an interleaved label sequence.

    ``path_of(n1, e1, n2, e2, n3)`` — the literal transliteration of the
    paper's ``n1-e1-n2-e2-n3`` notation.  Strings are coerced to terms.
    """
    if len(labels) % 2 == 0:
        raise ValueError("an interleaved path needs an odd number of labels")
    return Path(labels[0::2], labels[1::2], node_ids=node_ids)
