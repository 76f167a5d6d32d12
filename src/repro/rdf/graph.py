"""Labelled directed graphs over RDF terms (Definitions 1 and 2).

A :class:`DataGraph` is the quadruple ``<N, E, LN, LE>`` of the paper: a
set of nodes, a set of directed edges, and labelling functions mapping
nodes to ``U ∪ L`` and edges to ``U``.  Nodes carry integer identities
separate from their labels because an RDF graph rendered as a picture
(e.g. Fig. 1 of the paper, with two distinct ``Term 10/21/94`` nodes)
may label several nodes identically.

A :class:`QueryGraph` is a data graph whose labels may additionally be
variables (Definition 2).

Construction is triple-oriented: :meth:`DataGraph.add_triple` merges
nodes by label (standard RDF semantics — one node per URI), while
:meth:`DataGraph.add_node` always mints a fresh node for callers that
need label-duplicated nodes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .terms import Literal, Term, URI, Variable, coerce_term
from .triples import Triple


class Edge(NamedTuple):
    """A directed labelled edge between two node identifiers."""

    src: int
    label: Term
    dst: int


class DataGraph:
    """A labelled directed graph ``G = <N, E, LN, LE>``.

    Nodes are integer identifiers; ``label_of`` realises the labelling
    function ``LN``.  Edges are ``(src, label, dst)`` triples of ids and
    an edge label, realising ``E`` and ``LE`` together.  Parallel edges
    with distinct labels are allowed; a duplicate ``(src, label, dst)``
    is ignored (RDF set semantics).
    """

    #: Class of graph — used in error messages and by ``is_query``.
    _allow_variables = False

    def __init__(self, name: str = ""):
        self.name = name
        self._labels: dict[int, Term] = {}
        self._out: dict[int, list[tuple[Term, int]]] = {}
        self._in: dict[int, list[tuple[Term, int]]] = {}
        self._edge_set: set[Edge] = set()
        # One node per (merged) label; literals can opt out of merging.
        self._node_by_label: dict[Term, int] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, label: "Term | str") -> int:
        """Mint a fresh node with ``label`` and return its identifier.

        Unlike :meth:`node_for`, this never reuses an existing node, so
        it can create several nodes sharing one label.
        """
        label = coerce_term(label)
        self._check_label(label, "node")
        node = self._next_id
        self._next_id += 1
        self._labels[node] = label
        self._out[node] = []
        self._in[node] = []
        # First node with a label becomes the canonical one for merging.
        self._node_by_label.setdefault(label, node)
        return node

    def node_for(self, label: "Term | str") -> int:
        """Return the node labelled ``label``, creating it if absent.

        This is the merging entry point used by :meth:`add_triple`: all
        triples mentioning one URI resolve to one node.
        """
        label = coerce_term(label)
        existing = self._node_by_label.get(label)
        if existing is not None:
            return existing
        return self.add_node(label)

    def add_edge(self, src: int, label: "Term | str", dst: int) -> Edge:
        """Add the directed edge ``src --label--> dst`` (idempotent)."""
        label = coerce_term(label)
        self._check_label(label, "edge")
        if isinstance(label, Literal):
            raise ValueError("edge labels must be URIs (ΣE = U), not literals")
        for node in (src, dst):
            if node not in self._labels:
                raise KeyError(f"unknown node id {node}")
        edge = Edge(src, label, dst)
        if edge not in self._edge_set:
            self._edge_set.add(edge)
            self._out[src].append((label, dst))
            self._in[dst].append((label, src))
        return edge

    def remove_edge(self, src: int, label: "Term | str", dst: int) -> bool:
        """Remove the edge ``src --label--> dst``; False when absent.

        Both endpoints stay as nodes (possibly isolated), so node
        identifiers are stable under removal.
        """
        edge = Edge(src, coerce_term(label), dst)
        if edge not in self._edge_set:
            return False
        self._edge_set.remove(edge)
        self._out[src].remove((edge.label, dst))
        self._in[dst].remove((edge.label, src))
        return True

    def add_triple(self, subject, predicate, object) -> Edge:
        """Add one RDF triple, merging subject/object nodes by label."""
        triple = Triple.of(subject, predicate, object)
        src = self.node_for(triple.subject)
        dst = self.node_for(triple.object)
        return self.add_edge(src, triple.predicate, dst)

    def add_triples(self, rows: Iterable) -> None:
        """Add many triples; each row is a ``Triple`` or a 3-tuple."""
        for row in rows:
            self.add_triple(*row)

    @classmethod
    def from_triples(cls, rows: Iterable, name: str = "") -> "DataGraph":
        """Build a graph from an iterable of triples or 3-tuples."""
        graph = cls(name=name)
        graph.add_triples(rows)
        return graph

    def _check_label(self, label: Term, kind: str) -> None:
        if isinstance(label, Variable) and not self._allow_variables:
            raise ValueError(
                f"variables are not allowed as {kind} labels in a data graph; "
                f"use QueryGraph for {label!r}")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def is_query(self) -> bool:
        """True for :class:`QueryGraph` instances."""
        return self._allow_variables

    def nodes(self) -> Iterator[int]:
        """Iterate over node identifiers."""
        return iter(self._labels)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in insertion order per source node."""
        for src, adjacency in self._out.items():
            for label, dst in adjacency:
                yield Edge(src, label, dst)

    def triples(self) -> Iterator[Triple]:
        """Iterate over the graph as label-level triples."""
        for edge in self.edges():
            yield Triple(self._labels[edge.src], edge.label, self._labels[edge.dst])

    def label_of(self, node: int) -> Term:
        """The labelling function ``LN``."""
        return self._labels[node]

    def out_edges(self, node: int) -> list[tuple[Term, int]]:
        """Outgoing ``(edge label, destination)`` pairs of ``node``."""
        return self._out[node]

    def in_edges(self, node: int) -> list[tuple[Term, int]]:
        """Incoming ``(edge label, source)`` pairs of ``node``."""
        return self._in[node]

    def out_degree(self, node: int) -> int:
        return len(self._out[node])

    def in_degree(self, node: int) -> int:
        return len(self._in[node])

    def node_count(self) -> int:
        return len(self._labels)

    def edge_count(self) -> int:
        return len(self._edge_set)

    def __len__(self) -> int:
        return self.edge_count()

    def __contains__(self, item) -> bool:
        if isinstance(item, Edge):
            return item in self._edge_set
        if isinstance(item, int):
            return item in self._labels
        if isinstance(item, Triple):
            return any(t == item for t in self.triples())
        if isinstance(item, Term):
            return item in self._node_by_label
        return False

    def nodes_labelled(self, label: "Term | str") -> list[int]:
        """All node ids carrying ``label`` (possibly several)."""
        label = coerce_term(label)
        return [n for n, l in self._labels.items() if l == label]

    def node_labels(self) -> set[Term]:
        """The set of labels in use on nodes."""
        return set(self._labels.values())

    def edge_labels(self) -> set[Term]:
        """The set of labels in use on edges."""
        return {edge.label for edge in self._edge_set}

    def variables(self) -> set[Variable]:
        """All variables used as node or edge labels (empty for data)."""
        found = {l for l in self._labels.values() if isinstance(l, Variable)}
        found.update(e.label for e in self._edge_set if isinstance(e.label, Variable))
        return found

    # ------------------------------------------------------------------
    # Topology used by path extraction (§3.2)
    # ------------------------------------------------------------------

    def sources(self) -> list[int]:
        """Nodes with no incoming edges, in id order."""
        return sorted(n for n in self._labels if not self._in[n])

    def sinks(self) -> list[int]:
        """Nodes with no outgoing edges, in id order."""
        return sorted(n for n in self._labels if not self._out[n])

    def hubs(self) -> list[int]:
        """Nodes maximising ``out-degree − in-degree`` (§3.2 hub rule).

        Used to seed path extraction when the graph has no sources.
        Nodes with no outgoing edges can never start a path and are
        excluded.
        """
        candidates = [n for n in self._labels if self._out[n]]
        if not candidates:
            return []
        best = max(len(self._out[n]) - len(self._in[n]) for n in candidates)
        return sorted(n for n in candidates
                      if len(self._out[n]) - len(self._in[n]) == best)

    def path_roots(self) -> list[int]:
        """Sources, or hubs when the graph is source-free."""
        roots = self.sources()
        return roots if roots else self.hubs()

    # ------------------------------------------------------------------
    # Subgraphs and copies
    # ------------------------------------------------------------------

    def subgraph(self, node_ids: Iterable[int]) -> "DataGraph":
        """The induced subgraph over ``node_ids`` (same class as self)."""
        keep = set(node_ids)
        sub = type(self)(name=f"{self.name}/sub")
        mapping = {}
        for node in sorted(keep):
            mapping[node] = sub.add_node(self._labels[node])
        for edge in self._edge_set:
            if edge.src in keep and edge.dst in keep:
                sub.add_edge(mapping[edge.src], edge.label, mapping[edge.dst])
        return sub

    def copy(self) -> "DataGraph":
        """A structural copy preserving node identifiers.

        Node ids are dense integers minted from 0, so re-adding the
        labels in id order reproduces the same identifiers.
        """
        clone = type(self)(name=self.name)
        for node in sorted(self._labels):
            clone.add_node(self._labels[node])
        for edge in self._edge_set:
            clone.add_edge(edge.src, edge.label, edge.dst)
        return clone

    def __repr__(self):
        kind = type(self).__name__
        tag = f" {self.name!r}" if self.name else ""
        return (f"<{kind}{tag}: {self.node_count()} nodes, "
                f"{self.edge_count()} edges>")


class QueryGraph(DataGraph):
    """A data graph whose node and edge labels may be variables.

    This realises Definition 2: ``ΣN = U ∪ L ∪ VAR`` and
    ``ΣE = U ∪ VAR``.
    """

    _allow_variables = True

    def _check_label(self, label: Term, kind: str) -> None:
        # Variables are fine everywhere in a query graph.
        return

    def constants(self) -> set[Term]:
        """All non-variable node labels (anchors for clustering)."""
        return {l for l in self._labels.values() if not l.is_variable}
