"""Path extraction: decomposing a graph into source-to-sink paths (§3.2, §5).

The engine decomposes both the query graph and the data graph into the
set of all paths from sources to sinks.  Extraction is a breadth-first
traversal started independently from every source (the paper runs these
"independently concurrent"; here the roots are walked one after the
other, in root id order).  Graphs without sources promote hub nodes —
those maximising out-degree minus in-degree — to traversal roots.

Cycles are handled by never revisiting a node within one partial path;
a walk that can no longer move (every successor already on the path)
ends there, so extraction always terminates.  Guards on path length and
path count keep pathological graphs (dense DAGs have exponentially many
paths) at bay; hitting a guard raises :class:`PathExplosionError` so
truncation is never silent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from ..rdf.graph import DataGraph
from .model import Path


class PathExplosionError(RuntimeError):
    """Raised when extraction exceeds the configured path/length budget."""


@dataclass(frozen=True)
class ExtractionLimits:
    """Safety guards for path enumeration.

    ``max_length`` bounds the number of nodes per path; ``max_paths``
    bounds the total number of extracted paths.  ``on_limit`` selects
    whether hitting a guard raises (``'raise'``, default) or truncates
    (``'truncate'`` — used by the index builder, which logs the event
    in its statistics instead).
    """

    max_length: int = 64
    max_paths: int = 2_000_000
    on_limit: str = "raise"

    def __post_init__(self):
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.max_paths < 1:
            raise ValueError("max_paths must be >= 1")
        if self.on_limit not in ("raise", "truncate"):
            raise ValueError("on_limit must be 'raise' or 'truncate'")


DEFAULT_LIMITS = ExtractionLimits()


def extract_paths(graph: DataGraph,
                  limits: ExtractionLimits = DEFAULT_LIMITS) -> list[Path]:
    """All source-to-sink paths of ``graph``, ordered by root id.

    Roots are the graph's sources, or its hubs when it has none
    (§3.2).  An isolated node (source and sink at once) yields the
    single-node path containing just its label.
    """
    return list(iter_paths(graph, limits))


def iter_paths(graph: DataGraph,
               limits: ExtractionLimits = DEFAULT_LIMITS) -> Iterator[Path]:
    """Lazily yield the paths of :func:`extract_paths`, in its order."""
    budget = _Budget(limits, graph)
    for root in graph.path_roots():
        yield from _walk_from(graph, root, budget)


class _Budget:
    """Shared mutable counters enforcing :class:`ExtractionLimits`."""

    __slots__ = ("limits", "emitted", "truncated", "graph_name")

    def __init__(self, limits: ExtractionLimits, graph: DataGraph):
        self.limits = limits
        self.emitted = 0
        self.truncated = False
        self.graph_name = graph.name or "<anonymous>"

    def charge_path(self) -> bool:
        """Account for one emitted path; False means stop extracting."""
        if self.emitted >= self.limits.max_paths:
            if self.limits.on_limit == "raise":
                raise PathExplosionError(
                    f"more than {self.limits.max_paths} paths in graph "
                    f"{self.graph_name}; raise ExtractionLimits.max_paths or "
                    f"use on_limit='truncate'")
            self.truncated = True
            return False
        self.emitted += 1
        return True

    def cut_for_length(self, node_count: int, can_extend: bool) -> bool:
        """True when a partial path must stop at the length cap."""
        if node_count < self.limits.max_length or not can_extend:
            return False
        if self.limits.on_limit == "raise":
            raise PathExplosionError(
                f"a path in graph {self.graph_name} exceeds "
                f"{self.limits.max_length} nodes; raise "
                f"ExtractionLimits.max_length or use on_limit='truncate'")
        self.truncated = True
        return True


def _walk_from(graph: DataGraph, root: int, budget: _Budget) -> Iterator[Path]:
    """BFS enumeration of complete paths starting at ``root``.

    The frontier holds partial paths as (node-id tuple, edge-label
    tuple); a partial path is complete when its tip has no outgoing
    edge, no unvisited successor, or the length guard fires.
    """
    frontier: deque[tuple[tuple[int, ...], tuple]] = deque()
    frontier.append(((root,), ()))
    while frontier:
        node_ids, edge_labels = frontier.popleft()
        tip = node_ids[-1]
        on_path = set(node_ids)
        # Cycle cut: never revisit a node within one partial path.
        extensions = [(label, dst) for label, dst in graph.out_edges(tip)
                      if dst not in on_path]
        extended = False
        if not budget.cut_for_length(len(node_ids), bool(extensions)):
            for edge_label, dst in extensions:
                frontier.append((node_ids + (dst,), edge_labels + (edge_label,)))
                extended = True
        if not extended:
            if not budget.charge_path():
                return
            yield Path([graph.label_of(n) for n in node_ids], edge_labels,
                       node_ids=node_ids)


def query_paths(query: DataGraph,
                limits: ExtractionLimits = DEFAULT_LIMITS) -> list[Path]:
    """The paths ``PQ`` of a query graph, in stable (root id) order.

    Identical to :func:`extract_paths`; named separately because the
    engine treats the two path sets differently downstream.
    """
    return extract_paths(query, limits=limits)
