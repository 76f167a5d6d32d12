"""Offline index construction (§6.1): the three-step build.

The paper's indexing process is "(i) hashing of all vertices' and
edges' labels, (ii) identification of sources and sinks, and (iii)
computation of the paths" via concurrent BFS from every source.  The
builder runs those steps, times each, stores the paths on disk (plain,
or partitioned across shards — one :class:`~repro.index.sharded.IndexWriter`
writes every layout), and reports the Table 1 statistics: triple
count, hypergraph sizes |HV| / |HE|, build time, and bytes on disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..paths.extraction import ExtractionLimits, _Budget, _walk_from
from ..rdf.graph import DataGraph
from ..rdf.terms import Term
from .sharded import IndexWriter
from .thesaurus import Thesaurus, default_thesaurus

#: The indexer's default budget.  Unlike ad-hoc extraction (which
#: raises on explosion so nothing truncates silently), the offline
#: build *truncates and reports*: densely cyclic graphs — the political
#: blogosphere, say — have astronomically many simple source-to-sink
#: paths, and the paper's own index builds are bounded by feasibility
#: ("building the index takes hours for large RDF data graphs").  The
#: truncation is never silent: ``IndexStats.truncated`` records it.
INDEXER_LIMITS = ExtractionLimits(max_length=32, max_paths=200_000,
                                  on_limit="truncate")


@dataclass
class IndexStats:
    """Build statistics — one row of Table 1, plus extras.

    ``hv_count`` and ``he_count`` are the hypergraph sizes of §6.1
    (vertices = graph nodes; hyperedges = stored paths, per Fig. 5).
    """

    dataset: str = ""
    triple_count: int = 0
    hv_count: int = 0
    he_count: int = 0
    label_count: int = 0
    source_count: int = 0
    sink_count: int = 0
    path_count: int = 0
    build_seconds: float = 0.0
    size_bytes: int = 0
    truncated: bool = False
    step_seconds: dict = field(default_factory=dict)

    def table1_row(self) -> tuple:
        """(dataset, #triples, |HV|, |HE|, time, space) — Table 1's columns."""
        return (self.dataset, self.triple_count, self.hv_count,
                self.he_count, self.build_seconds, self.size_bytes)


def build_index(graph: DataGraph, directory,
                limits: ExtractionLimits = INDEXER_LIMITS,
                thesaurus: "Thesaurus | None" = None,
                shards: int = 1):
    """Build the path index of ``graph`` under ``directory``.

    Returns the opened index and its :class:`IndexStats`.
    ``thesaurus`` defaults to the built-in lexicon.  Records are
    label-interned: varint ids into the ``labels.dict`` dictionary
    persisted beside the log
    (:class:`~repro.index.labels.LabelInterner`).

    Paths are stored in walk order through one
    :class:`~repro.index.sharded.IndexWriter`: at ``shards=1`` a plain
    :class:`~repro.index.pathindex.PathIndex` comes back; ``shards > 1``
    partitions them across N self-contained shard directories and a
    :class:`~repro.index.sharded.ShardedIndex` comes back (same lookup
    surface, bit-identical rankings).
    """
    if thesaurus is None:
        thesaurus = default_thesaurus()
    stats = IndexStats(dataset=graph.name or "<anonymous>")
    total_started = time.perf_counter()

    # Step (i): hash all vertex and edge labels.
    step_started = time.perf_counter()
    labels: set[Term] = set(graph.node_labels())
    labels.update(graph.edge_labels())
    stats.label_count = len(labels)
    stats.step_seconds["hash_labels"] = time.perf_counter() - step_started

    # Step (ii): identify sources and sinks.
    step_started = time.perf_counter()
    sources = graph.sources()
    sinks = graph.sinks()
    roots = sources if sources else graph.hubs()
    stats.source_count = len(roots)
    stats.sink_count = len(sinks)
    stats.step_seconds["find_sources_sinks"] = time.perf_counter() - step_started

    # Step (iii): compute and store the paths (BFS from every root).
    step_started = time.perf_counter()
    writer = IndexWriter(directory, shards, thesaurus=thesaurus)
    budget = _Budget(limits, graph)
    for root in roots:
        for path in _walk_from(graph, root, budget):
            writer.add_path(path)
    stats.truncated = budget.truncated
    stats.step_seconds["compute_paths"] = time.perf_counter() - step_started

    stats.triple_count = graph.edge_count()
    stats.hv_count = graph.node_count()
    stats.path_count = budget.emitted
    stats.he_count = budget.emitted
    index = writer.finish({
        "dataset": stats.dataset,
        "triples": stats.triple_count,
        "hv": stats.hv_count,
        "he": stats.he_count,
        "truncated": stats.truncated,
    })
    stats.size_bytes = writer.size_bytes
    stats.build_seconds = time.perf_counter() - total_started
    return index, stats
