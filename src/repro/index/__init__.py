"""Index substrate: the HyperGraphDB + Lucene stand-in (§6.1).

Offline, :func:`build_index` hashes labels, finds sources and sinks,
extracts every source-to-sink path and persists it in a
page-structured record log — one directory, or ``shards=N`` routed
shard directories, both written by the one
:class:`~repro.index.sharded.IndexWriter` (:func:`reshard` rewrites a
layout through it too).  At query time :func:`open_index` opens either
layout, and the index answers label lookups — by sink or by
containment, exactly / lexically / thesaurus-widened — so the engine
never traverses the data graph online.  Built and live indexes read
their records through one :class:`~repro.index.pathindex.RecordReader`.
"""

from .builder import INDEXER_LIMITS, IndexStats, build_index
from .hypergraph import Hypergraph, hypergraph_of
from .incremental import (CompactionReport, IncrementalIndex, UpdateStats,
                          compact_directory)
from .labels import LabelIndex, LabelInterner, SemanticMatcher
from .pathindex import IndexCorruptError, PathIndex, PathIndexWriter
from .sharded import (ShardedIndex, is_sharded_dir, open_index, reshard,
                      shard_of, signature_hash)
from .thesaurus import Thesaurus, default_thesaurus, tokenize_label

__all__ = [
    "CompactionReport", "Hypergraph", "INDEXER_LIMITS", "IncrementalIndex",
    "IndexCorruptError", "IndexStats", "LabelIndex", "LabelInterner",
    "PathIndex", "PathIndexWriter", "SemanticMatcher", "ShardedIndex",
    "Thesaurus", "UpdateStats", "build_index", "compact_directory",
    "default_thesaurus", "hypergraph_of", "is_sharded_dir", "open_index",
    "reshard", "shard_of", "signature_hash", "tokenize_label",
]
