"""The Sama engine facade: index once, query many times.

This is the library's main entry point::

    from repro import SamaEngine
    from repro.datasets.govtrack import govtrack_graph

    engine = SamaEngine.from_graph(govtrack_graph())
    answers = engine.query('''
        PREFIX gov: <http://example.org/govtrack/>
        SELECT ?v1 ?v2 ?v3 WHERE {
            gov:CarlaBunes gov:sponsor ?v1 .
            ?v1 gov:aTo ?v2 .
            ?v2 gov:subject "Health Care" .
            ?v3 gov:sponsor ?v2 .
            ?v3 gov:gender "Male" .
        }''', k=10)

Queries are SPARQL text, :class:`~repro.rdf.sparql.SelectQuery` objects
or :class:`~repro.rdf.graph.QueryGraph` instances.  Answers come back
best-first by the paper's score.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import threading
from dataclasses import dataclass, field, replace

from ..index.builder import IndexStats, build_index
from ..index.columnar import make_id_matcher
from ..index.columns import PathColumns
from ..index.labels import SemanticMatcher
from ..index.pathindex import PathIndex
from ..index.thesaurus import Thesaurus, default_thesaurus
from ..obs import span
from ..parallel import ProcessShardPool
from ..parallel import worker_mode as resolve_worker_mode
from ..paths.alignment import LabelMatcher, exact_match
from ..paths.extraction import DEFAULT_LIMITS, ExtractionLimits
from ..rdf.graph import DataGraph, QueryGraph
from ..rdf.sparql import SelectQuery, parse_select
from ..resilience.budget import Budget, PartialResult
from ..resilience.errors import QueryTimeout
from ..scoring.weights import PAPER_WEIGHTS, ScoringWeights
from .answers import Answer
from .clustering import Cluster, build_clusters
from .forest import PathForest
from .preprocess import PreparedQuery, prepare_query, validate_query_graph
from .search import SearchConfig, SearchResult, top_k


@dataclass
class EngineConfig:
    """Tunables of a :class:`SamaEngine`.

    ``matcher_level`` picks the label comparison inside alignments
    (``exact`` / ``lexical`` / ``semantic``); ``semantic_lookup``
    controls thesaurus widening during index retrieval.  The defaults
    reproduce the prototype's behaviour (WordNet-backed matching).

    Over a sharded index clustering scores every shard on the calling
    thread, each shard behind its circuit breaker, unless
    ``worker_mode="procs"`` moves the λ scan into per-shard worker
    processes.
    """

    weights: ScoringWeights = field(default_factory=ScoringWeights.paper)
    matcher_level: str = "semantic"
    semantic_lookup: bool = True
    limits: ExtractionLimits = DEFAULT_LIMITS
    #: Budget for the offline index build; ``None`` uses the indexer's
    #: own truncating default (see ``repro.index.builder.INDEXER_LIMITS``).
    index_limits: "ExtractionLimits | None" = None
    max_cluster_size: "int | None" = 4_000
    search: SearchConfig = field(default_factory=SearchConfig)
    #: Accepted and ignored: nothing reads it since sharded clustering
    #: lost its thread pool.  ``benchmarks/e2e/adapter.py`` still
    #: passes it, so it goes in the same change as that benchmark's
    #: next revision (ROADMAP items 3(a) and 7(a)).
    workers: "int | None" = None
    #: Shard execution mode over a sharded index: ``None`` scores every
    #: shard in-process on the calling thread; ``"procs"`` scores each
    #: shard inside a long-lived worker process with a columnar view of
    #: its paths — the same λ scan, outside the coordinator's GIL and
    #: over rows that need no decode (see DESIGN.md §11).  Rankings are
    #: bit-identical across modes.  ``"threads"`` and any other value
    #: raise :class:`ValueError` when the engine is constructed.
    worker_mode: "str | None" = None
    #: Two-stage retrieval mode (``repro.sketch``): ``"off"`` scores
    #: every retrieved candidate exactly (the paper's behaviour);
    #: ``"safe"`` prunes only candidates provably outside the kept
    #: cluster, so rankings stay bit-identical; ``"approx"`` trades
    #: recall for speed under ``recall_target``.  Both staged modes
    #: need persisted sketches (``sama index sketch``) — without them
    #: the engine silently falls back to exhaustive recall.
    two_stage: str = "off"
    #: Target recall of ``two_stage="approx"`` (ignored otherwise):
    #: the fraction of exhaustive top-k answers the staged run should
    #: keep.  Measured, not promised — ``benchmarks/bench_twostage.py``
    #: gates it.
    recall_target: float = 0.95
    #: Quotient-compressed scoring (``repro.quotient``): ``"auto"``
    #: decodes and scans one path per refined equivalence class whenever
    #: persisted ``quotient.bin`` files match the index epoch (built by
    #: ``sama index build`` / ``sama index quotient``), silently
    #: falling back to per-path scoring when they are absent or stale;
    #: ``"off"`` never loads them.  Rankings are bit-identical either
    #: way (``benchmarks/bench_quotient.py`` gates it).
    quotient: str = "auto"


class SamaEngine:
    """Approximate top-k query answering over one indexed RDF graph."""

    def __init__(self, index: PathIndex,
                 config: "EngineConfig | None" = None,
                 thesaurus: "Thesaurus | None" = None):
        self.index = index
        self.config = config or EngineConfig()
        from ..sketch import validate_mode
        validate_mode(self.config.two_stage)
        if self.config.quotient not in ("auto", "off"):
            raise ValueError(f"quotient must be 'auto' or 'off', "
                             f"got {self.config.quotient!r}")
        # An invalid string fails here, not from shard_pool() on every
        # query.
        resolve_worker_mode(self.config.worker_mode)
        self.thesaurus = thesaurus if thesaurus is not None else default_thesaurus()
        self._build_matcher()
        self.last_result: "SearchResult | None" = None
        self.index_stats: "IndexStats | None" = None
        self._proc_pool: "ProcessShardPool | None" = None
        self._pool_lock = threading.Lock()
        self._sketch_lock = threading.Lock()
        self._sketch_filter = None
        self._sketch_epoch = None
        self._quotient_lock = threading.Lock()
        self._quotient_resolver = None
        self._columns: "PathColumns | None" = None
        self._quotient_epoch = None
        #: A temp dir the index lives in and :meth:`close` removes.
        self._owned_directory: "str | None" = None

    def _build_matcher(self) -> None:
        level = self.config.matcher_level
        self.matcher: LabelMatcher = (
            exact_match if level == "exact"
            else SemanticMatcher(self.thesaurus, level=level))
        #: The matcher in id space — the one verdict memo of this
        #: ``(index.interner, matcher)``, read by the λ scan, the refine
        #: keys and the sketch filter through each cluster's encoded
        #: query.
        self.ids_match = make_id_matcher(self.index.interner, self.matcher)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: DataGraph, directory=None,
                   config: "EngineConfig | None" = None,
                   thesaurus: "Thesaurus | None" = None) -> "SamaEngine":
        """Index ``graph`` (under ``directory`` or a temp dir) and wrap it.

        A temp dir made here belongs to the engine: :meth:`close`
        removes it.
        """
        config = config or EngineConfig()
        if thesaurus is None:
            thesaurus = default_thesaurus()
        owned = None
        if directory is None:
            directory = owned = tempfile.mkdtemp(prefix="sama-index-")
        from ..index.builder import INDEXER_LIMITS
        try:
            index, stats = build_index(
                graph, directory,
                limits=config.index_limits or INDEXER_LIMITS,
                thesaurus=thesaurus)
            engine = cls(index, config=config, thesaurus=thesaurus)
        except BaseException:
            if owned is not None:
                shutil.rmtree(owned, ignore_errors=True)
            raise
        engine.index_stats = stats
        engine._owned_directory = owned
        return engine

    @classmethod
    def open(cls, directory, config: "EngineConfig | None" = None,
             thesaurus: "Thesaurus | None" = None,
             read_latency: float = 0.0,
             recover: bool = False) -> "SamaEngine":
        """Reopen a previously built index directory.

        Detects the layout: a directory holding a sharded manifest
        (built with ``sama index build --shards N`` or
        :func:`repro.index.sharded.build_sharded_index`) comes back as
        a :class:`~repro.index.sharded.ShardedIndex`, anything else as
        a plain :class:`PathIndex`.  The engine runs identically on
        both — sharding changes wall-clock, never rankings.

        ``recover=True`` (sharded indexes only) runs the startup
        recovery scan and opens *around* damaged shards — each one is
        quarantined on the index's health board and queries degrade
        with ``SHARD_FAILED`` instead of the open failing.  This is
        what ``sama serve`` uses; offline tools keep the strict
        default, where damage is a hard error.
        """
        if thesaurus is None:
            thesaurus = default_thesaurus()
        from ..index.sharded import ShardedIndex, is_sharded_dir
        if is_sharded_dir(directory):
            index = ShardedIndex.open(
                directory, thesaurus=thesaurus, read_latency=read_latency,
                on_damage="quarantine" if recover else "raise")
        else:
            index = PathIndex.open(directory, thesaurus=thesaurus,
                                   read_latency=read_latency)
        engine = cls(index, config=config, thesaurus=thesaurus)
        # What was loaded (label maps, interner, thesaurus, quotient
        # classes) lives as long as the engine and holds no garbage:
        # take it out of the cyclic collector's sight, so the full
        # passes query-time allocation triggers stop re-walking it.
        # GC stays enabled for everything allocated from here on.
        engine.quotient_resolver()
        gc.collect()
        gc.freeze()
        return engine

    # -- query API ----------------------------------------------------------------

    def prepare(self, query, budget: "Budget | None" = None) -> PreparedQuery:
        """Coerce/parse ``query``, validate it, and decompose it (step 1).

        Raises a typed
        :class:`~repro.resilience.errors.InvalidQueryError` for queries
        that cannot be meaningfully evaluated (empty pattern, pattern
        binding no constants, disconnected query graph) — catching
        these up front keeps them from surfacing as confusing failures
        deep inside clustering.
        """
        with span("prepare"):
            graph = self._coerce_query(query)
            validate_query_graph(graph)
            return prepare_query(graph, limits=self.config.limits,
                                 budget=budget)

    def clusters(self, prepared: PreparedQuery,
                 budget: "Budget | None" = None) -> list[Cluster]:
        """Clustering (step 2) for an already prepared query: the
        retrieve → filter → charge → score → merge pipeline of
        :func:`~repro.engine.clustering.build_clusters`, wired to this
        engine's per-epoch state and execution mode."""
        with span("cluster"):
            return build_clusters(prepared, self.index, self.ids_match,
                                  weights=self.config.weights,
                                  semantic_lookup=self.config.semantic_lookup,
                                  max_cluster_size=self.config.max_cluster_size,
                                  budget=budget,
                                  proc_pool=self.shard_pool(),
                                  sketch_filter=self.sketch_filter(),
                                  quotient=self.quotient_resolver(),
                                  columns=self.path_columns())

    def query(self, query, k: "int | None" = None, *,
              deadline_ms: "float | None" = None,
              budget: "Budget | None" = None,
              on_budget: str = "partial") -> PartialResult:
        """Answer ``query``: the top-k answers, best (lowest score) first.

        The result is a :class:`PartialResult` — a plain ``list`` of
        answers with the degradation record attached.  With no budget
        it is always complete; ``deadline_ms`` (shorthand for
        ``Budget(deadline_ms=...)``) or an explicit ``budget`` arms
        cooperative cancellation across preprocessing, clustering and
        search.  When a limit trips, ``on_budget`` decides the
        contract:

        - ``"partial"`` (default): return the best answers found
          before the trip, with machine-readable reasons on
          ``result.reasons`` — a 0 ms deadline yields an *empty*
          partial result, never an exception;
        - ``"raise"``: raise
          :class:`~repro.resilience.errors.QueryTimeout` carrying the
          same reasons and partial answers.

        Example — the paper's Fig. 1 US-Congress graph, asking for
        male principal sponsors of bills amended by Carla Bunes'
        Health-Care amendments (Fig. 1(b)'s query ``Q1``; no exact
        match exists, so the best answers carry an approximation
        cost):

        >>> from repro.datasets.govtrack import govtrack_graph
        >>> from repro.engine import SamaEngine
        >>> engine = SamaEngine.from_graph(govtrack_graph())
        >>> answers = engine.query('''
        ...     PREFIX gov: <http://example.org/govtrack/>
        ...     SELECT ?v1 ?v2 ?v3 WHERE {
        ...         gov:CarlaBunes gov:sponsor ?v1 .
        ...         ?v1 gov:aTo ?v2 .
        ...         ?v2 gov:subject "Health Care" .
        ...         ?v3 gov:sponsor ?v2 .
        ...         ?v3 gov:gender "Male" .
        ...     }''', k=3)
        >>> answers.complete
        True
        >>> round(answers[0].score, 3)
        2.0
        >>> sorted(str(v) for v in answers[0].substitution())
        ['?v1', '?v2', '?v3']
        """
        if on_budget not in ("partial", "raise"):
            raise ValueError(f"on_budget must be 'partial' or 'raise', "
                             f"got {on_budget!r}")
        if deadline_ms is not None:
            if budget is not None:
                raise ValueError("pass either deadline_ms or budget, not both")
            budget = Budget(deadline_ms=deadline_ms)
        if budget is None:
            # An unlimited budget: no limit can trip, but fault-time
            # degradation (a failed shard's SHARD_FAILED) still has a
            # place to be recorded and flows to the PartialResult.
            budget = Budget()
        prepared = self.prepare(query, budget=budget)
        clusters = self.clusters(prepared, budget=budget)
        search_config = self.config.search
        if k is not None:
            search_config = replace(search_config, k=k)
        with span("search"):
            result = top_k(prepared, clusters, weights=self.config.weights,
                           config=search_config, budget=budget)
        self.last_result = result
        reasons = budget.reasons if budget is not None else result.degradation
        partial = PartialResult(result.answers, reasons=reasons)
        if partial.degraded and on_budget == "raise":
            raise QueryTimeout(
                "query budget exhausted: "
                + "; ".join(str(reason) for reason in partial.reasons),
                reasons=partial.reasons, partial=partial)
        return partial

    def select(self, query, k: "int | None" = None, *,
               deadline_ms: "float | None" = None,
               budget: "Budget | None" = None,
               on_budget: str = "partial"):
        """Answer a SPARQL SELECT and project the bindings rows.

        Returns a :class:`~repro.engine.results.ResultSet`: one row per
        ranked answer, shaped by the query's projection (and
        deduplicated under ``SELECT DISTINCT``).  ``query`` must be
        SPARQL text or a parsed :class:`SelectQuery` — a bare
        :class:`QueryGraph` has no projection to apply.  Budget
        arguments behave exactly as in :meth:`query`.
        """
        from .results import result_set

        if isinstance(query, str):
            query = parse_select(query)
        if not isinstance(query, SelectQuery):
            raise TypeError("select() needs SPARQL text or a SelectQuery; "
                            "use query() for bare query graphs")
        answers = self.query(query, k=k, deadline_ms=deadline_ms,
                             budget=budget, on_budget=on_budget)
        return result_set(query, answers)

    def explain(self, query, entries_per_cluster: int = 4,
                budget: "Budget | None" = None) -> PathForest:
        """The Fig. 4 forest of paths for ``query`` (diagnostics)."""
        prepared = self.prepare(query, budget=budget)
        clusters = self.clusters(prepared, budget=budget)
        with span("forest"):
            return PathForest(clusters, prepared.ig,
                              entries_per_cluster=entries_per_cluster,
                              budget=budget)

    def _coerce_query(self, query) -> QueryGraph:
        if isinstance(query, QueryGraph):
            return query
        if isinstance(query, SelectQuery):
            return query.graph()
        if isinstance(query, DataGraph):
            # A plain data graph is a fully-ground query.
            ground = QueryGraph(name=query.name)
            ground.add_triples(query.triples())
            return ground
        if isinstance(query, str):
            return parse_select(query).graph()
        raise TypeError(f"cannot interpret {type(query).__name__} as a query")

    # -- two-stage retrieval ---------------------------------------------------

    def sketch_filter(self):
        """The stage-1 candidate filter, or ``None`` (exhaustive recall).

        Built lazily from the persisted ``sketch.bin`` files when
        ``config.two_stage`` is ``"safe"`` or ``"approx"``, and rebuilt
        whenever the index epoch moves (an incremental round, a reopen
        after compaction) — a moved epoch orphans the loaded sketches,
        and the reload finds either fresh files or nothing, in which
        case recall silently falls back to exhaustive.  The returned
        callable wraps the pure filter with the ``sketch`` span and the
        ``sama_sketch_candidates_total`` / ``sama_sketch_pruned_total``
        counters, so clustering stays observability-free.
        """
        mode = self.config.two_stage
        if mode == "off":
            return None
        index = self.index
        epoch = index.epoch
        with self._sketch_lock:
            if self._sketch_epoch == epoch:
                return self._sketch_filter
            self._sketch_epoch = epoch
            self._sketch_filter = None
            from ..obs import get_registry
            from ..sketch import SketchIndex, TwoStageFilter
            sketches = SketchIndex.for_index(index)
            if sketches is None:
                return None
            judge = TwoStageFilter(index, sketches, self.ids_match,
                                   self.config.weights, mode,
                                   self.config.max_cluster_size,
                                   recall_target=self.config.recall_target)
            registry = get_registry()
            candidates_total = registry.counter(
                "sama_sketch_candidates_total",
                "Candidates entering the two-stage sketch filter")
            pruned_total = registry.counter(
                "sama_sketch_pruned_total",
                "Candidates pruned by the sketch filter before exact "
                "lambda/psi scoring")

            def filtered(query, offsets, qctx):
                with span("sketch"):
                    kept = judge(query, offsets, qctx)
                candidates_total.inc(len(offsets))
                pruned_total.inc(len(offsets) - len(kept))
                return kept

            self._sketch_filter = filtered
        return self._sketch_filter

    # -- per-epoch state: quotient classes and path columns --------------------

    def quotient_resolver(self):
        """The class-compression hook, or ``None`` (per-path scoring).

        Built lazily from the persisted ``quotient.bin`` files when
        ``config.quotient`` is ``"auto"``, and rebuilt whenever the
        index epoch moves (an incremental round, a reopen after
        compaction) — a moved epoch orphans the loaded classes, and
        the reload finds either fresh files or nothing, in which case
        scoring silently falls back to per-path scanning: the exact
        contract ``sketch.bin`` established.  Loading refreshes the
        ``sama_quotient_classes`` / ``sama_quotient_paths`` /
        ``sama_quotient_compression_ratio`` gauges, so ``/stats``
        reports the live compression.
        """
        return self._per_epoch()[0]

    def path_columns(self) -> PathColumns:
        """The :class:`~repro.index.columns.PathColumns` of the current
        index epoch: created beside the quotient resolver (whose
        classes it derives rows from) and dropped with it when the
        epoch moves — rows describe stored bytes, a write orphans them.
        """
        return self._per_epoch()[1]

    def _per_epoch(self) -> tuple:
        epoch = self.index.epoch
        with self._quotient_lock:
            if self._quotient_epoch != epoch:
                self._quotient_epoch = epoch
                self._quotient_resolver = resolver = self._load_quotients()
                self._columns = PathColumns(
                    self.index, resolver.quotients if resolver else None)
            return self._quotient_resolver, self._columns

    def _load_quotients(self):
        index = self.index
        if self.config.quotient == "off":
            return None
        from ..obs import get_registry
        from ..quotient import QuotientIndex, QuotientResolver
        quotients = QuotientIndex.for_index(index)
        if quotients is None:
            return None
        registry = get_registry()
        registry.gauge(
            "sama_quotient_classes",
            "Equality-pattern equivalence classes loaded from "
            "quotient.bin files").set(quotients.class_count)
        registry.gauge(
            "sama_quotient_paths",
            "Stored paths covered by loaded quotient.bin files",
        ).set(quotients.path_count)
        registry.gauge(
            "sama_quotient_compression_ratio",
            "Stored paths per equivalence class across loaded "
            "quotients").set(quotients.compression_ratio)
        return QuotientResolver(quotients)

    # -- execution mode --------------------------------------------------------

    def shard_pool(self) -> "ProcessShardPool | None":
        """The per-shard worker pool, or ``None`` outside procs mode.

        Created once per engine, on first use, when
        ``config.worker_mode`` is ``"procs"`` and the index is sharded
        across more than one shard — a single shard has nothing to fan
        out.
        The pool survives ``cold_cache()`` on purpose: workers hold
        their columnar views for the life of the engine, which is the
        point of the execution mode.
        """
        if self._proc_pool is not None:
            return self._proc_pool
        if resolve_worker_mode(self.config.worker_mode) != "procs":
            return None
        index = self.index
        if not getattr(index, "is_sharded", False) or index.shard_count < 2:
            return None
        with self._pool_lock:
            if self._proc_pool is None:
                self._proc_pool = ProcessShardPool(
                    index.directory, index.shard_count,
                    thesaurus=self.thesaurus,
                    matcher_level=self.config.matcher_level)
        return self._proc_pool

    def warm_workers(self) -> None:
        """Spawn procs-mode shard workers now and wait until ready.

        Concentrates worker startup (process spawn + columnar build) at
        open time instead of the first query; a no-op outside procs
        mode.
        """
        pool = self.shard_pool()
        if pool is not None:
            pool.warm()

    # -- cache control (cold / warm experiments) --------------------------------------

    def cold_cache(self) -> None:
        """Reset the engine to the cold-cache condition of §6.2."""
        self.index.clear_cache()
        if isinstance(self.matcher, SemanticMatcher):
            self._build_matcher()

    def warm_cache(self) -> None:
        """Pre-fault the whole index (warm-cache condition)."""
        self.index.warm_up()

    def close(self) -> None:
        pool, self._proc_pool = self._proc_pool, None
        if pool is not None:
            pool.close()
        self.index.close()
        owned, self._owned_directory = self._owned_directory, None
        if owned is not None:
            shutil.rmtree(owned, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        return f"<SamaEngine over {self.index!r}>"
