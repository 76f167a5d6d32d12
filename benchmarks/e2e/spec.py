"""What the benchmark measures: workloads, metrics, and how they interact.

This table is the single source of ``BENCHMARK.json`` (``run.py
--print-manifest`` renders it; ``tests/test_spec.py`` checks the two
agree) and of everything that file's fixed schema has no room for:
scales, client counts, the layer each per-layer metric belongs to, and
the end-to-end metric × workload it is predicted to move.  No gain is
claimed by the change that defines the benchmark: ``CLAIM`` is ``None``.
"""

from __future__ import annotations

CLAIM = None
DEFAULT_SEED = 2013
RUN_SECONDS = 16
#: LUBM generator seed.  The dataset is a fixed corpus (like the paper's
#: LUBM dump); ``--seed`` draws the traffic: template order, constant
#: variants, Zipf ranks, write schedule.
DATA_SEED = 1
#: The five template ids every committed ``BENCH_*.json`` uses.  Five
#: equally weighted classes put p50 in the middle of class 3 and p90 in
#: the middle of class 5, never on a class boundary.
TEMPLATE_IDS = ("Q1", "Q2", "Q3", "Q5", "Q7")
TOP_K = 10

WORKLOADS = {
    "direct_mix": {
        "why": "Fig. 6's workload, one caller on SamaEngine.query: "
               "engine.clustering and engine.search do all the work and "
               "repro.serving none, so kernel and search changes show here.",
        "triples": 8000, "clients": 1, "loop": "closed",
        "sweep": "Q1 Q2 Q3 Q5 Q7 once each, seeded order",
    },
    "served_hot": {
        "why": "Zipf traffic over 32 cached queries through sama serve: "
               "aserve framing, sparql parse, canonical form and the result "
               "cache do all the work; bypass case for engine changes.",
        "triples": 3000, "clients": 2, "loop": "closed",
        "sweep": "128 POST /query drawn Zipf(1.1) from a pool of 32, "
                 "64 per keep-alive connection; 100 % cache hits",
    },
    "served_miss": {
        "why": "Every request a distinct constant-variant through sama "
               "serve, so cache and single-flight never help: the whole "
               "parse-to-serialise path with two callers on one GIL.",
        "triples": 3000, "clients": 2, "loop": "closed",
        "sweep": "10 POST /query, one fresh variant of each template per "
                 "keep-alive connection",
    },
    "live_update": {
        "why": "Writes beside reads on an IncrementalIndex behind "
               "ServingEngine: epoch invalidation makes every read a miss "
               "and no sidecar is loaded, so write-side costs show.",
        "triples": 3000, "clients": 1, "loop": "closed",
        "sweep": "one write round (3 in 4 add two triples, 1 in 4 removes "
                 "an earlier addition) then the five templates",
    },
}

#: name, unit, better, bound (share of the parent's median).  Each bound
#: is about three times the widest spread (IQR / median over ten seeds)
#: the metric showed on any workload on a quiet machine when the
#: benchmark was defined — 0.044, 0.083, 0.051 and 0.030 below setup_s —
#: and above the widest seen on a busy one (0.064, 0.142, 0.105, 0.066).
#: The issue's 8-10 % cannot be held in this sandbox; README.md says why.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.15),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p90_ms", "ms", "lower", 0.20),
    ("peak_rss_mb", "MiB", "lower", 0.15),
]

_ALL = tuple(WORKLOADS)
_ENGINE = ("direct_mix", "served_miss")

#: name, unit, better, layer (module), moves (end-to-end metric or None),
#: on (workloads where the prediction applies; elsewhere: flat).
PER_LAYER = [
    # -- set-up cost and footprint ------------------------------------
    ("rdf.ntriples_parse_s", "s", "lower", "rdf.ntriples", "setup_s", _ALL),
    ("index.build_s", "s", "lower", "index.builder", "setup_s", _ALL),
    ("quotient.build_s", "s", "lower", "quotient.store", "setup_s",
     ("direct_mix", "served_hot", "served_miss")),
    ("sketch.build_s", "s", "lower", "sketch.store", None, ("served_miss",)),
    ("index.open_ms", "ms", "lower", "index.pathindex", "setup_s", _ALL),
    ("parallel.warm_workers_s", "s", "lower", "parallel", None,
     ("served_miss",)),
    ("index.bytes", "B", "lower", "index.pathindex", "peak_rss_mb", _ALL),
    ("quotient.bytes", "B", "lower", "quotient.store", "peak_rss_mb",
     ("direct_mix", "served_hot", "served_miss")),
    ("sketch.bytes", "B", "lower", "sketch.store", None, ("served_miss",)),
    ("index.paths", "count", "lower", "index.pathindex", "setup_s", _ALL),
    # Demoted from end-to-end: constant for a fixed corpus, so it cannot
    # carry a run-to-run bound.
    ("index_bytes_per_triple", "B/triple", "lower", "index.pathindex",
     None, _ALL),
    # -- serving path --------------------------------------------------
    ("rdf.sparql_parse_ms", "ms", "lower", "rdf.sparql", "query_p50_ms",
     ("served_hot",)),
    ("serving.canonical_ms", "ms", "lower", "serving.canonical",
     "query_p50_ms", ("served_hot",)),
    ("serving.cache_get_us", "us", "lower", "serving.cache", "query_p50_ms",
     ("served_hot",)),
    ("serving.serialise_ms", "ms", "lower", "serving.service",
     "query_p50_ms", ("served_hot",)),
    ("serving.aserve.http_overhead_ms", "ms", "lower", "serving.aserve",
     "queries_per_s", ("served_hot",)),
    ("serving.cache_hit_rate", "ratio", "higher", "serving.cache",
     "queries_per_s", ("served_hot",)),
    ("serving.singleflight_waiters", "count", "lower", "serving.aserve",
     "query_p90_ms", ("served_hot",)),
    ("serving.aserve.framing_closes", "count", "lower", "serving.aserve",
     "queries_per_s", ("served_hot",)),
    # Demoted from end-to-end: only served_hot has the >=1000 samples a
    # p99 needs, and every end-to-end metric must exist on every workload.
    ("query_p99_ms", "ms", "lower", "serving.aserve", None, ("served_hot",)),
    ("serving.service.overhead_ms", "ms", "lower", "serving.service",
     "query_p90_ms", ("served_miss",)),
    ("serving.cache_insertions", "count", "lower", "serving.cache",
     "queries_per_s", ("served_miss",)),
    ("serving.cache_evictions", "count", "lower", "serving.cache",
     "queries_per_s", ("served_miss",)),
    ("serving.shed", "count", "lower", "serving.service", "queries_per_s",
     ("served_miss",)),
    ("serving.cache_stale_dropped", "count", "lower", "serving.cache",
     "query_p50_ms", ("live_update",)),
    # -- engine --------------------------------------------------------
    ("engine.prepare_ms", "ms", "lower", "engine.preprocess",
     "query_p50_ms", _ENGINE),
    ("engine.cluster_ms", "ms", "lower", "engine.clustering",
     "query_p50_ms", _ENGINE + ("live_update",)),
    ("engine.search_ms", "ms", "lower", "engine.search", "query_p90_ms",
     _ENGINE),
    ("engine.cluster_share", "ratio", "lower", "engine.clustering",
     "queries_per_s", _ENGINE),
    ("engine.search_share", "ratio", "lower", "engine.search",
     "queries_per_s", _ENGINE),
    ("engine.cluster_entries", "count", "lower", "engine.clustering",
     "query_p50_ms", _ENGINE),
    ("engine.search_expansions", "count", "lower", "engine.search",
     "query_p90_ms", _ENGINE),
    ("engine.search_generated", "count", "lower", "engine.search",
     "query_p90_ms", _ENGINE),
    ("index.record_decodes", "count", "lower", "index.pathindex",
     "query_p50_ms", _ENGINE),
    ("storage.page_reads", "count", "lower", "storage.pagestore",
     "query_p50_ms", _ENGINE),
    ("storage.pool_hit_rate", "ratio", "higher", "storage.bufferpool",
     "query_p50_ms", _ENGINE),
    ("quotient.reps", "count", "lower", "quotient.resolve",
     "query_p50_ms", _ENGINE),
    ("quotient.members", "count", "higher", "quotient.resolve",
     "query_p50_ms", _ENGINE),
    ("quotient.share_rate", "ratio", "higher", "quotient.resolve",
     "query_p50_ms", _ENGINE),
    ("quotient.loaded", "bool", "higher", "quotient.resolve",
     "query_p50_ms", ("live_update",)),
    ("runtime.gc_ms_share", "ratio", "lower", "runtime", "queries_per_s",
     _ENGINE),
    ("runtime.gc_gen2_collections", "count", "lower", "runtime",
     "query_p90_ms", _ENGINE),
    # -- live updates (update_p50/p90 demoted from end-to-end: only
    # live_update writes) ---------------------------------------------
    ("update_p50_ms", "ms", "lower", "index.incremental", None,
     ("live_update",)),
    ("update_p90_ms", "ms", "lower", "index.incremental", None,
     ("live_update",)),
    ("index.update_add_ms", "ms", "lower", "index.incremental",
     "queries_per_s", ("live_update",)),
    ("index.update_remove_ms", "ms", "lower", "index.incremental",
     "queries_per_s", ("live_update",)),
    ("index.full_rebuilds", "count", "lower", "index.incremental",
     "queries_per_s", ("live_update",)),
    ("index.paths_invalidated", "count", "lower", "index.incremental",
     "queries_per_s", ("live_update",)),
    ("index.dead_bytes", "B", "lower", "index.incremental", "peak_rss_mb",
     ("live_update",)),
    # -- mode arms: one sweep of the 12 templates through
    # SamaEngine.clusters() on the LUBM 3000 index.  No workload enables
    # these modes, so they move no end-to-end metric today. -----------
    ("quotient.auto_cluster_ms", "ms", "lower", "quotient.resolve", None,
     ("served_miss",)),
    ("quotient.off_cluster_ms", "ms", "lower", "quotient.resolve", None,
     ("served_miss",)),
    ("sketch.safe_cluster_ms", "ms", "lower", "sketch.twostage", None,
     ("served_miss",)),
    ("sketch.pruned_ratio", "ratio", "higher", "sketch.twostage", None,
     ("served_miss",)),
    ("parallel.procs_cluster_ms", "ms", "lower", "parallel", None,
     ("served_miss",)),
    # -- the benchmark's own checks -----------------------------------
    ("bench.trace_overhead_ratio", "ratio", "lower", "bench", None, _ALL),
    ("bench.stepped_coverage", "ratio", "higher", "bench", None, _ALL),
    ("bench.engine_self_share", "ratio", "higher", "bench", None, _ALL),
    ("bench.serving_self_share", "ratio", "higher", "bench", None, _ALL),
    ("bench.spin_factor", "ratio", "lower", "bench", None, _ALL),
]


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": entry["why"]}
                      for name, entry in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": row[0], "unit": row[1], "better": row[2]}
                      for row in PER_LAYER],
    }
