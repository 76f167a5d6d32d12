"""The ``sama`` command-line interface.

The subcommands cover the offline/online split of §5 plus the serving
layer and utilities::

    sama generate lubm data.nt --triples 10000 --seed 1
    sama index build data.nt ./my-index
    sama index build data.nt ./my-index --shards 4
    sama index compact ./my-incremental-index
    sama index reshard ./my-index --shards 8
    sama index sketch ./my-index
    sama index quotient ./my-index
    sama query ./my-index -e 'SELECT ?s WHERE { ?s <http://...> ?o . }'
    sama query ./my-index --two-stage safe -e 'SELECT ...'
    sama profile ./my-index -e 'SELECT ...' --repeat 3
    sama serve ./my-index --port 8080
    sama inspect ./my-index

``sama query`` accepts SPARQL from a file or inline (``-e``), prints
the ranked answers with scores and bindings, and with ``--explain``
also renders the forest of paths (Fig. 4).  ``sama index`` groups the
offline maintenance verbs — ``build`` (``--shards N`` partitions the
paths across N self-contained shards), ``compact`` (vacuum an
incremental index), ``reshard`` (repartition an existing index),
``sketch`` (build the per-shard minhash sketches that power
``--two-stage`` retrieval) and ``quotient`` (group stored paths into
label-equality-pattern classes so queries align once per class; opt-in,
since ``build`` writes no ``quotient.bin``); the historical spelling
``sama index DATA DIR`` still works as an alias for ``build``.
``sama serve`` keeps one hot engine resident behind the JSON/HTTP API
of :mod:`repro.serving.aserve`.  ``sama profile`` answers one query
under a trace and prints the per-stage time/count breakdown
(DESIGN.md §9).
"""

from __future__ import annotations

import argparse
import sys

from .datasets.registry import DATASETS, dataset
from .engine.sama import EngineConfig, SamaEngine
from .evaluation.reporting import format_bytes, format_seconds
from .index.builder import build_index
from .index.sharded import open_index
from .parallel import worker_mode
from .paths.extraction import ExtractionLimits
from .rdf import ntriples, turtle
from .rdf.graph import DataGraph
from .resilience.errors import ParseError, QueryTimeout, ReproError


def _cmd_generate(args) -> int:
    spec = dataset(args.dataset)
    triples = args.triples or spec.default_triples
    graph = spec.build(triples, seed=args.seed)
    count = ntriples.write_file(graph.triples(), args.output)
    print(f"wrote {count} triples of {spec.name} to {args.output}")
    return 0


def _load_graph(path: str, fmt: "str | None") -> DataGraph:
    if fmt is None:
        fmt = "ttl" if path.endswith((".ttl", ".turtle")) else "nt"
    if fmt == "ttl":
        triples = turtle.parse_file(path)
    else:
        triples = ntriples.parse_file(path)
    return DataGraph.from_triples(triples, name=path)


def _quotient_pass(index) -> None:
    """Write ``quotient.bin`` beside every shard of ``index`` and say
    what it compressed."""
    from .quotient import QuotientIndex, build_quotients

    build_quotients(index)
    quotients = QuotientIndex.for_index(index)
    if quotients is not None:
        print(f"quotient: {quotients.path_count} paths in "
              f"{quotients.class_count} equivalence class(es) "
              f"({quotients.compression_ratio:.1f}x compression)")


def _cmd_index_build(args) -> int:
    graph = _load_graph(args.data, args.format)
    print(f"loaded {graph.edge_count()} triples, "
          f"{graph.node_count()} nodes from {args.data}")
    limits = ExtractionLimits(max_length=args.max_length,
                              max_paths=args.max_paths,
                              on_limit="truncate")
    index, stats = build_index(graph, args.index_dir, limits=limits,
                               shards=args.shards)
    if args.shards > 1:
        counts = ", ".join(str(shard.path_count) for shard in index.shards)
        print(f"partitioned into {index.shard_count} shards "
              f"({counts} paths)")
    index.close()
    print(f"indexed {stats.path_count} paths in "
          f"{format_seconds(stats.build_seconds)} "
          f"({format_bytes(stats.size_bytes)} on disk)")
    print(f"|HV| = {stats.hv_count}, |HE| = {stats.he_count}, "
          f"sources = {stats.source_count}, sinks = {stats.sink_count}")
    if stats.truncated:
        print("note: path extraction hit its budget and truncated "
              "(raise --max-paths / --max-length to extract more)")
    return 0


def _cmd_index_reshard(args) -> int:
    from .index.sharded import reshard
    from .index.sidecar import present
    from .quotient import QUOTIENT_FILE
    from .sketch import SKETCH_FILE

    # The rewrite renumbers every offset, so no sidecar survives it:
    # what the source carried decides what the destination is owed.
    had_quotient = present(args.index_dir, QUOTIENT_FILE)
    had_sketch = present(args.index_dir, SKETCH_FILE)
    index = reshard(args.index_dir, args.shards, output=args.output)
    try:
        destination = args.output or args.index_dir
        shards = getattr(index, "shards", [index])
        print(f"resharded {args.index_dir} -> {destination}: "
              f"{len(shards)} shard(s), {index.path_count} paths")
        for shard_no, shard in enumerate(shards):
            print(f"  shard {shard_no:02d}: {shard.path_count} paths")
        if had_quotient:
            _quotient_pass(index)
        if had_sketch:
            print(f"sketch files do not survive a reshard; rerun "
                  f"'sama index sketch {destination}' to rebuild")
    finally:
        index.close()
    return 0


def _cmd_index_compact(args) -> int:
    from .index.incremental import compact_directory

    report = compact_directory(args.index_dir)
    print(f"compacted {args.index_dir}: {report.live_paths} live paths kept")
    print(f"tombstoned records reclaimed: {format_bytes(report.dead_bytes)}")
    print(f"log: {format_bytes(report.old_log_bytes)} -> "
          f"{format_bytes(report.new_log_bytes)} "
          f"({format_bytes(report.reclaimed_bytes)} reclaimed on disk)")
    if report.sketches_invalidated:
        print(f"invalidated {report.sketches_invalidated} stale sketch "
              f"file(s); rerun 'sama index sketch' to rebuild")
    if report.quotients_invalidated:
        print(f"invalidated {report.quotients_invalidated} stale quotient "
              f"file(s); rerun 'sama index quotient' to rebuild")
    return 0


def _cmd_index_sketch(args) -> int:
    from .sketch import SketchParams, build_sketches

    params = SketchParams(seed=args.seed, num_perm=args.num_perm,
                          bands=args.bands)
    index = open_index(args.index_dir)
    try:
        written = build_sketches(index, params=params)
        for path in written:
            print(f"wrote {path}")
        print(f"sketched {index.path_count} paths across "
              f"{len(written)} file(s) "
              f"({params.num_perm} permutations, {params.bands} bands, "
              f"seed {params.seed})")
        return 0
    finally:
        index.close()


def _cmd_index_quotient(args) -> int:
    from .quotient import QuotientIndex, build_quotients

    index = open_index(args.index_dir)
    try:
        written = build_quotients(index)
        for path in written:
            print(f"wrote {path}")
        quotients = QuotientIndex.for_index(index)
        if quotients is None:
            print("no quotient files could be loaded back", file=sys.stderr)
            return 3
        print(f"quotiented {quotients.path_count} paths into "
              f"{quotients.class_count} equivalence class(es) across "
              f"{len(written)} file(s) "
              f"({quotients.compression_ratio:.1f}x compression)")
        return 0
    finally:
        index.close()


def _parse_workers(raw: str) -> "tuple[int, str | None]":
    """Decode ``serve --workers`` into ``(serving_workers,
    worker_mode)``: a count of concurrent query workers, or ``procs``
    (default serving concurrency, shards scored in worker processes)."""
    value = raw.strip()
    try:
        return int(value), None
    except ValueError:
        pass
    try:
        return 4, worker_mode(value)
    except ValueError as exc:
        raise SystemExit(f"error: --workers: {exc}") from None


def _cmd_serve(args) -> int:
    import gc
    import signal
    import threading

    from .serving import ServingConfig, ServingEngine
    from .serving.aserve import serve_async

    serving_workers, shard_mode = _parse_workers(args.workers)
    config = EngineConfig(matcher_level=args.matcher,
                          worker_mode=shard_mode,
                          two_stage=args.two_stage,
                          recall_target=args.recall_target,
                          quotient=args.quotient)
    # recover=True: a sharded index with damaged shards opens anyway,
    # the damage quarantined on the health board — the server answers
    # degraded from the surviving shards instead of refusing to start.
    engine = SamaEngine.open(args.index_dir, config=config, recover=True)
    # Procs mode: pay worker spawn + columnar build at startup, not on
    # the first query a client sends.
    engine.warm_workers()
    health = getattr(engine.index, "health", None)
    if health is not None and health.degraded:
        quarantined = health.failed_shards()
        print(f"warning: serving degraded — shard(s) "
              f"{','.join(str(s) for s in quarantined)} quarantined by the "
              f"recovery scan (see /healthz and /stats)", file=sys.stderr)
    serving = ServingEngine(engine, ServingConfig(
        workers=serving_workers,
        max_queue=args.max_queue,
        cache_bytes=args.cache_mb * (1 << 20),
        default_k=args.k,
        default_deadline_ms=args.deadline_ms,
        queue_deadline_ms=args.queue_deadline_ms,
        slow_query_ms=args.slow_query_ms,
        slow_query_log=args.slow_query_log))
    api_keys = (set(filter(None, args.api_keys.split(",")))
                if args.api_keys else None)
    server = serve_async(
        serving, host=args.host, port=args.port,
        max_connections=args.max_connections,
        tenant_rate=args.tenant_rate, tenant_burst=args.tenant_burst,
        api_keys=api_keys, verbose=args.verbose)
    # Bind now so the printed URL shows the real port (port=0 picks
    # a free one); serve_forever below just blocks.
    server.serve_background()
    mode_note = f", shard workers: {shard_mode}" if shard_mode else ""
    quota_note = (f", quota {args.tenant_rate:g}/s×{args.tenant_burst:g}"
                  if args.tenant_rate is not None else "")
    print(f"serving {args.index_dir} on {server.url} "
          f"(asyncio front end, {serving_workers} workers"
          f"{mode_note}, queue {args.max_queue}, "
          f"cache {args.cache_mb} MiB{quota_note})")
    print("endpoints: POST /query, GET /healthz, GET /stats, "
          "GET /metrics  (Ctrl-C to stop, SIGTERM to drain)")
    # The serving stack lives until exit too: keep the cyclic GC from
    # re-walking it per request (SamaEngine.open froze the index).
    gc.collect()
    gc.freeze()

    drain_s = (args.drain_deadline_ms / 1000.0
               if args.drain_deadline_ms is not None else None)
    state: dict = {"drainer": None}

    def _drain_and_stop(signum, frame):
        # The handler must return promptly (it runs on the main thread,
        # which serve_forever needs back to see the stop), so the
        # drain runs on a helper thread: admission flips to 503
        # immediately, in-flight requests get drain_s to finish, then
        # the listener stops and serve_forever returns below.
        if state["drainer"] is not None:
            return
        print(f"\nSIGTERM: draining (deadline "
              f"{drain_s:g}s)" if drain_s is not None
              else "\nSIGTERM: draining", file=sys.stderr)
        state["drainer"] = threading.Thread(
            target=lambda: server.graceful_shutdown(drain_s),
            name="sama-drain", daemon=True)
        state["drainer"].start()

    previous = signal.signal(signal.SIGTERM, _drain_and_stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        if state["drainer"] is not None:
            state["drainer"].join(timeout=30)
        else:
            server.shutdown()
    return 0


def _cmd_query(args) -> int:
    if args.expression:
        text = args.expression
    elif args.query_file:
        with open(args.query_file, encoding="utf-8") as handle:
            text = handle.read()
    else:
        print("error: provide a query file or -e 'SELECT ...'",
              file=sys.stderr)
        return 2
    config = EngineConfig(matcher_level=args.matcher,
                          two_stage=args.two_stage,
                          recall_target=args.recall_target,
                          quotient=args.quotient)
    engine = SamaEngine.open(args.index_dir, config=config)
    try:
        if args.two_stage != "off" and engine.sketch_filter() is None:
            print("note: no usable sketches found (run 'sama index "
                  "sketch' first); falling back to exhaustive recall",
                  file=sys.stderr)
        if args.explain:
            print(engine.explain(text).render())
            print()
        # Without --partial-ok a tripped deadline is an error (exit 4,
        # handled in main); with it, whatever was found gets printed
        # along with the machine-readable degradation reasons.
        on_budget = "partial" if args.partial_ok else "raise"
        answers = engine.query(text, k=args.k,
                               deadline_ms=args.deadline_ms,
                               on_budget=on_budget)
        if answers.degraded:
            for reason in answers.reasons:
                print(f"partial: {reason}", file=sys.stderr)
        if not answers:
            print("no answers")
            return 1
        for rank, answer in enumerate(answers, start=1):
            print(f"#{rank} score={answer.score:.3f} "
                  f"(Λ={answer.quality:.3f}, Ψ={answer.conformity:.3f})"
                  f"{' exact' if answer.is_exact else ''}")
            bindings = answer.substitution()
            for variable in sorted(bindings, key=lambda v: v.value):
                print(f"    ?{variable.value} = {bindings[variable]}")
            if args.verbose:
                for query_path, entry in zip(answer.query_paths,
                                             answer.entries):
                    target = entry.path if entry else "(uncovered)"
                    print(f"    {query_path}  ->  {target}")
        return 0
    finally:
        engine.close()


def _cmd_profile(args) -> int:
    import time as _time

    from .obs import start_trace

    if args.expression:
        text = args.expression
    elif args.query_file:
        with open(args.query_file, encoding="utf-8") as handle:
            text = handle.read()
    else:
        print("error: provide a query file or -e 'SELECT ...'",
              file=sys.stderr)
        return 2
    config = EngineConfig(matcher_level=args.matcher)
    engine = SamaEngine.open(args.index_dir, config=config)
    try:
        io = engine.index.io_stats
        pool = engine.index.cache_stats
        reads0, read_s0 = io.page_reads, io.read_seconds
        hits0, misses0 = pool.hits, pool.misses
        decodes0 = engine.index.decode_count

        answers = None
        started = _time.perf_counter()
        with start_trace() as trace:
            for _ in range(args.repeat):
                if args.cold:
                    engine.cold_cache()
                answers = engine.query(text, k=args.k,
                                       deadline_ms=args.deadline_ms)
        wall = _time.perf_counter() - started

        condition = "cold cache each run" if args.cold else "shared cache"
        print(f"profiled {args.repeat} run(s) on {args.index_dir} "
              f"(k={args.k}, {condition})")
        print()
        print(f"{'stage':<12} {'calls':>6} {'total ms':>10} "
              f"{'ms/call':>9} {'% wall':>7}")
        depths = {}
        for record in trace.records:
            depths.setdefault(record.name, record.depth)
        last = engine.last_result
        for name, calls, seconds in trace.breakdown():
            label = "  " * depths.get(name, 0) + name
            share = 100.0 * seconds / wall if wall else 0.0
            effort = ""
            if name == "search" and last is not None:
                effort = (f"  [{last.expansions} expansions, "
                          f"{last.candidate_lists} candidate lists "
                          f"(+{last.candidate_cache_hits} shared), "
                          f"{last.psi_evaluations} psi pairs priced]")
            print(f"{label:<12} {calls:>6} {seconds * 1000:>10.2f} "
                  f"{seconds * 1000 / calls:>9.2f} {share:>6.1f}%{effort}")
        accounted = trace.total_seconds
        print(f"{'(untraced)':<12} {'':>6} "
              f"{(wall - accounted) * 1000:>10.2f} {'':>9} "
              f"{100.0 * (wall - accounted) / wall if wall else 0.0:>6.1f}%")
        print(f"{'wall':<12} {'':>6} {wall * 1000:>10.2f}")
        print()
        print(f"storage: {io.page_reads - reads0} page reads "
              f"({io.read_seconds - read_s0:.4f} s), "
              f"pool {pool.hits - hits0} hits / "
              f"{pool.misses - misses0} misses, "
              f"{engine.index.decode_count - decodes0} records decoded")
        if answers is not None:
            best = f", best score {answers[0].score:.3f}" if answers else ""
            print(f"answers: {len(answers)}{best}")
            if answers.degraded:
                for reason in answers.reasons:
                    print(f"partial: {reason}", file=sys.stderr)
        return 0
    finally:
        engine.close()


def _cmd_inspect(args) -> int:
    import os

    from .index.sharded import shard_dir

    index = open_index(args.index_dir)
    try:
        print(f"index: {args.index_dir}")
        for key, value in sorted(index.metadata.items()):
            print(f"  {key}: {value}")
        print(f"  paths: {index.path_count}")
        if getattr(index, "is_sharded", False):
            # The shard count is printed with the metadata above.
            for shard_no, shard in enumerate(index.shards):
                log = os.path.join(shard_dir(args.index_dir, shard_no),
                                   "paths.log")
                size = (format_bytes(os.path.getsize(log))
                        if os.path.exists(log) else "?")
                print(f"  shard {shard_no:02d}: {shard.path_count} paths, "
                      f"{size} on disk")
        log_path = os.path.join(args.index_dir, "paths.log")
        if os.path.exists(log_path):
            print(f"  on disk: {format_bytes(os.path.getsize(log_path))}")
        if args.sample:
            print("sample paths:")
            for offset in index.all_offsets()[:args.sample]:
                print(f"  {index.path_at(offset)}")
        return 0
    finally:
        index.close()


def _non_negative_ms(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value:g}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sama",
        description="Approximate querying over RDF via path alignment "
                    "(EDBT 2013 reproduction).")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate",
                              help="generate a benchmark dataset")
    generate.add_argument("dataset", choices=sorted(DATASETS))
    generate.add_argument("output", help="output .nt file")
    generate.add_argument("--triples", type=int, default=None)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    index = sub.add_parser(
        "index", help="build and maintain path indexes "
                      "(build / compact / reshard)")
    index_sub = index.add_subparsers(dest="index_command", required=True)

    index_build = index_sub.add_parser(
        "build", help="build a path index from RDF data")
    index_build.add_argument("data", help="input .nt or .ttl file")
    index_build.add_argument("index_dir", help="directory for the index")
    index_build.add_argument("--format", choices=["nt", "ttl"], default=None)
    index_build.add_argument("--max-paths", type=int, default=200_000)
    index_build.add_argument("--max-length", type=int, default=32)
    index_build.add_argument("--shards", type=_positive_int, default=1,
                             help="partition the paths across N "
                                  "self-contained shards (default 1 = "
                                  "plain unsharded index)")
    index_build.set_defaults(func=_cmd_index_build)

    index_compact = index_sub.add_parser(
        "compact", help="vacuum an incremental index directory")
    index_compact.add_argument("index_dir")
    index_compact.set_defaults(func=_cmd_index_compact)

    index_reshard = index_sub.add_parser(
        "reshard", help="repartition an existing index to a new "
                        "shard count")
    index_reshard.add_argument("index_dir",
                               help="existing index (sharded or plain)")
    index_reshard.add_argument("--shards", type=_positive_int,
                               required=True,
                               help="target shard count (1 = plain "
                                    "unsharded index)")
    index_reshard.add_argument("--output", default=None,
                               help="write the repartitioned index here "
                                    "instead of replacing in place")
    index_reshard.set_defaults(func=_cmd_index_reshard)

    index_sketch = index_sub.add_parser(
        "sketch", help="build (or rebuild) the per-shard minhash "
                       "sketches for two-stage retrieval")
    index_sketch.add_argument("index_dir",
                              help="existing index (sharded or plain)")
    index_sketch.add_argument("--num-perm", type=int, default=32,
                              help="minhash permutations per signature "
                                   "(default 32)")
    index_sketch.add_argument("--bands", type=int, default=8,
                              help="LSH bands; must divide --num-perm "
                                   "(default 8)")
    index_sketch.add_argument("--seed", type=int, default=2013,
                              help="hash seed; queries recompute "
                                   "signatures with the same seed "
                                   "(default 2013)")
    index_sketch.set_defaults(func=_cmd_index_sketch)

    index_quotient = index_sub.add_parser(
        "quotient", help="build (or rebuild) the per-shard equivalence "
                         "classes for opt-in quotient-compressed "
                         "scoring")
    index_quotient.add_argument("index_dir",
                                help="existing index (sharded or plain)")
    index_quotient.set_defaults(func=_cmd_index_quotient)

    query = sub.add_parser("query", help="run a SPARQL query on an index")
    query.add_argument("index_dir")
    query.add_argument("query_file", nargs="?", default=None,
                       help="file with a SPARQL SELECT query")
    query.add_argument("-e", "--expression", default=None,
                       help="inline SPARQL text")
    query.add_argument("-k", type=_positive_int, default=10)
    query.add_argument("--matcher", choices=["exact", "lexical", "semantic"],
                       default="semantic")
    query.add_argument("--explain", action="store_true",
                       help="print the forest of paths first")
    query.add_argument("-v", "--verbose", action="store_true",
                       help="show per-path alignments")
    query.add_argument("--deadline-ms", type=_non_negative_ms, default=None,
                       help="wall-clock budget for the query in ms")
    query.add_argument("--partial-ok", action="store_true",
                       help="when the deadline trips, print the answers "
                            "found so far instead of failing")
    query.add_argument("--two-stage", choices=["off", "safe", "approx"],
                       default="off",
                       help="sketch-based candidate recall before exact "
                            "scoring: 'safe' never changes rankings, "
                            "'approx' trades recall for speed (needs "
                            "'sama index sketch' first)")
    query.add_argument("--recall-target", type=float, default=0.95,
                       help="target recall for --two-stage approx "
                            "(default 0.95)")
    query.add_argument("--quotient", choices=["auto", "off"],
                       default="auto",
                       help="score once per stored-path equivalence class "
                            "when quotient.bin files match the index "
                            "epoch ('auto', the default; rankings are "
                            "bit-identical) or never load them ('off')")
    query.set_defaults(func=_cmd_query)

    profile = sub.add_parser(
        "profile", help="answer a query and print the per-stage "
                        "time/count breakdown")
    profile.add_argument("index_dir")
    profile.add_argument("query_file", nargs="?", default=None,
                         help="file with a SPARQL SELECT query")
    profile.add_argument("-e", "--expression", default=None,
                         help="inline SPARQL text")
    profile.add_argument("-k", type=_positive_int, default=10)
    profile.add_argument("--matcher",
                         choices=["exact", "lexical", "semantic"],
                         default="semantic")
    profile.add_argument("--repeat", type=int, default=1,
                         help="run the query N times and aggregate "
                              "(default 1)")
    profile.add_argument("--cold", action="store_true",
                         help="clear the buffer pool and decoded-path "
                              "cache before each run (cold-cache "
                              "attribution)")
    profile.add_argument("--deadline-ms", type=_non_negative_ms,
                         default=None,
                         help="wall-clock budget for each run in ms")
    profile.set_defaults(func=_cmd_profile)

    serve = sub.add_parser("serve",
                           help="serve an index over JSON/HTTP")
    serve.add_argument("index_dir")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--workers", default="4", metavar="N|procs",
                       help="concurrent query workers (default 4; shards "
                            "score in-process), or 'procs' to score each "
                            "shard in a worker process")
    serve.add_argument("--max-queue", type=int, default=8,
                       help="admitted requests allowed to wait beyond the "
                            "busy workers; anything more is shed (503)")
    serve.add_argument("--cache-mb", type=int, default=64,
                       help="result cache budget in MiB (0 disables)")
    serve.add_argument("-k", type=_positive_int, default=10,
                       help="default top-k per request")
    serve.add_argument("--deadline-ms", type=_non_negative_ms, default=None,
                       help="default per-request deadline")
    serve.add_argument("--queue-deadline-ms", type=_non_negative_ms,
                       default=None,
                       help="deadline forced onto requests that have to "
                            "wait for a worker (degrade under pressure)")
    serve.add_argument("--slow-query-ms", type=_non_negative_ms,
                       default=None,
                       help="log requests slower than this as JSON lines "
                            "(with a per-stage breakdown)")
    serve.add_argument("--slow-query-log", default=None,
                       help="slow-query log file (default: stderr)")
    serve.add_argument("--matcher", choices=["exact", "lexical", "semantic"],
                       default="semantic")
    serve.add_argument("--two-stage", choices=["off", "safe", "approx"],
                       default="off",
                       help="sketch-based candidate recall before exact "
                            "scoring (cache keys include the mode, so "
                            "staged and exhaustive results never alias)")
    serve.add_argument("--recall-target", type=float, default=0.95,
                       help="target recall for --two-stage approx "
                            "(default 0.95)")
    serve.add_argument("--quotient", choices=["auto", "off"],
                       default="auto",
                       help="quotient-compressed scoring when persisted "
                            "quotient.bin files match the index epoch "
                            "(default auto; compression shows on /stats)")
    serve.add_argument("--frontend", choices=["asyncio"], default="asyncio",
                       help="the one HTTP front end (event loop with "
                            "keep-alive, single-flight coalescing of "
                            "identical in-flight queries, and per-tenant "
                            "quotas); the flag does nothing and is parsed "
                            "only because benchmarks/e2e passes it")
    serve.add_argument("--max-connections", type=int, default=1024,
                       help="concurrent connections before new ones are "
                            "refused with 503 (default 1024)")
    serve.add_argument("--tenant-rate", type=float, default=None,
                       help="per-tenant admission rate "
                            "in requests/second (token bucket keyed by "
                            "X-API-Key; over-quota requests get 429 + "
                            "Retry-After; default: no quota)")
    serve.add_argument("--tenant-burst", type=float, default=10.0,
                       help="token-bucket burst capacity per tenant "
                            "(default 10)")
    serve.add_argument("--api-keys", default=None,
                       help="comma-separated allow-list of API keys; "
                            "requests with any other key are refused "
                            "(default: every key is its own tenant)")
    serve.add_argument("--drain-deadline-ms", type=_non_negative_ms,
                       default=10_000.0,
                       help="on SIGTERM, seconds*1000 granted to in-flight "
                            "requests before the listener stops "
                            "(default 10000)")
    serve.add_argument("-v", "--verbose", action="store_true",
                       help="log each HTTP request")
    serve.set_defaults(func=_cmd_serve)

    inspect = sub.add_parser("inspect", help="show index metadata")
    inspect.add_argument("index_dir")
    inspect.add_argument("--sample", type=int, default=0,
                         help="print the first N stored paths")
    inspect.set_defaults(func=_cmd_inspect)
    return parser


#: ``sama index`` verbs; anything else in that position is data (the
#: historical ``sama index DATA DIR`` spelling, kept as a build alias).
_INDEX_VERBS = frozenset({"build", "compact", "reshard", "sketch",
                          "quotient"})


def main(argv: "list[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if (len(argv) >= 2 and argv[0] == "index"
            and argv[1] not in _INDEX_VERBS
            and not argv[1].startswith("-")):
        argv.insert(1, "build")
    args = build_parser().parse_args(argv)
    # Structured errors become one-line diagnostics, never tracebacks:
    # exit 2 for bad input, 4 for a tripped budget, 3 for the rest.
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc.one_line()}", file=sys.stderr)
        return 2
    except QueryTimeout as exc:
        print(f"error: {exc} (rerun with --partial-ok to accept "
              f"partial answers)", file=sys.stderr)
        return 4
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
